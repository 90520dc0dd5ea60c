import math

import numpy as np
import pytest
from cf_reference import sts_cf2

from cvgauss import (
    DimensionMismatch,
    DomainError,
    DstsParams,
    TruncationWarning,
    TwoModeStsParams,
    dsts_dm,
    dsts_to_cf,
    eval_cf1,
    sts2_dm,
    thermal_dm,
    trace_product,
    uhlmann_fidelity_numeric,
    von_neumann_entropy,
)
from cvgauss import fock
from cvgauss.fock import (
    FockDensityMatrix,
    annihilation,
    cf2_numeric,
    cf_numeric,
    displacement_matrix,
    mean_photon_number,
    reduced_dm,
    squeeze_matrix,
    two_mode_squeeze_matrix,
    unitarity_defect,
)
from cvgauss.validate import random_dsts


# --- thermal states ------------------------------------------------------------

def test_thermal_vacuum_is_projector():
    r = thermal_dm(0.0, 5)
    expected = np.zeros((5, 5))
    expected[0, 0] = 1.0
    assert np.allclose(r.matrix, expected)
    assert r.tail_mass == 0.0


def test_thermal_truncated_geometric():
    r = thermal_dm(1.0, 2)
    assert np.allclose(np.diag(r.matrix).real, [0.5, 0.25])
    assert r.tail_mass == pytest.approx(0.25)


def test_thermal_tail_bound():
    r = thermal_dm(1.0, 45)
    assert r.tail_mass < 1e-12
    assert abs(1.0 - r.matrix.trace().real) < 1e-12


def test_thermal_domain():
    with pytest.raises(DomainError):
        thermal_dm(-0.5, 10)
    with pytest.raises(DomainError):
        thermal_dm(0.5, 0)


# --- displacement / squeeze matrices ---------------------------------------------

def test_zero_parameter_operators_are_identity():
    assert np.allclose(displacement_matrix(0j, 12), np.eye(12))
    assert np.allclose(squeeze_matrix(0.0, 0.7, 12), np.eye(12))
    assert np.allclose(two_mode_squeeze_matrix(0.0, 0.7, 4), np.eye(16))


def test_displaced_vacuum_is_poissonian():
    alpha = 0.8 - 0.3j
    dim = 40
    col = displacement_matrix(alpha, dim)[:, 0]
    n = np.arange(dim)
    factorials = np.concatenate(([1.0], np.cumprod(np.arange(1, dim, dtype=float))))
    expected = np.exp(-abs(alpha) ** 2) * abs(alpha) ** (2 * n) / factorials
    assert np.allclose(np.abs(col) ** 2, expected, atol=1e-12)


def test_squeezed_vacuum_has_even_parity():
    col = squeeze_matrix(0.7, 0.0, 41)[:, 0]
    assert np.allclose(col[1::2], 0.0, atol=1e-14)
    assert abs(col[2]) > 0.1


def test_unitarity_defect_small_far_from_cutoff():
    assert unitarity_defect(displacement_matrix(0.5 + 0.2j, 40)) < 1e-10
    assert unitarity_defect(squeeze_matrix(0.5, 1.0, 80)) < 1e-8


def test_two_mode_squeeze_blockwise_equals_generator_exponential():
    from scipy.linalg import expm

    dim, r, phi = 10, 0.6, 0.8
    a = annihilation(dim)
    gen = r * (np.exp(1j * phi) * np.kron(a.conj().T, a.conj().T)
               - np.exp(-1j * phi) * np.kron(a, a))
    assert np.allclose(two_mode_squeeze_matrix(r, phi, dim), expm(gen), atol=1e-12)


@pytest.mark.parametrize("dim", [12, 41, 80])
def test_squeeze_blockwise_equals_generator_exponential(dim):
    from scipy.linalg import expm

    r, phi = 0.9, -0.7
    a = annihilation(dim)
    ad = a.conj().T
    gen = 0.5 * r * (np.exp(1j * phi) * ad @ ad - np.exp(-1j * phi) * a @ a)
    assert np.abs(squeeze_matrix(r, phi, dim) - expm(gen)).max() < 1e-12


# --- one-mode density matrices -----------------------------------------------------

def test_dsts_vacuum_projector():
    r = dsts_dm(DstsParams(0.0), 10)
    expected = np.zeros((10, 10))
    expected[0, 0] = 1.0
    assert np.allclose(r.matrix, expected, atol=1e-14)


def test_dsts_mean_photon_number():
    rng = np.random.default_rng(601)
    for _ in range(5):
        p = random_dsts(rng, nbar_max=1.0, r_max=0.8)
        expected = p.nbar * math.cosh(2 * p.r) + math.sinh(p.r) ** 2 + abs(p.alpha) ** 2
        assert mean_photon_number(dsts_dm(p, 120)) == pytest.approx(expected, abs=1e-8)


def test_dsts_cf_matches_closed_form():
    rng = np.random.default_rng(607)
    p = DstsParams(0.4, 0.5, -1.2, 0.3 + 0.4j)
    rho = dsts_dm(p, 100)
    g = dsts_to_cf(p)
    for _ in range(20):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(cf_numeric(rho, lam) - eval_cf1(g, lam)) < 1e-6


def test_truncation_warning_for_hot_state():
    with pytest.warns(TruncationWarning):
        dsts_dm(DstsParams(5.0), 8)


def test_auto_dim_selection():
    r = dsts_dm(DstsParams(0.2, 0.3, alpha=0.1j))
    assert r.tail_mass < 1e-6
    assert r.dim <= 256


def test_caps_apply_to_explicit_dimensions(monkeypatch):
    assert dsts_dm(DstsParams(0.2, 0.3), fock.MAX_DIM_ONE_MODE + 44).dim == fock.MAX_DIM_ONE_MODE
    # a small cap keeps the two-mode build cheap; the builder reads it per call
    monkeypatch.setattr(fock, "MAX_DIM_PER_MODE", 6)
    with pytest.warns(TruncationWarning):
        assert sts2_dm(TwoModeStsParams(0.5, 0.5, 0.5), 10).dim == 6


# --- two-mode density matrices ------------------------------------------------------

def test_sts2_no_squeezing_is_thermal_product():
    r = sts2_dm(TwoModeStsParams(0.5, 0.2, 0.0), 16)
    expected = np.kron(thermal_dm(0.5, 16).matrix, thermal_dm(0.2, 16).matrix)
    assert np.allclose(r.matrix, expected, atol=1e-14)


@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
@pytest.mark.parametrize("dim", [6, 9, 12])
def test_sts2_sectorwise_equals_dense_conjugation(dim):
    p = TwoModeStsParams(0.3, 0.6, 0.7, -1.1)
    s = two_mode_squeeze_matrix(p.r, p.phi, dim)
    thermal = np.kron(thermal_dm(p.nbar1, dim).matrix, thermal_dm(p.nbar2, dim).matrix)
    dense = s @ thermal @ s.conj().T
    assert np.abs(sts2_dm(p, dim).matrix - dense).max() < 1e-14


def test_sts2_pure_state_purity():
    r = sts2_dm(TwoModeStsParams(0.0, 0.0, 0.8), 24)
    assert trace_product(r, r) == pytest.approx(1.0, abs=1e-8)


def test_sts2_reduced_mean_photon_matches_invariant():
    p = TwoModeStsParams(0.3, 0.1, 0.6)
    r = sts2_dm(p, 30)
    n1 = (p.nbar1 + 0.5) * math.cosh(p.r) ** 2 + (p.nbar2 + 0.5) * math.sinh(p.r) ** 2 - 0.5
    n2 = (p.nbar2 + 0.5) * math.cosh(p.r) ** 2 + (p.nbar1 + 0.5) * math.sinh(p.r) ** 2 - 0.5
    assert mean_photon_number(r, 0) == pytest.approx(n1, abs=1e-7)
    assert mean_photon_number(r, 1) == pytest.approx(n2, abs=1e-7)


def test_sts2_cf_matches_closed_form():
    p = TwoModeStsParams(0.2, 0.4, 0.5, 0.9)
    rho = sts2_dm(p, 20)
    rng = np.random.default_rng(613)
    for _ in range(6):
        l1 = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        l2 = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        assert abs(cf2_numeric(rho, l1, l2) - sts_cf2(p, l1, l2)) < 1e-6


@pytest.mark.slow
def test_sts2_eigenvalues_match_thermal_spectrum():
    # the squeeze conjugation leaves the two-mode thermal spectrum invariant
    n1, n2 = 0.3, 0.2
    r = sts2_dm(TwoModeStsParams(n1, n2, 0.4), 40)
    numeric = np.sort(np.linalg.eigvalsh(r.matrix))[::-1]
    k, li = np.meshgrid(np.arange(40), np.arange(40), indexing="ij")
    analytic = np.sort((n1 ** k * n2 ** li
                        / (n1 + 1.0) ** (k + 1) / (n2 + 1.0) ** (li + 1)).ravel())[::-1]
    block = 28  # number of (k, l) pairs with k + l <= 6
    assert np.allclose(numeric[:block], analytic[:block], atol=1e-8)


def test_sts2_psd_within_tolerance():
    r = sts2_dm(TwoModeStsParams(0.4, 0.1, 0.7), 16)
    assert r.min_eigenvalue() >= -1e-10


# --- fidelity / traces / entropy ------------------------------------------------------

def test_numeric_fidelity_with_itself():
    rho = dsts_dm(DstsParams(0.7, 0.3, 0.2, 0.1j), 80)
    assert uhlmann_fidelity_numeric(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_numeric_fidelity_vacuum_vs_thermal():
    for nbar in (0.5, 1.0, 2.0):
        f = uhlmann_fidelity_numeric(thermal_dm(0.0, 150), thermal_dm(nbar, 150))
        assert f == pytest.approx(1.0 / (nbar + 1.0), abs=1e-10)


def test_numeric_fidelity_symmetric_and_bounded():
    rng = np.random.default_rng(617)
    for _ in range(3):
        r1 = dsts_dm(random_dsts(rng, nbar_max=1.0), 90)
        r2 = dsts_dm(random_dsts(rng, nbar_max=1.0), 90)
        f12 = uhlmann_fidelity_numeric(r1, r2)
        f21 = uhlmann_fidelity_numeric(r2, r1)
        assert abs(f12 - f21) < 1e-10
        assert 0.0 <= f12 <= 1.0 + 1e-10


def _dense_uhlmann(r1, r2):
    """Whole-matrix reference for uhlmann_fidelity_numeric."""
    w, u = np.linalg.eigh(r1.matrix)
    sqrt1 = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    inner = sqrt1 @ r2.matrix @ sqrt1
    ev = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    return float(np.sum(np.sqrt(np.clip(ev, 0.0, None))) ** 2)


# hot states at small dims keep every eigenvalue far above roundoff, where the
# square roots of the two routes agree to the last digits; the cases cover
# n1 - n2 blocks, a diagonal pattern, parity blocks and one dense block
@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
@pytest.mark.parametrize("pair", [
    lambda: (sts2_dm(TwoModeStsParams(1.5, 2.0, 0.4, 0.3), 8),
             sts2_dm(TwoModeStsParams(2.5, 1.0, 0.2, -1.0), 8)),
    lambda: (thermal_dm(2.0, 20), thermal_dm(3.0, 20)),
    lambda: (dsts_dm(DstsParams(2.0, 0.3, 0.5), 16), dsts_dm(DstsParams(3.0, 0.2, -1.0), 16)),
    lambda: (dsts_dm(DstsParams(2.0, 0.3, 0.5, 0.2 + 0.1j), 16),
             dsts_dm(DstsParams(3.0, 0.2, -1.0, -0.1j), 16)),
], ids=["sts", "thermal", "squeezed", "displaced"])
def test_numeric_fidelity_blockwise_equals_dense(pair):
    r1, r2 = pair()
    f12 = uhlmann_fidelity_numeric(r1, r2)
    assert abs(f12 - _dense_uhlmann(r1, r2)) < 1e-12
    assert f12 == uhlmann_fidelity_numeric(r2, r1)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        uhlmann_fidelity_numeric(thermal_dm(0.5, 10), thermal_dm(0.5, 12))
    with pytest.raises(DimensionMismatch):
        trace_product(thermal_dm(0.5, 10), thermal_dm(0.5, 12))


def test_thermal_purity():
    r = thermal_dm(1.0, 200)
    assert trace_product(r, r) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_thermal_entropy_closed_form():
    for nbar in (0.3, 1.0, 2.5):
        expected = (nbar + 1) * math.log(nbar + 1) - nbar * math.log(nbar)
        assert von_neumann_entropy(thermal_dm(nbar, 220)) == pytest.approx(expected, abs=1e-8)


def test_pure_state_entropy_vanishes():
    rho = dsts_dm(DstsParams(0.0, 0.6, 0.2, 0.3 + 0j), 90)
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-8)


def test_oracle_converges_with_dimension():
    p1 = DstsParams(0.6, 0.5, 0.3, 0.4 + 0.2j)
    p2 = DstsParams(0.2, 0.8, -0.9, -0.3 + 0.5j)
    dms = {d: (dsts_dm(p1, d), dsts_dm(p2, d)) for d in (40, 80, 120)}
    for quantity in (
        lambda d: uhlmann_fidelity_numeric(*dms[d]),
        lambda d: trace_product(*dms[d]),
        lambda d: von_neumann_entropy(dms[d][0]),
    ):
        coarse, mid, fine = (quantity(d) for d in (40, 80, 120))
        assert abs(mid - fine) <= abs(coarse - fine) + 1e-9


# --- misc plumbing ---------------------------------------------------------------------

def test_reduced_dm_of_product():
    r = sts2_dm(TwoModeStsParams(0.7, 0.2, 0.0), 24)
    assert np.allclose(reduced_dm(r, 0).matrix, thermal_dm(0.7, 24).matrix, atol=1e-12)
    assert np.allclose(reduced_dm(r, 1).matrix, thermal_dm(0.2, 24).matrix, atol=1e-12)


def test_density_matrix_validation():
    with pytest.raises(Exception):
        FockDensityMatrix(dim=4, modes=1, matrix=np.eye(3, dtype=complex), tail_mass=0.0)
    mat = np.eye(4, dtype=complex) / 4.0
    mat[0, 1] = 0.5  # not Hermitian
    with pytest.raises(Exception):
        FockDensityMatrix(dim=4, modes=1, matrix=mat, tail_mass=0.0)
    with pytest.raises(Exception):
        FockDensityMatrix(dim=4, modes=1, matrix=np.eye(4, dtype=complex) / 8.0, tail_mass=0.0)
