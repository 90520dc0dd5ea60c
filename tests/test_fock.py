import logging
import math
import warnings
from contextlib import nullcontext
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from cf_reference import eval_cf1, sts_cf2
from fock_reference import (
    cf2_numeric,
    cf_numeric,
    dsts_reference,
    mean_photon_number,
    reduced_dm,
    sts2_reference,
    thermal,
    two_mode_squeeze,
    whole_factor,
)
import fock_build_reference

from cvgauss import (
    DimensionMismatch,
    DomainError,
    DstsParams,
    TruncationWarning,
    TwoModeStsParams,
    UnphysicalState,
    closest_classical,
    closest_separable,
    degree_e0,
    degree_q0,
    dsts_dm,
    dsts_to_cf,
    fidelity_one_mode,
    sts2_dm,
    trace_product,
    uhlmann_fidelity_numeric,
    von_neumann_entropy,
)
from cvgauss import fock
from cvgauss.fock import FockDensityMatrix
from cvgauss.states import R_MAX
from cvgauss.validate import matched_pair, random_dsts, random_sts


# --- thermal states, the DSTS at r = 0 and alpha = 0 --------------------------------

def test_thermal_vacuum_is_projector():
    r = dsts_dm(DstsParams(0.0), 5)
    expected = np.zeros((5, 5))
    expected[0, 0] = 1.0
    assert np.allclose(r.matrix, expected)
    assert r.tail_mass == 0.0


def test_thermal_truncated_geometric():
    with pytest.warns(TruncationWarning, match="missing 0.25 probability mass at dim 2"):
        r = dsts_dm(DstsParams(1.0), 2)
    assert np.allclose(np.diag(r.matrix).real, [0.5, 0.25])
    assert r.tail_mass == pytest.approx(0.25)


def test_thermal_tail_bound():
    r = dsts_dm(DstsParams(1.0), 45)
    assert r.tail_mass < 1e-12
    assert abs(1.0 - r.matrix.trace().real) < 1e-12


def test_thermal_dim_is_capped():
    r, full = _build_with_full_blocks(dsts_dm, DstsParams(0.5), 300)
    assert r.dim == fock.MAX_DIM_ONE_MODE == 256
    assert full[None].shape == (256, 256)
    # column n carries (1/3)^n 2/3, so the 180 from n = 76 on carry under 2^-120
    _assert_drop_rule(r.blocks[None], full[None], 76)


def test_thermal_domain():
    with pytest.raises(DomainError):
        dsts_dm(DstsParams(-0.5), 10)
    with pytest.raises(DomainError):
        dsts_dm(DstsParams(0.5), 0)


def test_thermal_with_infinite_occupancy_is_unphysical():
    with pytest.raises(UnphysicalState, match="overflows double precision"):
        dsts_dm(DstsParams(math.inf), 10)
    # a factor that is all nan, as an infinite occupancy would give, keeps
    # every column (see test_kept_columns_drop_a_rest_of_at_most_2_to_the_minus_120)
    with pytest.raises(UnphysicalState, match="non-finite"):
        fock._finish_dm({None: np.full((10, 10), math.nan)}, 10, 1)


# --- factor builds against the matrix-exponential reference ----------------------

@pytest.mark.parametrize("p", [
    DstsParams(0.5, 1.0, 0.3, 0.5 + 0.2j),
    DstsParams(0.4, 0.5, -1.2, 0.3 + 0.4j),
    DstsParams(0.2, 0.9, -0.7),
    DstsParams(1.0, 0.0, 0.0, 0.8 - 0.3j),
    DstsParams(2.0, 0.6, 2.5, -1.0 + 0.5j),
    DstsParams(0.0, 0.8, 1.9, -0.6 + 0.1j),
], ids=["roadmap", "mixed", "squeezed-thermal", "displaced-thermal", "hot", "pure"])
def test_dsts_matches_expm_reference(p):
    assert np.abs(dsts_dm(p, 120).matrix - dsts_reference(p, 120)).max() < 1e-13


# the sts2 case is cut at dim 12 and compared with the same corner of a dense reference
@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
@pytest.mark.parametrize("build,ref", [
    (lambda: dsts_dm(DstsParams(0.5, 1.0, 0.3, 0.5 + 0.2j), 120),
     lambda: dsts_reference(DstsParams(0.5, 1.0, 0.3, 0.5 + 0.2j), 120)),
    (lambda: sts2_dm(TwoModeStsParams(0.3, 0.6, 0.7, -1.1), 12),
     lambda: _dense_sts_reference()[1][:12, :12, :12, :12].reshape(144, 144)),
], ids=["dsts", "sts2"])
def test_factor_product_matches_expm_reference(build, ref):
    # the factor itself, multiplied out densely here, not through ``matrix``
    psi = whole_factor(build())
    assert np.abs(psi @ psi.conj().T - ref()).max() < 1e-13


def test_zero_parameter_states_are_vacuum():
    vac = np.zeros((12, 12))
    vac[0, 0] = 1.0
    assert np.array_equal(dsts_dm(DstsParams(0.0, 0.0, 0.7), 12).matrix, vac)
    vac2 = np.zeros((16, 16))
    vac2[0, 0] = 1.0
    assert np.array_equal(sts2_dm(TwoModeStsParams(0.0, 0.0, 0.0, 0.7), 4).matrix, vac2)


def test_displaced_vacuum_is_poissonian():
    alpha = 0.8 - 0.3j
    dim = 40
    probs = np.diag(dsts_dm(DstsParams(0.0, alpha=alpha), dim).matrix).real
    n = np.arange(dim)
    factorials = np.concatenate(([1.0], np.cumprod(np.arange(1, dim, dtype=float))))
    expected = np.exp(-abs(alpha) ** 2) * abs(alpha) ** (2 * n) / factorials
    assert np.allclose(probs, expected, rtol=1e-13, atol=0.0)


def test_squeezed_vacuum_has_even_parity():
    rho = dsts_dm(DstsParams(0.0, 0.7), 41).matrix
    odd = np.add.outer(np.arange(41), np.arange(41)) % 2 == 1
    assert np.all(rho[odd] == 0.0)
    assert abs(rho[2, 0]) > 0.1


# dim 10 cuts the state; the test compares it with the same corner of a dim-24 reference
@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
def test_two_mode_squeeze_blockwise_equals_generator_exponential():
    # the pure STS is S2 |0, 0>; its elements between n1 - n2 ladders are exact zeros
    dim, ref_dim, r, phi = 10, 24, 0.6, 0.8
    col = two_mode_squeeze(r, phi, ref_dim)[:, 0].reshape(ref_dim, ref_dim)[:dim, :dim].ravel()
    rho = sts2_dm(TwoModeStsParams(0.0, 0.0, r, phi), dim).matrix
    assert np.abs(rho - np.outer(col, col.conj())).max() < 1e-13
    k, l = np.divmod(np.arange(dim * dim), dim)
    assert np.all(rho[np.subtract.outer(k - l, k - l) != 0] == 0.0)


# dims 12 and 41 cut the state; the reference is cut at the same dim
@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
@pytest.mark.parametrize("dim", [12, 41, 80])
def test_squeeze_blockwise_equals_generator_exponential(dim):
    # a squeezed thermal state equals S rho_th S^dag from the whole generator,
    # and its odd-parity elements are exact zeros
    p = DstsParams(0.3, 0.9, -0.7)
    rho = dsts_dm(p, dim).matrix
    assert np.abs(rho - dsts_reference(p, dim)).max() < 1e-13
    assert np.all(rho[np.add.outer(np.arange(dim), np.arange(dim)) % 2 == 1] == 0.0)


def _build_with_full_blocks(build, p, dim):
    """build(p, dim) and its label blocks before any column was dropped, as
    the replaced builders of fock_build_reference write them."""
    r = build(p, dim)
    if r.modes == 1:
        return r, {None: fock_build_reference.one_mode_factor(p, r.dim)}
    return r, fock_build_reference.label_blocks(fock._sts_values(p, r.dim), r.dim)


def _assert_drop_rule(block, full, kept=None):
    """block is the factor block ``full`` cut after its first ``kept``
    columns (all it has, if None): the fewest whose dropped rest carries
    <= 2^-120."""
    kept = block.shape[1] if kept is None else kept
    assert block.shape == (full.shape[0], kept)
    assert np.array_equal(block, full[:, :kept])
    assert np.sum(np.abs(full[:, kept:]) ** 2) <= 2.0 ** -120
    assert kept == 0 or np.sum(np.abs(full[:, kept - 1:]) ** 2) > 2.0 ** -120


# the small two-mode build is cut on purpose: it is compared with a corner
@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
def test_build_is_corner_of_larger_build():
    # each block keeps a prefix of its columns, which the larger build
    # extends; the columns only the larger one keeps carry <= 2^-120 on the
    # smaller one's rows
    p = DstsParams(0.5, 1.0, 0.3, 0.5 + 0.2j)
    small, big = dsts_dm(p, 120), dsts_dm(p, 256)
    _assert_drop_rule(small.blocks[None], fock._one_mode_factor(p, 120), 75)
    _assert_drop_rule(big.blocks[None], fock._one_mode_factor(p, 256), 109)
    assert np.array_equal(whole_factor(small), whole_factor(big)[:120, :75])
    assert np.sum(np.abs(whole_factor(big)[:120, 75:]) ** 2) <= 2.0 ** -120
    assert np.array_equal(small.matrix, big.matrix[:120, :120])
    # the automatic dim and an explicit one of the same size keep the same block
    auto = dsts_dm(p)
    assert np.array_equal(auto.blocks[None], dsts_dm(p, auto.dim).blocks[None])
    # the STS keeps 776 of its 784 columns at dim 28 and 1 188 of 1 296 at 36
    q = TwoModeStsParams(0.3, 0.6, 0.7, -1.1)
    (small, small_full), (big, big_full) = (_build_with_full_blocks(sts2_dm, q, d) for d in (28, 36))
    assert list(small.blocks) == list(range(-27, 28))
    assert sum(b.shape[1] for b in small.blocks.values()) == 776
    assert sum(b.shape[1] for b in big.blocks.values()) == 1188
    for label, block in small.blocks.items():
        # row t and column s of a label are the same states at either cut
        n, kept = 28 - abs(label), block.shape[1]
        assert small_full[label].shape == (n, n)
        _assert_drop_rule(block, small_full[label])
        _assert_drop_rule(big.blocks[label], big_full[label])
        assert np.array_equal(block, big.blocks[label][:n, :kept])
        assert np.sum(np.abs(big.blocks[label][:n, kept:]) ** 2) <= 2.0 ** -120
        assert not np.any(big.blocks[label][:n, n:])
    # the product of the longer ladder blocks may sum in another order
    corner = big.matrix.reshape(36, 36, 36, 36)[:28, :28, :28, :28]
    assert np.abs(small.matrix - corner.reshape(784, 784)).max() < 1e-16


@pytest.mark.parametrize("nbar,dim", [(0.5, 30), (2.0, 30), (2.0, 90), (7.0, 256)])
def test_thermal_tail_is_true_tail(nbar, dim):
    tail = (nbar / (nbar + 1.0)) ** dim
    with pytest.warns(TruncationWarning) if tail > fock.TAIL_WARN else nullcontext():
        r = dsts_dm(DstsParams(nbar), dim)
    assert r.tail_mass == pytest.approx(tail, rel=1e-9, abs=1e-15)


def test_roadmap_state_warns_at_small_dim():
    # the true tail at dim 30 is about 1e-3, far above TAIL_WARN
    p = DstsParams(0.5, 1.0, 0.3, 0.5 + 0.2j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationWarning):
            dsts_dm(p, 30)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert dsts_dm(p, 30).tail_mass > 1e-4


# the zeros between ladders hold at any cut
@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
def test_sts2_between_ladders_exact_zero():
    dim = 12
    rho = sts2_dm(TwoModeStsParams(0.4, 0.2, 0.9, 0.5), dim).matrix
    k, l = np.divmod(np.arange(dim * dim), dim)
    between = np.subtract.outer(k - l, k - l) != 0
    assert np.all(rho[between] == 0.0)
    assert np.count_nonzero(rho[~between]) > 0


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
        assert mean_photon_number(dsts_dm(p, 120)) == pytest.approx(expected, abs=1e-12)


def test_dsts_cf_matches_closed_form():
    rng = np.random.default_rng(607)
    p = DstsParams(0.4, 0.5, -1.2, 0.3 + 0.4j)
    rho = dsts_dm(p, 100)
    g = dsts_to_cf(p)
    for _ in range(20):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(cf_numeric(rho.matrix, lam) - eval_cf1(g, lam)) < 1e-13


def test_truncation_warning_for_hot_state():
    with pytest.warns(TruncationWarning):
        dsts_dm(DstsParams(5.0), 8)


def test_auto_dim_selection():
    r = dsts_dm(DstsParams(0.2, 0.3, alpha=0.1j))
    assert r.tail_mass < 1e-6
    assert r.dim <= 256


@pytest.mark.parametrize("p", [DstsParams(0.0), DstsParams(0.2, 0.3, alpha=0.1j),
                               DstsParams(0.5, 1.0, 0.3, 0.5 + 0.2j), DstsParams(1.5)])
def test_auto_dim_is_smallest_meeting_target(p):
    r = dsts_dm(p)
    assert r.tail_mass <= fock.TAIL_TARGET
    if r.dim > 1:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert dsts_dm(p, r.dim - 1).tail_mass > fock.TAIL_TARGET


def _record_sizes(monkeypatch, name):
    """The sizes at which the builders call fock.<name> from now on."""
    sizes, build = [], getattr(fock, name)
    monkeypatch.setattr(fock, name, lambda p, size: sizes.append(size) or build(p, size))
    return sizes


def test_auto_dim_build_is_the_explicit_build_and_the_cap_size_choice(monkeypatch):
    # the automatic route builds at 32, 64, 128 and 256 rows until one keeps
    # all but TAIL_TARGET; it keeps the dim a build at the cap chooses, and
    # the block an explicit build at that dim makes, bit for bit
    rng = np.random.default_rng(29)
    states = [random_dsts(rng) for _ in range(40)] + [DstsParams(2.0, 1.0, 0.3, 1 + 1j)]
    reached = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for p in states:
            rows = np.sum(np.abs(fock._one_mode_factor(p, fock.MAX_DIM_ONE_MODE)) ** 2, axis=1)
            sizes = _record_sizes(monkeypatch, "_one_mode_factor")
            auto = dsts_dm(p)
            monkeypatch.undo()
            explicit = dsts_dm(p, auto.dim)
            assert auto.blocks[None].tobytes() == explicit.blocks[None].tobytes()
            assert auto.blocks[None].shape == explicit.blocks[None].shape
            assert auto.tail_mass == explicit.tail_mass
            met = np.flatnonzero(1.0 - np.cumsum(rows) <= fock.TAIL_TARGET)
            assert auto.dim == (met[0] + 1 if met.size else fock.MAX_DIM_ONE_MODE)
            # the ladder stops at the first size that meets the target
            assert sizes == [32, 64, 128, 256][:len(sizes)]
            size = sizes[-1]
            assert size >= auto.dim and (size == fock.MAX_DIM_ONE_MODE or 1.0 - sum(rows[:size]) <= fock.TAIL_TARGET)
            # and the row masses of every size are the cap build's, bit for bit
            for size in sizes:
                part = np.sum(np.abs(fock._one_mode_factor(p, size)) ** 2, axis=1)
                assert part.tobytes() == rows[:size].tobytes()
            reached.update(sizes)
    assert {32, 64, 128, fock.MAX_DIM_ONE_MODE} <= reached


def test_auto_dim_build_doubles_up_to_the_cap_where_smaller_sizes_fall_short(monkeypatch):
    # a state of dim between 128 and 256 is built at every size of the ladder,
    # and a vacuum only at the first
    p = DstsParams(1.0, 1.0, 0.3, 0.5 + 0.5j)
    sizes = _record_sizes(monkeypatch, "_one_mode_factor")
    auto = dsts_dm(p)
    assert sizes == [32, 64, 128, fock.MAX_DIM_ONE_MODE]
    assert 128 < auto.dim < fock.MAX_DIM_ONE_MODE
    sizes.clear()
    assert dsts_dm(DstsParams(0.0)).dim == 1 and sizes == [32]
    monkeypatch.undo()
    assert auto.blocks[None].tobytes() == dsts_dm(p, auto.dim).blocks[None].tobytes()


def test_two_mode_auto_dim_is_the_cap_build_choice(monkeypatch):
    # sts2_dm builds at 16, 32 and 64 per mode until one keeps all but
    # TAIL_TARGET; its dim, blocks and tail are those the cap build chooses
    rng = np.random.default_rng(32)
    states = [TwoModeStsParams(*rng.uniform(0.0, s, 3), rng.uniform(-3.0, 3.0))
              for s in (0.3, 1.0, 2.5) for _ in range(8)]
    reached = set()
    for p in states:
        v = fock._sts_values(p, fock.MAX_DIM_PER_MODE)
        k1, k2, j = np.ogrid[:v.shape[0], :v.shape[1], :v.shape[2]]
        mass = np.bincount((np.maximum(k1, k2) + j).ravel(), np.abs(v.ravel()) ** 2,
                           minlength=fock.MAX_DIM_PER_MODE)
        met = np.flatnonzero(1.0 - np.cumsum(mass[:fock.MAX_DIM_PER_MODE]) <= fock.TAIL_TARGET)
        dim = met[0] + 1 if met.size else fock.MAX_DIM_PER_MODE
        sizes = _record_sizes(monkeypatch, "_sts_values")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            auto = sts2_dm(p)
        monkeypatch.undo()
        assert sizes == [16, 32, 64][:len(sizes)] and sizes[-1] >= dim
        reached.update(sizes)
        assert auto.dim == dim
        # the blocks an explicit build at dim makes from the cap build's values
        monkeypatch.setattr(fock, "_sts_values", lambda q, size: v)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            capped = sts2_dm(p, dim)
        monkeypatch.undo()
        assert auto.tail_mass == capped.tail_mass
        assert list(auto.blocks) == list(capped.blocks)
        for label, b in auto.blocks.items():
            assert b.shape == capped.blocks[label].shape
            assert b.tobytes() == capped.blocks[label].tobytes()
    assert reached == {16, 32, 64}


def test_two_mode_auto_dim_is_smallest_meeting_target():
    p = TwoModeStsParams(0.2, 0.1, 0.5, 0.3)
    r = sts2_dm(p)
    assert r.tail_mass <= fock.TAIL_TARGET
    assert sts2_dm(p, r.dim - 1).tail_mass > fock.TAIL_TARGET


@pytest.mark.parametrize("build,p,cap", [
    (dsts_dm, DstsParams(0.5, 20.0, 0.1, 0.3 + 0.2j), "MAX_DIM_ONE_MODE"),
    (dsts_dm, DstsParams(0.5, 0.2, 0.0, 1e200), "MAX_DIM_ONE_MODE"),
    (dsts_dm, DstsParams(1e300, 300.0), "MAX_DIM_ONE_MODE"),
    (dsts_dm, DstsParams(0.0, R_MAX, 0.0, 1e300), "MAX_DIM_ONE_MODE"),
    (dsts_dm, DstsParams(1.7e308, 0.0), "MAX_DIM_ONE_MODE"),
    # |alpha| overflows a double, so abs(alpha) raises
    (dsts_dm, DstsParams(0.0, alpha=complex(3e300, 1.7976931348623157e308)), "MAX_DIM_ONE_MODE"),
    (sts2_dm, TwoModeStsParams(0.5, 0.2, 20.0, 0.4), "MAX_DIM_PER_MODE"),
    (sts2_dm, TwoModeStsParams(1e300, 1e300, 300.0), "MAX_DIM_PER_MODE"),
], ids=["r20", "alpha1e200", "huge-1m", "r-max-alpha1e300", "hot-1m", "alpha-overflows", "sts-r20", "huge-2m"])
def test_auto_dim_extremes_warn_at_the_cap(monkeypatch, build, p, cap):
    # a state beyond every allowed cut is built at the cap, with its true tail
    monkeypatch.setattr(fock, "MAX_DIM_PER_MODE", 12)
    with pytest.warns(TruncationWarning):
        r = build(p)
    assert r.dim == getattr(fock, cap)
    assert 0.9 < r.tail_mass <= 1.0
    assert np.all(np.isfinite(r.matrix))


@pytest.mark.parametrize("p", [dict(nbar=0.1, alpha=complex("nan")),
                               dict(nbar=0.1, alpha=complex(math.inf, 0.0)),
                               dict(nbar=0.1, r=0.3, phi=math.nan)])
def test_oracle_rejects_non_finite_angle_or_displacement(p):
    # the state type rejects them, so no build can see one
    with pytest.raises(DomainError):
        dsts_dm(DstsParams(**p), 10)


def test_oracle_builds_a_displacement_whose_angle_underflows():
    # arg alpha = atan2(5e-324, 3) underflows to 0, where cmath.phase raises
    r = dsts_dm(DstsParams(0.0, 0.1, 0.0, 3.0 + 5e-324j))
    expected = dsts_dm(DstsParams(0.0, 0.1, 0.0, 3.0), r.dim)
    assert r.blocks[None].tobytes() == expected.blocks[None].tobytes()


def test_oracle_rejects_dimension_below_one():
    with pytest.raises(DomainError):
        dsts_dm(DstsParams(0.1), 0)
    with pytest.raises(DomainError):
        sts2_dm(TwoModeStsParams(0.1, 0.2), 0)


@pytest.mark.parametrize("dim", [10.0, 1e3, math.nan, math.inf, "10", True])
@pytest.mark.parametrize("build,p", [
    (dsts_dm, DstsParams(0.3)), (dsts_dm, DstsParams(0.3, 0.2)), (sts2_dm, TwoModeStsParams(0.3, 0.4, 0.9, 0.5)),
], ids=["thermal", "dsts", "sts2"])
def test_oracle_rejects_dimension_that_is_not_an_integer(build, p, dim):
    with pytest.raises(DomainError, match="dim must be an integer >= 1"):
        build(p, dim)


@pytest.mark.parametrize("dim,modes,label,row", [
    (12, 2, np.int8(11), 132),  # |11, 0>, not a row int8 arithmetic wraps to
    (np.int8(12), 2, -11, 11),  # |0, 11> of 144 rows, which an int8 dim ** 2 wraps below 0
    (np.uint8(12), 2, 0, 0),  # 1 - dim wraps in uint8, which left no label in range
    (np.int16(200), 2, 0, None),  # 200 ** 2 wraps in int16; the 40000-row matrix is not formed
    (4, np.int64(1), None, 0),
    (4, 1.0, None, DomainError),
    (4, True, None, DomainError),
    (4, np.float64(1.0), None, DomainError),
    (4, 2.0, 0, DomainError),
], ids=["int8-label", "int8-dim", "uint8-dim", "int16-dim", "int64-modes", "float-modes",
        "bool-modes", "numpy-float-modes", "float-two-modes"])
def test_density_matrix_keeps_its_integers_as_python_ints(dim, modes, label, row):
    # numpy integers are stored as ints, so no index wraps; modes is an integer too
    block = np.zeros((int(dim) - abs(label or 0), 1))
    block[0, 0] = 0.5
    if row is DomainError:
        with pytest.raises(DomainError, match="mode count must be 1 or 2"):
            FockDensityMatrix(dim=dim, modes=modes, blocks={label: block})
        return
    r = FockDensityMatrix(dim=dim, modes=modes, blocks={label: block})
    assert type(r.dim) is type(r.modes) is int and all(k is None or type(k) is int for k in r.blocks)
    if row is not None:
        assert np.flatnonzero(r.matrix.diagonal()).tolist() == [row]


@pytest.mark.parametrize("blocks,match", [
    ([np.eye(2) / 2], "blocks must map labels to blocks, got a list"),
    ((np.eye(2) / 2,), "got a tuple"),
    ({None: "ab"}, "block None is not a complex array"),
    ({None: [[0.5, 0.0], [0.5]]}, "block None is not a complex array"),
    ({None: {}}, "block None is not a complex array"),
], ids=["list", "tuple", "string", "ragged", "dict"])
def test_density_matrix_names_malformed_blocks(blocks, match):
    with pytest.raises(DomainError, match=match):
        FockDensityMatrix(dim=2, modes=1, blocks=blocks)


@pytest.mark.parametrize("dim", [4.0, True])
def test_density_matrix_rejects_dimension_that_is_not_an_integer(dim):
    with pytest.raises(DomainError, match="dim must be an integer >= 1"):
        FockDensityMatrix(dim=dim, modes=1, blocks={None: np.eye(4) / 4.0})


def test_caps_apply_to_explicit_dimensions(monkeypatch):
    assert dsts_dm(DstsParams(0.2, 0.3), fock.MAX_DIM_ONE_MODE + 44).dim == fock.MAX_DIM_ONE_MODE
    # a small cap keeps the two-mode build cheap; the builder reads it per call
    monkeypatch.setattr(fock, "MAX_DIM_PER_MODE", 6)
    with pytest.warns(TruncationWarning):
        assert sts2_dm(TwoModeStsParams(0.5, 0.5, 0.5), 10).dim == 6


# --- two-mode density matrices ------------------------------------------------------

def test_sts2_no_squeezing_is_thermal_product():
    r = sts2_dm(TwoModeStsParams(0.5, 0.2, 0.0), 16)
    expected = np.kron(thermal(0.5, 16), thermal(0.2, 16))
    assert np.allclose(r.matrix, expected, atol=1e-14)


@lru_cache(maxsize=1)
def _dense_sts_reference():
    """S2 (rho_th1 x rho_th2) S2^dag of a warm STS from the whole two-mode
    generator at 30 per mode, far enough above dim 12 for 1e-13 there."""
    p = TwoModeStsParams(0.3, 0.6, 0.7, -1.1)
    return p, sts2_reference(p, 30, 30).reshape(30, 30, 30, 30)


@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
@pytest.mark.parametrize("dim", [6, 9, 12])
def test_sts2_sectorwise_equals_dense_conjugation(dim):
    p, dense = _dense_sts_reference()
    corner = dense[:dim, :dim, :dim, :dim].reshape(dim * dim, dim * dim)
    assert np.abs(sts2_dm(p, dim).matrix - corner).max() < 1e-13


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
        assert abs(cf2_numeric(rho.matrix, l1, l2) - sts_cf2(p, l1, l2)) < 1e-6


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


# a cut factor still gives a positive semidefinite rho
@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
def test_sts2_psd_within_tolerance():
    r = sts2_dm(TwoModeStsParams(0.4, 0.1, 0.7), 16)
    assert np.linalg.eigvalsh(r.matrix).min() >= -1e-10


# --- fidelity / traces / entropy ------------------------------------------------------

def test_numeric_fidelity_with_itself():
    rho = dsts_dm(DstsParams(0.7, 0.3, 0.2, 0.1j), 80)
    assert uhlmann_fidelity_numeric(rho, rho) == pytest.approx(1.0, abs=1e-13)


def test_numeric_fidelity_vacuum_vs_thermal():
    for nbar in (0.5, 1.0, 2.0):
        f = uhlmann_fidelity_numeric(dsts_dm(DstsParams(0.0), 150), dsts_dm(DstsParams(nbar), 150))
        assert f == pytest.approx(1.0 / (nbar + 1.0), abs=1e-13)


# symmetry and bounds hold for cut states too; dim 90 cuts two of them
@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
def test_numeric_fidelity_symmetric_and_bounded():
    rng = np.random.default_rng(617)
    for _ in range(3):
        r1 = dsts_dm(random_dsts(rng, nbar_max=1.0), 90)
        r2 = dsts_dm(random_dsts(rng, nbar_max=1.0), 90)
        f12 = uhlmann_fidelity_numeric(r1, r2)
        f21 = uhlmann_fidelity_numeric(r2, r1)
        assert f12 == f21
        assert 0.0 <= f12 <= 1.0 + 1e-10


@pytest.mark.parametrize("dim", [120, 256])
def test_near_pure_pair_matches_closed_form(dim):
    # a nearly pure state against a warm one: square roots of roundoff
    # eigenvalues cost the eigendecomposition route about 1e-8 here
    p1 = DstsParams(0.03, 0.84, 2.79, -0.99 + 0.87j)
    p2 = DstsParams(1.68, 0.19, -2.88, -0.005 - 0.27j)
    numeric = uhlmann_fidelity_numeric(dsts_dm(p1, dim), dsts_dm(p2, dim))
    assert abs(numeric - fidelity_one_mode(p1, p2)) < 1e-13


# the two-mode factor's shape does not depend on its cut at dim 12
@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
def test_pure_state_factor_has_one_column():
    p1 = DstsParams(0.0, 0.6, 0.2, 0.3 + 0.1j)
    p2 = DstsParams(0.0, 0.3, -1.1, -0.2 + 0.4j)
    r1, r2 = dsts_dm(p1, 90), dsts_dm(p2, 90)
    assert whole_factor(r1).shape == (90, 1)
    assert whole_factor(sts2_dm(TwoModeStsParams(0.0, 0.0, 0.8, 0.3), 12)).shape == (144, 1)
    assert abs(uhlmann_fidelity_numeric(r1, r2) - trace_product(r1, r2)) < 1e-15
    assert uhlmann_fidelity_numeric(r1, r2) == uhlmann_fidelity_numeric(r2, r1)


def _dense_uhlmann(r1, r2):
    """Whole-matrix reference for uhlmann_fidelity_numeric."""
    w, u = np.linalg.eigh(r1.matrix)
    sqrt1 = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    inner = sqrt1 @ r2.matrix @ sqrt1
    ev = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    return float(np.sum(np.sqrt(np.clip(ev, 0.0, None))) ** 2)


# hot states at small dims keep every eigenvalue far above roundoff, where the
# square roots of the two routes agree to the last digits; the cases cover
# n1 - n2 blocks, a diagonal pattern, a checkerboard pattern and one dense block
@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
@pytest.mark.parametrize("pair", [
    lambda: (sts2_dm(TwoModeStsParams(1.5, 2.0, 0.4, 0.3), 8),
             sts2_dm(TwoModeStsParams(2.5, 1.0, 0.2, -1.0), 8)),
    lambda: (dsts_dm(DstsParams(2.0), 20), dsts_dm(DstsParams(3.0), 20)),
    lambda: (dsts_dm(DstsParams(2.0, 0.3, 0.5), 16), dsts_dm(DstsParams(3.0, 0.2, -1.0), 16)),
    lambda: (dsts_dm(DstsParams(2.0, 0.3, 0.5, 0.2 + 0.1j), 16),
             dsts_dm(DstsParams(3.0, 0.2, -1.0, -0.1j), 16)),
], ids=["sts", "thermal", "squeezed", "displaced"])
def test_numeric_fidelity_blockwise_equals_dense(pair):
    r1, r2 = pair()
    f12 = uhlmann_fidelity_numeric(r1, r2)
    assert abs(f12 - _dense_uhlmann(r1, r2)) < 1e-12
    assert f12 == uhlmann_fidelity_numeric(r2, r1)


# blocks against one SVD of the whole of Psi1^dag Psi2: mixed block shapes,
# a single column and a factor with no columns
@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
@pytest.mark.parametrize("pair", [
    lambda: (dsts_dm(DstsParams(0.5, 0.3, 0.4, 0.3 - 0.2j), 30),
             dsts_dm(DstsParams(1.0, 0.2, -0.7), 30)),
    lambda: (dsts_dm(DstsParams(0.7), 30), dsts_dm(DstsParams(0.3, 0.4, 1.0), 30)),
    lambda: (sts2_dm(TwoModeStsParams(0.0, 0.0, 0.6, 0.3), 12),
             sts2_dm(TwoModeStsParams(0.2, 0.4, 0.5, -0.2), 12)),
    lambda: (dsts_dm(DstsParams(0.0, alpha=40.0), 20), dsts_dm(DstsParams(0.3, 0.2), 20)),
], ids=["displaced-undisplaced", "thermal-dsts", "pure-sts", "no-columns"])
def test_block_rule_equals_unblocked_svd(pair):
    r1, r2 = pair()
    overlap = whole_factor(r1).conj().T @ whole_factor(r2)
    f12 = uhlmann_fidelity_numeric(r1, r2)
    assert abs(f12 - np.linalg.svd(overlap, compute_uv=False).sum() ** 2) < 1e-13
    assert abs(trace_product(r1, r2) - np.vdot(overlap, overlap).real) < 1e-13
    assert f12 == uhlmann_fidelity_numeric(r2, r1)
    assert trace_product(r1, r2) == trace_product(r2, r1)
    for r in (r1, r2):
        psi = whole_factor(r)
        assert np.abs(r.matrix - psi @ psi.conj().T).max() < 1e-15


def test_factor_without_columns_is_the_zero_operator():
    with pytest.warns(TruncationWarning):
        r = dsts_dm(DstsParams(0.0, alpha=40.0), 20)
    assert whole_factor(r).shape == (20, 0)
    assert not r.matrix.any()
    assert von_neumann_entropy(r) == 0.0


def test_columns_that_underflow_to_zero_are_dropped():
    # the nearly pure state is rebuilt at the warm one's automatic dim 244,
    # where 158 of its columns underflow to exact zeros and all but 5 of the
    # other 86 carry less than 2^-120 together
    p1, p2 = DstsParams(1.99e-8, 0.629, -0.616), DstsParams(1.166, 1.094, 2.618)
    r1, r2 = matched_pair(dsts_dm, p1, p2)
    assert r1.dim == 244
    assert np.count_nonzero(fock._one_mode_factor(p1, 244).any(axis=0)) == 86
    _assert_drop_rule(r1.blocks[None], fock._one_mode_factor(p1, 244), 5)
    _assert_drop_rule(r2.blocks[None], fock._one_mode_factor(p2, 244), 144)
    assert r1.blocks[None].any(axis=0).all()
    assert abs(uhlmann_fidelity_numeric(r1, r2) - fidelity_one_mode(p1, p2)) < 1e-13


_EDGE = 2.0 ** -60  # a column whose only entry is _EDGE carries exactly 2^-120


def _block(*columns):
    return np.array(columns, dtype=complex).T


@pytest.mark.parametrize("block,kept", [
    (_block([0.5, 0.0], [0.0, _EDGE]), 1),
    (_block([0.5, 0.0], [0.0, 1j * _EDGE]), 1),
    (_block([0.5, 0.0], [0.0, np.nextafter(_EDGE, 1.0)]), 2),
    # the rest is dropped together: 2^-122 + 2^-122 + 2^-121 = 2^-120
    (_block([0.5, 0.0], [_EDGE / 2, 0.0], [0.0, _EDGE / 2], [_EDGE / 2, _EDGE / 2]), 1),
    (_block([0.5, 0.0], [_EDGE / 2, 0.0], [0.0, _EDGE], [_EDGE / 2, _EDGE / 2]), 3),
    # one column of 16 rows, which numpy sums pairwise: 16 * 2^-124 = 2^-120
    (np.full((16, 1), _EDGE / 4), 0),
    (np.full((16, 1), np.nextafter(_EDGE / 4, 1.0)), 1),
    (np.zeros((3, 0)), 0),
    (np.zeros((3, 4)), 0),
    (np.full((10, 10), math.nan), 10),
    (_block([0.5, 0.0], [0.0, math.inf], [0.0, 0.0]), 2),
], ids=["edge", "edge-imag", "above-edge", "rest-at-edge", "rest-above-edge", "one-column-edge",
        "one-column-above-edge", "no-columns", "zeros", "nan", "inf"])
def test_kept_columns_drop_a_rest_of_at_most_2_to_the_minus_120(block, kept):
    # the shortest prefix whose dropped trailing columns carry <= 2^-120; a
    # non-finite column is kept, for FockDensityMatrix to reject
    assert fock._kept_columns(block) == kept


def _svd_fidelity(psi1, psi2):
    return np.linalg.svd(psi1.conj().T @ psi2, compute_uv=False).sum() ** 2


# the one-mode domains of the fock_oracle benchmark and of validate
_mixed = st.builds(DstsParams, st.floats(0.0, 2.0), st.floats(0.0, 1.0), st.floats(-math.pi, math.pi),
                   st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
_pure = st.builds(DstsParams, st.just(0.0), st.floats(0.0, 0.8), st.floats(-math.pi, math.pi),
                  st.builds(complex, st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)))


# dim 120 cuts the hottest corner of the domain, as in the benchmark
@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
@pytest.mark.parametrize("automatic", [False, True], ids=["dim120", "automatic"])
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(p1=st.one_of(_mixed, _pure), p2=st.one_of(_mixed, _pure))
def test_dropped_columns_leave_the_fidelity_of_the_full_factors(automatic, p1, p2):
    r1, r2 = matched_pair(dsts_dm, p1, p2) if automatic else (dsts_dm(p1, 120), dsts_dm(p2, 120))
    full = [fock._one_mode_factor(p, r1.dim) for p in (p1, p2)]
    # what the dropped values move: the kept columns padded with zeros back
    # to the full shape
    padded = [np.pad(b, ((0, 0), (0, f.shape[1] - b.shape[1])))
              for f, b in zip(full, (r1.blocks[None], r2.blocks[None]))]
    untrimmed = _svd_fidelity(*full)
    assert abs(_svd_fidelity(*padded) - untrimmed) <= 1e-15
    # the smaller SVD rounds differently: 1.55e-15 apart on a nearly pure
    # state at dim 120, where the trimmed value is the closed form's to the bit
    f12 = uhlmann_fidelity_numeric(r1, r2)
    assert abs(f12 - untrimmed) <= 16 * np.finfo(float).eps
    assert f12 == uhlmann_fidelity_numeric(r2, r1)


# fock_oracle's and validate's two-mode domain at their dim 40, which cuts its
# hottest corner
_sts = st.builds(TwoModeStsParams, st.floats(0.0, 0.6), st.floats(0.0, 0.6), st.floats(0.0, 1.0),
                 st.floats(-math.pi, math.pi))


@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(p1=_sts, p2=_sts)
def test_dropped_columns_leave_the_two_mode_fidelity_of_the_full_blocks(p1, p2):
    (r1, full1), (r2, full2) = _build_with_full_blocks(sts2_dm, p1, 40), _build_with_full_blocks(sts2_dm, p2, 40)
    padded = [{k: np.pad(b, ((0, 0), (0, f[k].shape[1] - b.shape[1]))) for k, b in r.blocks.items()}
              for f, r in ((full1, r1), (full2, r2))]

    def svd_fidelity(f1, f2):
        return sum(np.linalg.svd(f1[k].conj().T @ f2[k], compute_uv=False).sum() for k in f1) ** 2

    untrimmed = svd_fidelity(full1, full2)
    assert abs(svd_fidelity(*padded) - untrimmed) <= 1e-15
    f12 = uhlmann_fidelity_numeric(r1, r2)
    assert abs(f12 - untrimmed) <= 16 * np.finfo(float).eps
    assert f12 == uhlmann_fidelity_numeric(r2, r1)


@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        uhlmann_fidelity_numeric(dsts_dm(DstsParams(0.5), 10), dsts_dm(DstsParams(0.5), 12))
    with pytest.raises(DimensionMismatch):
        trace_product(dsts_dm(DstsParams(0.5), 10), dsts_dm(DstsParams(0.5), 12))


def test_thermal_purity():
    r = dsts_dm(DstsParams(1.0), 200)
    assert trace_product(r, r) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_thermal_entropy_closed_form():
    for nbar in (0.3, 1.0, 2.5):
        expected = (nbar + 1) * math.log(nbar + 1) - nbar * math.log(nbar)
        assert von_neumann_entropy(dsts_dm(DstsParams(nbar), 220)) == pytest.approx(expected, abs=1e-8)


def test_pure_state_entropy_vanishes():
    rho = dsts_dm(DstsParams(0.0, 0.6, 0.2, 0.3 + 0j), 90)
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-11)


def test_oracle_converges_with_dimension():
    p1 = DstsParams(0.6, 0.5, 0.3, 0.4 + 0.2j)
    p2 = DstsParams(0.2, 0.8, -0.9, -0.3 + 0.5j)
    with pytest.warns(TruncationWarning, match="at dim 40"):
        dms = {d: (dsts_dm(p1, d), dsts_dm(p2, d)) for d in (40, 80, 120)}
    for quantity in (
        lambda d: uhlmann_fidelity_numeric(*dms[d]),
        lambda d: trace_product(*dms[d]),
        lambda d: von_neumann_entropy(dms[d][0]),
    ):
        coarse, mid, fine = (quantity(d) for d in (40, 80, 120))
        assert abs(mid - fine) <= abs(coarse - fine) + 1e-9


def _degree_deltas(rng, draw, degree, closest, build, count):
    """|1 - sqrt(F_oracle(p, closest(p))) - degree(p)| over count states
    draw(rng) with a degree above 0.01; build(p, q) gives the two oracle
    states."""
    deltas = []
    while len(deltas) < count:
        p = draw(rng)
        if degree(p) <= 0.01:
            continue
        f = uhlmann_fidelity_numeric(*build(p, closest(p)))
        deltas.append(abs(1.0 - math.sqrt(f) - degree(p)))
    return deltas


def test_oracle_gives_q0_at_the_closest_classical_state():
    # both states at the larger of their automatic dims; the largest delta
    # over these 20 states is 4.7e-9, and 8.0e-9 over another draw of 20
    deltas = _degree_deltas(np.random.default_rng(3707), lambda g: random_dsts(g, 1.0, 1.0),
                            degree_q0, closest_classical,
                            lambda p, q: matched_pair(dsts_dm, p, q), 20)
    assert max(deltas) <= 1e-6


def test_oracle_gives_e0_at_the_closest_separable_state():
    # at dim 40 per mode; the largest delta over these 6 states is 1.2e-10,
    # and 2.0e-10 over another draw of 6
    deltas = _degree_deltas(np.random.default_rng(3707), lambda g: random_sts(g, 0.5, 0.8),
                            degree_e0, closest_separable,
                            lambda p, q: (sts2_dm(p, 40), sts2_dm(q, 40)), 6)
    assert max(deltas) <= 2e-8


# --- the builders against the ones they replaced ------------------------------------

#: pure, near-pure (the CI "dim 244" state), mixed, displaced and cap-cut states,
#: and states drawn from validate's oracle domains; two-mode, also the edges of
#: sts2_dm's strided blocks: one k1 or k2 (nbar = 0) and one j (r = 0)
_TABLE_RNG = np.random.default_rng(3737)
ONE_MODE_TABLE = [
    DstsParams(0.0), DstsParams(0.0, 0.7, 1.1, 0.4 - 0.3j), DstsParams(1.99e-8, 0.629, -0.616),
    DstsParams(0.8, 0.5, -0.4), DstsParams(1.0, 0.0, 0.0, 0.8 - 0.3j),
    DstsParams(2.0, 0.6, 2.5, -1.0 + 0.5j), DstsParams(3.0, 1.7, 1.0, 2.0 + 1.0j),
    DstsParams(0.0, 2.5), *(random_dsts(_TABLE_RNG) for _ in range(8)),
]
TWO_MODE_TABLE = [
    TwoModeStsParams(0.0, 0.0, 0.8, 0.3), TwoModeStsParams(0.3, 0.0, 0.5, 1.0),
    TwoModeStsParams(0.0, 0.4, 0.5, -1.0), TwoModeStsParams(1e-9, 2e-9, 0.6, 0.2),
    TwoModeStsParams(0.3, 0.2, 0.0), TwoModeStsParams(0.3, 0.6, 0.7, -1.1),
    TwoModeStsParams(3.0, 2.0, 1.5, 0.2), TwoModeStsParams(0.3, 0.0, 0.0),
    TwoModeStsParams(0.0, 0.0, 0.0), *(random_sts(_TABLE_RNG) for _ in range(4)),
]


def _assert_same_build(r, ref):
    assert r.dim == ref.dim
    assert list(r.blocks) == list(ref.blocks)
    for label, b in r.blocks.items():
        assert b.shape == ref.blocks[label].shape
        assert b.tobytes() == ref.blocks[label].tobytes()
    assert r.tail_mass.hex() == ref.tail_mass.hex()


# numpy's SIMD exp differs across CPUs, so the two routes are compared on the
# running machine, not against pinned bytes
@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
@pytest.mark.parametrize("dim", [12, 120, 256, None])
def test_one_mode_build_equals_the_replaced_build_bit_for_bit(dim):
    builds = [(dsts_dm(p, dim), fock_build_reference.dsts_dm(p, dim)) for p in ONE_MODE_TABLE]
    for r, ref in builds:
        _assert_same_build(r, ref)
    # the table reaches the cap
    assert max(r.dim for r, _ in builds) == min(dim or fock.MAX_DIM_ONE_MODE, fock.MAX_DIM_ONE_MODE)


@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
@pytest.mark.parametrize("dim", [1, 2, 6, 40, None])
def test_two_mode_build_equals_the_replaced_build_bit_for_bit(dim):
    builds = [(sts2_dm(p, dim), fock_build_reference.sts2_dm(p, dim)) for p in TWO_MODE_TABLE]
    for r, ref in builds:
        _assert_same_build(r, ref)
    assert max(r.dim for r, _ in builds) == (dim or fock.MAX_DIM_PER_MODE)


def test_builder_tables_are_the_tables_built_at_each_size():
    # a build reads the corner of a table at the cap; each corner has the bits
    # of the table built at its own size
    lf = fock._LOG_FACTORIALS
    assert len(lf) >= max(fock.MAX_DIM_ONE_MODE, 2 * fock.MAX_DIM_PER_MODE)
    for n in range(1, len(lf) + 1):
        fresh = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, n)))))
        assert lf[:n].tobytes() == fresh.tobytes(), n
    assert fock._LOG_BINOMIAL.shape == (fock.MAX_DIM_ONE_MODE,) * 2
    for dim in (1, 2, 3, 7, 32, 120, 255, 256):
        fresh = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, dim)))))
        for cols in sorted({0, 1, dim}):
            expected = fresh[:, None] - fock_build_reference.lower_toeplitz(fresh, cols) - fresh[:cols]
            assert fock._LOG_BINOMIAL[:dim, :cols].tobytes() == expected.tobytes(), (dim, cols)
    assert fock._SQRT == tuple(math.sqrt(j) for j in range(fock.MAX_DIM_ONE_MODE))
    for table in (fock._LOG_FACTORIALS, fock._LOG_BINOMIAL):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0


# --- misc plumbing ---------------------------------------------------------------------

def test_reduced_dm_of_product():
    r = sts2_dm(TwoModeStsParams(0.7, 0.2, 0.0), 24)
    assert np.allclose(reduced_dm(r, 0).matrix, thermal(0.7, 24), atol=1e-12)
    assert np.allclose(reduced_dm(r, 1).matrix, thermal(0.2, 24), atol=1e-12)


def test_density_matrix_validation():
    # rho = factor factor^dag is Hermitian and positive by construction; the
    # row count and a trace above 1 are what a factor can get wrong
    with pytest.raises(DimensionMismatch):
        FockDensityMatrix(dim=4, modes=1, blocks={None: np.eye(3, dtype=complex)})
    with pytest.raises(UnphysicalState, match="trace"):
        FockDensityMatrix(dim=4, modes=1, blocks={None: np.eye(4) / 1.9})
    with pytest.raises(DomainError, match="dim must be an integer >= 1"):
        FockDensityMatrix(dim=0, modes=1, blocks={None: np.zeros((0, 0))})
    with pytest.raises(DomainError, match="mode count must be 1 or 2"):
        FockDensityMatrix(dim=2, modes=3, blocks={None: np.eye(8) / math.sqrt(8.0)})
    with pytest.raises(DomainError, match="at least one block"):
        FockDensityMatrix(dim=2, modes=1, blocks={})
    # the tail mass is what the factor lacks of trace 1
    r = FockDensityMatrix(dim=4, modes=1, blocks={None: np.eye(4) / 4.0})
    assert r.tail_mass == 0.75
    assert np.array_equal(r.matrix, np.eye(4) / 16.0)
    with pytest.raises(TypeError):
        FockDensityMatrix(dim=4, modes=1, blocks={None: np.eye(4) / 4.0}, tail_mass=0.75)


@pytest.mark.parametrize("modes,blocks", [
    (1, {2: np.eye(1)}),
    (1, {-1: np.zeros((1, 0))}),
    (2, {3: np.zeros((0, 0))}),
    (2, {-3: np.zeros((0, 1))}),
    (1, {None: np.eye(3) / 3.0, 0: np.eye(2) / 3.0}),
    (1, {0: np.eye(3) / 3.0}),
    (2, {None: np.eye(9) / 9.0}),
    (2, {True: np.eye(2) / 3.0}),
    (2, {np.True_: np.eye(2) / 3.0}),
    (2, {1.0: np.eye(2) / 3.0}),
], ids=["parity-2", "parity-negative", "difference-dim", "difference-minus-dim", "none-mixed",
        "one-mode-label", "two-mode-none", "bool", "numpy-bool", "float"])
def test_labels_outside_the_scheme_are_rejected(modes, blocks):
    # at dim 3: None alone for one mode, n1 - n2 with |n1 - n2| < 3 for two
    with pytest.raises(DomainError, match="block labels"):
        FockDensityMatrix(dim=3, modes=modes, blocks=blocks)


@pytest.mark.parametrize("modes,label,rows",
                         [(1, None, 3), (2, 0, 3), (2, -2, 4), (2, 1, 4)])
def test_block_rows_must_fit_label(modes, label, rows):
    # at dim 4: 4 rows for one mode, 4 - |n1 - n2| rows per two-mode label
    with pytest.raises(DimensionMismatch, match="rows"):
        FockDensityMatrix(dim=4, modes=modes, blocks={label: np.zeros((rows, 1))})


def test_label_blocks_sit_on_their_rows():
    r = FockDensityMatrix(dim=3, modes=2, blocks={-1: np.full((2, 1), 0.6), 2: np.full((1, 1), 0.5)})
    # n1 - n2 = -1 is |0, 1> and |1, 2>; n1 - n2 = 2 is |2, 0>
    assert np.array_equal(np.diag(r.matrix).real, [0, 0.36, 0, 0, 0, 0.36, 0.25, 0, 0])
    assert r.tail_mass == pytest.approx(0.03, abs=1e-15)
    # the checked blocks cannot change under the cached matrix
    with pytest.raises(TypeError):
        r.blocks[0] = np.ones((3, 1))
    with pytest.raises(ValueError):
        r.blocks[2][0, 0] = 0.0


def test_density_matrix_stores_a_copy_and_leaves_the_callers_block():
    b = np.eye(2, dtype=complex) / 2
    r = FockDensityMatrix(dim=2, modes=1, blocks={None: b})
    assert r.blocks[None] is not b and not np.shares_memory(r.blocks[None], b)
    b[0, 0] = 0.1  # still writable, and the stored block keeps its entry
    assert r.blocks[None][0, 0] == 0.5
    # an F-ordered block is stored C-ordered
    r = FockDensityMatrix(dim=2, modes=1, blocks={None: np.asfortranarray(np.eye(2) / 2)})
    assert r.blocks[None].flags.c_contiguous


@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
@pytest.mark.parametrize("build,p,dim", [
    (dsts_dm, DstsParams(0.3, 0.5, 0.1, 0.5j), 30),
    (dsts_dm, DstsParams(0.0, 0.4), 30),
    (dsts_dm, DstsParams(0.3, 0.5, 0.1, 0.5j), None),
    (sts2_dm, TwoModeStsParams(0.3, 0.4, 0.9, 0.5), 12),
    (sts2_dm, TwoModeStsParams(0.3, 0.0, 0.6, 0.2), 12),
    (sts2_dm, TwoModeStsParams(0.3, 0.2, 0.0), 12),
    (sts2_dm, TwoModeStsParams(0.2, 0.3, 0.7), None),
], ids=["dsts", "dsts-pure", "dsts-auto", "sts", "sts-nbar2-0", "sts-r-0", "sts-auto"])
def test_builders_store_c_ordered_blocks_that_own_their_memory(build, p, dim):
    r = build(p, dim)
    widths = set()
    for b in r.blocks.values():
        assert b.flags.c_contiguous and b.flags.owndata and not b.flags.writeable
        widths.add(b.shape[1])
    if build is sts2_dm and p.nbar2 == 0.0:
        assert widths == {0, 1}  # nbar2 = 0: one column per label, none for n1 < n2


def test_sts_build_at_the_cap_stores_only_its_blocks():
    # a dense (64^2, 64^2) complex factor would take 268 MB
    r = sts2_dm(TwoModeStsParams(0.3, 0.4, 0.9, 0.5), 64)
    assert sum(b.nbytes for b in r.blocks.values()) < 4e6


@pytest.mark.parametrize("bad,labelled", [
    (math.nan, False), (math.inf, False), (complex(0.0, math.nan), False), (math.nan, True),
], ids=["nan", "inf", "nan-imag", "label-block"])
def test_non_finite_factor_is_rejected(bad, labelled):
    factor = np.eye(2, dtype=complex) / math.sqrt(2.0)
    factor[1, 0] = bad
    modes, label = (2, 0) if labelled else (1, None)  # two-mode label 0 is |0, 0> and |1, 1>
    with pytest.raises(UnphysicalState, match="non-finite"):
        FockDensityMatrix(dim=2, modes=modes, blocks={label: factor})


def test_automatic_dims_log_one_debug_record(caplog):
    with caplog.at_level(logging.DEBUG, logger="cvgauss"):
        one = dsts_dm(DstsParams(0.3, 0.5, 0.1, 0.5j))
        two = sts2_dm(TwoModeStsParams(0.2, 0.3, 0.7))
        with pytest.warns(TruncationWarning):
            cut = dsts_dm(DstsParams(0.5, 20.0))
        # an explicit dim logs nothing
        dsts_dm(DstsParams(0.3, 0.5), 30)
        sts2_dm(TwoModeStsParams(0.2, 0.3, 0.7), 30)
    records = [r for r in caplog.records if r.name == "cvgauss"]
    assert [r.levelno for r in records] == [logging.DEBUG] * 3
    expected = [(one, 1, fock.MAX_DIM_ONE_MODE, False), (two, 2, fock.MAX_DIM_PER_MODE, False),
                (cut, 1, fock.MAX_DIM_ONE_MODE, True)]
    for record, (dm, modes, cap, cut_by_cap) in zip(records, expected):
        dim, logged_modes, logged_cap, logged_cut, tail = record.args
        assert (dim, logged_modes, logged_cap, logged_cut) == (dm.dim, modes, cap, cut_by_cap)
        assert tail == pytest.approx(dm.tail_mass, rel=1e-6)
        assert f"automatic Fock dim {dm.dim} " in record.getMessage()
