import math

import numpy as np
import pytest

from cvgauss import (
    DomainError,
    DstsParams,
    OneModeGaussianCF,
    TwoModeStsParams,
    bures_distance,
    cf_to_cov,
    cf_to_dsts,
    dsts_dm,
    dsts_to_cf,
    fidelity_one_mode,
    fidelity_two_mode_sts,
    sts2_dm,
    sts_to_cov2,
    thermal_dm,
    trace_product,
    uhlmann_fidelity_numeric,
)
from cvgauss.validate import random_dsts, random_sts


def test_identical_states_give_unit_fidelity():
    rng = np.random.default_rng(211)
    for _ in range(20):
        g = dsts_to_cf(random_dsts(rng))
        assert fidelity_one_mode(g, g) == pytest.approx(1.0, abs=1e-12)


def test_coherent_pair_closed_form():
    a1, a2 = 0.4 + 0.3j, -0.2 + 0.8j
    f = fidelity_one_mode(OneModeGaussianCF(0.0, 0j, a1), OneModeGaussianCF(0.0, 0j, a2))
    assert f == pytest.approx(math.exp(-abs(a1 - a2) ** 2), abs=1e-12)


def test_thermal_zero_vs_one_is_half():
    f = fidelity_one_mode(dsts_to_cf(DstsParams(0.0)), dsts_to_cf(DstsParams(1.0)))
    assert f == pytest.approx(0.5, abs=1e-12)
    oracle = uhlmann_fidelity_numeric(thermal_dm(0.0, 200), thermal_dm(1.0, 200))
    assert abs(f - oracle) < 1e-12


def test_symmetry():
    rng = np.random.default_rng(223)
    for _ in range(40):
        g1, g2 = dsts_to_cf(random_dsts(rng)), dsts_to_cf(random_dsts(rng))
        assert abs(fidelity_one_mode(g1, g2) - fidelity_one_mode(g2, g1)) < 1e-12


def test_bounds():
    rng = np.random.default_rng(227)
    for _ in range(60):
        f = fidelity_one_mode(dsts_to_cf(random_dsts(rng)), dsts_to_cf(random_dsts(rng)))
        assert -1e-12 <= f <= 1.0 + 1e-12


def test_pure_states_fidelity_equals_trace_product():
    rng = np.random.default_rng(229)
    for _ in range(6):
        p1 = DstsParams(0.0, rng.uniform(0, 0.8), rng.uniform(-math.pi, math.pi),
                        complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)))
        p2 = DstsParams(0.0, rng.uniform(0, 0.8), rng.uniform(-math.pi, math.pi),
                        complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)))
        closed = fidelity_one_mode(dsts_to_cf(p1), dsts_to_cf(p2))
        tr = trace_product(dsts_dm(p1, 120), dsts_dm(p2, 120))
        assert abs(closed - tr) < 1e-8


def test_fidelity_dominates_trace_product_for_mixed_pairs():
    rng = np.random.default_rng(233)
    for _ in range(6):
        p1, p2 = random_dsts(rng), random_dsts(rng)
        closed = fidelity_one_mode(dsts_to_cf(p1), dsts_to_cf(p2))
        tr = trace_product(dsts_dm(p1, 120), dsts_dm(p2, 120))
        assert closed >= tr - 1e-8


def test_displacement_invariance():
    rng = np.random.default_rng(239)
    for _ in range(20):
        p1, p2 = random_dsts(rng), random_dsts(rng)
        beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        f = fidelity_one_mode(dsts_to_cf(p1), dsts_to_cf(p2))
        p1s = DstsParams(p1.nbar, p1.r, p1.phi, p1.alpha + beta)
        p2s = DstsParams(p2.nbar, p2.r, p2.phi, p2.alpha + beta)
        fs = fidelity_one_mode(dsts_to_cf(p1s), dsts_to_cf(p2s))
        assert abs(f - fs) < 1e-12


def test_one_mode_matches_fock_oracle():
    rng = np.random.default_rng(241)
    for _ in range(6):
        p1, p2 = random_dsts(rng), random_dsts(rng)
        closed = fidelity_one_mode(dsts_to_cf(p1), dsts_to_cf(p2))
        numeric = uhlmann_fidelity_numeric(dsts_dm(p1, 120), dsts_dm(p2, 120))
        assert abs(closed - numeric) < 1e-6


def test_intermediates_invariants():
    # Delta = det(V + V') > 0 and nbar >= 0 of each CF argument, exactly 0 when pure
    rng = np.random.default_rng(251)
    for _ in range(30):
        g1, g2 = dsts_to_cf(random_dsts(rng)), dsts_to_cf(random_dsts(rng))
        assert np.linalg.det(cf_to_cov(g1) + cf_to_cov(g2)) > 0.0
        assert cf_to_dsts(g1).nbar >= 0.0 and cf_to_dsts(g2).nbar >= 0.0
    pure = dsts_to_cf(DstsParams(0.0, 0.9, 0.4, 0.2j))
    assert cf_to_dsts(pure).nbar == 0.0


# --- two-mode ---------------------------------------------------------------

def test_two_mode_identical_states():
    rng = np.random.default_rng(257)
    for _ in range(10):
        p = random_sts(rng, nbar_max=1.5, r_max=1.2)
        assert fidelity_two_mode_sts(p, p) == pytest.approx(1.0, abs=1e-12)


def test_two_mode_multiplicativity_for_thermal_pairs():
    rng = np.random.default_rng(263)
    for _ in range(20):
        n = [rng.uniform(0, 2) for _ in range(4)]
        f2 = fidelity_two_mode_sts(TwoModeStsParams(n[0], n[1], 0.0),
                                   TwoModeStsParams(n[2], n[3], 0.0))
        f_a = fidelity_one_mode(dsts_to_cf(DstsParams(n[0])), dsts_to_cf(DstsParams(n[2])))
        f_b = fidelity_one_mode(dsts_to_cf(DstsParams(n[1])), dsts_to_cf(DstsParams(n[3])))
        assert abs(f2 - f_a * f_b) < 1e-10


def test_two_mode_symmetry_and_bounds():
    rng = np.random.default_rng(269)
    for _ in range(20):
        p1, p2 = random_sts(rng), random_sts(rng)
        f12 = fidelity_two_mode_sts(p1, p2)
        assert abs(f12 - fidelity_two_mode_sts(p2, p1)) < 1e-12
        assert -1e-12 <= f12 <= 1.0 + 1e-12


def test_two_mode_intermediates_nonnegative():
    # det(V + V') of the sum that fidelity_two_mode_sts takes the square root of
    rng = np.random.default_rng(271)
    for _ in range(20):
        p1, p2 = random_sts(rng), random_sts(rng)
        assert np.linalg.det(sts_to_cov2(p1) + sts_to_cov2(p2)) > 0.0


def test_two_mode_matches_fock_oracle_example():
    p1 = TwoModeStsParams(0.2, 0.2, 0.6, 0.0)
    p2 = TwoModeStsParams(0.2, 0.2, 0.9, 0.0)
    closed = fidelity_two_mode_sts(p1, p2)
    numeric = uhlmann_fidelity_numeric(sts2_dm(p1, 40), sts2_dm(p2, 40))
    assert abs(closed - numeric) < 1e-6


# --- Bures distance -----------------------------------------------------------

def test_bures_trivial_values():
    assert bures_distance(1.0) == 0.0
    assert bures_distance(0.0) == pytest.approx(math.sqrt(2.0))
    assert bures_distance(0.25) == pytest.approx(1.0)


def test_bures_domain():
    with pytest.raises(DomainError):
        bures_distance(-0.01)
    with pytest.raises(DomainError):
        bures_distance(1.01)
