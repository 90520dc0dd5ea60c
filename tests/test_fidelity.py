import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cvgauss import (
    DstsParams,
    OneModeGaussianCF,
    TwoModeStsParams,
    cf_to_cov,
    cf_to_dsts,
    dsts_dm,
    dsts_to_cf,
    fidelity_one_mode,
    fidelity_two_mode_sts,
    sts2_dm,
    sts_to_cov2,
    trace_product,
    uhlmann_fidelity_numeric,
)
from cvgauss.fidelity import aligned_one_mode_distance, aligned_sts_distance
from cvgauss.states import R_MAX
from cvgauss.validate import (
    check_one_mode_oracle,
    check_pure_trace_product,
    matched_pair,
    random_dsts,
    random_sts,
)


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
    oracle = uhlmann_fidelity_numeric(dsts_dm(DstsParams(0.0), 200), dsts_dm(DstsParams(1.0), 200))
    assert abs(f - oracle) < 1e-13


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
    assert check_pure_trace_product(np.random.default_rng(229), 120, pairs=6) < 1e-13


def test_fidelity_dominates_trace_product_for_mixed_pairs():
    rng = np.random.default_rng(233)
    for _ in range(6):
        p1, p2 = random_dsts(rng), random_dsts(rng)
        closed = fidelity_one_mode(dsts_to_cf(p1), dsts_to_cf(p2))
        tr = trace_product(*matched_pair(dsts_dm, p1, p2))
        assert closed >= tr - 1e-12


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
    assert check_one_mode_oracle(np.random.default_rng(241), pairs=6) < 1e-7


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
    assert abs(closed - numeric) < 1e-9


# --- the per-search objectives against the typed fidelities -------------------

def _outcome(f, *args):
    """f(*args) as its exact bits, or the type and message of what it raised."""
    try:
        return float.hex(f(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _finite(f, *args):
    """Whether f(*args) is a finite float (an OverflowError counts as not)."""
    try:
        return math.isfinite(f(*args))
    except OverflowError:
        return False


# validate's domain, log-scaled extremes up to nbar = 1e8 and r = 12, and the
# whole constructible domain
_nbar = st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e),
                  st.floats(0.0, sys.float_info.max))
_r = st.one_of(st.just(0.0), st.floats(0.0, 1.5), st.floats(-6.0, math.log10(12.0)).map(lambda e: 10.0 ** e),
               st.floats(0.0, R_MAX))
_phi = st.floats(-math.pi, math.pi)
_alpha = st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False)

# The objectives are compared on trial points that construct a state, so the
# trial squeeze stays within R_MAX.  They drop the sin^2 term of the fidelities
# at phi' = phi.  Where its coefficient overflows, the fidelity reads that term
# as inf * 0 = nan, so the two agree only where the coefficient is finite.


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(n1=_nbar, r1=_r, phi=_phi, alpha=_alpha, n2=_nbar, r2=_r)
def test_one_mode_objective_is_the_fidelity_to_the_bit(n1, r1, phi, alpha, n2, r2):
    assume(_finite(lambda: 4.0 * math.sinh(2.0 * r1) * math.sinh(2.0 * r2)))
    p = DstsParams(n1, r1, phi, alpha)

    def through_fidelity(n2, r2):
        return 1.0 - math.sqrt(fidelity_one_mode(p, DstsParams(n2, r2, phi, alpha)))

    assert _outcome(aligned_one_mode_distance(n1, r1), n2, r2) == _outcome(through_fidelity, n2, r2)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(n1=_nbar, n2=_nbar, r=_r, phi=_phi, n1p=_nbar, n2p=_nbar, rp=_r)
def test_sts_objective_is_the_fidelity_to_the_bit(n1, n2, r, phi, n1p, n2p, rp):
    assume(_finite(lambda: ((n1 + 0.5) + (n2 + 0.5)) * ((n1p + 0.5) + (n2p + 0.5))
                   * (math.sinh(2.0 * r) * math.sinh(2.0 * rp))))
    p = TwoModeStsParams(n1, n2, r, phi)

    def through_fidelity(n1p, n2p, rp):
        return 1.0 - math.sqrt(fidelity_two_mode_sts(p, TwoModeStsParams(n1p, n2p, rp, phi)))

    assert (_outcome(aligned_sts_distance(n1, n2, r), n1p, n2p, rp)
            == _outcome(through_fidelity, n1p, n2p, rp))
