import math
from dataclasses import astuple

import numpy as np
import pytest

from cvgauss import (
    DomainError,
    TwoModeStsParams,
    UnphysicalState,
    closest_separable,
    closest_separable_numeric,
    degree_e0,
    entropy_of_entanglement_svs,
    peres_simon_separable,
    separability_threshold_rs,
    sts_to_cov2,
)
from cvgauss.states import R_MAX
from cvgauss.validate import (
    check_minimizer,
    check_separability_bisection,
    check_svs_entropy,
)

# frozen via the numeric minimizer over the separable set (pure STS r=1)
E0_PURE_R1 = 0.35194572633611454

#: tolerance on the parameters of a returned closest separable state
ARGMIN_TOL = 1e-6


def assert_separable_argmin(p, state):
    """A closest separable state found for p is the closed-form one, and
    assert_kept_exactly holds."""
    assert astuple(state) == pytest.approx(astuple(closest_separable(p)), abs=ARGMIN_TOL)
    assert_kept_exactly(p, state)


def assert_kept_exactly(p, state):
    """A closest separable state found for p keeps the squeeze angle exactly,
    and has parameters of the built-in types."""
    assert state.phi == p.phi
    assert all(type(v) is float for v in (state.nbar1, state.nbar2, state.r, state.phi))


def test_threshold_values():
    assert separability_threshold_rs(0.0, 0.0) == 0.0
    assert separability_threshold_rs(1.0, 1.0) == pytest.approx(
        math.acosh(2.0 / math.sqrt(3.0)), abs=1e-14)
    assert separability_threshold_rs(1.0, 1.0) == pytest.approx(0.5 * math.log(3.0), abs=1e-14)
    assert separability_threshold_rs(1.0, 0.0) == 0.0


def test_threshold_domain():
    with pytest.raises(DomainError):
        separability_threshold_rs(-0.2, 1.0)
    for bad in ((math.inf, math.inf), (math.inf, 1.0), (0.5, math.inf), (math.nan, 0.5)):
        with pytest.raises(DomainError):
            separability_threshold_rs(*bad)


def test_peres_simon_thermal_product_is_separable():
    assert peres_simon_separable(sts_to_cov2(TwoModeStsParams(0.8, 1.7, 0.0)))


def test_peres_simon_pure_sts_is_entangled():
    assert not peres_simon_separable(sts_to_cov2(TwoModeStsParams(0.0, 0.0, 0.5)))


def test_peres_simon_hot_sts_is_separable():
    # r_s(1, 1) = arccosh(2/sqrt 3) ~ 0.5493 > 0.5
    assert peres_simon_separable(sts_to_cov2(TwoModeStsParams(1.0, 1.0, 0.5)))
    # a warm STS scaled by 1e70 is hot, and its invariants still fit in a double
    # (at 1e80 they overflow)
    assert peres_simon_separable(1e70 * sts_to_cov2(TwoModeStsParams(0.1, 0.2, 0.5)))


def test_peres_simon_rejects_unphysical_matrix():
    # positive definite, but q-q and p-p both positively correlated at
    # zero temperature: impossible quantum mechanically
    m = 0.5 * np.eye(4)
    m[:2, 2:] = m[2:, :2] = 0.3 * np.eye(2)
    with pytest.raises(UnphysicalState):
        peres_simon_separable(m)


def test_peres_simon_rejects_sub_vacuum_blocks():
    # eps I is positive definite and passes the two-mode inequality for any
    # eps: det V1 = det V2 = eps^2, det C = 0 and det V = eps^4 leave the gap
    # (eps^2 - 1/4)^2, but each mode block has det = eps^2 < 1/4
    eps = 0.4
    assert np.linalg.det(eps * np.eye(4)) - 0.5 * eps ** 2 + 0.0625 > 0.0
    with pytest.raises(UnphysicalState, match="uncertainty relation"):
        peres_simon_separable(eps * np.eye(4))


def test_peres_simon_rejects_nan_uncertainty_gap():
    # finite entries whose invariants overflow, where the gap would be inf - inf = nan
    big = 1e160
    m = [[big, 0, big, 0], [0, big, 0, -big], [big, 0, big, 0], [0, -big, 0, big]]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(UnphysicalState, match="uncertainty inequality"):
            peres_simon_separable(m)


@pytest.mark.parametrize("m", [
    sts_to_cov2(TwoModeStsParams(1e100, 1e100, 0.5)),
    sts_to_cov2(TwoModeStsParams(1e8, 1e150, 1e-8)),
    1e80 * sts_to_cov2(TwoModeStsParams(0.1, 0.2, 0.5)),
], ids=["hot", "lopsided", "scaled"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_peres_simon_rejects_overflowing_invariants(m):
    # finite, physical matrices whose invariants or tolerance scale overflow,
    # with no numpy warning ahead of the package's own exception
    with pytest.raises(UnphysicalState, match="overflow"):
        peres_simon_separable(m)


@pytest.mark.parametrize("m", [
    np.eye(3),
    np.full((4, 4), np.nan),
    np.eye(4) + np.triu(0.1 * np.ones((4, 4)), 1),
], ids=["3x3", "nan", "asymmetric"])
def test_peres_simon_rejects_malformed_array(m):
    with pytest.raises(DomainError):
        peres_simon_separable(m)


def test_peres_simon_accepts_nested_lists():
    assert peres_simon_separable(sts_to_cov2(TwoModeStsParams(0.0, 0.0, 0.5)).tolist()) is False


def test_criterion_flips_exactly_at_threshold():
    assert check_separability_bisection(np.random.default_rng(401), samples=10) < 1e-6


def test_degree_vanishes_for_separable():
    rng = np.random.default_rng(409)
    for _ in range(20):
        n1, n2 = rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0)
        r = rng.uniform(0.0, 1.0) * separability_threshold_rs(n1, n2)
        assert degree_e0(TwoModeStsParams(n1, n2, r, rng.uniform(-3, 3))) == 0.0


def test_degree_pure_sts():
    assert degree_e0(TwoModeStsParams(0.0, 0.0, 1.0)) == pytest.approx(E0_PURE_R1, abs=1e-12)


def test_degree_warm_sts():
    rs = separability_threshold_rs(0.1, 0.1)
    assert rs == pytest.approx(0.5 * math.log(1.2), abs=1e-14)
    expected = 1.0 - 1.0 / math.cosh(1.0 - rs)
    assert degree_e0(TwoModeStsParams(0.1, 0.1, 1.0)) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.3066, abs=5e-4)


def test_degree_symmetric_under_occupancy_swap():
    rng = np.random.default_rng(419)
    for _ in range(20):
        n1, n2, r = rng.uniform(0, 1.5), rng.uniform(0, 1.5), rng.uniform(0, 2)
        assert degree_e0(TwoModeStsParams(n1, n2, r)) == pytest.approx(
            degree_e0(TwoModeStsParams(n2, n1, r)), abs=1e-15)


def test_degree_depends_only_on_gap_above_threshold():
    gap = 0.42
    values = []
    for n1, n2 in [(0.0, 0.0), (0.3, 0.8), (1.4, 0.2)]:
        r = separability_threshold_rs(n1, n2) + gap
        values.append(degree_e0(TwoModeStsParams(n1, n2, r)))
    assert max(values) - min(values) < 1e-14


def test_degree_range_and_phase_independence():
    rng = np.random.default_rng(421)
    for _ in range(30):
        p = TwoModeStsParams(rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 3))
        e = degree_e0(p)
        assert 0.0 <= e < 1.0
        assert e == degree_e0(TwoModeStsParams(p.nbar1, p.nbar2, p.r, 1.7))
    rc = separability_threshold_rs(0.5, 0.5)
    assert degree_e0(TwoModeStsParams(0.5, 0.5, rc)) == 0.0
    assert degree_e0(TwoModeStsParams(0.5, 0.5, rc + 1e-9)) < 1e-12


def test_symmetric_degree_is_a_function_of_log_negativity():
    # for nbar1 = nbar2, E0 = 1 - sech(E_N / 2), with E_N = -ln 2 nu the
    # logarithmic negativity and nu the smallest symplectic eigenvalue of the
    # partial transpose (Vidal and Werner, PRA 65, 032314 (2002)); both vanish
    # on the separable set
    omega = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    flip = np.diag([1.0, 1.0, 1.0, -1.0])  # p2 -> -p2 transposes mode 2
    rng = np.random.default_rng(1020)
    for _ in range(2000):
        nbar = rng.uniform(0.0, 3.0)
        p = TwoModeStsParams(nbar, nbar, rng.uniform(0.0, 2.5), rng.uniform(-math.pi, math.pi))
        nu = np.abs(np.linalg.eigvals(1j * omega @ flip @ sts_to_cov2(p) @ flip)).min()
        log_negativity = max(0.0, -math.log(2.0 * nu))
        assert abs(degree_e0(p) - (1.0 - 1.0 / math.cosh(0.5 * log_negativity))) < 1e-10


def test_closest_separable_trivial_for_separable_input():
    p = TwoModeStsParams(1.0, 1.0, 0.4)
    state, value = closest_separable_numeric(p)
    assert state == p and value == 0.0
    assert closest_separable(p) is p


def test_closest_separable_names_the_overflow():
    # (nbar1 + nbar2) sinh 2r overflows
    with pytest.raises(UnphysicalState, match="overflows double precision"):
        closest_separable(TwoModeStsParams(1e300, 0.0, 300.0))


def test_closest_separable_pure_sts():
    p = TwoModeStsParams(0.0, 0.0, 1.0)
    state, value = closest_separable_numeric(p)
    assert value == pytest.approx(E0_PURE_R1, abs=1e-4)
    # the closest separable state of a pure STS is the two-mode vacuum
    assert max(state.nbar1, state.nbar2, state.r) <= ARGMIN_TOL
    assert_separable_argmin(p, state)


def test_closest_separable_pinned_state():
    p = TwoModeStsParams(0.2, 0.5, 1.2)
    state, value = closest_separable_numeric(p)
    assert abs(value - degree_e0(p)) < 1e-12
    assert state.nbar1 == pytest.approx(1.1540907, abs=ARGMIN_TOL)
    assert state.nbar2 == pytest.approx(1.4540907, abs=ARGMIN_TOL)
    assert state.r == pytest.approx(0.6378414, abs=ARGMIN_TOL)
    assert_separable_argmin(p, state)


def test_closest_separable_matches_closed_form():
    def search(p):
        # check_minimizer compares the state with closest_separable(p)
        state, value = closest_separable_numeric(p)
        assert_kept_exactly(p, state)
        return state, value

    results = check_minimizer(
        np.random.default_rng(431),
        lambda g: TwoModeStsParams(g.uniform(0, 0.8), g.uniform(0, 0.8),
                                   g.uniform(0, 1.5), g.uniform(-3, 3)),
        degree_e0, search, closest_separable, "entanglement", "separable", samples=3)
    assert all(r.passed for r in results), results


def test_entropy_of_entanglement():
    assert entropy_of_entanglement_svs(0.0) == 0.0
    assert check_svs_entropy() <= 1e-13
    assert entropy_of_entanglement_svs(1.5) > entropy_of_entanglement_svs(1.0)
    with pytest.raises(DomainError):
        entropy_of_entanglement_svs(-0.5)


@pytest.mark.parametrize("r", [12.0, 15.0, 18.0, 20.0, 100.0, R_MAX, 400.0])
def test_entropy_of_entanglement_to_double_precision(r):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        # both terms positive: no cancellation at any n
        n = mpmath.sinh(mpmath.mpf(r)) ** 2
        exact = mpmath.log1p(n) + n * mpmath.log1p(1 / n)
        assert abs(entropy_of_entanglement_svs(r) - exact) <= 1e-14 * exact
