"""Roundoff of the closed forms, against the mpmath reference of
``mp_reference`` and as properties over log-scaled domains."""

import math
import sys

import numpy as np
import pytest

from cvgauss import (
    DomainError,
    DstsParams,
    TwoModeStsParams,
    UnphysicalState,
    closest_classical,
    closest_classical_numeric,
    closest_separable,
    closest_separable_numeric,
    degree_e0,
    degree_q0,
    dsts_to_cf,
    fidelity_one_mode,
    fidelity_two_mode_sts,
    is_classical,
    nonclassicality_threshold,
    parse_state,
    resource_noise,
    separability_threshold_rs,
    state_to_dict,
    sweep_fig2,
    teleport_fidelity,
    teleport_fidelity_from_states,
    teleport_symmetric_sts,
    teleport_with_noise,
    z_from_e0,
)
from cvgauss.states import R_MAX
from cvgauss.teleport import FIG2_E0S, e0_from_z
from cvgauss.validate import check_minimizer, random_dsts, random_sts

pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from mp_reference import (  # noqa: E402
    DPS,
    mp,
    mp_closest_classical,
    mp_closest_separable,
    mp_degree_e0,
    mp_degree_q0,
    mp_fidelity_one_mode,
    mp_fidelity_two_mode,
    mp_nonclassicality_threshold,
    mp_resource_noise,
    mp_separability_threshold,
    mp_teleport_fidelity,
    mp_teleport_map,
    mpf,
    rel_err,
)

#: worst relative error allowed against the reference
REL_TOL = 1e-14


# --- log-scaled samples inside parse_state's bound ------------------------------

def in_domain(state) -> bool:
    try:
        parse_state(state_to_dict(state))
    except DomainError:
        return False
    return True


def draw_nbar(rng) -> float:
    return 0.0 if rng.uniform() < 0.2 else float(10.0 ** rng.uniform(-8.0, 8.0))


def draw_r(rng) -> float:
    u = rng.uniform()
    if u < 0.1:
        return 0.0
    return float(rng.uniform(0.0, 89.0)) if u < 0.6 else float(10.0 ** rng.uniform(-6.0, 1.0))


def nudge(rng, x: float) -> float:
    """x moved by a relative 1e-6 at most (an absolute one at 0)."""
    return abs(x + 1e-6 * max(abs(x), 1.0) * rng.uniform(-1.0, 1.0))


def dsts_pairs(rng, count: int):
    """Half near-equal pairs, half independent ones, with a displacement
    difference that keeps E <= 4 (larger E only scales exp(-E)'s roundoff)."""
    pairs = []
    while len(pairs) < count:
        p = DstsParams(draw_nbar(rng), draw_r(rng), rng.uniform(-math.pi, math.pi))
        if len(pairs) % 2:
            q = DstsParams(nudge(rng, p.nbar), nudge(rng, p.r), nudge(rng, p.phi))
        else:
            q = DstsParams(draw_nbar(rng), draw_r(rng), rng.uniform(-math.pi, math.pi))
        y1, y2 = p.nbar + 0.5, q.nbar + 0.5
        delta_lb = y1 * y1 + y2 * y2 + 2.0 * y1 * y2 * math.cosh(2.0 * (p.r - q.r))
        scale = math.sqrt(rng.uniform(0.0, 4.0) * delta_lb
                          / (y1 * math.exp(2.0 * p.r) + y2 * math.exp(2.0 * q.r)))
        a = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        d = scale * complex(math.cos(t := rng.uniform(0.0, 2.0 * math.pi)), math.sin(t))
        p, q = DstsParams(p.nbar, p.r, p.phi, a), DstsParams(q.nbar, q.r, q.phi, a + d)
        if in_domain(p) and in_domain(q):
            pairs.append((p, q))
    return pairs


def sts_pairs(rng, count: int):
    pairs = []
    while len(pairs) < count:
        p = TwoModeStsParams(draw_nbar(rng), draw_nbar(rng), draw_r(rng),
                             rng.uniform(-math.pi, math.pi))
        if len(pairs) % 2:
            q = TwoModeStsParams(nudge(rng, p.nbar1), nudge(rng, p.nbar2), nudge(rng, p.r),
                                 nudge(rng, p.phi))
        else:
            q = TwoModeStsParams(draw_nbar(rng), draw_nbar(rng), draw_r(rng),
                                 rng.uniform(-math.pi, math.pi))
        if in_domain(p) and in_domain(q):
            pairs.append((p, q))
    return pairs


# --- the closed forms against the reference --------------------------------------

def test_one_mode_fidelity_matches_mpmath():
    worst = max(rel_err(fidelity_one_mode(p, q), mp_fidelity_one_mode(p, q))
                for p, q in dsts_pairs(np.random.default_rng(1001), 400))
    assert worst <= REL_TOL


def test_aligned_phase_and_displacement_maximize_the_fidelity_in_mpmath():
    # the premise of closest_classical_numeric's (nbar', r') search, in the
    # reference: turning phi' and alpha' of q onto those of p raises F
    for p, q in dsts_pairs(np.random.default_rng(1002), 20):
        aligned = DstsParams(q.nbar, q.r, p.phi, p.alpha)
        ref = mp.re(mp_fidelity_one_mode(p, aligned))
        assert mp.re(mp_fidelity_one_mode(p, q)) <= ref
        assert rel_err(fidelity_one_mode(p, aligned), ref) <= REL_TOL


def test_aligned_phase_maximizes_the_two_mode_fidelity_in_mpmath():
    # the premise of closest_separable_numeric's (nbar1', nbar2', r') search,
    # in the reference: turning phi' of q onto that of p raises F
    for p, q in sts_pairs(np.random.default_rng(1004), 20):
        aligned = TwoModeStsParams(q.nbar1, q.nbar2, q.r, p.phi)
        ref = mp_fidelity_two_mode(p, aligned)
        assert mp_fidelity_two_mode(p, q) <= ref
        assert rel_err(fidelity_two_mode_sts(p, aligned), ref) <= REL_TOL


def test_two_mode_fidelity_matches_mpmath():
    worst = max(rel_err(fidelity_two_mode_sts(p, q), mp_fidelity_two_mode(p, q))
                for p, q in sts_pairs(np.random.default_rng(1003), 300))
    assert worst <= REL_TOL


def test_teleport_fidelity_matches_mpmath():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(400):
        p = DstsParams(draw_nbar(rng), draw_r(rng))
        if not in_domain(p):
            continue
        x, y = math.cosh(2.0 * p.r), p.nbar + 0.5
        z = 0.0 if rng.uniform() < 0.1 else float(10.0 ** rng.uniform(-8.0, 1.0))
        worst = max(worst, rel_err(teleport_fidelity(x, y, z), mp_teleport_fidelity(x, y, z)))
    assert worst <= REL_TOL


def test_teleport_map_matches_mpmath():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(400):
        p = DstsParams(draw_nbar(rng), draw_r(rng), rng.uniform(-math.pi, math.pi), 0.3 - 0.1j)
        if not in_domain(p):
            continue
        z = 0.0 if rng.uniform() < 0.1 else float(10.0 ** rng.uniform(-8.0, 1.0))
        out = teleport_with_noise(p, z)
        nbar_ref, r_ref = mp_teleport_map(p, z)
        assert out.alpha == p.alpha and abs(out.phi - p.phi) <= 1e-15
        worst = max(worst,
                    rel_err(out.nbar, nbar_ref), rel_err(out.r, r_ref))
    assert worst <= REL_TOL


def test_resource_noise_matches_mpmath():
    rng = np.random.default_rng(1009)
    worst = 0.0
    for res, _ in sts_pairs(rng, 400):
        worst = max(worst, rel_err(resource_noise(res), mp_resource_noise(res)))
    assert worst <= REL_TOL


def test_separability_threshold_matches_mpmath():
    # sinh^2 r_s = n1 n2/(n1 + n2 + 1) used to go through acosh, which lost all
    # of r_s below nbar ~ 1e-8
    rng = np.random.default_rng(1011)
    cases = [(float(10.0 ** rng.uniform(-12.0, 8.0)), float(10.0 ** rng.uniform(-12.0, 8.0)))
             for _ in range(300)]
    cases += [(n, n) for n, _ in cases[:100]]
    cases += [(sys.float_info.max, sys.float_info.max), (sys.float_info.max, 1e-12)]
    worst = max(rel_err(separability_threshold_rs(n1, n2), mp_separability_threshold(n1, n2))
                for n1, n2 in cases)
    assert worst <= REL_TOL


def test_fig2_default_sweep_matches_mpmath():
    grid = np.linspace(0.0, 0.99, 99)
    for e0, rows in sweep_fig2(FIG2_E0S, grid).items():
        z = z_from_e0(e0)
        for q_in, q_out in rows:
            r_in = math.acosh(1.0 / (1.0 - q_in) ** 2) if q_in > 0.0 else 0.0
            with mp.workdps(DPS):
                ref = mp_degree_q0(*mp_teleport_map(DstsParams(0.0, r_in), z))
                assert abs(q_out - ref) <= 1e-12


def test_fig2_curves_are_monotone_and_degrade_q_through_q_in_099():
    for e0, rows in sweep_fig2(FIG2_E0S, np.linspace(0.0, 0.99, 512)).items():
        q_outs = [q_out for _, q_out in rows]
        assert all(b >= a for a, b in zip(q_outs, q_outs[1:])), e0
        if e0 == 1.0:
            assert all(abs(q_out - q_in) <= 1e-12 for q_in, q_out in rows)
        else:
            assert all(q_out < q_in for q_in, q_out in rows if q_in > 0.0), e0


# --- overflow is loud ------------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda: teleport_fidelity(1.0, 1e200, 0.5),
    lambda: fidelity_one_mode(DstsParams(1e200), DstsParams(1e200)),
    lambda: fidelity_two_mode_sts(TwoModeStsParams(1e200, 0.0), TwoModeStsParams(1e200, 0.0)),
    lambda: resource_noise(TwoModeStsParams(1e300, 0.0, 300.0, 1.0)),
    lambda: teleport_symmetric_sts(DstsParams(0.0), math.inf, 1.0),
], ids=["teleport", "one-mode", "two-mode", "resource-noise", "infinite-resource"])
def test_overflowing_closed_form_raises(call):
    with pytest.raises(UnphysicalState, match="overflows double precision"):
        call()


# e^{2r} has no double above R_MAX, about 354.9, and the parameter types
# reject such r before any closed form runs
_R_PAST_EXP = 400.0


@pytest.mark.parametrize("call", [
    lambda: fidelity_one_mode(DstsParams(0.0, _R_PAST_EXP), DstsParams(0.0, _R_PAST_EXP)),
    lambda: fidelity_one_mode(DstsParams(0.0, 1.0), DstsParams(0.3, _R_PAST_EXP)),
    lambda: fidelity_two_mode_sts(TwoModeStsParams(0.0, 0.0, _R_PAST_EXP),
                                  TwoModeStsParams(0.0, 0.0, _R_PAST_EXP)),
    lambda: teleport_with_noise(DstsParams(0.0, _R_PAST_EXP), 0.1),
    lambda: teleport_fidelity_from_states(DstsParams(0.0, _R_PAST_EXP), 0.1, 1.0),
    lambda: closest_classical_numeric(DstsParams(0.0, _R_PAST_EXP)),
    lambda: closest_separable_numeric(TwoModeStsParams(0.0, 0.0, _R_PAST_EXP)),
], ids=["one-mode", "one-mode-mixed", "two-mode", "teleport-map", "teleport-fidelity",
        "closest-classical", "closest-separable"])
def test_squeeze_past_exp_range_raises(call):
    with pytest.raises(UnphysicalState, match="overflows double precision"):
        call()


def test_degrees_reach_their_limit_at_r_max():
    assert degree_q0(DstsParams(0.0, R_MAX)) == 1.0
    assert degree_e0(TwoModeStsParams(0.0, 0.0, R_MAX)) == 1.0


# --- properties over log-scaled domains ------------------------------------------

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

log_nbar = st.one_of(st.just(0.0), st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e))
log_r = st.one_of(st.just(0.0), st.floats(-6.0, math.log10(89.0)).map(lambda e: 10.0 ** e))
angle = st.floats(-math.pi, math.pi)
alpha = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@st.composite
def dsts(draw, nbar=log_nbar, r=log_r):
    p = DstsParams(draw(nbar), draw(r), draw(angle), draw(alpha))
    assume(in_domain(p))
    return p


@st.composite
def sts(draw):
    p = TwoModeStsParams(draw(log_nbar), draw(log_nbar), draw(log_r), draw(angle))
    assume(in_domain(p))
    return p


#: the domain validate draws from (uniform occupancies up to 5, squeeze up to
#: 2).  It holds no occupancy between 0 and 1e-3: the CF form rounds nbar at
#: y = nbar + 1/2 and snaps it to 0 below eps (a + 1/2)^2, and sqrt(Lambda)
#: magnifies either to about 1e-8 at nbar = 2e-16 (see CHANGES.md).
validate_dsts = dsts(nbar=st.one_of(st.just(0.0), st.floats(1e-3, 5.0)), r=st.floats(0.0, 2.0))


@PROPERTY
@given(dsts(), dsts())
def test_one_mode_properties(p, q):
    f = fidelity_one_mode(p, q)
    assert 0.0 <= f <= 1.0
    assert abs(fidelity_one_mode(q, p) - f) <= 1e-15 * f
    assert abs(fidelity_one_mode(p, p) - 1.0) <= 1e-15


@PROPERTY
@given(sts(), sts())
def test_two_mode_properties(p, q):
    f = fidelity_two_mode_sts(p, q)
    assert 0.0 <= f <= 1.0
    assert abs(fidelity_two_mode_sts(q, p) - f) <= 1e-15 * f
    assert abs(fidelity_two_mode_sts(p, p) - 1.0) <= 1e-15
    # relabelling the modes of both states leaves F unchanged, bit for bit
    p2, q2 = (TwoModeStsParams(s.nbar2, s.nbar1, s.r, s.phi) for s in (p, q))
    assert fidelity_two_mode_sts(p2, q2) == f


@PROPERTY
@given(dsts(), st.one_of(st.just(0.0), st.floats(-8.0, 1.0).map(lambda e: 10.0 ** e)))
def test_teleport_fidelity_properties(p, z):
    x, y = math.cosh(2.0 * p.r), p.nbar + 0.5
    assert 0.0 <= teleport_fidelity(x, y, z) <= 1.0
    assert abs(teleport_fidelity(x, y, 0.0) - 1.0) <= 1e-15


@PROPERTY
@given(validate_dsts, validate_dsts, st.floats(0.0, 1.5))
def test_physical_and_cf_arguments_agree(p, q, z):
    g, h = dsts_to_cf(p), dsts_to_cf(q)
    assert abs(fidelity_one_mode(g, h) - fidelity_one_mode(p, q)) <= 1e-10
    via_cf = fidelity_one_mode(g, teleport_with_noise(g, z))
    via_params = fidelity_one_mode(p, teleport_with_noise(p, z))
    closed = teleport_fidelity(math.cosh(2.0 * p.r), p.nbar + 0.5, z)
    assert abs(via_cf - closed) <= 1e-10 and abs(via_params - closed) <= 1e-10


@PROPERTY
@given(sts())
def test_symmetric_resource_adds_the_least_noise(res):
    # z >= e^{-2 (r - r_s)}, with equality for nbar1 = nbar2 at phi = 0 (or r = 0)
    z = resource_noise(res)
    bound = math.exp(-2.0 * (res.r - separability_threshold_rs(res.nbar1, res.nbar2)))
    assert z >= bound * (1.0 - 1e-14)
    if res.nbar1 == res.nbar2 and (res.phi == 0.0 or res.r == 0.0):
        assert z <= bound * (1.0 + 1e-14)


@PROPERTY
@given(st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.01, 2.0), angle)
def test_asymmetric_or_rotated_resource_adds_more_noise(nbar1, nbar2, r, phi):
    assume(abs(nbar1 - nbar2) > 1e-3 or abs(phi) > 1e-3)
    res = TwoModeStsParams(nbar1, nbar2, r, phi)
    bound = math.exp(-2.0 * (r - separability_threshold_rs(nbar1, nbar2)))
    assert resource_noise(res) > bound * (1.0 + 1e-10)


@PROPERTY
@given(log_nbar, log_r)
def test_symmetric_resource_noise_gives_degree_e0(nbar, r):
    res = TwoModeStsParams(nbar, nbar, r)
    assume(in_domain(res))
    z = resource_noise(res)
    assume(0.0 < z < 1.0)
    assert abs(e0_from_z(z) - degree_e0(res)) <= 1e-12


@PROPERTY
@given(dsts(), dsts())
def test_aligned_phase_and_displacement_maximize_the_fidelity(p, q):
    # at every (nbar', r') = (q.nbar, q.r) the fidelity is largest, up to its
    # roundoff, at phi' = phi and alpha' = alpha, so closest_classical_numeric
    # needs to search (nbar', r') only
    aligned = fidelity_one_mode(p, DstsParams(q.nbar, q.r, p.phi, p.alpha))
    for phi, alpha in ((q.phi, q.alpha), (q.phi, p.alpha), (p.phi, q.alpha)):
        other = fidelity_one_mode(p, DstsParams(q.nbar, q.r, phi, alpha))
        assert other <= aligned * (1.0 + 1e-15)


@PROPERTY
@given(sts(), sts())
def test_aligned_phase_maximizes_the_two_mode_fidelity(p, q):
    # at every (nbar1', nbar2', r') = (q.nbar1, q.nbar2, q.r) the fidelity is
    # largest, up to its roundoff, at phi' = phi, so closest_separable_numeric
    # needs to search (nbar1', nbar2', r') only
    aligned = fidelity_two_mode_sts(p, TwoModeStsParams(q.nbar1, q.nbar2, q.r, p.phi))
    assert fidelity_two_mode_sts(p, q) <= aligned * (1.0 + 1e-15)


@PROPERTY
@given(log_nbar, log_r, log_r)
def test_degree_q0_is_monotone_in_r_and_zero_at_the_threshold(nbar, r1, r2):
    lo, hi = sorted((r1, r2))
    assert degree_q0(DstsParams(nbar, lo)) <= degree_q0(DstsParams(nbar, hi))
    assert degree_q0(DstsParams(nbar, nonclassicality_threshold(nbar))) == 0.0


@PROPERTY
@given(log_nbar, log_nbar, angle, log_r, log_r)
def test_degree_e0_is_monotone_in_r_and_zero_at_the_threshold(nbar1, nbar2, phi, r1, r2):
    lo, hi = sorted((r1, r2))
    assert (degree_e0(TwoModeStsParams(nbar1, nbar2, lo, phi))
            <= degree_e0(TwoModeStsParams(nbar1, nbar2, hi, phi)))
    rs = separability_threshold_rs(nbar1, nbar2)
    assert degree_e0(TwoModeStsParams(nbar1, nbar2, rs, phi)) == 0.0


@PROPERTY
@given(log_nbar, log_nbar, st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e))
def test_degrees_are_continuous_past_the_threshold(nbar1, nbar2, h):
    # both degrees grow as the square of the gap, so h past the threshold
    # they are at most h
    assert degree_q0(DstsParams(nbar1, nonclassicality_threshold(nbar1) + h)) <= h
    rs = separability_threshold_rs(nbar1, nbar2)
    assert degree_e0(TwoModeStsParams(nbar1, nbar2, rs + h)) <= h


# --- the degrees near the threshold ------------------------------------------------

EPS = sys.float_info.epsilon

#: the gap past the threshold, down to where Q0 ~ g^2/4 nears the subnormals
near_gap = st.floats(-150.0, math.log10(32.0)).map(lambda e: 10.0 ** e)


def assert_degree_within_its_condition(value: float, ref, r: float, r_th: float, gap) -> None:
    """A degree of gap g = r - r_th against its reference: rounding r_th moves
    g by a few ulp of r_th, so the relative error may grow as (r + r_th)/g."""
    assert abs(mpf(value) - ref) <= 8 * EPS * (1 + (r + r_th) / gap) * ref


@PROPERTY
@given(log_nbar, near_gap, angle, alpha)
def test_degree_q0_past_the_threshold_keeps_its_digits(nbar, g, phi, a):
    rc = nonclassicality_threshold(nbar)
    p = DstsParams(nbar, rc + g, phi, a)
    assert (degree_q0(p) > 0.0) == (not is_classical(p))
    with mp.workdps(DPS):
        gap = mpf(p.r) - mp_nonclassicality_threshold(mpf(nbar))
        if gap > 0:
            ref = mp_degree_q0(mpf(nbar), mpf(p.r))
            assert_degree_within_its_condition(degree_q0(p), ref, p.r, rc, gap)


@PROPERTY
@given(log_nbar, log_nbar, near_gap, angle)
def test_degree_e0_past_the_threshold_keeps_its_digits(nbar1, nbar2, g, phi):
    rs = separability_threshold_rs(nbar1, nbar2)
    p = TwoModeStsParams(nbar1, nbar2, rs + g, phi)
    assert (degree_e0(p) > 0.0) == (p.r > rs)
    with mp.workdps(DPS):
        gap = mpf(p.r) - mp_separability_threshold(nbar1, nbar2)
        if gap > 0:
            assert_degree_within_its_condition(degree_e0(p), mp_degree_e0(p), p.r, rs, gap)


def test_degrees_just_past_the_threshold_are_not_zero():
    # g^2/4 and g^2/2, whose next terms are g^2 smaller
    assert degree_q0(DstsParams(0.0, 1e-10)) == pytest.approx(2.5e-21, rel=1e-15, abs=0.0)
    assert degree_e0(TwoModeStsParams(0.0, 0.0, 1e-9)) == pytest.approx(5e-19, rel=1e-15, abs=0.0)


# --- the closest classical and separable states in closed form ------------------

@PROPERTY
@given(dsts())
def test_closest_classical_matches_the_reference_map(p):
    best = closest_classical(p)
    if is_classical(p):
        assert best is p
        return
    ref = mp_closest_classical(p)
    assert (best.phi, best.alpha) == (p.phi, p.alpha)
    assert max(rel_err(best.nbar, ref.nbar), rel_err(best.r, ref.r)) <= REL_TOL


@PROPERTY
@given(sts())
def test_closest_separable_matches_the_reference_map(p):
    best = closest_separable(p)
    if p.r <= separability_threshold_rs(p.nbar1, p.nbar2):
        assert best is p
        return
    ref = mp_closest_separable(p)
    assert best.phi == p.phi
    assert max(rel_err(best.nbar1, ref.nbar1), rel_err(best.nbar2, ref.nbar2),
               rel_err(best.r, ref.r)) <= REL_TOL


@PROPERTY
@given(dsts())
def test_closest_classical_map_attains_q0(p):
    with mp.workdps(DPS):
        gap = mpf(p.r) - mp_nonclassicality_threshold(mpf(p.nbar))
        assume(gap > 0)
        value = 1 - mp.sqrt(mp.re(mp_fidelity_one_mode(p, mp_closest_classical(p))))
        assert rel_err(value, mp_degree_q0(mpf(p.nbar), mpf(p.r))) <= REL_TOL
        assert_degree_within_its_condition(degree_q0(p), value, p.r,
                                           nonclassicality_threshold(p.nbar), gap)
    assert abs(degree_q0(p) - value) <= max(REL_TOL * value, 2.0 * EPS)


@PROPERTY
@given(sts())
def test_closest_separable_map_attains_e0(p):
    with mp.workdps(DPS):
        gap = mpf(p.r) - mp_separability_threshold(p.nbar1, p.nbar2)
        assume(gap > 0)
        value = 1 - mp.sqrt(mp_fidelity_two_mode(p, mp_closest_separable(p)))
        assert rel_err(value, mp_degree_e0(p)) <= REL_TOL
        assert_degree_within_its_condition(degree_e0(p), value, p.r,
                                           separability_threshold_rs(p.nbar1, p.nbar2), gap)
    assert abs(degree_e0(p) - value) <= max(REL_TOL * value, 2.0 * EPS)


@PROPERTY
@given(sts())
def test_e0_and_the_closest_separable_state_are_symmetric_under_the_mode_swap(p):
    swapped = TwoModeStsParams(p.nbar2, p.nbar1, p.r, p.phi)
    assert degree_e0(swapped) == degree_e0(p)
    best, other = closest_separable(p), closest_separable(swapped)
    assert (other.nbar1, other.nbar2, other.r, other.phi) == (best.nbar2, best.nbar1, best.r,
                                                              best.phi)


def test_closed_argmins_of_the_states_the_searches_miss():
    # the searches return 0.9999983598 and their first start here
    best = closest_separable(TwoModeStsParams(1e12, 0.0, 1.0))
    assert best.nbar2 == pytest.approx(1.381, abs=5e-4) and best.r == pytest.approx(1.0, abs=1e-11)
    assert best.nbar1 - best.nbar2 == 1e12
    assert closest_classical(DstsParams(0.0, 70.0)) == DstsParams(0.0, 0.0)


def test_pinned_closest_states_are_the_maps():
    # the seven digits pinned in test_nonclassicality.py and test_entanglement.py
    one = closest_classical(DstsParams(0.3, 1.0, 0.0, 0.5 + 0.1j))
    two = closest_separable(TwoModeStsParams(0.2, 0.5, 1.2))
    for got, pinned in ((one.nbar, 0.9321601), (one.r, 0.5261655), (two.nbar1, 1.1540907),
                        (two.nbar2, 1.4540907), (two.r, 0.6378414)):
        assert abs(got - pinned) <= 5e-8


def test_searches_find_the_closed_closest_states():
    # validate's two minimizer rows over their own domains, with more samples
    rng = np.random.default_rng(1033)
    results = [
        *check_minimizer(rng, lambda g: random_dsts(g, nbar_max=1.0, r_max=1.5), degree_q0,
                         closest_classical_numeric, closest_classical, "nonclassicality",
                         "classical", samples=20),
        *check_minimizer(rng, lambda g: random_sts(g, nbar_max=0.8, r_max=1.5), degree_e0,
                         closest_separable_numeric, closest_separable, "entanglement",
                         "separable", samples=12),
    ]
    assert all(r.passed for r in results), results


# --- the measures obey the laws of a measure -------------------------------------

#: a few ulp of the larger side of each law
LAW_ULPS = 4.0 * EPS

law_nbar = st.one_of(st.just(0.0), st.floats(-6.0, 3.0).map(lambda e: 10.0 ** e))
law_r = st.floats(0.0, 6.0)
law_alpha = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
law_dsts = st.builds(DstsParams, law_nbar, law_r, angle, law_alpha)
law_sts = st.builds(TwoModeStsParams, law_nbar, law_nbar, law_r, angle)


@PROPERTY
@given(law_dsts, law_dsts, st.floats(-6.0, 1.0).map(lambda e: 10.0 ** e))
def test_teleport_channel_contracts(p, q, z):
    # the fidelity never falls and Q0 never grows through the noise channel
    f_in = fidelity_one_mode(p, q)
    f_out = fidelity_one_mode(teleport_with_noise(p, z), teleport_with_noise(q, z))
    assert f_out >= f_in - LAW_ULPS * max(f_in, f_out)
    q_in, q_out = degree_q0(p), degree_q0(teleport_with_noise(p, z))
    assert q_out <= q_in + LAW_ULPS * max(q_in, q_out)


#: a factor 1 +- 10^e, which moves an occupancy of the closed argmin along the threshold
near_factor = st.builds(lambda sign, e: 1.0 + sign * 10.0 ** e, st.sampled_from((-1.0, 1.0)),
                        st.floats(-9.0, -0.5))

#: the roundoff of two fidelities near their maximum, and of a state's rounding onto the
#: threshold: up to 11 ulp over 40 000 draws of these domains with states near the argmin
ARGMIN_ULPS = 16.0 * EPS


@PROPERTY
@given(law_dsts, law_nbar, near_factor)
def test_no_classical_state_is_closer_than_the_closed_argmin(p, nbar, factor):
    # states of the search's set r' = r_c(nbar'), at p's squeeze angle and displacement,
    # one drawn anywhere and one near the argmin
    best = closest_classical(p)
    top = fidelity_one_mode(p, best)
    for n in (nbar, best.nbar * factor):
        sigma = DstsParams(n, nonclassicality_threshold(n), p.phi, p.alpha)
        assert fidelity_one_mode(p, sigma) <= top * (1.0 + ARGMIN_ULPS)


@PROPERTY
@given(law_sts, law_nbar, law_nbar, near_factor, near_factor)
def test_no_separable_state_is_closer_than_the_closed_argmin(p, nbar1, nbar2, f1, f2):
    best = closest_separable(p)
    top = fidelity_two_mode_sts(p, best)
    for n1, n2 in ((nbar1, nbar2), (best.nbar1 * f1, best.nbar2 * f2)):
        sigma = TwoModeStsParams(n1, n2, separability_threshold_rs(n1, n2), p.phi)
        assert fidelity_two_mode_sts(p, sigma) <= top * (1.0 + ARGMIN_ULPS)


def bures_angle(f: float) -> float:
    return math.acos(math.sqrt(min(1.0, max(0.0, f))))


def assert_triangle(fidelity, outer, middle, far):
    # each fidelity moved by a few ulp against the law: arccos sqrt F
    # magnifies its roundoff without bound as F nears 1
    direct = bures_angle(fidelity(outer, far) + LAW_ULPS)
    detour = (bures_angle(fidelity(outer, middle) - LAW_ULPS)
              + bures_angle(fidelity(middle, far) - LAW_ULPS))
    assert direct <= detour


@PROPERTY
@given(law_dsts, law_dsts, st.floats(0.0, 1.0))
def test_bures_angle_triangle_one_mode(p, q, t):
    # the middle state on the parameter segment, at p's angle: where the
    # inequality is tightest
    q = DstsParams(q.nbar, q.r, p.phi, q.alpha)
    middle = DstsParams((1.0 - t) * p.nbar + t * q.nbar, (1.0 - t) * p.r + t * q.r, p.phi,
                        (1.0 - t) * p.alpha + t * q.alpha)
    assert_triangle(fidelity_one_mode, p, middle, q)


@PROPERTY
@given(law_nbar, law_nbar, law_r, law_nbar, law_nbar, law_r, angle, st.floats(0.0, 1.0))
def test_bures_angle_triangle_two_mode(n1, n2, r, m1, m2, s, phi, t):
    p, q = TwoModeStsParams(n1, n2, r, phi), TwoModeStsParams(m1, m2, s, phi)
    middle = TwoModeStsParams((1.0 - t) * n1 + t * m1, (1.0 - t) * n2 + t * m2,
                              (1.0 - t) * r + t * s, phi)
    assert_triangle(fidelity_two_mode_sts, p, middle, q)
