import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from cvgauss import (
    DomainError,
    DstsParams,
    UnphysicalState,
    closest_classical,
    closest_classical_numeric,
    degree_q0,
    is_classical,
    nonclassicality_threshold,
)
from cvgauss.validate import check_minimizer

# frozen via the numeric minimizer over the classical set (squeezed vacuum r=1)
Q0_SQUEEZED_VACUUM_R1 = 0.1949818178054079

#: tolerance on the parameters of a returned closest classical state
ARGMIN_TOL = 1e-6


def assert_classical_argmin(p, state):
    """A closest classical state found for p is the closed-form one, and
    assert_kept_exactly holds."""
    assert astuple(state) == pytest.approx(astuple(closest_classical(p)), abs=ARGMIN_TOL)
    assert_kept_exactly(p, state)


def assert_kept_exactly(p, state):
    """A closest classical state found for p keeps the squeeze angle and the
    displacement exactly, and has parameters of the built-in types."""
    assert state.phi == p.phi and state.alpha == p.alpha
    assert all(type(v) is float for v in (state.nbar, state.r, state.phi))
    assert type(state.alpha) is complex


def test_threshold_values():
    assert nonclassicality_threshold(0.0) == 0.0
    assert nonclassicality_threshold(0.5) == pytest.approx(0.5 * math.log(2.0), abs=1e-15)
    assert nonclassicality_threshold(5.0) == pytest.approx(0.5 * math.log(11.0), abs=1e-15)


def test_threshold_domain():
    with pytest.raises(DomainError):
        nonclassicality_threshold(-0.1)


def test_is_classical_cases():
    assert is_classical(DstsParams(nbar=0.3, r=0.0, alpha=1.0 + 0j))  # coherent-like
    assert not is_classical(DstsParams(nbar=0.0, r=0.1))
    assert is_classical(DstsParams(nbar=0.5, r=0.3))  # 0.3 < (ln 2)/2


def test_degree_vanishes_on_classical_set():
    rng = np.random.default_rng(307)
    for _ in range(20):
        nbar = rng.uniform(0.0, 3.0)
        r = rng.uniform(0.0, 1.0) * nonclassicality_threshold(nbar)
        assert degree_q0(DstsParams(nbar, r, rng.uniform(-3, 3), 0.3j)) == 0.0


def test_degree_squeezed_vacuum():
    assert degree_q0(DstsParams(0.0, 1.0)) == pytest.approx(Q0_SQUEEZED_VACUUM_R1, abs=1e-12)


def test_degree_continuous_at_threshold():
    nbar = 0.8
    rc = nonclassicality_threshold(nbar)
    assert degree_q0(DstsParams(nbar, rc)) == 0.0
    assert degree_q0(DstsParams(nbar, rc + 1e-9)) < 1e-12


def test_degree_independent_of_phase_and_displacement():
    base = degree_q0(DstsParams(0.2, 1.3))
    assert degree_q0(DstsParams(0.2, 1.3, 2.0, 1.5 - 0.5j)) == base
    assert degree_q0(DstsParams(0.2, 1.3, -0.7, 10.0 + 0j)) == base


def test_degree_monotone_in_squeeze_factor():
    for nbar in (0.0, 0.4, 2.0):
        rc = nonclassicality_threshold(nbar)
        rs = np.linspace(rc + 0.05, rc + 3.0, 25)
        qs = [degree_q0(DstsParams(nbar, float(r))) for r in rs]
        assert all(b > a for a, b in zip(qs, qs[1:]))


def test_degree_range_and_strong_squeezing_limit():
    rng = np.random.default_rng(311)
    for _ in range(30):
        q = degree_q0(DstsParams(rng.uniform(0, 3), rng.uniform(0, 3)))
        assert 0.0 <= q < 1.0
    assert degree_q0(DstsParams(0.0, 20.0)) > 0.99


def test_closest_classical_trivial_for_classical_input():
    p = DstsParams(0.6, 0.1, 0.9, 0.4 + 0.1j)
    state, value = closest_classical_numeric(p)
    assert state == p
    assert value == 0.0
    assert closest_classical(p) is p


def test_closest_classical_names_the_overflow():
    # 4 P' = 4 nbar (nbar + 1) e^{2r} / (2 nbar + 1) overflows
    for p in (DstsParams(1e200, 300.0), DstsParams(1e300, 354.0)):
        with pytest.raises(UnphysicalState, match="overflows double precision"):
            closest_classical(p)


def test_closest_classical_squeezed_vacuum():
    p = DstsParams(0.0, 1.0)
    state, value = closest_classical_numeric(p)
    assert value == pytest.approx(Q0_SQUEEZED_VACUUM_R1, abs=1e-4)
    # the closest classical state of a squeezed vacuum is the vacuum,
    # F = sech r; its squeeze angle is undefined
    assert state.nbar <= ARGMIN_TOL and state.r <= ARGMIN_TOL
    assert_classical_argmin(p, state)


def test_closest_classical_matches_closed_form_on_random_states():
    def search(p):
        # check_minimizer compares the state with closest_classical(p)
        state, value = closest_classical_numeric(p)
        assert_kept_exactly(p, state)
        return state, value

    results = check_minimizer(
        np.random.default_rng(313),
        lambda g: DstsParams(g.uniform(0, 1), g.uniform(0, 1.5), g.uniform(-3, 3)),
        degree_q0, search, closest_classical, "nonclassicality", "classical", samples=5)
    assert all(r.passed for r in results), results


def test_closest_classical_aligns_squeeze_phase():
    for phi in (-2.0, 0.5, 2.8):
        p = DstsParams(0.1, 1.2, phi)
        state, _ = closest_classical_numeric(p)
        assert abs(math.remainder(state.phi - phi, 2 * math.pi)) <= ARGMIN_TOL
        assert_classical_argmin(p, state)


def test_closest_classical_with_displacement():
    p = DstsParams(0.05, 1.0, 0.3, 0.6 - 0.4j)
    state, value = closest_classical_numeric(p)
    assert abs(value - degree_q0(p)) < 1e-4
    # the optimum keeps the input displacement
    assert abs(state.alpha - p.alpha) <= ARGMIN_TOL
    assert_classical_argmin(p, state)


def test_closest_classical_search_does_not_see_the_displacement():
    # phi' = phi and alpha' = alpha by construction; at alpha' = alpha the
    # displacement drops out of the fidelity exactly
    for p in (DstsParams(0.05, 1.0, 0.3, 0.6 - 0.4j), DstsParams(0.3, 1.0, 0.0, 0.5 + 0.1j),
              DstsParams(1.2, 2.5, -2.9, -3.0 + 7.0j)):
        state, value = closest_classical_numeric(p)
        plain, plain_value = closest_classical_numeric(replace(p, alpha=0j))
        assert (state.nbar, state.r, value) == (plain.nbar, plain.r, plain_value)
        assert (state.phi, state.alpha) == (p.phi, p.alpha)
        assert (plain.phi, plain.alpha) == (p.phi, 0j)


def test_closest_classical_pinned_state():
    p = DstsParams(0.3, 1.0, 0.0, 0.5 + 0.1j)
    state, value = closest_classical_numeric(p)
    assert abs(value - degree_q0(p)) < 1e-12
    assert state.nbar == pytest.approx(0.9321601, abs=ARGMIN_TOL)
    assert state.r == pytest.approx(0.5261655, abs=ARGMIN_TOL)
    assert_classical_argmin(p, state)
