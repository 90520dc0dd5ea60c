"""The list-based Nelder-Mead of cvgauss._optim against scipy's."""

import functools
import logging
import math

import numpy as np
import pytest
from scipy.optimize import minimize, rosen

from cvgauss import (
    ConvergenceFailure,
    DstsParams,
    TwoModeStsParams,
    closest_classical_numeric,
    closest_separable_numeric,
)
from cvgauss import entanglement, nonclassicality, validate
from cvgauss._optim import FATOL, MAXITER, XATOL, logistic, multistart_nelder_mead
from cvgauss.entanglement import separability_threshold_rs
from cvgauss.fidelity import fidelity_one_mode_kernel, fidelity_two_mode_sts_kernel
from cvgauss.nonclassicality import nonclassicality_threshold


@pytest.fixture
def stable_argsort(monkeypatch):
    """scipy orders the simplex with np.argsort, whose default kind orders
    tied values differently on different CPUs (the AVX-512 sort is not
    stable), so on ties scipy's own iterates depend on the machine.  The
    reference runs with the stable order that _optim documents."""
    monkeypatch.setattr(np, "argsort", functools.partial(np.argsort, kind="stable"))


def scipy_nelder_mead(objective, x0):
    res = minimize(lambda x: objective(list(x)), np.asarray(x0, dtype=float),
                   method="Nelder-Mead",
                   options={"xatol": XATOL, "fatol": FATOL, "maxiter": MAXITER,
                            "maxfev": 2 * MAXITER})
    return list(res.x), res.nfev


def list_nelder_mead(objective, x0):
    """One start through multistart_nelder_mead, with its evaluations counted."""
    nfev = 0

    def counted(x):
        nonlocal nfev
        nfev += 1
        return objective(x)

    x, _ = multistart_nelder_mead(counted, [x0])
    return x, nfev


def assert_same_run(objective, x0):
    x_ref, nfev_ref = scipy_nelder_mead(objective, x0)
    x, nfev = list_nelder_mead(objective, x0)
    assert nfev == nfev_ref
    assert max(abs(a - b) for a, b in zip(x, x_ref)) <= 1e-12
    assert all(type(v) is float for v in x)


def test_logistic_is_zero_where_the_exponential_overflows():
    assert logistic(-1000.0) == 0.0


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_rosenbrock_matches_scipy(stable_argsort, dim):
    def objective(x):
        return float(rosen(np.asarray(x)))

    for x0 in ([-1.2] + [1.0] * (dim - 1), [0.0] * dim, np.linspace(-1.0, 2.0, dim).tolist()):
        assert_same_run(objective, x0)


def _search_objectives(monkeypatch, search, states):
    """The (objective, starts) pairs a distance search hands to the minimizer."""
    captured = []

    def spy(objective, starts):
        captured.append((objective, starts))
        return multistart_nelder_mead(objective, starts)

    module = nonclassicality if search is closest_classical_numeric else entanglement
    monkeypatch.setattr(module, "multistart_nelder_mead", spy)
    for p in states:
        search(p, n_starts=4)
    return captured


@pytest.mark.parametrize("search, states", [
    (closest_classical_numeric, [DstsParams(0.3, 1.0, 0.4), DstsParams(0.1, 1.2, -2.0, 0.5 + 0.1j)]),
    (closest_separable_numeric, [TwoModeStsParams(0.2, 0.5, 1.2, 0.7)]),
], ids=["classical", "separable"])
def test_search_objectives_match_scipy(monkeypatch, stable_argsort, search, states):
    captured = _search_objectives(monkeypatch, search, states)
    assert len(captured) == len(states)
    for objective, starts in captured:
        for x0 in starts:
            assert_same_run(objective, x0)


def test_failure_when_every_start_hits_the_evaluation_limit():
    nfev = 0

    def unbounded(x):
        nonlocal nfev
        nfev += 1
        return -abs(x[0])

    with pytest.raises(ConvergenceFailure):
        multistart_nelder_mead(unbounded, [[1.0], [-2.0]])
    assert nfev == 2 * 2 * MAXITER


def test_one_converged_start_suffices():
    def objective(x):
        # a bowl at 0, and past -5 a slope that never levels off
        return x[0] * x[0] if x[0] > -5.0 else 30.0 + 1.0 / (1.0 + x[0] * x[0])

    x, f = multistart_nelder_mead(objective, [[-10.0], [1.0]])
    assert abs(x[0]) <= 1e-8 and f <= 1e-16


def test_best_converged_start_wins_over_a_lower_unconverged_one():
    def objective(x):
        # a bowl at 1 for x > 0, and a slope falling without end below
        return (x[0] - 1.0) ** 2 if x[0] > 0.0 else x[0]

    x, f = multistart_nelder_mead(objective, [[2.0], [-1.0]])
    assert abs(x[0] - 1.0) <= 1e-8 and 0.0 <= f <= 1e-16


def test_debug_record_reports_the_search(caplog):
    nfev = 0

    def bowl(x):
        nonlocal nfev
        nfev += 1
        return (x[0] - 1.0) ** 2 + (x[1] + 0.5) ** 2

    with caplog.at_level(logging.DEBUG, logger="cvgauss"):
        x, f = multistart_nelder_mead(bowl, [[0.0, 0.0], [3.0, 1.0], [-2.0, 4.0]])
    records = [r for r in caplog.records if r.name == "cvgauss"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    message = records[0].getMessage()
    assert "3 starts, 3 converged" in message
    assert f"{nfev} evaluations" in message
    spread = float(message.rsplit(" ", 1)[1])
    assert 0.0 <= spread < 1e-12
    assert math.isclose(x[0], 1.0, abs_tol=1e-8) and math.isclose(x[1], -0.5, abs_tol=1e-8)


def test_each_search_logs_one_record(caplog):
    with caplog.at_level(logging.DEBUG, logger="cvgauss"):
        closest_classical_numeric(DstsParams(0.3, 1.0))
        closest_separable_numeric(TwoModeStsParams(0.2, 0.5, 1.2))
    messages = [r.getMessage() for r in caplog.records if r.name == "cvgauss"]
    assert len(messages) == 2
    assert all(m.startswith("Nelder-Mead: 8 starts, 8 converged") for m in messages)


def _kernel_search(p, starts):
    """The distance search of p from the given starts, on the objective
    1 - sqrt(F) taken through the public kernel at phi' = phi, alpha' = alpha."""
    if isinstance(p, DstsParams):
        def unpack(t):
            nb = t[0] * t[0]
            return nb, nonclassicality_threshold(nb) * logistic(t[1])

        def objective(t):
            return 1.0 - math.sqrt(fidelity_one_mode_kernel(p.nbar, p.r, p.phi, p.alpha,
                                                            *unpack(t), p.phi, p.alpha))

        x, f = multistart_nelder_mead(objective, starts)
        return DstsParams(*unpack(x), p.phi, p.alpha), f

    def unpack(t):
        m1, m2 = t[0] * t[0], t[1] * t[1]
        return m1, m2, separability_threshold_rs(m1, m2) * logistic(t[2])

    def objective(t):
        return 1.0 - math.sqrt(fidelity_two_mode_sts_kernel(p.nbar1, p.nbar2, p.r, p.phi,
                                                            *unpack(t), p.phi))

    x, f = multistart_nelder_mead(objective, starts)
    return TwoModeStsParams(*unpack(x), p.phi), f


def test_searches_equal_the_kernel_objective_search_on_validate_states(monkeypatch):
    starts = []

    def spy(objective, x0s):
        starts.append(x0s)
        return multistart_nelder_mead(objective, x0s)

    searched = []

    def recorded(search):
        def run(p):
            searched.append((p, search(p)))
            return searched[-1][1]
        return run

    for module in (nonclassicality, entanglement):
        monkeypatch.setattr(module, "multistart_nelder_mead", spy)
    monkeypatch.setattr(validate, "closest_classical_numeric", recorded(closest_classical_numeric))
    monkeypatch.setattr(validate, "closest_separable_numeric", recorded(closest_separable_numeric))
    validate.run_suite()
    assert [type(p) for p, _ in searched] == [DstsParams] * 2 + [TwoModeStsParams] * 2
    assert len(starts) == 4
    for (p, found), x0s in zip(searched, starts):
        assert found == _kernel_search(p, x0s)
