"""The Nelder-Mead of cvgauss._optim against scipy's and against the
list-based reference it replaced."""

import dataclasses
import functools
import logging
import math
import traceback

import numpy as np
import pytest
from scipy.optimize import minimize, rosen

import nm_reference

from cvgauss import (
    ConvergenceFailure,
    DomainError,
    DstsParams,
    TwoModeStsParams,
    closest_classical_numeric,
    closest_separable_numeric,
    fidelity_one_mode,
    fidelity_two_mode_sts,
)
from cvgauss import _optim, entanglement, nonclassicality, validate
from cvgauss._optim import FATOL, MAXITER, XATOL, _nelder_mead, logistic, multistart_nelder_mead
from cvgauss.entanglement import separability_threshold_rs
from cvgauss.nonclassicality import nonclassicality_threshold


@pytest.fixture
def stable_argsort(monkeypatch):
    """scipy orders the simplex with np.argsort, whose default kind orders
    tied values differently on different CPUs (the AVX-512 sort is not
    stable), so on ties scipy's own iterates depend on the machine.  The
    reference runs with the stable order that _optim documents."""
    monkeypatch.setattr(np, "argsort", functools.partial(np.argsort, kind="stable"))


def scipy_nelder_mead(objective, x0):
    """scipy's run with _optim's limits: (x, nfev, success)."""
    res = minimize(lambda x: objective(list(x)), np.asarray(x0, dtype=float),
                   method="Nelder-Mead",
                   options={"xatol": XATOL, "fatol": FATOL, "maxiter": _optim.MAXITER,
                            "maxfev": 2 * _optim.MAXITER})
    return list(res.x), res.nfev, res.success


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
    x_ref, nfev_ref, _ = scipy_nelder_mead(objective, x0)
    x, nfev = list_nelder_mead(objective, x0)
    assert nfev == nfev_ref
    assert max(abs(a - b) for a, b in zip(x, x_ref)) <= 1e-12
    assert all(type(v) is float for v in x)


def test_logistic_is_zero_where_the_exponential_overflows():
    assert logistic(-1000.0) == 0.0


def _rosen(x):
    return float(rosen(np.asarray(x)))


def _rosen_starts(dim):
    return [-1.2] + [1.0] * (dim - 1), [0.0] * dim, np.linspace(-1.0, 2.0, dim).tolist()


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_rosenbrock_matches_scipy(stable_argsort, dim):
    for x0 in _rosen_starts(dim):
        assert_same_run(_rosen, x0)


@pytest.mark.parametrize("maxiter", range(3, 60))
def test_budget_exits_match_scipy(monkeypatch, stable_argsort, maxiter):
    """Runs cut by the iteration or the evaluation limit, often inside an
    iteration, end where scipy's end: same evaluations, point and verdict."""
    monkeypatch.setattr(_optim, "MAXITER", maxiter)
    for x0 in _rosen_starts(2) + _rosen_starts(3):
        x_ref, nfev_ref, success = scipy_nelder_mead(_rosen, x0)
        x, _, nfev, converged = _nelder_mead(_rosen, x0)
        assert nfev == nfev_ref
        assert max(abs(a - b) for a, b in zip(x, x_ref)) <= 1e-12
        assert converged == success


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



@pytest.mark.parametrize("search, p", [
    (closest_classical_numeric, DstsParams(0.0, 300.0)),
    (closest_classical_numeric, DstsParams(0.0, 80.0)),
    (closest_separable_numeric, TwoModeStsParams(0.0, 0.0, 300.0)),
], ids=["dsts-r300", "dsts-r80", "sts-r300"])
def test_a_search_that_reads_one_everywhere_raises(search, p):
    """F underflows against every trial state near the starts, so each vertex
    reads 1 - sqrt(F) = 1.0 and the simplex only shrinks towards its first
    start, far from the argmin (the vacuum); the search must not return it."""
    with pytest.raises(ConvergenceFailure, match="1.0"):
        search(p)

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


def _fidelity_search(p, starts):
    """The distance search of p from the given starts, on the objective
    1 - sqrt(F) taken through the typed fidelity at phi' = phi, alpha' = alpha."""
    if isinstance(p, DstsParams):
        def unpack(t):
            nb = t[0] * t[0]
            return nb, nonclassicality_threshold(nb) * logistic(t[1])

        def objective(t):
            return 1.0 - math.sqrt(fidelity_one_mode(p, DstsParams(*unpack(t), p.phi, p.alpha)))

        x, f = multistart_nelder_mead(objective, starts)
        return DstsParams(*unpack(x), p.phi, p.alpha), f

    def unpack(t):
        m1, m2 = t[0] * t[0], t[1] * t[1]
        return m1, m2, separability_threshold_rs(m1, m2) * logistic(t[2])

    def objective(t):
        return 1.0 - math.sqrt(fidelity_two_mode_sts(p, TwoModeStsParams(*unpack(t), p.phi)))

    x, f = multistart_nelder_mead(objective, starts)
    return TwoModeStsParams(*unpack(x), p.phi), f


def test_searches_equal_the_fidelity_objective_search_on_validate_states(monkeypatch):
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
        assert found == _fidelity_search(p, x0s)



def _counted_search(monkeypatch, p):
    """The search of p, with the objective calls its minimizer makes counted."""
    calls = 0

    def spy(objective, starts):
        def counted(t):
            nonlocal calls
            calls += 1
            return objective(t)
        return multistart_nelder_mead(counted, starts)

    for module in (nonclassicality, entanglement):
        monkeypatch.setattr(module, "multistart_nelder_mead", spy)
    search = closest_classical_numeric if isinstance(p, DstsParams) else closest_separable_numeric
    return search(p), calls


def _hex(v):
    return (v.real.hex(), v.imag.hex()) if isinstance(v, complex) else v.hex()


@pytest.mark.parametrize("p, fields, value, calls", [
    (DstsParams(0.3, 1.0), ["0x1.dd4415a909f32p-1", "0x1.0d6590e0e655dp-1", "0x0.0p+0",
                            ("0x0.0p+0", "0x0.0p+0")], "0x1.00b690038a25cp-3", 2143),
    (DstsParams(0.1, 1.2, -2.0, 0.5 + 0.1j),
     ["0x1.3ed2af97e1ff9p-1", "0x1.9e2622f3c2f7dp-2", "-0x1.0000000000000p+1",
      ("0x1.0000000000000p-1", "0x1.999999999999ap-4")], "0x1.d41df72d5590cp-3", 2210),
    (TwoModeStsParams(0.2, 0.5, 1.2), ["0x1.27727cfc84ec1p+0", "0x1.743f49e95bf8dp+0",
                                       "0x1.469325e736b60p-1", "0x0.0p+0"],
     "0x1.53fd1459e030ap-2", 3866),
    (TwoModeStsParams(1.5, 0.05, 1.4, -0.8), ["0x1.8ec415f8c1481p+1", "0x1.aa54f789fbb3dp+0",
                                              "0x1.aff44b034a784p-1", "-0x1.999999999999ap-1"],
     "0x1.d830ef910914cp-2", 3986),
], ids=["dsts", "displaced-dsts", "sts", "rotated-sts"])
def test_searches_return_the_pinned_bits_and_call_counts(monkeypatch, p, fields, value, calls):
    """A speedup of the searches must keep their exact outputs and the number
    of objective calls they make."""
    (closest, f), counted = _counted_search(monkeypatch, p)
    assert [_hex(getattr(closest, field.name)) for field in dataclasses.fields(closest)] == fields
    assert _hex(f) == value
    assert counted == calls


def _bits(run):
    """(x, f, nfev, converged) of one start, with the floats as hex."""
    x, f, nfev, converged = run
    assert type(x) is list and all(type(v) is float for v in x)
    return [v.hex() for v in x], float(f).hex(), nfev, converged


def assert_same_as_reference(objective, x0):
    assert _bits(_nelder_mead(objective, x0)) == _bits(nm_reference._nelder_mead(objective, x0))


def _bowl(x):
    # steep enough that the value half of the stopping test is the one to pass last
    return 1e9 * (x[0] - 1.0) ** 2 + 0.5


@pytest.mark.parametrize("maxiter", [MAXITER] + list(range(3, 60)))
def test_minimizer_equals_the_list_reference_bit_for_bit(monkeypatch, maxiter):
    """In 1 to 5 dimensions, run to convergence or cut by a budget inside an
    iteration, the generated minimizer returns the list form's tuple."""
    monkeypatch.setattr(_optim, "MAXITER", maxiter)
    monkeypatch.setattr(nm_reference, "MAXITER", maxiter)
    for dim in range(1, 6):
        objective = _rosen if dim > 1 else _bowl
        for x0 in _rosen_starts(dim):
            assert_same_as_reference(objective, x0)


def test_no_coordinates_equal_the_list_reference():
    """With nothing to search, one evaluation at the start ends the run."""
    assert_same_as_reference(lambda x: 0.5, [])


@pytest.mark.parametrize("p", [
    DstsParams(0.3, 1.0), DstsParams(0.1, 1.2, -2.0, 0.5 + 0.1j),
    TwoModeStsParams(0.2, 0.5, 1.2), TwoModeStsParams(1.5, 0.05, 1.4, -0.8),
], ids=["dsts", "displaced-dsts", "sts", "rotated-sts"])
def test_search_starts_equal_the_list_reference_bit_for_bit(monkeypatch, p):
    """Every start of the pinned searches returns the list form's tuple."""
    captured = []

    def spy(objective, starts):
        captured.append((objective, starts))
        return multistart_nelder_mead(objective, starts)

    for module in (nonclassicality, entanglement):
        monkeypatch.setattr(module, "multistart_nelder_mead", spy)
    (closest_classical_numeric if isinstance(p, DstsParams) else closest_separable_numeric)(p)
    ((objective, starts),) = captured
    assert len(starts) == 8
    for x0 in starts:
        assert_same_as_reference(objective, x0)


def test_traceback_shows_the_generated_lines():
    calls = 0

    def failing(x):
        nonlocal calls
        calls += 1
        if calls == 4:  # the first reflection, after the three vertices
            raise ZeroDivisionError("objective failed")
        return x[0] * x[0] + x[1] * x[1]

    with pytest.raises(ZeroDivisionError) as info:
        multistart_nelder_mead(failing, [[1.0, 2.0]])
    frames = traceback.extract_tb(info.value.__traceback__)
    generated = [fr for fr in frames if fr.filename == "<cvgauss._optim nelder_mead n=2>"]
    assert len(generated) == 1
    assert generated[0].line == "fxr = objective(xr)"
    assert "fxr = objective(xr)" in "".join(traceback.format_exception(info.value))


@pytest.mark.parametrize("n_starts", [2.5, "3", 0, -1, True])
@pytest.mark.parametrize("search, p", [
    (closest_classical_numeric, DstsParams(0.3, 1.0)),
    (closest_separable_numeric, TwoModeStsParams(0.2, 0.5, 1.2)),
], ids=["classical", "separable"])
def test_n_starts_must_be_a_positive_integer(search, p, n_starts):
    with pytest.raises(DomainError, match="n_starts"):
        search(p, n_starts=n_starts)
