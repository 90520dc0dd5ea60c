"""Multi-start derivative-free minimization shared by the distance measures.

The Nelder-Mead method here is the standard one of scipy.optimize.minimize
(method="Nelder-Mead", adaptive=False): reflection, expansion, contraction
and shrink coefficients 1, 2, 1/2, 1/2; an initial simplex that scales each
coordinate of the start by 1.05 (a zero one becomes 0.00025); vertices kept
in a stable sort by value; the stopping test on the simplex spread at the
top of every iteration; and at most MAXITER iterations and 2 MAXITER
evaluations per start, a start converging when it hits neither limit.  A
budget spent inside an iteration ends the run before the next evaluation,
where scipy's wrapper raises.  It does scipy's arithmetic in the same
order, so it takes scipy's steps to the bit wherever scipy's sort of the
vertex values is stable too (numpy's default argsort orders ties by CPU).

One source template holds the algorithm.  For each number of coordinates n
it is written out with one statement or expression per coordinate (the
centroid, the trial points and the shrink), compiled once and cached, as
dataclasses generates __init__; the simplex is a list of (value,
coordinate tuple) pairs that each iteration unpacks into local names, so a
step builds no per-coordinate lists.  The objective is called directly, on
a tuple of floats, and the calls are counted in the loop, so each
evaluation of the short closed-form objectives here is one Python call,
thousands of times per search.  The generated source is registered with
linecache under "<cvgauss._optim nelder_mead n=N>", so tracebacks show its
lines.
"""

from __future__ import annotations

import functools
import linecache
import logging
import math
import numbers
from operator import itemgetter

from .errors import ConvergenceFailure, DomainError

#: Nelder-Mead stopping rules shared by every distance search
XATOL = 1e-9
FATOL = 1e-12
MAXITER = 4000

_log = logging.getLogger("cvgauss")
_value = itemgetter(0)


def logistic(x: float) -> float:
    """1 / (1 + e^{-x}), 0 where e^{-x} overflows: the map of the searches
    from the real line onto (0, 1)."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def check_n_starts(n_starts) -> None:
    """Raise DomainError unless the number of starts of a search is an
    integer >= 1 (a bool is not one)."""
    if isinstance(n_starts, bool) or not isinstance(n_starts, numbers.Integral) or n_starts < 1:
        raise DomainError(f"n_starts must be an integer >= 1, got {n_starts!r}")


#: one start of Nelder-Mead over n coordinates; _steps fills in each field
#: with its per-coordinate statements or expressions for one n
_TEMPLATE = """\
def nelder_mead(objective, x0):
    maxiter = MAXITER
    maxfev = 2 * maxiter
    fatol = FATOL
    xatol = XATOL
    {start} = x0
    sim = [(objective(x0), x0)]
{initial}
    sim.sort(key=_value)
    nfev = {vertices}
    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        {simplex} = sim
        if {stop}:
            break
        # centroid of all but the worst vertex, summed in vertex order
{centroid}
        xr = {reflect}
        fxr = objective(xr)
        nfev += 1
        # a budget spent before a second evaluation ends the run on the sorted simplex
        if fxr < f0:
            if nfev >= maxfev:
                break
            xe = {expand}
            fxe = objective(xe)
            nfev += 1
            sim[-1] = (fxe, xe) if fxe < fxr else (fxr, xr)
        elif fxr < {second_worst}:
            sim[-1] = (fxr, xr)
        else:
            if nfev >= maxfev:
                break
            if fxr < {worst}:
                xc = {contract}
                fxc = objective(xc)
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1] = (fxc, xc)
            else:
                xcc = {inside}
                fxcc = objective(xcc)
                shrink = not fxcc < {worst}
                if not shrink:
                    sim[-1] = (fxcc, xcc)
            nfev += 1
            if shrink:
                # a vertex moved when the budget runs out keeps its old value, as in scipy
                for i in range(1, {vertices}):
                    f, {moved} = sim[i]
                    v = {shrunk}
                    if nfev >= maxfev:
                        sim[i] = (f, v)
                        break
                    sim[i] = (objective(v), v)
                    nfev += 1
        iterations += 1
        sim.sort(key=_value)
    return list(sim[0][1]), sim[0][0], nfev, nfev < maxfev and iterations < maxiter
"""


def _tuple(items) -> str:
    """Source of the tuple display of the expressions items."""
    items = list(items)
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


@functools.cache
def _steps(n: int):
    """The template compiled for n coordinates.  Vertex i of the sorted
    simplex is (fi, (xi_0, ..., xi_{n-1})), vertex 0 the best and vertex n
    the worst; the centroid is (c0, ..., c{n-1}).  Each point's coordinates
    are written out one by one, with the arithmetic of the list form in the
    same order."""
    def point(fmt, **fields):
        return _tuple(fmt.format(k=k, n=n, **fields) for k in range(n))

    initial = []
    for k in range(n):
        y = [f"x0_{j}" for j in range(n)]
        y[k] = f"(1.0 + 0.05) * x0_{k} if x0_{k} != 0 else 0.00025"
        initial += [f"    y = {_tuple(y)}", "    sim.append((objective(y), y))"]
    stop = ([f"abs(f{i} - f0) <= fatol" for i in range(1, n + 1)]
            + [f"abs(x{i}_{k} - x0_{k}) <= xatol" for i in range(1, n + 1) for k in range(n)])
    source = _TEMPLATE.format(
        start=point("x0_{k}"),
        initial="\n".join(initial),
        vertices=n + 1,
        simplex=_tuple(f"(f{i}, {point('x{i}_{k}', i=i)})" for i in range(n + 1)),
        # with no coordinates the spread is 0, and the run stops before its first step
        stop=" and ".join(stop) or "True",
        centroid="\n".join(f"        c{k} = ({' + '.join(f'x{i}_{k}' for i in range(n))}) / {n}"
                           for k in range(n)),
        reflect=point("2 * c{k} - x{n}_{k}"),
        expand=point("3 * c{k} - 2 * x{n}_{k}"),
        contract=point("1.5 * c{k} - 0.5 * x{n}_{k}"),
        inside=point("0.5 * c{k} + 0.5 * x{n}_{k}"),
        second_worst=f"f{max(n - 1, 0)}",  # f0 where n = 0, whose run never gets here
        worst=f"f{n}",
        moved=point("y{k}"),
        shrunk=point("x0_{k} + 0.5 * (y{k} - x0_{k})"),
    )
    filename = f"<cvgauss._optim nelder_mead n={n}>"
    # tracebacks show the generated lines; with no mtime, linecache.checkcache keeps the entry
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return namespace["nelder_mead"]


def _nelder_mead(objective, x0):
    """Minimize from one start; return (x, f, nfev, converged)."""
    x0 = tuple([float(v) for v in x0])
    return _steps(len(x0))(objective, x0)


def multistart_nelder_mead(objective, starts):
    """Run Nelder-Mead from each starting point and return (x_best, f_best)
    of the best converged start, x_best a list of floats.

    Logs the number of starts, how many converged, the total number of
    evaluations and the gap between the best and the runner-up converged
    value at DEBUG level on the "cvgauss" logger.  Raises ConvergenceFailure
    when no start converges, or when the best converged value is 1.0, the
    largest 1 - sqrt(F): F underflowed at every vertex, so x_best says nothing.
    """
    results = [_nelder_mead(objective, x0) for x0 in starts]
    converged = sorted((r for r in results if r[3]), key=itemgetter(1))
    spread = converged[1][1] - converged[0][1] if len(converged) > 1 else float("nan")
    _log.debug("Nelder-Mead: %d starts, %d converged, %d evaluations, best %.17g, "
               "runner-up spread %.3g", len(results), len(converged),
               sum(r[2] for r in results), converged[0][1] if converged else float("nan"),
               spread)
    if not converged:
        raise ConvergenceFailure("Nelder-Mead failed to converge from every starting point")
    if converged[0][1] == 1.0:
        raise ConvergenceFailure("every converged start ends at 1 - sqrt(F) = 1.0")
    return converged[0][0], converged[0][1]
