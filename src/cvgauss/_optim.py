"""Multi-start derivative-free minimization shared by the distance measures.

The Nelder-Mead method here is the standard one of scipy.optimize.minimize
(method="Nelder-Mead", adaptive=False): reflection, expansion, contraction
and shrink coefficients 1, 2, 1/2, 1/2; an initial simplex that scales each
coordinate of the start by 1.05 (a zero one becomes 0.00025); vertices kept
in a stable sort by value; the stopping test on the simplex spread at the
top of every iteration; and at most MAXITER iterations and 2 MAXITER
evaluations per start, a start converging when it hits neither limit.  A
budget spent inside an iteration ends the run before the next evaluation,
where scipy's wrapper raises.  It runs on lists of floats with the same
arithmetic in the same order, so it takes scipy's steps to the bit wherever
scipy's sort of the vertex values is stable too (numpy's default argsort
orders ties by CPU).  It calls the objective directly and counts the calls
in its own loop, so each evaluation of the short closed-form objectives here
is one Python call, thousands of times per search.
"""

from __future__ import annotations

import logging
import math
from operator import itemgetter

from .errors import ConvergenceFailure

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


def _nelder_mead(objective, x0):
    """Minimize from one start; return (x, f, nfev, converged)."""
    maxfev = 2 * MAXITER
    x0 = [float(v) for v in x0]
    n = len(x0)
    sim = [[objective(x0), x0]]
    for k in range(n):
        y = list(x0)
        y[k] = (1.0 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append([objective(y), y])
    sim.sort(key=_value)

    nfev = n + 1
    iterations = 1
    while nfev < maxfev and iterations < MAXITER:
        best_f, best = sim[0]
        for v in sim[1:]:
            if not abs(v[0] - best_f) <= FATOL:
                break
        else:
            if all(abs(a - b) <= XATOL for v in sim[1:] for a, b in zip(v[1], best)):
                break
        # centroid of all but the worst vertex, summed in vertex order
        xbar = best
        for v in sim[1:-1]:
            xbar = [a + b for a, b in zip(xbar, v[1])]
        xbar = [a / n for a in xbar]
        worst = sim[-1]
        xw = worst[1]
        xr = [2 * a - b for a, b in zip(xbar, xw)]
        fxr = objective(xr)
        nfev += 1
        # a budget spent before a second evaluation ends the run on the sorted simplex
        if fxr < best_f:
            if nfev >= maxfev:
                break
            xe = [3 * a - 2 * b for a, b in zip(xbar, xw)]
            fxe = objective(xe)
            nfev += 1
            sim[-1] = [fxe, xe] if fxe < fxr else [fxr, xr]
        elif fxr < sim[-2][0]:
            sim[-1] = [fxr, xr]
        else:
            if nfev >= maxfev:
                break
            if fxr < worst[0]:
                xc = [1.5 * a - 0.5 * b for a, b in zip(xbar, xw)]
                fxc = objective(xc)
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1] = [fxc, xc]
            else:
                xcc = [0.5 * a + 0.5 * b for a, b in zip(xbar, xw)]
                fxcc = objective(xcc)
                shrink = not fxcc < worst[0]
                if not shrink:
                    sim[-1] = [fxcc, xcc]
            nfev += 1
            if shrink:
                # a vertex moved when the budget runs out keeps its old value, as in scipy
                for v in sim[1:]:
                    v[1] = [a + 0.5 * (b - a) for a, b in zip(best, v[1])]
                    if nfev >= maxfev:
                        break
                    v[0] = objective(v[1])
                    nfev += 1
        iterations += 1
        sim.sort(key=_value)
    converged = nfev < maxfev and iterations < MAXITER
    return sim[0][1], sim[0][0], nfev, converged


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
