"""The list-based Nelder-Mead that cvgauss._optim replaced, for tests.

``_nelder_mead`` is kept as it was, so the package's minimizer can be held to
its (x, f, nfev, converged) bit for bit.  It reads its limits from this
module: a test that changes ``cvgauss._optim.MAXITER`` sets ``MAXITER`` here
too.
"""

from operator import itemgetter

from cvgauss._optim import FATOL, MAXITER, XATOL

_value = itemgetter(0)


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
