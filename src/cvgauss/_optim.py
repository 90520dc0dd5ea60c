"""Multi-start derivative-free minimization shared by the distance measures."""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from .errors import ConvergenceFailure

#: Nelder-Mead stopping rules shared by every distance search
XATOL = 1e-9
FATOL = 1e-12
MAXITER = 4000


def multistart_nelder_mead(objective, starts):
    """Run Nelder-Mead from each starting point and return (x_best, f_best).

    Raises ConvergenceFailure when no start converges.
    """
    best = None
    converged = False
    for x0 in starts:
        res = minimize(
            objective,
            np.asarray(x0, dtype=float),
            method="Nelder-Mead",
            options={
                "xatol": XATOL,
                "fatol": FATOL,
                "maxiter": MAXITER,
                "maxfev": 2 * MAXITER,
            },
        )
        converged = converged or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
    if best is None or not converged:
        raise ConvergenceFailure(
            "Nelder-Mead failed to converge from every starting point"
        )
    return np.asarray(best.x, dtype=float), float(best.fun)
