"""Nonclassicality of one-mode Gaussian states.

A Gaussian state has a well-behaved P representation iff its squeeze factor
does not exceed the threshold r_c = (1/2) ln(2 nbar + 1).  Past the threshold
the degree of nonclassicality is measured by half the squared Bures distance
to the set of classical Gaussian states, which has the closed form
Q0 = 1 - sqrt(sech(r - r_c)).
"""

from __future__ import annotations

import math

from ._optim import logistic, multistart_nelder_mead
from .errors import DomainError
from .fidelity import aligned_one_mode_distance
from .states import DstsParams


def nonclassicality_threshold(nbar: float) -> float:
    """Squeeze-factor threshold r_c = (1/2) ln(2 nbar + 1)."""
    if not (nbar >= 0.0):
        raise DomainError(f"nbar must be >= 0, got {nbar}")
    return 0.5 * math.log1p(2.0 * nbar)


def is_classical(p: DstsParams) -> bool:
    """True iff the state admits a P representation (r <= r_c)."""
    return p.r <= nonclassicality_threshold(p.nbar)


def degree_q0(p: DstsParams) -> float:
    """Bures degree of nonclassicality; 0 on the classical set, otherwise
    1 - sqrt(sech(r - r_c)).  Independent of phi and alpha."""
    gap = p.r - nonclassicality_threshold(p.nbar)
    if gap <= 0.0:
        return 0.0
    return 1.0 - math.sqrt(1.0 / math.cosh(gap))


def closest_classical_numeric(p: DstsParams, *, n_starts: int = 8):
    """Minimize half the squared Bures distance over classical Gaussian states.

    Derivative-free multi-start search over (nbar', r') only, with the
    constraint set mapped smoothly onto unconstrained variables
    (nbar' = t0^2, r' = r_c(nbar') logistic(t1)); phi' = phi and
    alpha' = alpha are exact, not a heuristic.  In fidelity_one_mode alpha'
    enters only through exp(-E) with E >= 0, and E = 0 at alpha' = alpha
    whatever phi'; phi' enters only through the non-negative term
    4 sinh 2r sinh 2r' sin^2((phi - phi')/2) of Delta, and at E = 0
    F = 1 / (sqrt(Delta + Lambda) - sqrt(Lambda)) falls as Delta grows.  So
    for every (nbar', r') the fidelity is largest at (phi, alpha).

    Returns (closest classical state, minimum of 1 - sqrt(F)).
    """
    if is_classical(p):
        return p, 0.0
    distance = aligned_one_mode_distance(p.nbar, p.r)

    def unpack(t):
        nb = t[0] * t[0]
        return nb, nonclassicality_threshold(nb) * logistic(t[1])

    def objective(t):
        return distance(*unpack(t))

    starts = [[math.sqrt(p.nbar + 0.25 * (k + 1)), 2.0 if k % 2 == 0 else 6.0]
              for k in range(n_starts)]
    x_best, f_best = multistart_nelder_mead(objective, starts)
    return DstsParams(*unpack(x_best), p.phi, p.alpha), f_best
