"""Nonclassicality of one-mode Gaussian states.

A Gaussian state has a well-behaved P representation iff its squeeze factor
does not exceed the threshold r_c = (1/2) ln(2 nbar + 1).  Past the threshold
the degree of nonclassicality is measured by half the squared Bures distance
to the set of classical Gaussian states, which has the closed form
Q0 = 1 - sqrt(sech(r - r_c)), attained at the closest classical state of
:func:`closest_classical`.
"""

from __future__ import annotations

import math

from ._optim import check_n_starts, logistic, multistart_nelder_mead
from .errors import DomainError, UnphysicalState
from .fidelity import clamp_unit, gap_degrees
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
    1 - sqrt(sech g) at the gap g = r - r_c, in the forms of gap_degrees,
    which keep their digits just past the threshold.  Independent of phi and
    alpha."""
    gap = p.r - nonclassicality_threshold(p.nbar)
    if gap <= 0.0:
        return 0.0
    return gap_degrees(gap)[1]


def closest_classical(p: DstsParams) -> DstsParams:
    """The classical Gaussian state closest to p in Bures distance, in closed
    form: p itself on the classical set, otherwise V' = V - (V_g - I/2), with
    V the covariance of p and V_g the squeezed vacuum of squeeze
    g = r - r_c at p's angle.  It keeps phi and alpha, lies on the threshold
    r' = r_c(nbar'), and with P' = nbar (nbar + 1) e^{2r} / (2 nbar + 1) has

        nbar' = P' / (sqrt(1/4 + P') + 1/2),    r' = log1p(4 P') / 4.

    Where 4 P' overflows double precision it raises UnphysicalState."""
    if is_classical(p):
        return p
    nbar = p.nbar
    # nbar e^{2r} <= 2 P', so no factor overflows where 4 P' does not
    big_p = nbar * math.exp(2.0 * p.r) * ((nbar + 1.0) / (2.0 * nbar + 1.0))
    if 4.0 * big_p == math.inf:
        raise UnphysicalState(f"the closest classical state of {p} overflows double precision")
    return DstsParams(big_p / (math.sqrt(0.25 + big_p) + 0.5), 0.25 * math.log1p(4.0 * big_p),
                      p.phi, p.alpha)


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
    check_n_starts(n_starts)
    if is_classical(p):
        return p, 0.0
    starts = [[math.sqrt(p.nbar + 0.25 * (k + 1)), 2.0 if k % 2 == 0 else 6.0]
              for k in range(n_starts)]
    x_best, f_best = multistart_nelder_mead(_search_objective(p.nbar, p.r), starts)
    return DstsParams(*_search_point(x_best), p.phi, p.alpha), f_best


def _search_point(t):
    """The trial (nbar', r') of the classical search at its coordinates t."""
    nb = t[0] * t[0]
    return nb, nonclassicality_threshold(nb) * logistic(t[1])


def _search_objective(n1: float, r1: float):
    """The objective of the classical search: t -> 1 - sqrt(F) with F =
    fidelity_one_mode(DstsParams(n1, r1, phi, alpha), DstsParams(
    *_search_point(t), phi, alpha)), for any finite phi and alpha.

    After the map of _search_point it computes Delta and Lambda in the
    operations and order of fidelity_one_mode, with the terms of (n1, r1) taken
    once: phi' = phi and alpha' = alpha make the sin^2 term of Delta and E
    exactly 0.  It equals that function bit for bit wherever its
    4 sinh 2r1 sinh 2r2 is finite; past that, near r1 + r2 = 355, the function
    reads the dropped term as inf * 0 = nan, which this does not compute."""
    y1 = n1 + 0.5
    y1y1 = y1 * y1
    e1 = math.exp(2.0 * r1)
    p1 = 4.0 * (n1 * (n1 + 1.0))

    def objective(t):
        n2 = t[0] * t[0]
        r2 = nonclassicality_threshold(n2) * logistic(t[1])
        y2 = n2 + 0.5
        e2 = math.exp(2.0 * r2)
        delta = y1y1 + y2 * y2 + y1 * y2 * (e1 / e2 + e2 / e1)
        lam = p1 * (n2 * (n2 + 1.0))
        f = (math.sqrt(delta + lam) + math.sqrt(lam)) / delta
        return 1.0 - math.sqrt(f if 0.0 <= f <= 1.0 else clamp_unit(f))

    return objective
