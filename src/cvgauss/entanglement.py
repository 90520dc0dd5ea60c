"""Separability and entanglement of two-mode squeezed thermal states.

The partial-transposition criterion is both necessary and sufficient for
two-mode Gaussian states; in invariant form it reads

    det V - [det V1 + det V2 + 2 |det C|]/4 + 1/16 >= 0.

For a squeezed thermal state this reduces to r <= r_s with
sinh^2 r_s = nbar1 nbar2/(nbar1 + nbar2 + 1).  The Bures degree
of entanglement past the threshold is E0 = 1 - sech(r - r_s), attained at
the closest separable state of :func:`closest_separable`.
"""

from __future__ import annotations

import math
import sys

from ._optim import check_n_starts, logistic, multistart_nelder_mead
from .errors import DomainError, UnphysicalState
from .fidelity import clamp_unit, gap_degrees
from .states import R_MAX, TwoModeStsParams, checked_invariants

#: tolerance on the separability inequality itself
SEP_TOL = 1e-12


def separability_threshold_rs(nbar1: float, nbar2: float) -> float:
    """Squeeze factor at which the state crosses from separable to entangled,
    r_s = asinh sqrt(nbar1 nbar2 / (nbar1 + nbar2 + 1)), with the larger
    occupancy n divided out, sqrt(m) / sqrt(1 + (m + 1)/n), so that nothing
    cancels and nothing overflows for n from the smallest normal double up to
    DBL_MAX.  A negative, nan or infinite occupancy raises DomainError."""
    if not (0.0 <= nbar1 < math.inf and 0.0 <= nbar2 < math.inf):
        raise DomainError(f"thermal occupancies must be finite and >= 0, got {nbar1}, {nbar2}")
    if nbar1 < nbar2:
        nbar1, nbar2 = nbar2, nbar1
    if nbar1 == 0.0:
        return 0.0
    return math.asinh(math.sqrt(nbar2) / math.sqrt(1.0 + (nbar2 + 1.0) / nbar1))


def peres_simon_separable(m) -> bool:
    """Partial-transposition separability test in invariant form on a 4x4
    covariance matrix, which :func:`checked_invariants` validates first.  A gap
    inside the roundoff of the invariants, once that exceeds 1/16 (the det V
    of the vacuum), raises UnphysicalState: sts_to_cov2 reaches it from r ~ 8."""
    det_v1, det_v2, det_c, det_v = checked_invariants(m)
    sep_gap = det_v - 0.25 * (det_v1 + det_v2) + 0.0625 - 0.5 * abs(det_c)
    roundoff = 16.0 * sys.float_info.epsilon * max(det_v1 * det_v2, abs(det_v), det_c * det_c)
    if roundoff > 0.0625 and abs(sep_gap) <= roundoff:
        raise UnphysicalState(f"separability gap {sep_gap:.3g} is within roundoff {roundoff:.3g}")
    return sep_gap >= -SEP_TOL


def degree_e0(p: TwoModeStsParams) -> float:
    """Bures degree of entanglement; 0 on the separable set, otherwise
    1 - sech g at the gap g = r - r_s, in the form of gap_degrees, which
    keeps its digits just past the threshold.  Independent of phi."""
    gap = p.r - separability_threshold_rs(p.nbar1, p.nbar2)
    if gap <= 0.0:
        return 0.0
    return gap_degrees(gap)[0]


def closest_separable(p: TwoModeStsParams) -> TwoModeStsParams:
    """The separable squeezed thermal state closest to p in Bures distance,
    in closed form: p itself on the separable set, otherwise V' = V - (V_g - I/2),
    with V the covariance of p and V_g the two-mode squeezed vacuum of squeeze
    g = r - r_s at p's angle.  It keeps phi and nbar1 - nbar2, and lies on the
    threshold r' = r_s(nbar1', nbar2').

    With N = nbar1 + nbar2 + 1, e^{4r'} - 1 = q = (B - A)/A for
    A = N e^{-2r} - expm1(-2g) and B - A = 2[(nbar1 + nbar2) sinh 2r
    + 2 cosh(2r - r_s) sinh r_s].  With u = e^{2r'} = sqrt(1 + q),
    2s = 2 sinh^2 r' = (u - 1)^2/(2u) and sinh 2r' = q/(2u), both from
    u - 1 = q/(u + 1) rather than from r', whose roundoff e^{2r'} would
    magnify.  With d = |nbar1 - nbar2| and w = hypot(d, sinh 2r'), the smaller
    occupancy is (2s - d + w)/2, or 2s(1 + d)/(w + d - 2s) for 2s < d, and the
    larger one is d more: no step cancels.  Where B - A or w + d overflows
    double precision (occupancies near 1e308, or large ones with r in the
    hundreds), see _separable_past_overflow.  Where the state itself
    overflows it raises UnphysicalState."""
    rs = separability_threshold_rs(p.nbar1, p.nbar2)
    if p.r <= rs:
        return p
    n1, n2, r = p.nbar1, p.nbar2, p.r
    a = (n1 + n2 + 1.0) * math.exp(-2.0 * r) - math.expm1(-2.0 * (r - rs))
    b_minus_a = 2.0 * ((n1 + n2) * math.sinh(2.0 * r) + 2.0 * _cosh_gap(r, rs) * math.sinh(rs))
    q = b_minus_a / a
    u = math.sqrt(1.0 + q)
    u_minus_1 = q / (u + 1.0)
    s2 = u_minus_1 * u_minus_1 / (2.0 * u)
    d = abs(n1 - n2)
    w = math.hypot(d, 0.5 * q / u)
    if w + d < math.inf:  # and so is q
        small = 0.5 * (s2 - d + w) if s2 >= d else s2 * (1.0 + d) / (w + d - s2)
        r_new = 0.25 * math.log1p(q)
    else:
        small, r_new = _separable_past_overflow(n1, n2, r, rs)
    big = small + d
    if not big < math.inf:
        raise UnphysicalState(f"the closest separable state of {p} overflows double precision")
    if n1 >= n2:
        return TwoModeStsParams(big, small, r_new, p.phi)
    return TwoModeStsParams(small, big, r_new, p.phi)


def _cosh_gap(r: float, rs: float) -> float:
    """cosh(2r - r_s) as (e^{2r} e^{-r_s} + e^{-2r} e^{r_s})/2: 2r is exact,
    where rounding 2r - r_s at r in the hundreds would cost cosh up to 1e-13
    relative, and e^{2r} is finite up to R_MAX."""
    return 0.5 * (math.exp(2.0 * r) * math.exp(-rs) + math.exp(-2.0 * r) * math.exp(rs))


def _separable_past_overflow(n1: float, n2: float, r: float, rs: float) -> tuple[float, float]:
    """(smaller occupancy, r') of closest_separable where B - A, w + d or
    nbar1 + nbar2 overflows double precision.  q is taken from the halves
    h of nbar1 + nbar2 and of A, its root factor by factor.  Where q
    overflows too, u = sqrt(q), 2s = sinh 2r' = u/2 and r' = ln(u)/2 to
    within 1/u, far below an ulp.  The steps after it take the halves of
    2s, d and w, so none overflows before the state does."""
    h = 0.5 * n1 + 0.5 * n2
    e = math.exp(-2.0 * r)
    a_half = h * e + 0.5 * (e - math.expm1(-2.0 * (r - rs)))
    root_q = (math.sqrt(2.0) * math.sqrt(h / a_half)
              * math.sqrt(math.sinh(2.0 * r) + _cosh_gap(r, rs) * math.sinh(rs) / h))
    q = root_q * root_q
    if q < math.inf:
        u = math.sqrt(1.0 + q)
        u_minus_1 = q / (u + 1.0)
        s2, sinh_2r, r_new = u_minus_1 * u_minus_1 / (2.0 * u), 0.5 * q / u, 0.25 * math.log1p(q)
    else:
        s2 = sinh_2r = 0.5 * root_q
        r_new = 0.5 * math.log(root_q)
    s_half, d_half = 0.5 * s2, 0.5 * abs(n1 - n2)
    w_half = math.hypot(d_half, 0.5 * sinh_2r)
    if s_half >= d_half:
        return s_half - d_half + w_half, r_new
    return s2 * ((0.5 + d_half) / (w_half - s_half + d_half)), r_new


def closest_separable_numeric(p: TwoModeStsParams, *, n_starts: int = 8):
    """Minimize 1 - sqrt(F) over separable squeezed thermal states.

    Same smooth reparametrization and multi-start scheme as the
    nonclassicality search, over (nbar'_1, nbar'_2, r') only: nbar'_j = t_j^2
    and r' = r_s(nbar'_1, nbar'_2) logistic(t_2) map the whole unconstrained
    space onto the separable set.  phi' = phi is exact: phi' enters
    fidelity_two_mode_sts only through the non-negative term
    (y1 + y2)(y1' + y2') sinh 2r sinh 2r' sin^2((phi - phi')/2) of D, s does
    not depend on phi', and F = (sqrt(D + s^2) - s)^-2 falls as D grows.

    Returns (closest separable state, minimum of 1 - sqrt(F)).
    """
    check_n_starts(n_starts)
    if p.r <= separability_threshold_rs(p.nbar1, p.nbar2):
        return p, 0.0
    starts = []
    for k in range(n_starts):
        d1 = 0.1 + 0.25 * (k % 2)
        d2 = 0.1 + 0.25 * ((k // 2) % 2)
        slope = 2.0 if k < 4 else 6.0
        starts.append([math.sqrt(p.nbar1 + d1), math.sqrt(p.nbar2 + d2), slope])

    x_best, f_best = multistart_nelder_mead(_search_objective(p.nbar1, p.nbar2, p.r), starts)
    return TwoModeStsParams(*_search_point(x_best), p.phi), f_best


def _search_point(t):
    """The trial (nbar'_1, nbar'_2, r') of the separable search at its coordinates t."""
    m1 = t[0] * t[0]
    m2 = t[1] * t[1]
    return m1, m2, separability_threshold_rs(m1, m2) * logistic(t[2])


def _search_objective(n1: float, n2: float, r: float):
    """The objective of the separable search: t -> 1 - sqrt(F) with F =
    fidelity_two_mode_sts(TwoModeStsParams(n1, n2, r, phi), TwoModeStsParams(
    *_search_point(t), phi)), for any finite phi.

    After the map of _search_point it computes s and D in the operations and
    order of fidelity_two_mode_sts, with the terms of (n1, n2, r) taken once
    and e^{2r'} only where |r - r'| >= 1: phi' = phi makes the sin^2 term of D
    exactly 0.  It equals that function bit for bit wherever its
    (y1 + y2)(y1' + y2') sinh 2r sinh 2r' is finite; past that the function
    reads the dropped term as inf * 0 = nan, which this does not compute."""
    y1, y2 = n1 + 0.5, n2 + 0.5
    y1y2 = y1 * y2
    m1, m2 = n1 + 1.0, n2 + 1.0
    e1 = math.exp(2.0 * r)

    def objective(t):
        n1p = t[0] * t[0]
        n2p = t[1] * t[1]
        rp = separability_threshold_rs(n1p, n2p) * logistic(t[2])
        y1p, y2p = n1p + 0.5, n2p + 0.5
        u = r - rp
        if abs(u) < 1.0:
            sh2 = math.sinh(u) ** 2
        else:
            e2 = math.exp(2.0 * rp)
            sh2 = 0.25 * (e1 / e2 + e2 / e1) - 0.5
        d = y1y2 + y1p * y2p + (y1 * y2p + y1p * y2) * (1.0 + sh2) + (y1 * y1p + y2 * y2p) * sh2
        s = (math.sqrt((n1 * n1p) * (m2 * (n2p + 1.0)))
             + math.sqrt((n2 * n2p) * (m1 * (n1p + 1.0))))
        f = ((math.sqrt(d + s * s) + s) / d) ** 2
        return 1.0 - math.sqrt(f if 0.0 <= f <= 1.0 else clamp_unit(f))

    return objective


def entropy_of_entanglement_svs(r: float) -> float:
    """Entropy of entanglement of a two-mode squeezed vacuum: the common von
    Neumann entropy of its thermal reductions with occupancy n = sinh^2 r,

        S = (n + 1) ln(n + 1) - n ln n = ln(1 + n) + n ln(1 + 1/n),

    in the second form, whose terms are both positive.  Above R_MAX, where
    sinh^2 r overflows, S = 2 ln cosh r + 1 to within 1/(2n) < 1e-300."""
    if not (r >= 0.0):
        raise DomainError(f"squeeze factor must be >= 0, got {r}")
    if r > R_MAX:
        return 2.0 * (r - math.log(2.0)) + 1.0
    n = math.sinh(r) ** 2
    if n == 0.0:
        return 0.0
    return math.log1p(n) + n * math.log1p(1.0 / n)
