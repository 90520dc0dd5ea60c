"""Closed-form Uhlmann fidelity for one-mode Gaussian pairs and two-mode
squeezed-thermal pairs.

Both forms take the physical parameters and add positive terms only.  For
one-mode states with y = nbar + 1/2, squeeze r, angle phi, displacement alpha,

    F = exp(-E) (sqrt(Delta + Lambda) + sqrt(Lambda)) / Delta,

the rationalized (sqrt(Delta + Lambda) - sqrt(Lambda))^(-1) exp(-E), with

    Delta  = det(V + V') = y^2 + y'^2
             + 2 y y' [cosh 2(r - r') + 2 sinh 2r sinh 2r' sin^2 ((phi - phi')/2)],
    Lambda = 4 (det V - 1/4)(det V' - 1/4) = 4 nbar (nbar + 1) nbar' (nbar' + 1),
    E      = (1/2) dm.(V + V')^(-1).dm = (Q + Q') / Delta,

where Q = y [e^{-2r} Re^2 w + e^{2r} Im^2 w], w = (alpha - alpha') e^{-i phi/2},
is the quadratic form of adj V at the mean difference, and Q' that of adj V'.
"""

from __future__ import annotations

import cmath
import math

from .errors import UnphysicalState
from .states import DstsParams, OneModeGaussianCF, TwoModeStsParams, cf_to_dsts


def clamp_unit(f: float) -> float:
    """A closed-form fidelity with roundoff above 1 rounded down; UnphysicalState
    outside [0, 1 + 1e-12], where an intermediate overflowed to inf or nan."""
    if not 0.0 <= f <= 1.0 + 1e-12:
        raise UnphysicalState(f"fidelity evaluates to {f}: an intermediate overflows "
                              "double precision")
    return min(f, 1.0)


def gap_degrees(g: float) -> tuple[float, float]:
    """(1 - sech g, 1 - sqrt(sech g)) for a gap g > 0 past a threshold: 1 - sqrt(F)
    for the fidelity F = sech^2 g of a two-mode squeezed vacuum of squeeze g
    with the vacuum, and F = sech g of a one-mode one.  Below g = 1 both come
    from 2 sinh^2(g/2) / cosh g, which does not cancel to 0 just past the
    threshold; from g = 1 they are 1 - 1/cosh g and 1 - sqrt(1/cosh g), which
    reach 1 at R_MAX.  teleport.sweep_fig2 repeats these forms on arrays, bit
    for bit."""
    cosh = math.cosh(g)
    root = math.sqrt(1.0 / cosh)
    if g >= 1.0:
        return 1.0 - 1.0 / cosh, 1.0 - root
    half = math.sinh(0.5 * g)
    e = 2.0 * half * half / cosh
    return e, e / (1.0 + root)


def _sin2_half_difference(phi1: float, phi2: float) -> float:
    """sin^2((phi1 - phi2) / 2) with the half difference reduced modulo pi by an
    exact sum, so that angles on both sides of the cut at +-pi keep all digits."""
    k = round((phi1 - phi2) / (2.0 * math.pi))
    # pi = math.pi + 1.2246467991473532e-16 to twice double precision
    s = math.sin(math.fsum((0.5 * phi1, -0.5 * phi2, -k * math.pi, -k * 1.2246467991473532e-16)))
    return s * s


def _mean_form(y: float, e2r: float, phi: float, d: complex) -> float:
    """Quadratic form of adj V at the mean difference d, as Q above, for
    y = nbar + 1/2 and e2r = e^{2r}."""
    w = d * cmath.exp(-0.5j * phi)
    return y * (w.real * w.real / e2r + w.imag * w.imag * e2r)


def fidelity_one_mode(s1: DstsParams | OneModeGaussianCF,
                      s2: DstsParams | OneModeGaussianCF) -> float:
    """Uhlmann fidelity F of the module docstring for two one-mode Gaussian
    states, each given by its physical parameters or by its CF coefficients
    (converted by cf_to_dsts); UnphysicalState where an intermediate overflows."""
    p1, p2 = (cf_to_dsts(s) if isinstance(s, OneModeGaussianCF) else s for s in (s1, s2))
    n1, r1, phi1, n2, r2, phi2 = p1.nbar, p1.r, p1.phi, p2.nbar, p2.r, p2.phi
    y1, y2 = n1 + 0.5, n2 + 0.5
    # 2 cosh 2(r - r') as e1/e2 + e2/e1, since r - r' may round
    e1, e2 = math.exp(2.0 * r1), math.exp(2.0 * r2)
    delta = y1 * y1 + y2 * y2 + y1 * y2 * (
        e1 / e2 + e2 / e1 + 4.0 * math.sinh(2.0 * r1) * math.sinh(2.0 * r2)
        * _sin2_half_difference(phi1, phi2))
    lam = 4.0 * (n1 * (n1 + 1.0)) * (n2 * (n2 + 1.0))
    d = p1.alpha - p2.alpha
    expo = (_mean_form(y1, e1, phi1, d) + _mean_form(y2, e2, phi2, d)) / delta
    return clamp_unit(math.exp(-expo) * (math.sqrt(delta + lam) + math.sqrt(lam)) / delta)


def fidelity_two_mode_sts(p1: TwoModeStsParams, p2: TwoModeStsParams) -> float:
    """Uhlmann fidelity of two two-mode squeezed thermal states,

        F = ((sqrt(D + s^2) + s) / D)^2,  s = sqrt X1 + sqrt X2,

    the rationalized (sqrt(D + s^2) - s)^(-2), with X1 = nbar1 nbar1'
    (nbar2 + 1)(nbar2' + 1), X2 likewise with the modes swapped, and, for
    y_j = nbar_j + 1/2 and u = r - r',

        D = sqrt det(V + V') = y1 y2 + y1' y2' + (y1 y2' + y1' y2) cosh^2 u
            + (y1 y1' + y2 y2') sinh^2 u
            + (y1 + y2)(y1' + y2') sinh 2r sinh 2r' sin^2 ((phi - phi')/2);

    UnphysicalState where an intermediate overflows.
    """
    n1, n2, r, phi = p1.nbar1, p1.nbar2, p1.r, p1.phi
    n1p, n2p, rp, phip = p2.nbar1, p2.nbar2, p2.r, p2.phi
    y1, y2, y1p, y2p = n1 + 0.5, n2 + 0.5, n1p + 0.5, n2p + 0.5
    # sinh^2 u from u = r - r' below |u| = 1, where its rounding costs under an
    # ulp, else from e^{2r} / e^{2r'}, where the subtraction loses under 2x
    u = r - rp
    e1, e2 = math.exp(2.0 * r), math.exp(2.0 * rp)
    sh2 = math.sinh(u) ** 2 if abs(u) < 1.0 else 0.25 * (e1 / e2 + e2 / e1) - 0.5
    d = (y1 * y2 + y1p * y2p + (y1 * y2p + y1p * y2) * (1.0 + sh2) + (y1 * y1p + y2 * y2p) * sh2
         + (y1 + y2) * (y1p + y2p) * (math.sinh(2.0 * r) * math.sinh(2.0 * rp))
         * _sin2_half_difference(phi, phip))
    s = (math.sqrt((n1 * n1p) * ((n2 + 1.0) * (n2p + 1.0)))
         + math.sqrt((n2 * n2p) * ((n1 + 1.0) * (n1p + 1.0))))
    return clamp_unit(((math.sqrt(d + s * s) + s) / d) ** 2)

