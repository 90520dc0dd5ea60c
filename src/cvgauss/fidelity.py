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


def fidelity_one_mode_kernel(n1: float, r1: float, phi1: float, a1: complex,
                             n2: float, r2: float, phi2: float, a2: complex) -> float:
    """F of the module docstring on the unchecked parameters (nbar, r, phi,
    alpha) of two displaced squeezed thermal states; UnphysicalState where an
    intermediate overflows."""
    y1, y2 = n1 + 0.5, n2 + 0.5
    # 2 cosh 2(r - r') as e1/e2 + e2/e1, since r - r' may round
    e1, e2 = math.exp(2.0 * r1), math.exp(2.0 * r2)
    delta = y1 * y1 + y2 * y2 + y1 * y2 * (
        e1 / e2 + e2 / e1 + 4.0 * math.sinh(2.0 * r1) * math.sinh(2.0 * r2)
        * _sin2_half_difference(phi1, phi2))
    lam = 4.0 * (n1 * (n1 + 1.0)) * (n2 * (n2 + 1.0))
    d = a1 - a2
    expo = (_mean_form(y1, e1, phi1, d) + _mean_form(y2, e2, phi2, d)) / delta
    return clamp_unit(math.exp(-expo) * (math.sqrt(delta + lam) + math.sqrt(lam)) / delta)


def aligned_one_mode_distance(n1: float, r1: float):
    """The objective of the one-mode distance search: the function
    (n2, r2) -> 1 - sqrt(F) with F = fidelity_one_mode_kernel(n1, r1, phi, alpha,
    n2, r2, phi, alpha), for any finite phi and alpha, on which it does not
    depend.

    With phi' = phi and alpha' = alpha the sin^2 term of Delta and E are exactly
    0, so only Delta and Lambda remain, in the kernel's operations and order,
    with the terms of (n1, r1) taken once.  It equals the kernel bit for bit
    wherever the kernel's 4 sinh 2r1 sinh 2r2 is finite; past that, near
    r1 + r2 = 355, the kernel reads the dropped term as inf * 0 = nan, which
    this does not compute."""
    y1 = n1 + 0.5
    y1y1 = y1 * y1
    e1 = math.exp(2.0 * r1)
    p1 = 4.0 * (n1 * (n1 + 1.0))

    def distance(n2: float, r2: float) -> float:
        y2 = n2 + 0.5
        e2 = math.exp(2.0 * r2)
        delta = y1y1 + y2 * y2 + y1 * y2 * (e1 / e2 + e2 / e1)
        lam = p1 * (n2 * (n2 + 1.0))
        return 1.0 - math.sqrt(clamp_unit((math.sqrt(delta + lam) + math.sqrt(lam)) / delta))

    return distance


def fidelity_one_mode(s1: DstsParams | OneModeGaussianCF,
                      s2: DstsParams | OneModeGaussianCF) -> float:
    """Uhlmann fidelity of two one-mode Gaussian states, each given by its
    physical parameters or by its CF coefficients (converted by cf_to_dsts)."""
    p1, p2 = (cf_to_dsts(s) if isinstance(s, OneModeGaussianCF) else s for s in (s1, s2))
    return fidelity_one_mode_kernel(p1.nbar, p1.r, p1.phi, p1.alpha, p2.nbar, p2.r, p2.phi, p2.alpha)


def fidelity_two_mode_sts_kernel(n1: float, n2: float, r: float, phi: float,
                                 n1p: float, n2p: float, rp: float, phip: float) -> float:
    """F of :func:`fidelity_two_mode_sts` on the unchecked parameters (nbar1,
    nbar2, r, phi) of two squeezed thermal states; UnphysicalState where an
    intermediate overflows."""
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


def fidelity_two_mode_sts(p1: TwoModeStsParams, p2: TwoModeStsParams) -> float:
    """Uhlmann fidelity of two two-mode squeezed thermal states,

        F = ((sqrt(D + s^2) + s) / D)^2,  s = sqrt X1 + sqrt X2,

    the rationalized (sqrt(D + s^2) - s)^(-2), with X1 = nbar1 nbar1'
    (nbar2 + 1)(nbar2' + 1), X2 likewise with the modes swapped, and, for
    y_j = nbar_j + 1/2 and u = r - r',

        D = sqrt det(V + V') = y1 y2 + y1' y2' + (y1 y2' + y1' y2) cosh^2 u
            + (y1 y1' + y2 y2') sinh^2 u
            + (y1 + y2)(y1' + y2') sinh 2r sinh 2r' sin^2 ((phi - phi')/2).
    """
    return fidelity_two_mode_sts_kernel(p1.nbar1, p1.nbar2, p1.r, p1.phi,
                                        p2.nbar1, p2.nbar2, p2.r, p2.phi)


def aligned_sts_distance(n1: float, n2: float, r: float):
    """The objective of the STS distance search: the function
    (n1p, n2p, rp) -> 1 - sqrt(F) with F = fidelity_two_mode_sts_kernel(n1, n2,
    r, phi, n1p, n2p, rp, phi), for any finite phi, on which it does not depend.

    With phi' = phi the sin^2 term of D is exactly 0, so only the rest of D
    and s remain, in the kernel's operations and order, with the terms of
    (n1, n2, r) taken once; e^{2r'} is needed only where |r - r'| >= 1.  It
    equals the kernel bit for bit wherever the kernel's
    (y1 + y2)(y1' + y2') sinh 2r sinh 2r' is finite; past that the kernel reads
    the dropped term as inf * 0 = nan, which this does not compute."""
    y1, y2 = n1 + 0.5, n2 + 0.5
    y1y2 = y1 * y2
    m1, m2 = n1 + 1.0, n2 + 1.0
    e1 = math.exp(2.0 * r)

    def distance(n1p: float, n2p: float, rp: float) -> float:
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
        return 1.0 - math.sqrt(clamp_unit(((math.sqrt(d + s * s) + s) / d) ** 2))

    return distance
