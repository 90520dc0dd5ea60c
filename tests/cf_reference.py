"""Characteristic functions written from their formulas alone, sharing no code
with cvgauss: the references of the teleport channel law, of the Fock
oracle's two-mode CF and of the one-mode coefficient form ``eval_cf1``.

The two-mode squeezed thermal state has

    chi(lam1, lam2) = exp[-(a1 + 1/2)|lam1|^2 - (a2 + 1/2)|lam2|^2
                          + conj(g) lam1 lam2 + g conj(lam1) conj(lam2)],

    a1 + 1/2 = (nbar1 + 1/2) cosh^2 r + (nbar2 + 1/2) sinh^2 r,
    a2 + 1/2 = (nbar2 + 1/2) cosh^2 r + (nbar1 + 1/2) sinh^2 r,
    g = (nbar1 + nbar2 + 1) e^{i phi} sinh r cosh r.

A one-mode Gaussian state with covariance matrix V and displacement
(xi + i eta)/sqrt 2 has chi = exp(-X V X/2 - i Xi.X), where X = (x, y),
Xi = (xi, eta) and lam = -(i/sqrt 2)(x + i y).
"""

import cmath
import math

from cvgauss import TwoModeStsParams


def sts_cf2(p: TwoModeStsParams, lam1: complex, lam2: complex) -> complex:
    ch2, sh2 = math.cosh(p.r) ** 2, math.sinh(p.r) ** 2
    n1 = (p.nbar1 + 0.5) * ch2 + (p.nbar2 + 0.5) * sh2
    n2 = (p.nbar2 + 0.5) * ch2 + (p.nbar1 + 0.5) * sh2
    g = (p.nbar1 + p.nbar2 + 1.0) * cmath.exp(1j * p.phi) * math.sinh(p.r) * math.cosh(p.r)
    lam1, lam2 = complex(lam1), complex(lam2)
    return cmath.exp(-n1 * abs(lam1) ** 2 - n2 * abs(lam2) ** 2
                     + g.conjugate() * lam1 * lam2
                     + g * lam1.conjugate() * lam2.conjugate())


def eval_cf1_cov(v, lam: complex, displacement: complex = 0j) -> complex:
    """The one-mode CF from the 2x2 covariance matrix v and the displacement."""
    lam = complex(lam)
    x = -math.sqrt(2.0) * lam.imag
    y = math.sqrt(2.0) * lam.real
    xi = math.sqrt(2.0) * displacement.real
    eta = math.sqrt(2.0) * displacement.imag
    quad = v[0, 0] * x * x + 2.0 * v[0, 1] * x * y + v[1, 1] * y * y
    return cmath.exp(-0.5 * quad - 1j * (xi * x + eta * y))
