"""Two-mode characteristic function of a squeezed thermal state, the reference
of the teleport channel law and of the Fock oracle's two-mode CF.

    chi(lam1, lam2) = exp[-(a1 + 1/2)|lam1|^2 - (a2 + 1/2)|lam2|^2
                          + conj(g) lam1 lam2 + g conj(lam1) conj(lam2)],

    a1 + 1/2 = (nbar1 + 1/2) cosh^2 r + (nbar2 + 1/2) sinh^2 r,
    a2 + 1/2 = (nbar2 + 1/2) cosh^2 r + (nbar1 + 1/2) sinh^2 r,
    g = (nbar1 + nbar2 + 1) e^{i phi} sinh r cosh r.

It is written from these formulas alone and shares no code with cvgauss.
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
