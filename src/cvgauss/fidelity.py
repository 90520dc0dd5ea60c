"""Closed-form Uhlmann fidelity for one-mode Gaussian pairs and two-mode
squeezed-thermal pairs, plus the Bures distance.

The one-mode formula is

    F = (sqrt(Delta + Lambda) - sqrt(Lambda))^(-1) * exp(-E),

with Delta = det(V + V'), Lambda = 4 (det V - 1/4)(det V' - 1/4), and the
displacement contribution

    E = [(A + A' + 1)|C - C'|^2 + Re((B + B') conj(C - C')^2)] / Delta,

which equals the Gaussian mean-overlap (1/2) dm.(V+V')^(-1).dm of the
quadrature-mean difference dm.  The two-mode formula applies to squeezed
thermal states only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, UnphysicalState
from .states import (
    OneModeGaussianCF,
    TwoModeStsParams,
    cf_to_cov,
    sts_to_cov2,
)


def clamp_unit(f: float, slack: float = 1e-12) -> float:
    """Round fidelity values marginally above 1 (floating cancellation) down to 1."""
    if 1.0 < f <= 1.0 + slack:
        return 1.0
    return f


def _purity_factor(v: np.ndarray) -> float:
    """det V - 1/4 of a one-mode covariance matrix, with sub-roundoff values
    (either sign) snapped to zero.

    Lambda = 4 (det V - 1/4)(det V' - 1/4) vanishes exactly for pure inputs.
    Because sqrt(Lambda) enters the fidelity, determinant roundoff of either
    sign near the pure boundary would get amplified.
    """
    (qq, qp), (_, pp) = v.tolist()
    gap = qq * pp - qp * qp - 0.25
    noise = 64.0 * np.finfo(float).eps * max(0.25, max(qq, pp) ** 2)
    return gap if gap > noise else 0.0


def fidelity_one_mode(s1: OneModeGaussianCF, s2: OneModeGaussianCF) -> float:
    """Uhlmann fidelity of two one-mode Gaussian states from their CF coefficients.

    Raises UnphysicalState when Delta or sqrt(Delta + Lambda) - sqrt(Lambda)
    cancels to zero or below in double precision.
    """
    v1, v2 = cf_to_cov(s1), cf_to_cov(s2)
    delta = float(np.linalg.det(v1 + v2))
    if not delta > 0.0:
        raise UnphysicalState("det(V + V') cancels to zero or below in double precision")
    lam = 4.0 * _purity_factor(v1) * _purity_factor(v2)
    dc = s1.c - s2.c
    expo = -(
        (s1.a + s2.a + 1.0) * abs(dc) ** 2
        + ((s1.b + s2.b) * np.conj(dc) ** 2).real
    ) / delta
    denom = math.sqrt(delta + lam) - math.sqrt(lam)
    if denom == 0.0:
        raise UnphysicalState("sqrt(Delta + Lambda) - sqrt(Lambda) cancels to 0 "
                              "in double precision")
    return clamp_unit(math.exp(expo) / denom)


def fidelity_two_mode_sts(p1: TwoModeStsParams, p2: TwoModeStsParams) -> float:
    """Uhlmann fidelity of two two-mode squeezed thermal states.

    F = ( sqrt(sqrt(det(V+V')) + (sqrt X1 + sqrt X2)^2) - sqrt X1 - sqrt X2 )^(-2)

    with X1 = nbar1 nbar1' (nbar2 + 1)(nbar2' + 1) and X2 likewise with the
    modes swapped.  Raises UnphysicalState when det(V + V') or the outer
    difference cancels to zero or below in double precision.
    """
    det_sum = float(np.linalg.det(sts_to_cov2(p1) + sts_to_cov2(p2)))
    if not det_sum > 0.0:
        raise UnphysicalState("det(V + V') cancels to zero or below in double precision")
    x1 = p1.nbar1 * p2.nbar1 * (p1.nbar2 + 1.0) * (p2.nbar2 + 1.0)
    x2 = p1.nbar2 * p2.nbar2 * (p1.nbar1 + 1.0) * (p2.nbar1 + 1.0)
    s = math.sqrt(x1) + math.sqrt(x2)
    root = math.sqrt(math.sqrt(det_sum) + s * s)
    if root == s:
        raise UnphysicalState("sqrt(sqrt(det(V + V')) + (sqrt X1 + sqrt X2)^2) "
                              "- sqrt X1 - sqrt X2 cancels to 0 in double precision")
    return clamp_unit((root - s) ** (-2))


def bures_distance(f: float) -> float:
    """Bures distance sqrt(2 - 2 sqrt(F)) from a fidelity value in [0, 1]."""
    if not (0.0 <= f <= 1.0):
        raise DomainError(f"fidelity must lie in [0, 1], got {f}")
    return math.sqrt(max(2.0 - 2.0 * math.sqrt(f), 0.0))
