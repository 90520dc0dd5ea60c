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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .states import (
    OneModeGaussianCF,
    TwoModeStsParams,
    cf_to_cov,
    sts_to_cov2,
)


def _clamp_unit(f: float, slack: float = 1e-12) -> float:
    """Round fidelity values marginally above 1 (floating cancellation) down to 1."""
    if 1.0 < f <= 1.0 + slack:
        return 1.0
    return f


@dataclass(frozen=True)
class FidelityIntermediates:
    """Delta = det(V + V') and Lambda = 4 (det V - 1/4)(det V' - 1/4).

    Lambda vanishes exactly for pure inputs.  Because sqrt(Lambda) enters the
    fidelity, determinant roundoff of either sign near the pure boundary gets
    amplified; each purity factor det V - 1/4 is therefore snapped to 0 when
    it sits below the covariance roundoff floor.
    """

    delta: float
    lam: float


def _purity_factor(det: float, qq: float, pp: float) -> float:
    """det V - 1/4 with sub-roundoff values (either sign) snapped to zero."""
    gap = det - 0.25
    noise = 64.0 * np.finfo(float).eps * max(0.25, max(qq, pp) ** 2)
    return gap if gap > noise else 0.0


def one_mode_intermediates(s1: OneModeGaussianCF, s2: OneModeGaussianCF) -> FidelityIntermediates:
    v1 = cf_to_cov(s1)
    v2 = cf_to_cov(s2)
    delta = float(np.linalg.det(v1.matrix() + v2.matrix()))
    lam = 4.0 * _purity_factor(v1.det(), v1.qq, v1.pp) \
              * _purity_factor(v2.det(), v2.qq, v2.pp)
    return FidelityIntermediates(delta=delta, lam=lam)


def fidelity_one_mode(s1: OneModeGaussianCF, s2: OneModeGaussianCF) -> float:
    """Uhlmann fidelity of two one-mode Gaussian states from their CF coefficients."""
    inter = one_mode_intermediates(s1, s2)
    dc = s1.c - s2.c
    expo = -(
        (s1.a + s2.a + 1.0) * abs(dc) ** 2
        + ((s1.b + s2.b) * np.conj(dc) ** 2).real
    ) / inter.delta
    f = math.exp(expo) / (math.sqrt(inter.delta + inter.lam) - math.sqrt(inter.lam))
    return _clamp_unit(f)


@dataclass(frozen=True)
class TwoModeFidelityIntermediates:
    """X1, X2 and det(V + V') entering the two-mode STS fidelity."""

    x1: float
    x2: float
    det_sum: float


def two_mode_intermediates(p1: TwoModeStsParams, p2: TwoModeStsParams) -> TwoModeFidelityIntermediates:
    det_sum = float(np.linalg.det(sts_to_cov2(p1) + sts_to_cov2(p2)))
    x1 = p1.nbar1 * p2.nbar1 * (p1.nbar2 + 1.0) * (p2.nbar2 + 1.0)
    x2 = p1.nbar2 * p2.nbar2 * (p1.nbar1 + 1.0) * (p2.nbar1 + 1.0)
    return TwoModeFidelityIntermediates(x1=x1, x2=x2, det_sum=det_sum)


def fidelity_two_mode_sts(p1: TwoModeStsParams, p2: TwoModeStsParams) -> float:
    """Uhlmann fidelity of two two-mode squeezed thermal states.

    F = ( sqrt(sqrt(det(V+V')) + (sqrt X1 + sqrt X2)^2) - sqrt X1 - sqrt X2 )^(-2)
    """
    inter = two_mode_intermediates(p1, p2)
    s = math.sqrt(inter.x1) + math.sqrt(inter.x2)
    root = math.sqrt(math.sqrt(max(inter.det_sum, 0.0)) + s * s)
    return _clamp_unit((root - s) ** (-2))


def bures_distance(f: float) -> float:
    """Bures distance sqrt(2 - 2 sqrt(F)) from a fidelity value in [0, 1]."""
    if not (0.0 <= f <= 1.0):
        raise DomainError(f"fidelity must lie in [0, 1], got {f}")
    return math.sqrt(max(2.0 - 2.0 * math.sqrt(f), 0.0))
