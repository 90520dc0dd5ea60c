"""One- and two-mode Gaussian state representations and conversions.

A one-mode Gaussian state is parametrized either physically, as a displaced
squeezed thermal state (``DstsParams``), by the coefficients (A, B, C) of its
characteristic function

    chi(lam) = exp[-(A+1/2)|lam|^2 - (1/2) conj(B) lam^2 - (1/2) B conj(lam)^2
                   + conj(C) lam - C conj(lam)],

or by its 2x2 quadrature covariance matrix.  The two-mode squeezed thermal
state (STS) family carries the extra cross couplings F, G of the two-mode
characteristic function and the corresponding 4x4 covariance matrix.

Conventions: q = (a + a^dag)/sqrt(2), p = -i(a - a^dag)/sqrt(2), so the
vacuum covariance matrix is I/2 and det V >= 1/4 expresses the Heisenberg
uncertainty relation.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UnphysicalState

#: base tolerance on determinant-type physicality inequalities; scaled by the
#: magnitude of the quantities entering the inequality, since the roundoff of
#: (a + 1/2)^2 - |b|^2 grows with (a + 1/2)^2 under strong squeezing
PHYS_TOL = 1e-9


def _scaled_tol(scale: float) -> float:
    return PHYS_TOL * max(1.0, scale)


def wrap_angle(phi: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    w = math.fmod(phi + math.pi, 2.0 * math.pi)
    if w < 0.0:
        w += 2.0 * math.pi
    w -= math.pi
    if w == -math.pi:
        w = math.pi
    return w


@dataclass(frozen=True)
class DstsParams:
    """Physical parameters of a displaced squeezed thermal state.

    nbar is the mean thermal occupancy, r >= 0 the squeeze factor, phi the
    squeeze angle (stored in (-pi, pi]), alpha the displacement amplitude.
    """

    nbar: float
    r: float = 0.0
    phi: float = 0.0
    alpha: complex = 0j

    def __post_init__(self):
        if not (self.nbar >= 0.0):
            raise DomainError(f"nbar must be >= 0, got {self.nbar}")
        if not (self.r >= 0.0):
            raise DomainError(f"squeeze factor r must be >= 0, got {self.r}")
        object.__setattr__(self, "phi", wrap_angle(float(self.phi)))
        object.__setattr__(self, "alpha", complex(self.alpha))


@dataclass(frozen=True)
class OneModeGaussianCF:
    """Exponent coefficients (a, b, c) of a one-mode Gaussian characteristic
    function; a is real, b and c complex.  Physicality requires
    (a + 1/2)^2 - |b|^2 >= 1/4.  a = 0 (vacuum, coherent states) is allowed.
    """

    a: float
    b: complex = 0j
    c: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "c", complex(self.c))
        if not (self.a >= -PHYS_TOL):
            raise UnphysicalState(f"coefficient a must be >= 0, got {self.a}")
        if self.det_cov() < 0.25 - _scaled_tol((self.a + 0.5) ** 2):
            raise UnphysicalState(
                f"(a+1/2)^2 - |b|^2 = {self.det_cov():.6g} < 1/4: "
                "state violates the uncertainty relation"
            )

    def det_cov(self) -> float:
        """Determinant of the associated covariance matrix, (a+1/2)^2 - |b|^2."""
        return (self.a + 0.5) ** 2 - abs(self.b) ** 2


@dataclass(frozen=True)
class CovMat1:
    """Symmetric 2x2 quadrature covariance matrix of one mode."""

    qq: float
    qp: float
    pp: float

    def __post_init__(self):
        if not (self.qq > 0.0 and self.pp > 0.0):
            raise UnphysicalState("diagonal covariances must be positive")
        if self.det() < 0.25 - _scaled_tol(self.qq * self.pp):
            raise UnphysicalState(
                f"det V = {self.det():.6g} < 1/4 violates the uncertainty relation"
            )

    def det(self) -> float:
        return self.qq * self.pp - self.qp * self.qp

    def matrix(self) -> np.ndarray:
        return np.array([[self.qq, self.qp], [self.qp, self.pp]])


@dataclass(frozen=True)
class TwoModeStsParams:
    """Physical parameters of a two-mode squeezed thermal state."""

    nbar1: float
    nbar2: float
    r: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if not (self.nbar1 >= 0.0 and self.nbar2 >= 0.0):
            raise DomainError("thermal occupancies must be >= 0")
        if not (self.r >= 0.0):
            raise DomainError(f"squeeze factor r must be >= 0, got {self.r}")
        object.__setattr__(self, "phi", wrap_angle(float(self.phi)))


@dataclass(frozen=True)
class TwoModeGaussianCF:
    """Coefficients of a two-mode Gaussian characteristic function: one-mode
    blocks for each mode plus the cross couplings f and g.

    The implied 4x4 covariance matrix must satisfy the two-mode Heisenberg
    inequality; construction raises UnphysicalState otherwise.
    """

    mode1: OneModeGaussianCF
    mode2: OneModeGaussianCF
    f: complex = 0j
    g: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "f", complex(self.f))
        object.__setattr__(self, "g", complex(self.g))
        cov = cf2_to_cov2(self)  # raises if the implied matrix is not PD
        gap = cov.heisenberg_gap()
        scale = float(np.abs(cov.matrix()).max()) ** 4
        if gap < -_scaled_tol(scale):
            raise UnphysicalState(
                f"two-mode Heisenberg combination {gap:.6g} < 0"
            )

    def is_displacement_free(self, tol: float = 1e-12) -> bool:
        return abs(self.mode1.c) <= tol and abs(self.mode2.c) <= tol


@dataclass(frozen=True, eq=False)
class CovMat2:
    """4x4 covariance matrix of a two-mode Gaussian state, stored as the two
    single-mode blocks plus the 2x2 cross-covariance block."""

    v1: CovMat1
    v2: CovMat1
    cross: np.ndarray = field(default_factory=lambda: np.zeros((2, 2)))

    def __post_init__(self):
        cross = np.array(self.cross, dtype=float)
        if cross.shape != (2, 2):
            raise DomainError(f"cross block must be 2x2, got {cross.shape}")
        cross.setflags(write=False)
        object.__setattr__(self, "cross", cross)
        # classical validity only; the quantum bound is checked by consumers
        full = self.matrix()
        ev_min = float(np.linalg.eigvalsh(full).min())
        if ev_min < -_scaled_tol(float(np.abs(full).max())):
            raise UnphysicalState(
                f"covariance matrix not positive definite (min eigenvalue {ev_min:.6g})"
            )

    def matrix(self) -> np.ndarray:
        m = np.zeros((4, 4))
        m[:2, :2] = self.v1.matrix()
        m[2:, 2:] = self.v2.matrix()
        m[:2, 2:] = self.cross
        m[2:, :2] = self.cross.T
        return m

    def heisenberg_gap(self) -> float:
        """Left-hand side of the two-mode uncertainty inequality
        det V - (det V1 + det V2 + 2 det C)/4 + 1/16 (signed det C)."""
        inv = local_invariants(self)
        return inv.det_v - 0.25 * (inv.det_v1 + inv.det_v2 + 2.0 * inv.det_c) + 0.0625


@dataclass(frozen=True)
class LocalInvariants:
    """The four invariants under local symplectic transformations."""

    det_v1: float
    det_v2: float
    det_c: float
    det_v: float


# ---------------------------------------------------------------------------
# one-mode conversions


def dsts_to_cf(p: DstsParams) -> OneModeGaussianCF:
    """Characteristic-function coefficients of a displaced squeezed thermal state.

    a = (nbar + 1/2) cosh 2r - 1/2,  b = -(nbar + 1/2) e^{i phi} sinh 2r,  c = alpha.
    """
    nph = p.nbar + 0.5
    a = nph * math.cosh(2.0 * p.r) - 0.5
    b = -nph * np.exp(1j * p.phi) * math.sinh(2.0 * p.r)
    return OneModeGaussianCF(a=a, b=b, c=p.alpha)


def cf_to_dsts(g: OneModeGaussianCF) -> DstsParams:
    """Invert the coefficient map back to physical parameters.

    Raises UnphysicalState when (a+1/2)^2 - |b|^2 < 1/4 beyond tolerance.
    The squeeze angle is defined as 0 when b = 0.
    """
    det = g.det_cov()
    if det < 0.25 - _scaled_tol((g.a + 0.5) ** 2):
        raise UnphysicalState(f"det V = {det:.6g} < 1/4")
    nph = math.sqrt(max(det, 0.25))
    nbar = max(nph - 0.5, 0.0)
    babs = abs(g.b)
    if babs > 0.0:
        # tanh 2r = |b| / (a + 1/2), strictly < 1 for physical states
        r = 0.5 * math.atanh(min(babs / (g.a + 0.5), 1.0 - 1e-16))
        phi = math.atan2((-g.b).imag, (-g.b).real)
    else:
        r = 0.0
        phi = 0.0
    return DstsParams(nbar=nbar, r=r, phi=phi, alpha=g.c)


def cf_to_cov(g: OneModeGaussianCF) -> CovMat1:
    """Covariance matrix implied by CF coefficients (the displacement is dropped):
    V_qq = a + 1/2 - Re b,  V_pp = a + 1/2 + Re b,  V_qp = -Im b.
    """
    return CovMat1(
        qq=g.a + 0.5 - g.b.real,
        qp=-g.b.imag,
        pp=g.a + 0.5 + g.b.real,
    )


def cov_to_cf(v: CovMat1, displacement: complex = 0j) -> OneModeGaussianCF:
    """Inverse of :func:`cf_to_cov`; the displacement must be supplied separately."""
    a = 0.5 * (v.qq + v.pp) - 0.5
    b = complex(0.5 * (v.pp - v.qq), -v.qp)
    return OneModeGaussianCF(a=a, b=b, c=displacement)


# ---------------------------------------------------------------------------
# two-mode conversions


def sts_to_cf2(p: TwoModeStsParams) -> TwoModeGaussianCF:
    """Two-mode CF coefficients of a squeezed thermal state.

    Mode reductions are unsqueezed thermal-like (b_j = 0, c_j = 0) with
    a_j + 1/2 the local invariant sqrt(det V_j); the only cross coupling is
    g = (nbar1 + nbar2 + 1) e^{i phi} sinh r cosh r, and f = 0.
    """
    ch2 = math.cosh(p.r) ** 2
    sh2 = math.sinh(p.r) ** 2
    a1 = (p.nbar1 + 0.5) * ch2 + (p.nbar2 + 0.5) * sh2 - 0.5
    a2 = (p.nbar2 + 0.5) * ch2 + (p.nbar1 + 0.5) * sh2 - 0.5
    g = (p.nbar1 + p.nbar2 + 1.0) * np.exp(1j * p.phi) * math.sinh(p.r) * math.cosh(p.r)
    return TwoModeGaussianCF(
        mode1=OneModeGaussianCF(a=a1),
        mode2=OneModeGaussianCF(a=a2),
        f=0j,
        g=g,
    )


def sts_to_cov2(p: TwoModeStsParams) -> CovMat2:
    """4x4 covariance matrix of a two-mode squeezed thermal state."""
    return cf2_to_cov2(sts_to_cf2(p))


def cf2_to_cov2(t: TwoModeGaussianCF) -> CovMat2:
    """Covariance matrix implied by two-mode CF coefficients.

    Cross block: [[Re(f+g), Im(g-f)], [Im(g+f), Re(f-g)]].
    """
    fr, fi = t.f.real, t.f.imag
    gr, gi = t.g.real, t.g.imag
    cross = np.array([[fr + gr, gi - fi], [gi + fi, fr - gr]])
    return CovMat2(v1=cf_to_cov(t.mode1), v2=cf_to_cov(t.mode2), cross=cross)


def local_invariants(m: CovMat2) -> LocalInvariants:
    """Determinants of the blocks and of the full matrix."""
    det_c = float(m.cross[0, 0] * m.cross[1, 1] - m.cross[0, 1] * m.cross[1, 0])
    return LocalInvariants(
        det_v1=m.v1.det(),
        det_v2=m.v2.det(),
        det_c=det_c,
        det_v=float(np.linalg.det(m.matrix())),
    )


# ---------------------------------------------------------------------------
# characteristic-function evaluation


def eval_cf1(g: OneModeGaussianCF, lam: complex) -> complex:
    """Evaluate the one-mode Gaussian CF at argument lam."""
    lam = complex(lam)
    expo = (
        -(g.a + 0.5) * abs(lam) ** 2
        - 0.5 * np.conj(g.b) * lam * lam
        - 0.5 * g.b * np.conj(lam) ** 2
        + np.conj(g.c) * lam
        - g.c * np.conj(lam)
    )
    return complex(np.exp(expo))


def eval_cf1_cov(v: CovMat1, lam: complex, displacement: complex = 0j) -> complex:
    """Evaluate the same CF through the covariance-matrix form
    exp(-X V X/2 - i Xi.X) with lam = -(i/sqrt 2)(x + i y)."""
    lam = complex(lam)
    x = -math.sqrt(2.0) * lam.imag
    y = math.sqrt(2.0) * lam.real
    xi = math.sqrt(2.0) * displacement.real
    eta = math.sqrt(2.0) * displacement.imag
    quad = v.qq * x * x + 2.0 * v.qp * x * y + v.pp * y * y
    return complex(np.exp(-0.5 * quad - 1j * (xi * x + eta * y)))


def eval_cf2(t: TwoModeGaussianCF, lam1: complex, lam2: complex) -> complex:
    """Evaluate the two-mode Gaussian CF at (lam1, lam2)."""
    lam1, lam2 = complex(lam1), complex(lam2)
    cross = (
        -t.f * np.conj(lam1) * lam2
        - np.conj(t.f) * lam1 * np.conj(lam2)
        + np.conj(t.g) * lam1 * lam2
        + t.g * np.conj(lam1) * np.conj(lam2)
    )
    return eval_cf1(t.mode1, lam1) * eval_cf1(t.mode2, lam2) * complex(np.exp(cross))


# ---------------------------------------------------------------------------
# JSON state descriptors


#: largest squeeze factor r for which cosh 2r is a finite double
_R_MAX = 0.5 * math.acosh(sys.float_info.max)


def _require(obj: dict, key: str, kind: str):
    if key not in obj:
        raise DomainError(f"state descriptor of kind '{kind}' is missing field '{key}'")
    return obj[key]


def _real(value, name: str, bound: float = sys.float_info.max) -> float:
    """A descriptor's numeric field as a float: a real number, not a bool,
    with |value| <= bound (so never inf or nan)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= bound:
        raise DomainError(
            f"field '{name}' must be a real number with |{name}| <= {bound:.6g}, got {value!r}")
    return float(value)


def parse_state(source) -> DstsParams | TwoModeStsParams:
    """Parse a JSON state descriptor (text or already-decoded dict).

    Supported kinds::

        {"kind": "dsts", "nbar": ..., "r": ..., "phi": ..., "alpha": [re, im]}
        {"kind": "sts2", "nbar1": ..., "nbar2": ..., "r": ..., "phi": ...}

    Missing fields, and numeric fields that are not finite real numbers, are
    rejected; so is r > 355.2, where cosh 2r overflows.  These are checks on
    outside input, made here once and not in the parameter constructors.
    """
    if isinstance(source, (str, bytes)):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid state JSON: {exc}") from exc
    else:
        obj = source
    if not isinstance(obj, dict):
        raise DomainError("state descriptor must be a JSON object")
    kind = _require(obj, "kind", "?")
    if kind == "dsts":
        alpha = _require(obj, "alpha", kind)
        if not (isinstance(alpha, (list, tuple)) and len(alpha) == 2):
            raise DomainError("field 'alpha' must be a [re, im] pair")
        return DstsParams(
            nbar=_real(_require(obj, "nbar", kind), "nbar"),
            r=_real(_require(obj, "r", kind), "r", _R_MAX),
            phi=_real(_require(obj, "phi", kind), "phi"),
            alpha=complex(_real(alpha[0], "alpha"), _real(alpha[1], "alpha")),
        )
    if kind == "sts2":
        return TwoModeStsParams(
            nbar1=_real(_require(obj, "nbar1", kind), "nbar1"),
            nbar2=_real(_require(obj, "nbar2", kind), "nbar2"),
            r=_real(_require(obj, "r", kind), "r", _R_MAX),
            phi=_real(_require(obj, "phi", kind), "phi"),
        )
    raise DomainError(f"unknown state kind '{kind}'")


def state_to_dict(state: DstsParams | TwoModeStsParams) -> dict:
    """Serialize a state to its JSON descriptor dict."""
    if isinstance(state, DstsParams):
        return {
            "kind": "dsts",
            "nbar": state.nbar,
            "r": state.r,
            "phi": state.phi,
            "alpha": [state.alpha.real, state.alpha.imag],
        }
    if isinstance(state, TwoModeStsParams):
        return {
            "kind": "sts2",
            "nbar1": state.nbar1,
            "nbar2": state.nbar2,
            "r": state.r,
            "phi": state.phi,
        }
    raise DomainError(f"cannot serialize object of type {type(state).__name__}")
