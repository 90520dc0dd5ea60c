"""One- and two-mode Gaussian state representations and conversions.

A one-mode Gaussian state is parametrized either physically, as a displaced
squeezed thermal state (``DstsParams``), by the coefficients (A, B, C) of its
characteristic function

    chi(lam) = exp[-(A+1/2)|lam|^2 - (1/2) conj(B) lam^2 - (1/2) B conj(lam)^2
                   + conj(C) lam - C conj(lam)],

or by its 2x2 quadrature covariance matrix.  A two-mode squeezed thermal
state (STS, ``TwoModeStsParams``) is carried by its physical parameters and
its 4x4 covariance matrix.

Conventions: q = (a + a^dag)/sqrt(2), p = -i(a - a^dag)/sqrt(2), so the
vacuum covariance matrix is I/2 and det V >= 1/4 expresses the Heisenberg
uncertainty relation.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnphysicalState

#: base tolerance on determinant-type physicality inequalities; scaled by the
#: magnitude of the quantities entering the inequality, since the roundoff of
#: (a + 1/2)^2 - |b|^2 grows with (a + 1/2)^2 under strong squeezing
PHYS_TOL = 1e-9

#: largest squeeze factor r with a finite e^{2r} in double precision,
#: (1/2) ln DBL_MAX; the parameter types reject any r above it
R_MAX = 0.5 * math.log(sys.float_info.max)

#: largest finite double, the bound on the occupancies
_DBL_MAX = sys.float_info.max


def _scaled_tol(scale: float) -> float:
    return PHYS_TOL * max(1.0, scale)


def _range_error(occupancies: tuple, occupancy_message: str, r: float) -> ValueError:
    """The error of parameters that failed their range check: DomainError for
    a negative or nan occupancy or squeeze factor, UnphysicalState for r > R_MAX
    or an infinite occupancy."""
    if not all(n >= 0.0 for n in occupancies):
        return DomainError(occupancy_message)
    if not r >= 0.0:
        return DomainError(f"squeeze factor r must be >= 0, got {r}")
    if r > R_MAX:
        return UnphysicalState(f"squeeze factor {r} overflows double precision "
                               f"(r must be <= R_MAX = {R_MAX:.17g})")
    return UnphysicalState(f"thermal occupancy {max(occupancies)} overflows double precision")


def _normalise_phi(params) -> None:
    """Store the angle of a parameter type as a float in (-pi, pi]; a float
    already in it is left in place, bit for bit, and a non-finite angle
    raises DomainError."""
    phi = params.phi
    if phi.__class__ is not float:
        phi = float(phi)
    if not -math.pi < phi <= math.pi:
        if not math.isfinite(phi):
            raise DomainError(f"angle must be finite, got {phi}")
        phi = math.fmod(phi + math.pi, 2.0 * math.pi)
        if phi < 0.0:
            phi += 2.0 * math.pi
        phi -= math.pi
        if phi == -math.pi:
            phi = math.pi
    if phi is not params.phi:
        object.__setattr__(params, "phi", phi)


@dataclass(frozen=True)
class DstsParams:
    """Physical parameters of a displaced squeezed thermal state.

    nbar is the finite mean thermal occupancy, 0 <= r <= R_MAX the squeeze factor,
    phi the finite squeeze angle (stored in (-pi, pi]), alpha the finite
    displacement amplitude.
    """

    nbar: float
    r: float = 0.0
    phi: float = 0.0
    alpha: complex = 0j

    def __post_init__(self):
        if not (_DBL_MAX >= self.nbar >= 0.0 <= self.r <= R_MAX):
            raise _range_error((self.nbar,), f"nbar must be >= 0, got {self.nbar}", self.r)
        # stored as floats, whose overflow raises where a numpy scalar's only warns
        if self.nbar.__class__ is not float or self.r.__class__ is not float:
            object.__setattr__(self, "nbar", float(self.nbar))
            object.__setattr__(self, "r", float(self.r))
        _normalise_phi(self)
        alpha = self.alpha
        if alpha.__class__ is not complex:
            alpha = complex(alpha)
            object.__setattr__(self, "alpha", alpha)
        if not cmath.isfinite(alpha):
            raise DomainError(f"displacement alpha must be finite, got {alpha}")


@dataclass(frozen=True)
class OneModeGaussianCF:
    """Exponent coefficients (a, b, c) of a one-mode Gaussian characteristic
    function; a is real, b and c complex, c finite.  Physicality requires
    (a + 1/2)^2 - |b|^2 >= 1/4.  a = 0 (vacuum, coherent states) is allowed.
    """

    a: float
    b: complex = 0j
    c: complex = 0j

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        if b.__class__ is not complex:
            b = complex(b)
            object.__setattr__(self, "b", b)
        if c.__class__ is not complex:
            c = complex(c)
            object.__setattr__(self, "c", c)
        if not (-PHYS_TOL <= a < math.inf):
            raise UnphysicalState(f"coefficient a must be finite and >= 0, got {a}")
        try:
            if a.__class__ is not float:  # a numpy scalar's overflow would only warn
                a = float(a)
                object.__setattr__(self, "a", a)
            aa = (a + 0.5) ** 2
            det = aa - abs(b) ** 2  # det V
        except OverflowError:
            raise UnphysicalState("(a+1/2)^2 - |b|^2 overflows double precision") from None
        if not det >= 0.25 - _scaled_tol(aa):
            raise UnphysicalState(
                f"(a+1/2)^2 - |b|^2 = {det:.6g} < 1/4: "
                "state violates the uncertainty relation"
            )
        if not cmath.isfinite(c):
            raise DomainError(f"coefficient c must be finite, got {c}")


def _check_cov1(qq: float, qp: float, pp: float) -> None:
    """Raise UnphysicalState unless [[qq, qp], [qp, pp]] is a physical one-mode
    covariance matrix: positive diagonal and det >= 1/4 to a tolerance scaled
    by qq pp."""
    if not (qq > 0.0 and pp > 0.0):
        raise UnphysicalState("diagonal covariances must be positive")
    det = qq * pp - qp * qp
    if not det >= 0.25 - _scaled_tol(qq * pp):
        raise UnphysicalState(f"det V = {det:.6g} < 1/4 violates the uncertainty relation")


@dataclass(frozen=True)
class TwoModeStsParams:
    """Physical parameters of a two-mode squeezed thermal state: finite thermal
    occupancies nbar1, nbar2 >= 0, squeeze factor 0 <= r <= R_MAX and
    finite squeeze angle phi (stored in (-pi, pi])."""

    nbar1: float
    nbar2: float
    r: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if not (_DBL_MAX >= self.nbar1 >= 0.0 <= self.nbar2 <= _DBL_MAX
                and 0.0 <= self.r <= R_MAX):
            raise _range_error((self.nbar1, self.nbar2), "thermal occupancies must be >= 0", self.r)
        if not self.nbar1.__class__ is self.nbar2.__class__ is self.r.__class__ is float:
            object.__setattr__(self, "nbar1", float(self.nbar1))
            object.__setattr__(self, "nbar2", float(self.nbar2))
            object.__setattr__(self, "r", float(self.r))
        _normalise_phi(self)


# ---------------------------------------------------------------------------
# one-mode conversions


def dsts_to_cf(p: DstsParams) -> OneModeGaussianCF:
    """Characteristic-function coefficients of a displaced squeezed thermal state.

    a = (nbar + 1/2) cosh 2r - 1/2,  b = -(nbar + 1/2) e^{i phi} sinh 2r,  c = alpha.
    """
    nph = p.nbar + 0.5
    a = nph * math.cosh(2.0 * p.r) - 0.5
    b = -nph * cmath.exp(1j * p.phi) * math.sinh(2.0 * p.r)
    return OneModeGaussianCF(a, b, p.alpha)


def cf_to_dsts(g: OneModeGaussianCF) -> DstsParams:
    """Invert the coefficient map back to physical parameters (g passed its
    physicality check on construction).  The squeeze angle is defined as 0
    when b = 0, and nbar as 0 when (a+1/2)^2 - |b|^2 - 1/4 is within its
    roundoff, eps (a+1/2)^2, which sqrt(Lambda) in the fidelity would magnify.
    """
    det = (g.a + 0.5) ** 2 - abs(g.b) ** 2
    pure = det - 0.25 <= 64.0 * sys.float_info.epsilon * (g.a + 0.5) ** 2
    nbar = 0.0 if pure else math.sqrt(det) - 0.5
    # tanh 2r = |b| / (a + 1/2), strictly < 1 for physical states
    r = 0.5 * math.atanh(min(abs(g.b) / (g.a + 0.5), 1.0 - 1e-16))
    phi = math.atan2((-g.b).imag, (-g.b).real) if g.b != 0.0 else 0.0
    return DstsParams(nbar, r, phi, g.c)


def cf_to_cov(g: OneModeGaussianCF) -> np.ndarray:
    """Read-only 2x2 covariance matrix [[V_qq, V_qp], [V_qp, V_pp]] implied by
    CF coefficients (the displacement is dropped):
    V_qq = a + 1/2 - Re b,  V_pp = a + 1/2 + Re b,  V_qp = -Im b.

    OneModeGaussianCF checked det V = (a+1/2)^2 - |b|^2.  Raises UnphysicalState
    when V_qq or V_pp is not positive in double precision; at phi = 0, V_pp
    cancels to zero or below from r of about 9.4.
    """
    qq, qp, pp = g.a + 0.5 - g.b.real, -g.b.imag, g.a + 0.5 + g.b.real
    if not (qq > 0.0 and pp > 0.0):
        raise UnphysicalState("diagonal covariances must be positive")
    m = np.array([[qq, qp], [qp, pp]])
    m.setflags(write=False)
    return m


# ---------------------------------------------------------------------------
# two-mode conversions


def sts_to_cov2(p: TwoModeStsParams) -> np.ndarray:
    """Read-only 4x4 covariance matrix of a two-mode squeezed thermal state,
    mode blocks (a_j + 1/2) I and cross block [[Re g, Im g], [Im g, -Re g]]
    (unchecked: the parameters are valid by construction).  a_j + 1/2 =
    sqrt(det V_j) is the local invariant of mode j, and the cross coupling
    g = (nbar1 + nbar2 + 1) e^{i phi} sinh r cosh r is formed from half of
    nbar1 + nbar2 + 1 and doubled last, so it stays finite (and is 0 at r = 0)
    wherever its true value is; UnphysicalState where an entry exceeds the
    largest double."""
    sh, ch = math.sinh(p.r), math.cosh(p.r)
    ch2, sh2 = ch ** 2, sh ** 2
    a1 = (p.nbar1 + 0.5) * ch2 + (p.nbar2 + 0.5) * sh2 - 0.5
    a2 = (p.nbar2 + 0.5) * ch2 + (p.nbar1 + 0.5) * sh2 - 0.5
    g = 2.0 * ((0.5 * p.nbar1 + 0.5 * p.nbar2 + 0.5) * cmath.exp(1j * p.phi) * sh * ch)
    if not (a1 < math.inf and a2 < math.inf and cmath.isfinite(g)):
        raise UnphysicalState("squeezed thermal covariance entries overflow double precision")
    m = np.array([[a1 + 0.5, 0.0, g.real, g.imag],
                  [0.0, a1 + 0.5, g.imag, -g.real],
                  [g.real, g.imag, a2 + 0.5, 0.0],
                  [g.imag, -g.real, 0.0, a2 + 0.5]])
    m.setflags(write=False)
    return m


def checked_invariants(m) -> tuple[float, float, float, float]:
    """The invariants under local symplectic transformations of a two-mode
    covariance matrix from outside: (det V1, det V2, det C, det V), the
    determinants of the mode blocks, the cross block and the whole matrix.
    First checks that m is a finite symmetric 4x4 array of real numbers (else
    DomainError) with physical one-mode blocks, positive definite, with
    invariants and tolerance scale that fit in a double (else
    UnphysicalState), and obeying the uncertainty inequality
    det V - (det V1 + det V2 + 2 det C)/4 + 1/16 >= 0 to a tolerance scaled
    by its terms."""
    try:
        m = np.asarray(m)
        # a float cast would drop the imaginary part of a complex entry and
        # read text such as "0.5" or a truth value as a number
        numbers_only = m.dtype.kind in "iuf" or (m.dtype.kind == "O" and not any(
            isinstance(x, (str, bytes, bool, np.bool_)) for x in m.flat))
        m = m.astype(float, copy=False) if numbers_only else np.empty(0)
    except (TypeError, ValueError, OverflowError):  # ragged, or entries that are not reals
        m = np.empty(0)
    # Python floats: an overflow in the check is inf, not a warning; a
    # misshapen array reads as one nan
    rows = m.tolist() if m.shape == (4, 4) else [[math.nan]]
    entries = [x for row in rows for x in row]
    if not (all(map(math.isfinite, entries)) and rows == list(map(list, zip(*rows)))):
        raise DomainError("covariance matrix must be a finite symmetric 4x4 array")
    for i in (0, 2):
        _check_cov1(rows[i][i], rows[i][i + 1], rows[i + 1][i + 1])
    ev_min = float(np.linalg.eigvalsh(m).min())
    if ev_min < -_scaled_tol(max(map(abs, entries))):
        raise UnphysicalState(
            f"covariance matrix not positive definite (min eigenvalue {ev_min:.6g})")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        det_v = float(np.linalg.det(m))
    det_v1 = rows[0][0] * rows[1][1] - rows[0][1] * rows[0][1]
    det_v2 = rows[2][2] * rows[3][3] - rows[2][3] * rows[2][3]
    det_c = rows[0][2] * rows[1][3] - rows[0][3] * rows[1][2]
    scale = max(det_v1 * det_v2, abs(det_v), det_c * det_c)
    if not all(map(math.isfinite, (det_v1, det_v2, det_c, det_v, scale))):
        raise UnphysicalState("covariance matrix invariants overflow a double, so the "
                              "uncertainty inequality cannot be checked")
    gap = det_v - 0.25 * (det_v1 + det_v2 + 2.0 * det_c) + 0.0625
    if not gap >= -_scaled_tol(scale):
        raise UnphysicalState(f"covariance matrix violates the uncertainty inequality by {gap:.3g}")
    return det_v1, det_v2, det_c, det_v


# ---------------------------------------------------------------------------
# JSON state descriptors


#: largest log s of a covariance scale s whose fourth power is a finite double
_LOG_SCALE_MAX = 0.5 * R_MAX

#: bounds on the occupancy (the sum of the two for sts2) and on r below which
#: the scale test cannot fail, so parse_state runs it only past one of them:
#: ln(1e70 + 1/2) + ln cosh 8 = 168.5 for dsts and ln(1e70 + 1) + 2 ln cosh 4
#: = 167.8 for sts2, both well under _LOG_SCALE_MAX = 177.4
_SCALE_SAFE_NBAR = 1e70
_SCALE_SAFE_R = 4.0


def _log_cosh(x: float) -> float:
    """log cosh x for x >= 0, without overflow."""
    return x + math.log1p(math.exp(-2.0 * x)) - math.log(2.0)


def _require(obj: dict, key: str, kind: str):
    if key not in obj:
        raise DomainError(f"state descriptor of kind '{kind}' is missing field '{key}'")
    return obj[key]


def _real(value, name: str) -> float:
    """A descriptor's numeric field as a float: a finite real number, not a bool."""
    if value.__class__ is float and -_DBL_MAX <= value <= _DBL_MAX:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= _DBL_MAX:
        raise DomainError(f"field '{name}' must be a finite real number, got {value!r}")
    return float(value)


def _check_scale(log_s: float, fields: str) -> None:
    if not log_s <= _LOG_SCALE_MAX:
        raise DomainError(f"field {fields} too large: covariance scale exp({log_s:.6g}) "
                          "has no finite fourth power")


def parse_state(source) -> DstsParams | TwoModeStsParams:
    """Parse a JSON state descriptor (text, bytes or already-decoded dict).

    Supported kinds::

        {"kind": "dsts", "nbar": ..., "r": ..., "phi": ..., "alpha": [re, im]}
        {"kind": "sts2", "nbar1": ..., "nbar2": ..., "r": ..., "phi": ...}

    Missing fields and non-finite numbers are rejected, and so is a state
    whose covariance scale s, (nbar + 1/2) cosh 2r for dsts and
    (nbar1 + nbar2 + 1) cosh^2 r for sts2, has no finite s^4 (the size of
    det V): r above about 89, or occupancies above about 1e77.  The scale is
    checked on the raw fields, before the parameter types apply their own
    range checks, so that an oversized field is named as such.
    """
    if isinstance(source, (str, bytes)):
        try:
            obj = json.loads(source)
        # JSONDecodeError, UnicodeDecodeError and an integer too long to convert are ValueErrors
        except (ValueError, RecursionError) as exc:
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
        nbar = _real(_require(obj, "nbar", kind), "nbar")
        r = _real(_require(obj, "r", kind), "r")
        phi = _real(_require(obj, "phi", kind), "phi")
        alpha = complex(_real(alpha[0], "alpha"), _real(alpha[1], "alpha"))
        if nbar >= 0.0 and r >= 0.0 and (nbar > _SCALE_SAFE_NBAR or r > _SCALE_SAFE_R):
            _check_scale(math.log(nbar + 0.5) + _log_cosh(2.0 * r), "'nbar' or 'r'")
        return DstsParams(nbar, r, phi, alpha)
    if kind == "sts2":
        nbar1 = _real(_require(obj, "nbar1", kind), "nbar1")
        nbar2 = _real(_require(obj, "nbar2", kind), "nbar2")
        r = _real(_require(obj, "r", kind), "r")
        phi = _real(_require(obj, "phi", kind), "phi")
        if nbar1 >= 0.0 and nbar2 >= 0.0 and r >= 0.0 \
                and (nbar1 + nbar2 > _SCALE_SAFE_NBAR or r > _SCALE_SAFE_R):
            _check_scale(math.log(nbar1 + nbar2 + 1.0) + 2.0 * _log_cosh(r),
                         "'nbar1', 'nbar2' or 'r'")
        return TwoModeStsParams(nbar1, nbar2, r, phi)
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
