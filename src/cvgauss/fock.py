"""Truncated Fock-space oracle: density matrices for every state family in
the package and brute-force fidelity, trace products, and entropies.

Everything here works on explicit blocks of dim x dim or dim^2 x dim^2
matrices and is deliberately independent of the closed forms elsewhere in the
package, so the two routes can validate each other.  The builders derive each
state's Gaussian data from its physical parameters themselves.

Elements.  A Gaussian state with complex covariance Q = sigma + I/2 in the
ordering (a_1..a_k, a_1^dag..a_k^dag) and mean beta = (alpha, conj(alpha)) has

    sum_{m,n} rho_{m,n} z^m w^n / sqrt(m! n!) = rho_0 exp(v^T A v / 2 + gamma^T v),

v = (z, w), A = X (I - Q^-1)^* with X the swap of the halves, gamma = beta -
A conj(beta), rho_0 = exp(-beta^dag Q^-1 beta / 2)/sqrt(det Q) (Dodonov,
Man'ko and Man'ko, PRA 49, 2993 (1994); Miatto and Quesada, Quantum 4, 366
(2020)).  Kets and bras couple only through terms B z_i w_i with B >= 0
(A_01 z w for one mode; A_02 z1 w1 and A_13 z2 w2 for two), so expanding
exp(B z w) = sum_k B^k (z w)^k / k! gives rho = Psi Psi^dag, one column of the
factor Psi per power k.  For one mode, with ket-only amplitudes e_0 = 1,
sqrt(j+1) e_{j+1} = gamma_0 e_j + A_00 sqrt(j) e_{j-1}, and for two modes,

    Psi[m, k] = sqrt(rho_0 A_01^k C(m, k)) e_{m-k},
    Psi[(k1+j, k2+j), (k1, k2)] = sqrt(rho_0 A_02^k1 A_13^k2 (k1+j)! (k2+j)! / (k1! k2!)) A_01^j / j!.

The builders write A, gamma and rho_0 with positive terms only.  Psi[m, k]
vanishes for k > m, so no entry depends on the cut.  Up to the columns a
build's block drops (at most 2^-120 of mass, below), a build at dim d is the
top-left corner of any larger build, and 1 - ||Psi||_F^2 = 1 - Tr rho is the
true tail mass.  A cut that is too small shows in ``tail_mass`` and raises
TruncationWarning; the automatic dimension is the smallest whose tail meets
TAIL_TARGET.  ``matrix`` forms rho on first use, Hermitian and positive
semidefinite by construction.

Blocks.  Each mode count has one layout.  A one-mode state is one block on
every row, label None.  A two-mode squeezed thermal state maps column
(k1, k2) only to rows with n1 - n2 = k1 - k2, so its builder stores Psi as one
block per such label L, |L| < dim, the rows of that label by the columns that
start on them; rho is an exact zero between labels.  Everything here works
one label at a time.  Every block keeps the shortest prefix of its columns
whose dropped rest carries at most 2^-120 of mass (see _finish_dm).

Fidelity.  Psi is a purification: sum_k Psi[:, k] x |k> is a pure state of
the system and an ancilla whose reduction is rho.  As in the paper, the
Uhlmann fidelity is the maximal transition probability between
purifications, max_U |<Psi_1| (I x U) |Psi_2>|^2 over unitaries U of the
ancilla, that is ||Psi_1^dag Psi_2||_1^2: the squared sum of the singular
values of one small matrix per block.  No square root of a matrix and no
eigendecomposition is taken, so a near-pure pair keeps its digits.
"""

from __future__ import annotations

import cmath
import logging
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterator

import numpy as np

from .errors import DimensionMismatch, DomainError, TruncationWarning, UnphysicalState
from .states import DstsParams, TwoModeStsParams

_logger = logging.getLogger("cvgauss")

#: hard truncation caps, applied to every build, explicit dimensions included
MAX_DIM_ONE_MODE = 256
MAX_DIM_PER_MODE = 64
#: target truncated probability for automatic dimension selection
TAIL_TARGET = 1e-8
#: tail mass above which builders emit TruncationWarning
TAIL_WARN = 1e-6
#: the most mass the trailing columns a build drops from a block may carry (see _finish_dm)
_DROP_MASS = 2.0 ** -120


def _rows(dim: int, label: int | None) -> np.ndarray:
    """Increasing indices (k*dim + l is |k, l>) of the states below the cut with
    n1 - n2 equal to label; every one-mode state for None."""
    if label is None:
        return np.arange(dim)
    return max(label, 0) * dim + max(-label, 0) + (dim + 1) * np.arange(dim - abs(label))


@dataclass(frozen=True, eq=False)
class FockDensityMatrix:
    """Truncated density operator rho = Psi Psi^dag on the dim**modes Fock
    states.  ``blocks`` maps each label to Psi on the rows of the label (see
    _rows): None alone, every row, for one mode; n1 - n2 for two.  Psi must be
    finite with Tr rho = ||Psi||_F^2 <= 1; ``tail_mass`` = max(0, 1 - Tr rho)."""

    dim: int
    modes: int
    blocks: dict
    tail_mass: float = field(init=False)

    def __post_init__(self):
        _checked_dim(self.dim)
        if self.modes not in (1, 2):
            raise DomainError(f"mode count must be 1 or 2, got {self.modes}")
        if not self.blocks:
            raise DomainError("a density matrix needs at least one block")
        labels = [None] if self.modes == 1 else range(1 - self.dim, self.dim)
        if not all(k in labels for k in self.blocks):
            raise DomainError(f"block labels {list(self.blocks)} are not in {labels}")
        blocks = {k: np.ascontiguousarray(b, dtype=complex) for k, b in sorted(self.blocks.items())}
        for label, b in blocks.items():
            rows = _rows(self.dim, label).size
            if b.ndim != 2 or b.shape[0] != rows:
                raise DimensionMismatch(f"block {label} of shape {b.shape} needs {rows} rows")
            b.setflags(write=False)
        trace = sum(float(np.vdot(b, b).real) for b in blocks.values())
        if not math.isfinite(trace):
            raise UnphysicalState("density matrix factor has non-finite entries")
        if trace > 1.0 + 1e-9:
            raise UnphysicalState(f"density matrix trace {trace:.12g} exceeds 1")
        object.__setattr__(self, "blocks", MappingProxyType(blocks))
        object.__setattr__(self, "tail_mass", max(0.0, 1.0 - trace))

    @cached_property
    def matrix(self) -> np.ndarray:
        """rho = Psi Psi^dag, formed block by block on first use, read-only
        and exactly Hermitian."""
        rho = np.zeros((self.dim ** self.modes,) * 2, dtype=complex)
        for label, f in self.blocks.items():
            rows = _rows(self.dim, label)
            g = f @ f.conj().T
            rho[np.ix_(rows, rows)] = 0.5 * (g + g.conj().T)
        rho.setflags(write=False)
        return rho


def _checked_dim(dim: int) -> int:
    """dim as an int, after DomainError unless it is a Python or numpy
    integer, not a bool, and at least 1."""
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
        raise DomainError(f"dim must be an integer >= 1, got {dim!r}")
    return int(dim)


def _smallest_dim(kept: np.ndarray, modes: int, cap: int) -> int:
    """Smallest dim whose kept probability kept[dim - 1] leaves a tail of at
    most TAIL_TARGET; len(kept), which is then the cap, when none does.  Logs
    the choice at DEBUG on the "cvgauss" logger."""
    met = np.flatnonzero(1.0 - kept <= TAIL_TARGET)
    dim = int(met[0]) + 1 if met.size else len(kept)
    tail = max(0.0, 1.0 - float(kept[dim - 1]))
    _logger.debug("automatic Fock dim %d per mode for %d mode(s), cap %d, cut by the cap: %s, "
                  "tail mass %.3g", dim, modes, cap, not met.size, tail)
    return dim


def _log_factorials(n: int) -> np.ndarray:  # ln k! for k < n
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, n)))))


def _log(x: float) -> float:
    """ln x, and 0 for x = 0, whose powers the builders take only to the zeroth."""
    return math.log(x) if x else 0.0


def _abs2(z: complex) -> float:
    """|z| |z|, and inf where |z| overflows, for which abs raises OverflowError."""
    try:
        a = abs(z)
    except OverflowError:
        return math.inf
    return a * a


def _one_mode_gaussian(p: DstsParams) -> tuple[complex, float, complex, float]:
    """(A_00, A_01, gamma_0, rho_0) of a DSTS; A_11 = conj(A_00),
    A_10 = A_01 and gamma_1 = conj(gamma_0).

    With y = nbar + 1/2, c = cosh 2r, s = sinh 2r, Q = [[q, M], [M*, q]] for
    q = y c + 1/2 and M = y e^{i phi} s, so det Q = y^2 + y c + 1/4 = y h with
    h = y + c + 1/(4y).  Then A_00 = M/det Q = e^{i phi} s/h,
    A_01 = 1 - q/det Q = nbar (nbar + 1)/det Q, gamma_0 = alpha q/det Q
    - A_00 conj(alpha), and beta^dag Q^-1 beta / 2
    = |alpha|^2 (e^{-2r} + 2 s sin^2(psi/2) + 1/(2y))/h with
    psi = phi - 2 arg alpha.  Dividing through by y keeps every factor finite;
    rho_0 underflows to 0 for a state far beyond any truncation.
    """
    y = p.nbar + 0.5
    c, s = math.cosh(2.0 * p.r), math.sinh(2.0 * p.r)
    h = y + c + 0.25 / y
    a00 = cmath.exp(1j * p.phi) * (s / h)
    a01 = (p.nbar / y) * ((p.nbar + 1.0) / h)
    gamma = p.alpha * ((c + 0.5 / y) / h) - a00 * p.alpha.conjugate()
    # math.atan2 gives cmath.phase's bits, and 0 where cmath.phase raises on an underflow
    psi = p.phi - 2.0 * math.atan2(p.alpha.imag, p.alpha.real)
    k = (math.exp(-2.0 * p.r) + 2.0 * s * math.sin(0.5 * psi) ** 2 + 0.5 / y) / h
    rho0 = math.exp(-k * _abs2(p.alpha)) / math.sqrt(y * h)
    # rho0 is nan only where h overflows and |alpha|^2 does too; it is 0 there
    return a00, a01, gamma, rho0 if rho0 > 0.0 else 0.0


def _lower_toeplitz(x: np.ndarray, cols: int) -> np.ndarray:
    """The view [m, k] = x[m - k] for k <= m, 0 above the diagonal, of
    len(x) rows and cols columns."""
    pad = np.concatenate((np.zeros(len(x) - 1, x.dtype), x))
    return np.lib.stride_tricks.sliding_window_view(pad, len(x))[:, ::-1][:, :cols]


@lru_cache(maxsize=16)
def _log_binomial(dim: int, cols: int) -> np.ndarray:
    """ln C(m, k) for m < dim and k < cols, read-only; above the diagonal it
    reads ln(m!/k!), which the zeros of the Toeplitz factor mask."""
    lf = _log_factorials(dim)
    table = lf[:, None] - _lower_toeplitz(lf, cols) - lf[:cols]
    table.setflags(write=False)
    return table


def _one_mode_factor(p: DstsParams, dim: int) -> np.ndarray:
    """Psi[m, k] for m < dim: dim columns, one for a pure state (A_01 = 0),
    none where rho_0 underflows.  sqrt(rho_0) rides along in e, whose entries
    are Psi[j, 0] and so never exceed 1; A_01 < 1 keeps the exponent of the
    binomial part below 0.5 ln C(m, k)."""
    a00, a01, gamma, rho0 = _one_mode_gaussian(p)
    cols = 0 if rho0 == 0.0 else 1 if a01 == 0.0 else dim
    sq = [math.sqrt(j) for j in range(dim)]
    e = [complex(math.sqrt(rho0))]
    prev = 0j
    for j in range(1, dim):
        prev, cur = e[-1], (gamma * e[-1] + a00 * sq[j - 1] * prev) / sq[j]
        e.append(cur)
    return _lower_toeplitz(np.array(e), cols) * np.exp(
        0.5 * (_log_binomial(dim, cols) + np.arange(cols) * _log(a01)))


def _sts_values(p: TwoModeStsParams, dim: int) -> np.ndarray:
    """v[k1, k2, j] = Psi[(k1 + j, k2 + j), (k1, k2)] for k1, k2, j < dim.

    With y_j = nbar_j + 1/2 and D = y1 y2 + (y1 + y2) cosh(2r)/2 + 1/4, the
    determinant of each 2x2 block of Q, the nonzero entries of A are
    A_01 = conj(A_23) = e^{i phi} (y1 + y2) sinh(2r)/(2D) (ket-ket),
    A_02 = nbar1 (nbar2 + 1)/D and A_13 = nbar2 (nbar1 + 1)/D (ket-bra), and
    rho_0 = 1/D.  Each factor below is D divided through by (y1 + y2)/2,
    which keeps it finite, and the entries are taken through their
    logarithms, which keeps the factorials finite.  An axis whose coefficient
    vanishes has length 1: a pure state has one column.
    """
    y1, y2 = p.nbar1 + 0.5, p.nbar2 + 0.5
    half = 0.5 * (y1 + y2)
    h = y1 * (y2 / half) + math.cosh(2.0 * p.r) + 0.25 / half  # D / half
    a01 = math.sinh(2.0 * p.r) / h  # |A_01|
    a02 = (p.nbar1 / half) * ((p.nbar2 + 1.0) / h)
    a13 = (p.nbar2 / half) * ((p.nbar1 + 1.0) / h)
    k1, k2, j = np.ogrid[:dim if a02 else 1, :dim if a13 else 1, :dim if a01 else 1]
    lf = _log_factorials(2 * dim)
    return np.exp(0.5 * (lf[k1 + j] + lf[k2 + j] - lf[k1] - lf[k2] - math.log(half)
                         - math.log(h) + k1 * _log(a02) + k2 * _log(a13))
                  - lf[j] + j * complex(_log(a01), p.phi))


def _finish_dm(blocks: dict, dim: int, modes: int) -> FockDensityMatrix:
    """The density matrix of the label blocks of Psi, each cut to the shortest
    prefix of its columns whose dropped rest T carries at most _DROP_MASS; a
    non-finite column is kept, for FockDensityMatrix to reject.  Column k
    carries about A_01^k (A_02^k1 A_13^k2 for two modes), so a mixed state
    sheds its high columns and each SVD shrinks.  On label L, Psi_1^dag Psi_2
    moves by Psi_1L^dag T_2L + T_1L^dag Psi_2L', of rank <= dim and Frobenius
    norm <= 2^-60 (||Psi_1L||_F + ||Psi_2L||_F).  By Cauchy-Schwarz over the
    labels and ||Psi||_F <= 1, the fidelity moves by at most sqrt(dim * labels)
    * 2^-58 (2^-54 for one mode at dim <= 256, 2^-51.5 for two at dim 64), the
    trace product by 3 * 2^-120 and tail_mass by 2^-120 per label."""
    for label, b in blocks.items():
        trailing = np.cumsum(np.sum(np.abs(b) ** 2, axis=0)[::-1])[::-1]  # columns k onward
        blocks[label] = b[:, :np.count_nonzero(~(trailing <= _DROP_MASS))]  # nan is kept
    rho = FockDensityMatrix(dim=dim, modes=modes, blocks=blocks)
    if rho.tail_mass > TAIL_WARN:
        warnings.warn(
            f"truncated state is missing {rho.tail_mass:.3g} probability mass at dim {dim}",
            TruncationWarning,
            stacklevel=3,
        )
    return rho


#: values of u = 2t (nbar + 1/2) e^{2r} in (0, 1) at which _tail_bound_size bounds the tail
_CHERNOFF_U = (0.7, 0.9, 0.97, 0.99, 0.997)


def _tail_bound_size(p: DstsParams) -> int:
    """The smallest multiple of 16 up to 128 rows at which a Chernoff bound
    puts the tail mass of p at most TAIL_TARGET; the cap where none does.

    For s > 1, P(n >= N) <= E[s^n] s^-N.  The Weyl symbol of s^n is
    (1 - t) exp(t |x|^2), t = (s - 1)/(s + 1), so for a Gaussian state of
    quadrature covariance V (vacuum I/2) and mean d, E[s^n]
    = (1 - t) det(I - 2tV)^(-1/2) exp(t d^T (I - 2tV)^-1 d).  V has the
    eigenvalues y e^{+-2r}, y = nbar + 1/2, and |d|^2 = 2|alpha|^2, so for
    u = 2t y e^{2r} < 1

        ln P(n >= N) <= ln(1 - t) - ln(1 - u)/2 - ln(1 - u e^{-4r})/2
                        + 2t |alpha|^2/(1 - u) - N ln((1 + t)/(1 - t)),

    linear in N for each u.  The size stops at 128: numpy sums a row of at
    most 128 entries, a multiple of 8, in the order it sums the first 128
    entries of the row at the cap, so the row masses and the dim they decide
    are those of the cap build, bit for bit; wider rows it splits elsewhere.
    """
    y = p.nbar + 0.5
    alpha2 = _abs2(p.alpha)
    n = math.inf
    for u in _CHERNOFF_U:
        t = 0.5 * u * math.exp(-2.0 * p.r) / y
        slope = math.log1p(t) - math.log1p(-t)
        if slope > 0.0:  # t underflows to 0 only for a state far past any cut
            rest = (math.log1p(-t) - 0.5 * math.log1p(-u) - 0.5 * math.log1p(-u * math.exp(-4.0 * p.r))
                    + 2.0 * t * alpha2 / (1.0 - u) - math.log(TAIL_TARGET))
            n = min(n, rest / slope)
    return min(16 * max(1, math.ceil(n / 16)) if n <= 128 else MAX_DIM_ONE_MODE, MAX_DIM_ONE_MODE)


def dsts_dm(p: DstsParams, dim: int | None = None) -> FockDensityMatrix:
    """Displaced squeezed thermal state as a truncated density matrix, at dim
    or, if None, at the smallest dim whose tail meets TAIL_TARGET; both are
    capped at MAX_DIM_ONE_MODE.  The automatic route reads that dim off one
    build at the size _tail_bound_size gives, whose rows are those of the
    cap build, so it chooses the dim the cap build would and keeps the block
    of an explicit build at that dim, bit for bit.
    """
    if dim is None:
        size = _tail_bound_size(p)
        while True:
            psi = _one_mode_factor(p, size)
            kept = np.cumsum(np.sum(np.abs(psi) ** 2, axis=1))
            if 1.0 - kept[-1] <= TAIL_TARGET or size == MAX_DIM_ONE_MODE:
                break
            size = MAX_DIM_ONE_MODE  # the bound met TAIL_TARGET only up to roundoff
        dim = _smallest_dim(kept, 1, MAX_DIM_ONE_MODE)
        psi = psi[:dim, :dim]
    else:
        dim = min(_checked_dim(dim), MAX_DIM_ONE_MODE)
        psi = _one_mode_factor(p, dim)
    return _finish_dm({None: psi}, dim, 1)


def sts2_dm(p: TwoModeStsParams, dim: int | None = None) -> FockDensityMatrix:
    """Two-mode squeezed thermal state as a truncated density matrix; dim is
    the per-mode truncation or, if None, the smallest one whose tail meets
    TAIL_TARGET, both capped at MAX_DIM_PER_MODE."""
    if dim is None:
        v = _sts_values(p, MAX_DIM_PER_MODE)
        k1, k2, j = np.ogrid[:v.shape[0], :v.shape[1], :v.shape[2]]
        top = (np.maximum(k1, k2) + j).ravel()  # the larger photon number of the row
        mass = np.bincount(top, np.abs(v.ravel()) ** 2, minlength=MAX_DIM_PER_MODE)
        dim = _smallest_dim(np.cumsum(mass[:MAX_DIM_PER_MODE]), 2, MAX_DIM_PER_MODE)
    else:
        dim = min(_checked_dim(dim), MAX_DIM_PER_MODE)
        v = _sts_values(p, dim)
    n1, n2, nj = v[:dim, :dim, :dim].shape
    blocks = {}
    for label in range(1 - dim, dim):  # row t and column s are (t, s) + max(+-label, 0)
        a, b = max(label, 0), max(-label, 0)
        s = np.arange(max(0, min(n1 - a, n2 - b)))
        j = np.arange(dim - abs(label))[:, None] - s
        blocks[label] = np.where((j >= 0) & (j < nj), v[s + a, s + b, np.clip(j, 0, nj - 1)], 0)
    return _finish_dm(blocks, dim, 2)


def _overlaps(r1: FockDensityMatrix, r2: FockDensityMatrix) -> Iterator[np.ndarray]:
    """Psi1^dag Psi2 up to row and column order, so that a symmetric quantity
    is exactly swap-invariant: one block per shared label, its arguments in a
    canonical order."""
    if r1.dim != r2.dim or r1.modes != r2.modes:
        raise DimensionMismatch(
            f"incompatible truncations: {r1.modes} mode(s) dim {r1.dim} vs "
            f"{r2.modes} mode(s) dim {r2.dim}"
        )
    for label, b1 in r1.blocks.items():
        if (b2 := r2.blocks.get(label)) is None:
            continue
        if b1.shape > b2.shape or b1.shape == b2.shape and b1.tobytes() > b2.tobytes():
            b1, b2 = b2, b1
        yield b1.conj().T @ b2


def uhlmann_fidelity_numeric(r1: FockDensityMatrix, r2: FockDensityMatrix) -> float:
    """Uhlmann fidelity ||Psi1^dag Psi2||_1^2 of the two factors: the nuclear
    norm is summed over the blocks of Psi1^dag Psi2 and squared at the end."""
    return float(sum(np.linalg.svd(m, compute_uv=False).sum() for m in _overlaps(r1, r2)) ** 2)


def trace_product(r1: FockDensityMatrix, r2: FockDensityMatrix) -> float:
    """Tr(rho1 rho2) = ||Psi1^dag Psi2||_F^2."""
    return float(sum(np.vdot(m, m).real for m in _overlaps(r1, r2)))


def von_neumann_entropy(r: FockDensityMatrix) -> float:
    """-Tr(rho ln rho) with 0 ln 0 = 0, from the eigenvalues of rho: the
    squared singular values of the factor, block by block."""
    total = 0.0
    for f in r.blocks.values():
        w = np.linalg.svd(f, compute_uv=False) ** 2
        w = w[w > 0.0]
        total -= float(np.sum(w * np.log(w)))
    return total
