"""Truncated Fock-space oracle: density matrices for every state family in
the package and brute-force fidelity, trace products, and entropies.

Everything here works on explicit (dim x dim or dim^2 x dim^2) matrices and is
deliberately independent of the closed forms elsewhere in the package, so the
two routes can validate each other.  The builders derive each state's
Gaussian data from its physical parameters themselves.

Elements.  Let a Gaussian state of k modes have the complex covariance
Q = sigma + I/2 in the ordering (a_1..a_k, a_1^dag..a_k^dag) and the mean
beta = (alpha, conj(alpha)).  Its matrix elements have the generating function

    sum_{m,n} rho_{m,n} z^m w^n / sqrt(m! n!) = rho_0 exp(v^T A v / 2 + gamma^T v),

v = (z, w), with A = X (I - Q^-1)^*, X the swap of the a and a^dag halves,
gamma = beta - A conj(beta) and rho_0 = exp(-beta^dag Q^-1 beta / 2)/sqrt(det Q)
(V. V. Dodonov, O. V. Man'ko and V. I. Man'ko, PRA 49, 2993 (1994);
F. M. Miatto and N. Quesada, Quantum 4, 366 (2020)).  One derivative gives
the recurrence, here for one mode,

    sqrt(m+1) rho_{m+1,n} = gamma_0 rho_{m,n} + A_00 sqrt(m) rho_{m-1,n}
                            + A_01 sqrt(n) rho_{m,n-1},

and the same along every other index with that index's row of A.  The
builders write A, gamma and rho_0 in forms with positive terms only, run the
recurrence, and average the result with its adjoint so that it is exactly
Hermitian.  Every element is exact up to roundoff and does not depend on the
truncation: a build at dim d is the top-left corner of any larger build, and
1 - Tr rho is the true probability mass beyond the cut.  A cut that is too
small therefore shows in ``tail_mass`` and raises TruncationWarning, and the
automatic dimension is the smallest one whose true tail meets TAIL_TARGET.

Blocks.  The recurrence never makes a nonzero out of exact zeros.  An
undisplaced one-mode state has gamma = 0, so rho_{m,n} vanishes exactly for
odd m + n; a two-mode squeezed thermal state couples only photon numbers with
equal n1 - n2 in the ket and the bra, so its elements vanish exactly between
those ladders.  ``uhlmann_fidelity_numeric`` works on the connected blocks of
the joint nonzero pattern of its two arguments; the block results equal the
whole-matrix ones up to roundoff.  A displaced state is one block.

Fidelity.  F = ||sqrt(rho1) sqrt(rho2)||_1^2, the squared sum of the singular
values of diag(sqrt w1) U1^dag U2 diag(sqrt w2), where rho_j = U_j diag(w_j)
U_j^dag.  This needs no square root of a product of matrices, so a
near-pure pair keeps its digits where the square roots of roundoff
eigenvalues would otherwise enter the sum.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh, svdvals
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import DimensionMismatch, DomainError, TruncationWarning, UnphysicalState
from .states import DstsParams, TwoModeStsParams

#: hard truncation caps, applied to every build, explicit dimensions included
MAX_DIM_ONE_MODE = 256
MAX_DIM_PER_MODE = 64
#: target truncated probability for automatic dimension selection
TAIL_TARGET = 1e-8
#: tail mass above which builders emit TruncationWarning
TAIL_WARN = 1e-6


def _hermiticity_defect(mat: np.ndarray, tile: int = 128) -> float:
    """max |M - M^dag|, taken tile by tile so that each transposed tile stays
    in cache; a two-mode matrix at dim 40 has 2.6 million entries."""
    n = mat.shape[0]
    worst = 0.0
    for i in range(0, n, tile):
        for j in range(i, n, tile):
            diff = mat[i:i + tile, j:j + tile] - mat[j:j + tile, i:i + tile].conj().T
            worst = max(worst, float(np.abs(diff).max(initial=0.0)))
    return worst


@dataclass(frozen=True, eq=False)
class FockDensityMatrix:
    """Truncated density operator with its per-mode dimension, mode count,
    and the probability mass lost to truncation.

    Hermiticity and the trace deficit are validated on construction; the
    eigenvalue floor (>= -1e-10) is left to the consuming operations, which
    decompose the matrix anyway (see ``min_eigenvalue`` for explicit checks).
    """

    dim: int
    modes: int
    matrix: np.ndarray
    tail_mass: float

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError(f"truncation dimension must be >= 1, got {self.dim}")
        if self.modes not in (1, 2):
            raise DomainError(f"mode count must be 1 or 2, got {self.modes}")
        mat = np.asarray(self.matrix, dtype=complex)
        n = self.dim ** self.modes
        if mat.shape != (n, n):
            raise DimensionMismatch(
                f"matrix shape {mat.shape} does not match dim**modes = {n}"
            )
        if _hermiticity_defect(mat) > 1e-12:
            raise UnphysicalState("density matrix is not Hermitian within 1e-12")
        deficit = abs(1.0 - float(mat.trace().real))
        if deficit > self.tail_mass + 1e-9:
            raise UnphysicalState(
                f"trace deficit {deficit:.3g} exceeds declared tail mass {self.tail_mass:.3g}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def min_eigenvalue(self) -> float:
        return float(eigvalsh(self.matrix).min())


def thermal_dm(nbar: float, dim: int) -> FockDensityMatrix:
    """Bose-Einstein density operator, diagonal nbar^n/(nbar+1)^(n+1); the
    truncated geometric tail (nbar/(nbar+1))^dim is reported exactly."""
    if not (nbar >= 0.0):
        raise DomainError(f"nbar must be >= 0, got {nbar}")
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    if nbar == 0.0:
        probs = np.zeros(dim)
        probs[0] = 1.0
        tail = 0.0
    else:
        ratio = nbar / (nbar + 1.0)
        probs = np.exp(np.arange(dim) * math.log(ratio) - math.log(nbar + 1.0))
        tail = ratio ** dim
    return FockDensityMatrix(dim=dim, modes=1,
                             matrix=np.diag(probs).astype(complex), tail_mass=tail)


def _blocks(pattern: np.ndarray) -> list[np.ndarray]:
    """Index sets, each sorted, of the connected components of a symmetric
    boolean pattern; a fully set pattern is one block, found without a
    graph search."""
    if pattern.all():
        return [np.arange(pattern.shape[0])]
    _, labels = connected_components(csr_matrix(pattern), directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


def _checked_dim(dim: int, cap: int) -> int:
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    return min(dim, cap)


def _smallest_dim(kept: np.ndarray) -> int:
    """Smallest dim whose kept probability kept[dim - 1] leaves a tail of at
    most TAIL_TARGET; len(kept), the cap, when none does."""
    met = np.flatnonzero(1.0 - kept <= TAIL_TARGET)
    return int(met[0]) + 1 if met.size else len(kept)


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
    if not (math.isfinite(p.phi) and cmath.isfinite(p.alpha)):
        raise DomainError("the Fock oracle needs a finite squeeze angle and displacement")
    y = p.nbar + 0.5
    c, s = math.cosh(2.0 * p.r), math.sinh(2.0 * p.r)
    h = y + c + 0.25 / y
    a00 = cmath.exp(1j * p.phi) * (s / h)
    a01 = (p.nbar / y) * ((p.nbar + 1.0) / h)
    gamma = p.alpha * ((c + 0.5 / y) / h) - a00 * p.alpha.conjugate()
    psi = p.phi - 2.0 * cmath.phase(p.alpha)
    k = (math.exp(-2.0 * p.r) + 2.0 * s * math.sin(0.5 * psi) ** 2 + 0.5 / y) / h
    rho0 = math.exp(-k * (abs(p.alpha) * abs(p.alpha))) / math.sqrt(y * h)
    # rho0 is nan only where h overflows and |alpha|^2 does too; it is 0 there
    return a00, a01, gamma, rho0 if rho0 > 0.0 else 0.0


def _one_mode_elements(p: DstsParams, dim: int) -> np.ndarray:
    """rho_{m,n} for m, n < dim: row 0 along n, then each row from the two
    above it."""
    a00, a01, gamma, rho0 = _one_mode_gaussian(p)
    rho = np.zeros((dim, dim), dtype=complex)
    if rho0 == 0.0:
        return rho
    sq = np.sqrt(np.arange(dim, dtype=float))
    b00, g1 = a00.conjugate(), gamma.conjugate()
    prev, cur = 0j, complex(rho0)
    rho[0, 0] = cur
    for n in range(1, dim):
        prev, cur = cur, (g1 * cur + b00 * sq[n - 1] * prev) / sq[n]
        rho[0, n] = cur
    shift = a01 * sq[1:]
    for m in range(dim - 1):
        row = gamma * rho[m]
        if m:
            row += (a00 * sq[m]) * rho[m - 1]
        if a01:
            row[1:] += shift * rho[m, :-1]
        rho[m + 1] = row / sq[m + 1]
    return 0.5 * (rho + rho.conj().T)


def _sts_elements(p: TwoModeStsParams, dim: int) -> np.ndarray:
    """t[a, b, c] = <a, b| rho |c, c - a + b> for a, b, c < dim.

    With y_j = nbar_j + 1/2 and D = y1 y2 + (y1 + y2) cosh(2r)/2 + 1/4, the
    determinant of each 2x2 block of Q, the nonzero entries of A are
    A_01 = conj(A_23) = e^{i phi} (y1 + y2) sinh(2r)/(2D) (ket-ket),
    A_02 = nbar1 (nbar2 + 1)/D and A_13 = nbar2 (nbar1 + 1)/D (ket-bra), and
    rho_0 = 1/D.  Raising the first ket index keeps n2 = c - a + b fixed:

        sqrt(a) t[a, b, c] = A_01 sqrt(b) t[a-1, b-1, c] + A_02 sqrt(c) t[a-1, b, c-1],

    from t[0, 0, c] = A_23^c rho_0 and sqrt(b) t[0, b, c] = A_13 sqrt(b + c)
    t[0, b-1, c].  Entries with n2 < 0 stay exact zeros; entries with
    n2 >= dim are elements beyond the cut and are never read.  Each factor
    below is D divided through by (y1 + y2)/2, which keeps it finite.
    """
    if not math.isfinite(p.phi):
        raise DomainError("the Fock oracle needs a finite squeeze angle")
    y1, y2 = p.nbar1 + 0.5, p.nbar2 + 0.5
    half = 0.5 * (y1 + y2)
    h = y1 * (y2 / half) + math.cosh(2.0 * p.r) + 0.25 / half  # D / half
    a01 = cmath.exp(1j * p.phi) * (math.sinh(2.0 * p.r) / h)
    a02 = (p.nbar1 / half) * ((p.nbar2 + 1.0) / h)
    a13 = (p.nbar2 / half) * ((p.nbar1 + 1.0) / h)
    t = np.zeros((dim, dim, dim), dtype=complex)
    t[0, 0] = (1.0 / (half * h)) * np.cumprod(np.r_[1.0, np.full(dim - 1, a01.conjugate())])
    idx = np.arange(dim, dtype=float)
    for b in range(1, dim):
        t[0, b] = (a13 * np.sqrt((idx + b) / b)) * t[0, b - 1]
    sq = np.sqrt(idx)
    for a in range(1, dim):
        nxt = np.zeros((dim, dim), dtype=complex)
        nxt[1:] = (a01 * sq[1:, None]) * t[a - 1, :-1]
        nxt[:, 1:] += (a02 * sq[1:]) * t[a - 1, :, :-1]
        t[a] = nxt / sq[a]
    return t


def _sts_matrix(t: np.ndarray) -> np.ndarray:
    """The dim^2 x dim^2 matrix (index k*dim + l is |k, l>) of the elements
    t[a, b, c] whose n2 lies in range, averaged with their adjoint partners
    t[c, n2, a]; everything between n1 - n2 ladders is an exact zero."""
    dim = t.shape[0]
    a, b, c = np.indices(t.shape)
    e = c - a + b
    keep = (e >= 0) & (e < dim)
    a, b, c, e = a[keep], b[keep], c[keep], e[keep]
    rho = np.zeros((dim * dim, dim * dim), dtype=complex)
    rho[a * dim + b, c * dim + e] = 0.5 * (t[a, b, c] + t[c, e, a].conj())
    return rho


def _finish_dm(rho: np.ndarray, dim: int, modes: int) -> FockDensityMatrix:
    tail = max(0.0, 1.0 - float(rho.trace().real))
    if tail > TAIL_WARN:
        warnings.warn(
            f"truncated state is missing {tail:.3g} probability mass at dim {dim}",
            TruncationWarning,
            stacklevel=3,
        )
    return FockDensityMatrix(dim=dim, modes=modes, matrix=rho, tail_mass=tail)


def dsts_dm(p: DstsParams, dim: int | None = None) -> FockDensityMatrix:
    """Displaced squeezed thermal state as a truncated density matrix, at dim
    or, if None, at the smallest dim whose tail meets TAIL_TARGET; both are
    capped at MAX_DIM_ONE_MODE."""
    if dim is None:
        rho = _one_mode_elements(p, MAX_DIM_ONE_MODE)
        dim = _smallest_dim(np.cumsum(rho.diagonal().real))
        rho = np.ascontiguousarray(rho[:dim, :dim])
    else:
        dim = _checked_dim(dim, MAX_DIM_ONE_MODE)
        rho = _one_mode_elements(p, dim)
    return _finish_dm(rho, dim, 1)


def sts2_dm(p: TwoModeStsParams, dim: int | None = None) -> FockDensityMatrix:
    """Two-mode squeezed thermal state as a truncated density matrix; dim is
    the per-mode truncation or, if None, the smallest one whose tail meets
    TAIL_TARGET, both capped at MAX_DIM_PER_MODE."""
    if dim is None:
        t = _sts_elements(p, MAX_DIM_PER_MODE)
        diag = np.einsum("aba->ab", t).real  # <a, b| rho |a, b>
        dim = _smallest_dim(np.diagonal(diag.cumsum(0).cumsum(1)))
        t = t[:dim, :dim, :dim]
    else:
        dim = _checked_dim(dim, MAX_DIM_PER_MODE)
        t = _sts_elements(p, dim)
    return _finish_dm(_sts_matrix(t), dim, 2)


def _check_same_shape(r1: FockDensityMatrix, r2: FockDensityMatrix) -> None:
    if r1.matrix.shape != r2.matrix.shape or r1.modes != r2.modes:
        raise DimensionMismatch(
            f"incompatible truncations: {r1.modes} mode(s) dim {r1.dim} vs "
            f"{r2.modes} mode(s) dim {r2.dim}"
        )


def uhlmann_fidelity_numeric(r1: FockDensityMatrix, r2: FockDensityMatrix) -> float:
    """||sqrt(rho1) sqrt(rho2)||_1^2 through singular values.

    Both matrices are block diagonal over the connected blocks of their joint
    nonzero pattern, so the nuclear norm is summed block by block and squared
    at the end.  In each block, rho_j = U_j diag(w_j) U_j^dag, and the norm is
    the sum of the singular values of diag(sqrt w1) U1^dag U2 diag(sqrt w2).
    Negative eigenvalues from roundoff (bounded by the type invariant at
    -1e-10) are clipped to zero before the square roots.  The fidelity is
    symmetric, so within each block the arguments are put into a canonical
    order first; the result is then exactly invariant under swapping them.
    """
    _check_same_shape(r1, r2)
    norm = 0.0
    for idx in _blocks((r1.matrix != 0) | (r2.matrix != 0)):
        block = np.ix_(idx, idx)
        m1, m2 = r1.matrix[block], r2.matrix[block]
        if m1.tobytes() > m2.tobytes():
            m1, m2 = m2, m1
        w1, u1 = np.linalg.eigh(m1)
        w2, u2 = np.linalg.eigh(m2)
        k = (np.sqrt(np.clip(w1, 0.0, None))[:, None] * (u1.conj().T @ u2)
             * np.sqrt(np.clip(w2, 0.0, None)))
        norm += np.sum(svdvals(k))
    return float(norm ** 2)


def trace_product(r1: FockDensityMatrix, r2: FockDensityMatrix) -> float:
    """Tr(rho1 rho2); real for Hermitian inputs."""
    _check_same_shape(r1, r2)
    return float(np.vdot(r2.matrix, r1.matrix).real)


def von_neumann_entropy(r: FockDensityMatrix) -> float:
    """-Tr(rho ln rho) with eigenvalue clipping and 0 ln 0 = 0."""
    w = np.clip(eigvalsh(r.matrix), 0.0, None)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)))


def reduced_dm(r: FockDensityMatrix, mode: int) -> FockDensityMatrix:
    """Partial trace of a two-mode matrix down to the requested mode (0 or 1)."""
    if r.modes != 2:
        raise DimensionMismatch("reduced_dm requires a two-mode density matrix")
    if mode not in (0, 1):
        raise DomainError(f"mode must be 0 or 1, got {mode}")
    d = r.dim
    four = r.matrix.reshape(d, d, d, d)
    red = np.einsum("albl->ab", four) if mode == 0 else np.einsum("alam->lm", four)
    return FockDensityMatrix(dim=d, modes=1, matrix=red, tail_mass=r.tail_mass)


def mean_photon_number(r: FockDensityMatrix, mode: int = 0) -> float:
    """Tr(rho a^dag a) of the requested mode."""
    rho = r if r.modes == 1 else reduced_dm(r, mode)
    return float(np.sum(np.arange(rho.dim) * np.diag(rho.matrix).real))
