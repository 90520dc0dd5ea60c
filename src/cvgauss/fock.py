"""Truncated Fock-space oracle: density matrices for every state family in
the package and brute-force fidelity, trace products, and entropies.

Everything here works on explicit (dim x dim or dim^2 x dim^2) matrices and is
deliberately independent of the closed forms elsewhere in the package, so the
two routes can validate each other.  Matrix exponentials use scaling-and-
squaring (scipy.linalg.expm) on the truncated generator; matrix square roots
go through Hermitian eigendecomposition only.

The work is done block by block over the quantum numbers the truncated
generators conserve exactly: photon-number parity for the one-mode squeeze
(a^dag^2 - a^2 only links n to n +- 2) and the difference n1 - n2 for the
two-mode squeeze (a1^dag a2^dag - a1 a2 moves both numbers together).  A
matrix that is block diagonal in such a partition keeps its structural zeros
exactly under expm, matrix products and LU solves: every update between
different blocks multiplies by an exact zero.  So the block results equal the
whole-matrix ones up to roundoff, and ``uhlmann_fidelity_numeric`` may sum
its trace over the connected blocks of the joint nonzero pattern of its two
arguments.  A displaced state has no such structure and is one block.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigvalsh, expm
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import DimensionMismatch, DomainError, TruncationWarning, UnphysicalState
from .states import DstsParams, TwoModeStsParams

#: hard truncation caps
MAX_DIM_ONE_MODE = 256
MAX_DIM_PER_MODE = 64
#: target truncated probability for automatic dimension selection
TAIL_TARGET = 1e-8
#: tail mass above which builders emit TruncationWarning
TAIL_WARN = 1e-6

ENV_MAX_DIM = "CVGAUSS_MAX_DIM"


def _env_cap() -> int | None:
    raw = os.environ.get(ENV_MAX_DIM)
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DomainError(f"{ENV_MAX_DIM} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise DomainError(f"{ENV_MAX_DIM} must be >= 1, got {cap}")
    return cap


def _apply_env_cap(dim: int) -> int:
    cap = _env_cap()
    return dim if cap is None else min(dim, cap)


@dataclass(frozen=True, eq=False)
class FockDensityMatrix:
    """Truncated density operator with its per-mode dimension, mode count,
    and an estimate of the probability mass lost to truncation.

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
        if np.abs(mat - mat.conj().T).max() > 1e-12:
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


def annihilation(dim: int) -> np.ndarray:
    """Truncated annihilation operator."""
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def unitarity_defect(u: np.ndarray) -> float:
    """max |U^dag U - I|: how far truncation pushed the matrix from unitary."""
    n = u.shape[0]
    return float(np.abs(u.conj().T @ u - np.eye(n)).max())


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


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """exp(alpha a^dag - conj(alpha) a) on the truncated space."""
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    a = annihilation(dim)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def _blocks(pattern: np.ndarray) -> list[np.ndarray]:
    """Index sets, each sorted, of the connected components of a symmetric
    boolean pattern; a fully set pattern is one block, found without a
    graph search."""
    if pattern.all():
        return [np.arange(pattern.shape[0])]
    _, labels = connected_components(csr_matrix(pattern), directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


def squeeze_matrix(r: float, phi: float, dim: int) -> np.ndarray:
    """exp(r (e^{i phi} a^dag^2 - e^{-i phi} a^2)/2) on the truncated space.

    The generator only links photon numbers of equal parity, so the even and
    odd blocks are exponentiated separately.
    """
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    k = np.arange(dim - 2)
    amps = 0.5 * r * np.sqrt((k + 1.0) * (k + 2.0))  # <k+2| a^dag^2 |k>
    gen = np.zeros((dim, dim), dtype=complex)
    gen[k + 2, k] = np.exp(1j * phi) * amps
    gen[k, k + 2] = -np.exp(-1j * phi) * amps
    out = np.zeros((dim, dim), dtype=complex)
    for idx in _blocks(np.eye(dim, k=2, dtype=bool) | np.eye(dim, k=-2, dtype=bool)):
        block = np.ix_(idx, idx)
        out[block] = expm(gen[block])
    return out


def _ladders(r: float, phi: float, dim: int):
    """Yield (indices, exponential) for each photon-number-difference ladder
    of the two-mode squeeze on dim x dim modes; index k*dim + l is |k, l>."""
    zeta = r * np.exp(1j * phi)
    for diff in range(-(dim - 1), dim):
        ks = np.arange(diff, dim) if diff >= 0 else np.arange(0, dim + diff)
        ls = ks - diff
        n = len(ks)
        gen = np.zeros((n, n), dtype=complex)
        amps = np.sqrt((ks[:-1] + 1.0) * (ls[:-1] + 1.0))
        gen[np.arange(1, n), np.arange(n - 1)] = zeta * amps
        gen[np.arange(n - 1), np.arange(1, n)] = -np.conj(zeta) * amps
        yield ks * dim + ls, expm(gen)


def two_mode_squeeze_matrix(r: float, phi: float, dim: int) -> np.ndarray:
    """exp(r (e^{i phi} a1^dag a2^dag - e^{-i phi} a1 a2)) on dim x dim modes.

    The truncated generator conserves the photon-number difference, so it is
    exponentiated per difference ladder; the result is identical to a whole-
    matrix expm, at a fraction of the cost.
    """
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for idx, block in _ladders(r, phi, dim):
        out[np.ix_(idx, idx)] = block
    return out


def _auto_dim_one_mode(p: DstsParams, target: float = TAIL_TARGET) -> int:
    # thermal tail bound scaled by e^{2r}: squeezing spreads photon number
    n_eff = (p.nbar + abs(p.alpha) ** 2 + 1.0) * math.exp(2.0 * p.r)
    ratio = n_eff / (n_eff + 1.0)
    dim = int(math.ceil(math.log(target) / math.log(ratio)))
    return min(max(dim, 16), MAX_DIM_ONE_MODE)


def _auto_dim_two_mode(p: TwoModeStsParams, target: float = TAIL_TARGET) -> int:
    n_eff = (max(p.nbar1, p.nbar2) + 1.0) * math.exp(2.0 * p.r)
    ratio = n_eff / (n_eff + 1.0)
    dim = int(math.ceil(math.log(target) / math.log(ratio)))
    return min(max(dim, 8), MAX_DIM_PER_MODE)


def _finish_dm(rho: np.ndarray, dim: int, modes: int) -> FockDensityMatrix:
    rho = 0.5 * (rho + rho.conj().T)
    tail = max(0.0, 1.0 - float(rho.trace().real))
    if tail > TAIL_WARN:
        warnings.warn(
            f"truncated state is missing {tail:.3g} probability mass at dim {dim}",
            TruncationWarning,
            stacklevel=3,
        )
    return FockDensityMatrix(dim=dim, modes=modes, matrix=rho, tail_mass=tail)


def dsts_dm(p: DstsParams, dim: int | None = None) -> FockDensityMatrix:
    """Displaced squeezed thermal state as a truncated density matrix."""
    if dim is None:
        dim = _auto_dim_one_mode(p)
    dim = _apply_env_cap(dim)
    s = squeeze_matrix(p.r, p.phi, dim)
    d = displacement_matrix(p.alpha, dim)
    rho = d @ s @ thermal_dm(p.nbar, dim).matrix @ s.conj().T @ d.conj().T
    return _finish_dm(rho, dim, 1)


def sts2_dm(p: TwoModeStsParams, dim: int | None = None) -> FockDensityMatrix:
    """Two-mode squeezed thermal state as a truncated density matrix
    (dim is the per-mode truncation)."""
    if dim is None:
        dim = _auto_dim_two_mode(p)
    dim = _apply_env_cap(dim)
    # the thermal product is diagonal and the squeeze keeps n1 - n2, so rho
    # is S_d diag(thermal_d) S_d^dag on each difference ladder d, zero between
    thermal = np.kron(np.diag(thermal_dm(p.nbar1, dim).matrix).real,
                      np.diag(thermal_dm(p.nbar2, dim).matrix).real)
    rho = np.zeros((dim * dim, dim * dim), dtype=complex)
    for idx, s in _ladders(p.r, p.phi, dim):
        rho[np.ix_(idx, idx)] = (s * thermal[idx]) @ s.conj().T
    return _finish_dm(rho, dim, 2)


def _check_same_shape(r1: FockDensityMatrix, r2: FockDensityMatrix) -> None:
    if r1.matrix.shape != r2.matrix.shape or r1.modes != r2.modes:
        raise DimensionMismatch(
            f"incompatible truncations: {r1.modes} mode(s) dim {r1.dim} vs "
            f"{r2.modes} mode(s) dim {r2.dim}"
        )


def uhlmann_fidelity_numeric(r1: FockDensityMatrix, r2: FockDensityMatrix) -> float:
    """(Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 via Hermitian eigendecompositions.

    Both matrices are block diagonal over the connected blocks of their joint
    nonzero pattern, so the trace is summed block by block and squared at the
    end.  Negative eigenvalues from roundoff (bounded by the type invariant at
    -1e-10) are clipped to zero before the square roots.  The fidelity is
    symmetric, so within each block the arguments are put into a canonical
    order first; the result is then exactly invariant under swapping them.
    """
    _check_same_shape(r1, r2)
    trace = 0.0
    for idx in _blocks((r1.matrix != 0) | (r2.matrix != 0)):
        block = np.ix_(idx, idx)
        m1, m2 = r1.matrix[block], r2.matrix[block]
        if m1.tobytes() > m2.tobytes():
            m1, m2 = m2, m1
        w, u = eigh(m1)
        sqrt1 = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
        inner = sqrt1 @ m2 @ sqrt1
        ev = eigvalsh(0.5 * (inner + inner.conj().T))
        trace += np.sum(np.sqrt(np.clip(ev, 0.0, None)))
    return float(trace ** 2)


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


def cf_numeric(r: FockDensityMatrix, lam: complex) -> complex:
    """Characteristic function Tr(rho D(lam)) of a one-mode matrix."""
    if r.modes != 1:
        raise DimensionMismatch("cf_numeric expects a one-mode density matrix")
    return complex(np.trace(r.matrix @ displacement_matrix(lam, r.dim)))


def cf2_numeric(r: FockDensityMatrix, lam1: complex, lam2: complex) -> complex:
    """Characteristic function Tr(rho D1(lam1) D2(lam2)) of a two-mode matrix."""
    if r.modes != 2:
        raise DimensionMismatch("cf2_numeric expects a two-mode density matrix")
    d12 = np.kron(displacement_matrix(lam1, r.dim), displacement_matrix(lam2, r.dim))
    return complex(np.trace(r.matrix @ d12))
