"""Matrix-exponential reference of the Fock oracle, and the reductions of
its matrices that only tests need.

It builds D(alpha) S(r, phi) rho_th S^dag D^dag and S2 (rho_th1 x rho_th2)
S2^dag from scipy.linalg.expm of the whole truncated generators,

    D(alpha) = exp(alpha a^dag - conj(alpha) a),
    S(r, phi) = exp(r (e^{i phi} a^dag^2 - e^{-i phi} a^2) / 2),
    S2(r, phi) = exp(r (e^{i phi} a1^dag a2^dag - e^{-i phi} a1 a2)),

at a dimension well above the one asked for, and crops the result.  A
truncated exponential is wrong only near its cut, so the corner is exact to
roundoff for a state that keeps its photons far below the reference
dimension.  The characteristic functions Tr(rho D(lam)) use the same
displacement.  Nothing here is shared with cvgauss.fock.  ``whole_factor``,
``reduced_dm`` and ``mean_photon_number`` act on the FockDensityMatrix the
oracle builds.
"""

import numpy as np
from scipy.linalg import expm

from cvgauss import DimensionMismatch, DomainError, DstsParams, FockDensityMatrix, TwoModeStsParams


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def displacement(alpha: complex, dim: int) -> np.ndarray:
    a = annihilation(dim)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def squeeze(r: float, phi: float, dim: int) -> np.ndarray:
    a = annihilation(dim)
    ad = a.conj().T
    return expm(0.5 * r * (np.exp(1j * phi) * ad @ ad - np.exp(-1j * phi) * a @ a))


def two_mode_squeeze(r: float, phi: float, dim: int) -> np.ndarray:
    a = annihilation(dim)
    ad = a.conj().T
    return expm(r * (np.exp(1j * phi) * np.kron(ad, ad) - np.exp(-1j * phi) * np.kron(a, a)))


def thermal(nbar: float, dim: int) -> np.ndarray:
    n = np.arange(dim)
    return np.diag(nbar ** n / (nbar + 1.0) ** (n + 1)).astype(complex)


def dsts_reference(p: DstsParams, dim: int, ref_dim: int = 256) -> np.ndarray:
    """The top dim x dim corner of the DSTS built at ref_dim."""
    u = displacement(p.alpha, ref_dim) @ squeeze(p.r, p.phi, ref_dim)
    return (u @ thermal(p.nbar, ref_dim) @ u.conj().T)[:dim, :dim]


def sts2_reference(p: TwoModeStsParams, dim: int, ref_dim: int = 24) -> np.ndarray:
    """The STS on |k, l>, k, l < dim (index k*dim + l), built at ref_dim per mode."""
    s = two_mode_squeeze(p.r, p.phi, ref_dim)
    rho = s @ np.kron(thermal(p.nbar1, ref_dim), thermal(p.nbar2, ref_dim)) @ s.conj().T
    four = rho.reshape(ref_dim, ref_dim, ref_dim, ref_dim)[:dim, :dim, :dim, :dim]
    return four.reshape(dim * dim, dim * dim)


def cf_numeric(rho: np.ndarray, lam: complex) -> complex:
    """Tr(rho D(lam)) of a one-mode matrix, D taken at twice its dimension."""
    dim = rho.shape[0]
    return complex(np.trace(rho @ displacement(lam, 2 * dim)[:dim, :dim]))


def cf2_numeric(rho: np.ndarray, lam1: complex, lam2: complex) -> complex:
    """Tr(rho D1(lam1) D2(lam2)) of a two-mode matrix on dim x dim modes."""
    dim = int(round(np.sqrt(rho.shape[0])))
    d1 = displacement(lam1, 2 * dim)[:dim, :dim]
    d2 = displacement(lam2, 2 * dim)[:dim, :dim]
    return complex(np.trace(rho @ np.kron(d1, d2)))


def whole_factor(r: FockDensityMatrix) -> np.ndarray:
    """The whole of Psi: each label block scattered onto the rows of its label
    (n1 - n2 for two modes, every row for None), the blocks' columns side by
    side."""
    n = np.arange(r.dim ** r.modes)
    labels = n // r.dim - n % r.dim
    psi = []
    for label, b in r.blocks.items():
        cols = np.zeros((n.size, b.shape[1]), dtype=complex)
        cols[n if label is None else labels == label] = b
        psi.append(cols)
    return np.hstack(psi)


def reduced_dm(r: FockDensityMatrix, mode: int) -> FockDensityMatrix:
    """Partial trace of a two-mode matrix down to the requested mode (0 or 1):
    the traced mode moves into the columns of the factor, one block on every
    row."""
    if r.modes != 2:
        raise DimensionMismatch("reduced_dm requires a two-mode density matrix")
    if mode not in (0, 1):
        raise DomainError(f"mode must be 0 or 1, got {mode}")
    d = r.dim
    three = whole_factor(r).reshape(d, d, -1)
    if mode == 1:
        three = three.transpose(1, 0, 2)
    return FockDensityMatrix(dim=d, modes=1, blocks={None: three.reshape(d, -1)})


def mean_photon_number(r: FockDensityMatrix, mode: int = 0) -> float:
    """Tr(rho a^dag a) of the requested mode."""
    rho = r if r.modes == 1 else reduced_dm(r, mode)
    return float(np.arange(rho.dim) @ np.sum(np.abs(whole_factor(rho)) ** 2, axis=1))
