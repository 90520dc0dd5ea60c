"""The Fock factor builders that cvgauss.fock replaced, for tests.

``dsts_dm`` and ``sts2_dm`` build as the package did before its builders
took the Toeplitz factor as one strided view, gathered the two-mode label
blocks at once and read every column mass off one running sum.  They are
kept as they were, so the package's dims, blocks and tail_mass can be held
to them bit for bit:

- ``lower_toeplitz``: the Toeplitz factor from ``sliding_window_view``;
- ``one_mode_factor``: the e-recurrence on a list, and the product taken
  on the strided view;
- ``label_blocks``: one ``np.where`` per label of a two-mode build;
- ``finish_dm``: each block's column masses from its own sum over rows.

The Gaussian data, the ln k! table, the sizing ladder and the density
matrix type are the package's.  ``finish_dm`` does not warn.
"""

import math

import numpy as np

from cvgauss import FockDensityMatrix
from cvgauss import fock


def lower_toeplitz(x: np.ndarray, cols: int) -> np.ndarray:
    pad = np.concatenate((np.zeros(len(x) - 1, x.dtype), x))
    return np.lib.stride_tricks.sliding_window_view(pad, len(x))[:, ::-1][:, :cols]


def one_mode_factor(p, dim: int) -> np.ndarray:
    a00, a01, gamma, rho0 = fock._one_mode_gaussian(p)
    cols = 0 if rho0 == 0.0 else 1 if a01 == 0.0 else dim
    sq = [math.sqrt(j) for j in range(dim)]
    e = [complex(math.sqrt(rho0))]
    prev = 0j
    for j in range(1, dim):
        prev, cur = e[-1], (gamma * e[-1] + a00 * sq[j - 1] * prev) / sq[j]
        e.append(cur)
    lf = fock._LOG_FACTORIALS[:dim]
    log_binomial = lf[:, None] - lower_toeplitz(lf, cols) - lf[:cols]
    return lower_toeplitz(np.array(e), cols) * np.exp(
        0.5 * (log_binomial + np.arange(cols) * fock._log(a01)))


def label_blocks(v: np.ndarray, dim: int) -> dict:
    """Psi on each label of a two-mode build, every column, from the
    _sts_values array v cut at dim."""
    n1, n2, nj = v[:dim, :dim, :dim].shape
    blocks = {}
    for label in range(1 - dim, dim):  # row t and column s are (t, s) + max(+-label, 0)
        a, b = max(label, 0), max(-label, 0)
        s = np.arange(max(0, min(n1 - a, n2 - b)))
        j = np.arange(dim - abs(label))[:, None] - s
        blocks[label] = np.where((j >= 0) & (j < nj), v[s + a, s + b, np.clip(j, 0, nj - 1)], 0)
    return blocks


def finish_dm(blocks: dict, dim: int, modes: int) -> FockDensityMatrix:
    for label, b in blocks.items():
        trailing = np.cumsum(np.sum(np.abs(b) ** 2, axis=0)[::-1])[::-1]  # columns k onward
        blocks[label] = b[:, :np.count_nonzero(~(trailing <= fock._DROP_MASS))]  # nan is kept
    return FockDensityMatrix(dim=dim, modes=modes, blocks=blocks)


def dsts_dm(p, dim=None) -> FockDensityMatrix:
    dim, psi = fock._sized_build(one_mode_factor, p, dim, 32, fock.MAX_DIM_ONE_MODE)
    return finish_dm({None: psi[:dim, :dim]}, dim, 1)


def sts2_dm(p, dim=None) -> FockDensityMatrix:
    dim, v = fock._sized_build(fock._sts_values, p, dim, 16, fock.MAX_DIM_PER_MODE)
    return finish_dm(label_blocks(v, dim), dim, 2)
