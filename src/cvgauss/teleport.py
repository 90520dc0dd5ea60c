"""Continuous-variable teleportation as a Gaussian channel.

The output of the protocol obeys chi_out(lam) = chi_in(lam) * chi_AB(conj(lam), lam).
For a two-mode squeezed thermal resource (occupancies nbar1, nbar2, squeeze
factor r, angle phi) the resource factor is exp(-z |lam|^2), so the channel
adds isotropic thermal noise, V_out = V_in + z I, with

    z = (nbar1 + nbar2 + 1)(cosh 2r - cos phi sinh 2r)
      = (nbar1 + nbar2 + 1)(e^{-2r} + 2 sinh 2r sin^2(phi/2)),

the second form a sum of positive terms (:func:`resource_noise`).  On the
physical parameters of a displaced squeezed thermal input the channel keeps
phi and alpha and gives, with y = nbar + 1/2,

    y_out^2 = (y e^{2r} + z)(y e^{-2r} + z),  e^{4 r_out} = (y e^{2r} + z) / (y e^{-2r} + z).

The input-output fidelity then has the closed form implemented by
:func:`teleport_fidelity` in the variables x = cosh 2 r_in, y = nbar_in + 1/2,
z.  For a symmetric resource (nbar1 = nbar2) at phi = 0, z = e^{-2 (r - r_s)}
with r_s its separability threshold, so the fidelity depends on the resource
only through its entanglement E0 = (1 - sqrt z)^2/(1 + z).  Any other resource
adds more noise than a symmetric one of the same E0.

The figure sweeps check each grid value and curve key once, then compute each
curve over the whole grid in numpy arrays, with the operations of
:func:`teleport_fidelity`, of :func:`teleport_with_noise` and of
:func:`~cvgauss.nonclassicality.degree_q0` in the same order, so each point
has the bits those functions give; the transcendentals stay with :mod:`math`.
"""

from __future__ import annotations

import math
import os
import tempfile
from array import array
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, UnphysicalState
from .fidelity import clamp_unit
from .nonclassicality import nonclassicality_threshold
from .states import R_MAX, DstsParams, OneModeGaussianCF, TwoModeStsParams

#: parameters of the paper's two figures, the defaults of ``cvgauss sweep``
FIG1_R_IN = 1.0
FIG1_NBARS = (0.0, 0.1, 0.5, 5.0)
FIG2_E0S = (1.0, 0.615, 0.425)


def resource_noise(resource: TwoModeStsParams) -> float:
    """Added noise z of a squeezed thermal resource, see the module docstring;
    UnphysicalState when z overflows double precision."""
    r = resource.r
    z = (resource.nbar1 + resource.nbar2 + 1.0) * (
        math.exp(-2.0 * r) + 2.0 * math.sinh(2.0 * r) * math.sin(0.5 * resource.phi) ** 2)
    if z == math.inf:
        raise UnphysicalState(f"added noise of the resource {resource} overflows double precision")
    return z


def teleport_with_noise(state: DstsParams | OneModeGaussianCF,
                        z: float) -> DstsParams | OneModeGaussianCF:
    """Output of the protocol for added thermal noise z, in the form of the
    input: CF coefficients (a + z, b, c), or the parameters of the module
    docstring as the positive sums nbar_out = (nbar (nbar + 1) + z (2 y cosh 2r
    + z)) / (y_out + 1/2) and 4 r_out = log1p(2 y sinh 2r / (y e^{-2r} + z));
    UnphysicalState when y e^{2r} or r_out overflows double precision."""
    if not 0.0 <= z < math.inf:
        raise DomainError(f"added noise z must be finite and >= 0, got {z}")
    if isinstance(state, OneModeGaussianCF):
        return OneModeGaussianCF(a=state.a + z, b=state.b, c=state.c)
    nbar, r = state.nbar, state.r
    e2r = math.exp(2.0 * r)
    y = nbar + 0.5
    down = y / e2r + z
    nbar_out = ((nbar * (nbar + 1.0) + z * (y * (e2r + 1.0 / e2r) + z))
                / (math.sqrt((y * e2r + z) * down) + 0.5))
    r_out = 0.25 * math.log1p(2.0 * y * math.sinh(2.0 * r) / down)
    try:
        return DstsParams(nbar_out, r_out, state.phi, state.alpha)
    except (DomainError, UnphysicalState):  # nbar_out is nan or inf, or r_out is inf
        raise UnphysicalState(f"output of the channel for {state} and z = {z} "
                              "overflows double precision") from None


def teleport_symmetric_sts(state: DstsParams | OneModeGaussianCF, nbar: float,
                           r: float) -> DstsParams | OneModeGaussianCF:
    """Teleport through a symmetric squeezed thermal resource (occupancy nbar
    in both modes, squeeze factor r, angle 0).  The resource need not be
    entangled; r < r_s simply gives z > 1."""
    return teleport_with_noise(state, resource_noise(TwoModeStsParams(nbar, nbar, r)))


def teleport_fidelity(x: float, y: float, z: float) -> float:
    """Closed-form input-output fidelity of the protocol,

        F = (sqrt(Delta + Lambda) + sqrt(Lambda)) / Delta,
        Delta  = 4 y^2 + 4 x y z + z^2,
        Lambda = 4 P (P + 2 x y z + z^2),  P = det V_in - 1/4 = (y - 1/2)(y + 1/2),

    which adds positive terms only.  x = cosh(2 r_in) >= 1 and
    y = nbar_in + 1/2 >= 1/2 characterize the input; the added noise z >= 0 of
    :func:`resource_noise` carries the resource.  z = 0 is admitted as the
    infinite-entanglement limit (needed by the sweep endpoints); z >= 1, which
    every separable resource gives, is computed without further interpretation.
    """
    if not 1.0 - 1e-12 <= x < math.inf:
        raise DomainError(f"x = cosh(2 r_in) must be finite and >= 1, got {x}")
    if not 0.5 - 1e-12 <= y < math.inf:
        raise DomainError(f"y = nbar_in + 1/2 must be finite and >= 1/2, got {y}")
    if not 0.0 <= z < math.inf:
        raise DomainError(f"z must be finite and >= 0, got {z}")
    xyz = x * y * z
    delta = 4.0 * (y * y + xyz) + z * z
    purity = max(y - 0.5, 0.0) * (y + 0.5)
    lam = 4.0 * purity * (purity + 2.0 * xyz + z * z)
    return clamp_unit((math.sqrt(delta + lam) + math.sqrt(lam)) / delta)


def teleport_fidelity_from_states(input_state: DstsParams, nbar: float, r: float) -> float:
    """Teleportation fidelity through the symmetric resource of
    :func:`teleport_symmetric_sts`, computed from physical parameters.

    Agrees with fidelity_one_mode(input_state, teleport_with_noise(input_state, z)):
    the displacement cancels because the channel preserves alpha.
    """
    z = resource_noise(TwoModeStsParams(nbar, nbar, r))
    return teleport_fidelity(math.cosh(2.0 * input_state.r), input_state.nbar + 0.5, z)


def e0_from_z(z: float) -> float:
    """Resource entanglement (1 - sqrt z)^2 / (1 + z) for 0 < z < 1."""
    if not (0.0 < z < 1.0):
        raise DomainError(f"z must lie in (0, 1), got {z}")
    w = math.sqrt(z)
    return (1.0 - w) ** 2 / (1.0 + z)


def z_from_e0(e0: float) -> float:
    """Inverse of :func:`e0_from_z`, extended to the endpoints: E0 = 0 maps to
    z = 1 (separability boundary) and E0 = 1 to z = 0 (ideal EPR resource)."""
    if not (0.0 <= e0 <= 1.0):
        raise DomainError(f"E0 must lie in [0, 1], got {e0}")
    # rationalized form, stable at both endpoints
    w = (1.0 - e0) / (1.0 + math.sqrt(e0 * (2.0 - e0)))
    return w * w


# ---------------------------------------------------------------------------
# figure sweeps


def sweep_fig1(r_in: float, nbar_in_list: Sequence[float],
               e0_grid: Iterable[float]) -> dict[float, list[tuple[float, float]]]:
    """Teleportation fidelity versus resource entanglement, one curve per
    input occupancy, all at the same input squeeze factor; every argument is
    checked before any curve is built."""
    if not (0.0 <= r_in <= R_MAX):
        raise DomainError(f"input squeeze factor must lie in [0, R_MAX = {R_MAX:.6g}], "
                          f"got {r_in}")
    nbars = [float(n) + 0.0 for n in nbar_in_list]  # + 0.0 keys -0.0 as 0.0
    for nbar_in in nbars:
        if not 0.0 <= nbar_in < math.inf:
            raise DomainError(f"input occupancy must be finite and >= 0, got {nbar_in}")
    x = math.cosh(2.0 * r_in)
    e0s = []
    for e0 in map(float, e0_grid):
        if not 0.0 <= e0 <= 1.0:
            z_from_e0(e0)  # raises
        e0s.append(e0)
    e0 = np.array(e0s, dtype=float)
    curves = {}
    with np.errstate(all="ignore"):
        # z_from_e0 and teleport_fidelity, clamp included, on the whole grid: the
        # same correctly rounded operations in the same order, so the same bits
        w = (1.0 - e0) / (1.0 + np.sqrt(e0 * (2.0 - e0)))
        z = w * w
        zz = z * z
        for nbar_in in nbars:
            y = nbar_in + 0.5
            xyz = x * y * z
            delta = 4.0 * (y * y + xyz) + zz
            purity = max(y - 0.5, 0.0) * (y + 0.5)
            lam = 4.0 * purity * (purity + 2.0 * xyz + zz)
            f = (np.sqrt(delta + lam) + np.sqrt(lam)) / delta
            unit = (0.0 <= f) & (f <= 1.0 + 1e-12)
            if not unit.all():
                clamp_unit(float(f[unit.argmin()]))  # raises for the first point outside
            curves[nbar_in] = list(zip(e0s, np.minimum(f, 1.0).tolist()))
    return curves


def sweep_fig2(e0_list: Sequence[float],
               qin_grid: Iterable[float]) -> dict[float, list[tuple[float, float]]]:
    """Nonclassicality of the teleported state versus that of the input, for
    squeezed-vacuum inputs, one curve per resource entanglement; every
    argument is checked before any curve is built."""
    qs, two_r = [], []
    for q_in in map(float, qin_grid):
        if not (0.0 <= q_in < 1.0):
            raise DomainError(f"Q_in must lie in [0, 1), got {q_in}")
        qs.append(q_in)
        # invert Q = 1 - sqrt(sech r) for the squeezed-vacuum input
        two_r.append(2.0 * math.acosh(1.0 / (1.0 - q_in) ** 2) if q_in > 0.0 else 0.0)
    noises = {e0 + 0.0: z_from_e0(e0) for e0 in map(float, e0_list)}  # + 0.0 keys -0.0 as 0.0
    # teleport_with_noise(DstsParams(0.0, r_in), z), then degree_q0, on the whole
    # grid: the arithmetic in arrays, each transcendental from math, whose bits
    # numpy's own can miss
    n = len(qs)
    e2r = np.fromiter(map(math.exp, two_r), float, n)
    sinh2r = np.fromiter(map(math.sinh, two_r), float, n)  # 2 y sinh 2r at y = 1/2
    curves = {}
    with np.errstate(all="ignore"):
        up, down0, cosh_sum = 0.5 * e2r, 0.5 / e2r, 0.5 * (e2r + 1.0 / e2r)
        for e0, z in noises.items():
            down = down0 + z
            # nbar (nbar + 1) = 0 at nbar = 0 drops from the numerator
            nbar_out = z * (cosh_sum + z) / (np.sqrt((up + z) * down) + 0.5)
            occupied = nbar_out >= 0.0
            if not occupied.all():
                nonclassicality_threshold(float(nbar_out[occupied.argmin()]))  # raises
            gap = (0.25 * np.fromiter(map(math.log1p, (sinh2r / down).tolist()), float, n)
                   - 0.5 * np.fromiter(map(math.log1p, (2.0 * nbar_out).tolist()), float, n))
            quantum = ~(gap <= 0.0)
            q_out = np.zeros(n)
            q_out[quantum] = 1.0 - np.sqrt(
                1.0 / np.fromiter(map(math.cosh, gap[quantum].tolist()), float))
            curves[e0] = list(zip(qs, q_out.tolist()))
    return curves


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_curves(sweep: dict[float, list[tuple[float, float]]], outdir, stem: str,
                  header: str) -> list[Path]:
    """One `header` CSV file per curve, named `{stem}_{key:g}.csv`; DomainError,
    before any file is written, when two keys give the same name."""
    keys: dict[str, float] = {}
    for key in sweep:
        name = f"{stem}_{key:g}.csv"
        if name in keys:
            raise DomainError(f"curves {keys[name]!r} and {key!r} would both be written to {name}")
        keys[name] = key
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    # each distinct grid column formatted once, keyed by its bits so that 0.0 and -0.0 differ
    columns: dict[bytes, list[str]] = {}
    paths = []
    for name, key in keys.items():
        us = [u for u, _ in sweep[key]]
        bits = array("d", us).tobytes()
        if bits not in columns:
            columns[bits] = [f"{u:.12g}" for u in us]
        fields = [header] * (2 * len(us) + 1)
        fields[1::2] = columns[bits]
        fields[2::2] = [v for _, v in sweep[key]]
        paths.append(outdir / name)
        _write_atomic(paths[-1], ("%s\n" + "%s,%.12g\n" * len(us)) % tuple(fields))
    return paths


def write_fig1_csv(sweep: dict[float, list[tuple[float, float]]], outdir) -> list[Path]:
    """One `e0,fidelity` file per input occupancy."""
    return _write_curves(sweep, outdir, "fig1_nbar", "e0,fidelity")


def write_fig2_csv(sweep: dict[float, list[tuple[float, float]]], outdir) -> list[Path]:
    """One `q_in,q_out` file per resource entanglement."""
    return _write_curves(sweep, outdir, "fig2_e0", "q_in,q_out")
