"""Command-line front end.

Subcommands: ``info`` (state report), ``fidelity`` (closed form, optionally
checked against the Fock oracle), ``entangle`` (separability and degree of
entanglement), ``teleport`` (output state and fidelity), ``sweep`` (figure
CSVs), ``validate`` (oracle-vs-closed-form check suite).

Exit codes: 0 success, 2 input/validation error, 3 tolerance breach in
``validate``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import fock, teleport, validate
from .entanglement import degree_e0, separability_threshold_rs
from .errors import DimensionMismatch, DomainError, UnphysicalState
from .fidelity import fidelity_one_mode, fidelity_two_mode_sts
from .nonclassicality import degree_q0, is_classical, nonclassicality_threshold
from .states import (
    DstsParams,
    TwoModeStsParams,
    dsts_to_cf,
    parse_state,
    state_to_dict,
    sts_to_cov2,
)

_INPUT_ERRORS = (DomainError, UnphysicalState, DimensionMismatch, OSError)

#: largest sweep grid; a larger one is refused before anything is allocated
MAX_POINTS = 10 ** 6


def _load_state(path: str):
    return parse_state(Path(path).read_bytes())


def _fmt(x: float) -> str:
    return f"{x + 0.0:.12g}"  # the +0.0 folds negative zero into 0


def _fmt_c(z: complex) -> str:
    return f"{z.real + 0.0:.12g}{z.imag + 0.0:+.12g}j"


def _print_dsts_info(p: DstsParams) -> None:
    g = dsts_to_cf(p)
    # V = y R diag(e^{2r}, e^{-2r}) R^T with R the rotation by phi/2, det V = y^2
    y, e2r = p.nbar + 0.5, math.exp(2.0 * p.r)
    cos2, sin2 = math.cos(0.5 * p.phi) ** 2, math.sin(0.5 * p.phi) ** 2
    qq, pp = y * (e2r * cos2 + sin2 / e2r), y * (e2r * sin2 + cos2 / e2r)
    qp = y * math.sinh(2.0 * p.r) * math.sin(p.phi)
    rc = nonclassicality_threshold(p.nbar)
    print("kind: dsts")
    print(f"nbar = {_fmt(p.nbar)}  r = {_fmt(p.r)}  phi = {_fmt(p.phi)}  "
          f"alpha = {_fmt_c(p.alpha)}")
    print(f"cf coefficients: a = {_fmt(g.a)}  b = {_fmt_c(g.b)}  c = {_fmt_c(g.c)}")
    print(f"covariance matrix: [[{_fmt(qq)}, {_fmt(qp)}], [{_fmt(qp)}, {_fmt(pp)}]]")
    print(f"det V = {_fmt(y * y)}")
    print(f"nonclassicality threshold r_c = {_fmt(rc)}")
    verdict = "classical" if is_classical(p) else "nonclassical"
    print(f"verdict: {verdict}  (Q0 = {_fmt(degree_q0(p))})")


def _print_sts2_info(p: TwoModeStsParams) -> None:
    # mode blocks n_j I = (a_j + 1/2) I, cross block [[Re g, Im g], [Im g, -Re g]]
    m = sts_to_cov2(p)
    n1, n2, g = m[0, 0], m[2, 2], complex(m[0, 2], m[0, 3])
    rs = separability_threshold_rs(p.nbar1, p.nbar2)
    print("kind: sts2")
    print(f"nbar1 = {_fmt(p.nbar1)}  nbar2 = {_fmt(p.nbar2)}  r = {_fmt(p.r)}  phi = {_fmt(p.phi)}")
    print(f"cf coefficients: a1 = {_fmt(n1 - 0.5)}  a2 = {_fmt(n2 - 0.5)}  g = {_fmt_c(g)}")
    print("local invariants:")
    print(f"  det V1 = {_fmt(n1 * n1)}")
    print(f"  det V2 = {_fmt(n2 * n2)}")
    print(f"  det C  = {_fmt(-abs(g) ** 2)}")
    print(f"  det V  = {_fmt(((p.nbar1 + 0.5) * (p.nbar2 + 0.5)) ** 2)}")
    print(f"separability threshold r_s = {_fmt(rs)}")
    verdict = "separable" if p.r <= rs else "entangled"
    print(f"verdict: {verdict}  (E0 = {_fmt(degree_e0(p))})")


def _cmd_info(args) -> int:
    state = _load_state(args.state)
    if isinstance(state, DstsParams):
        _print_dsts_info(state)
    else:
        _print_sts2_info(state)
    return 0


def _cmd_fidelity(args) -> int:
    s1 = _load_state(args.state)
    s2 = _load_state(args.state2)
    if isinstance(s1, DstsParams) and isinstance(s2, DstsParams):
        value, build = fidelity_one_mode(s1, s2), fock.dsts_dm
    elif isinstance(s1, TwoModeStsParams) and isinstance(s2, TwoModeStsParams):
        value, build = fidelity_two_mode_sts(s1, s2), fock.sts2_dm
    else:
        raise DomainError("fidelity requires two states of the same kind")
    oracle = None
    if args.oracle:
        oracle = fock.uhlmann_fidelity_numeric(*validate.matched_pair(build, s1, s2))
    print(f"fidelity = {_fmt(value)}")
    if oracle is not None:
        print(f"oracle   = {_fmt(oracle)}")
        print(f"delta    = {_fmt(abs(value - oracle))}")
    return 0


def _cmd_entangle(args) -> int:
    state = _load_state(args.state)
    if not isinstance(state, TwoModeStsParams):
        raise DomainError("entangle requires an sts2 state descriptor")
    rs = separability_threshold_rs(state.nbar1, state.nbar2)
    print(f"r_s = {_fmt(rs)}")
    print(f"verdict: {'separable' if state.r <= rs else 'entangled'}")
    print(f"E0 = {_fmt(degree_e0(state))}")
    return 0


def _cmd_teleport(args) -> int:
    state = _load_state(args.state)
    if not isinstance(state, DstsParams):
        raise DomainError("teleport requires a dsts input state")
    resource = _load_state(args.resource)
    if not isinstance(resource, TwoModeStsParams):
        raise DomainError("teleport requires an sts2 resource state")
    z = teleport.resource_noise(resource)
    fid = teleport.teleport_fidelity(math.cosh(2.0 * state.r), state.nbar + 0.5, z)
    print(json.dumps(state_to_dict(teleport.teleport_with_noise(state, z))))
    print(f"fidelity = {_fmt(fid)}")
    return 0


def _finite(text: str) -> float:
    """argparse type of the float options: a finite number."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")


def _finite_list(text: str) -> list[float]:
    """argparse type of the list options: comma-separated finite numbers, at least one."""
    if values := [_finite(tok) for tok in text.split(",") if tok.strip() != ""]:
        return values
    raise argparse.ArgumentTypeError(f"must list at least one finite number, got {text!r}")


def _cmd_sweep(args) -> int:
    other = {"fig1": {"--e0": args.e0}, "fig2": {"--r-in": args.r_in, "--nbar-in": args.nbar_in}}
    if given := [option for option, value in other[args.figure].items() if value is not None]:
        raise DomainError(f"{given[0]} does not apply to {args.figure}")
    if not 2 <= args.points <= MAX_POINTS:
        raise DomainError(f"grid size must lie in [2, {MAX_POINTS}], got {args.points}")
    if args.figure == "fig1":
        nbars = args.nbar_in or list(teleport.FIG1_NBARS)
        grid = np.linspace(0.01, 0.99, args.points)
        r_in = teleport.FIG1_R_IN if args.r_in is None else args.r_in
        sweep = teleport.sweep_fig1(r_in, nbars, grid)
        paths = teleport.write_fig1_csv(sweep, args.out)
    else:
        e0s = args.e0 or list(teleport.FIG2_E0S)
        grid = np.linspace(0.0, 0.99, args.points)
        sweep = teleport.sweep_fig2(e0s, grid)
        paths = teleport.write_fig2_csv(sweep, args.out)
    for path in paths:
        print(path)
    return 0


def _cmd_validate(args) -> int:
    results = validate.run_suite()
    print(validate.format_report(results))
    return 0 if all(r.passed for r in results) else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvgauss",
        description="Gaussian-state toolkit: fidelity, nonclassicality, "
                    "entanglement, and CV teleportation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="report state parameters, CF, covariances, verdicts")
    p_info.add_argument("--state", required=True, help="state descriptor JSON file")
    p_info.set_defaults(func=_cmd_info)

    p_fid = sub.add_parser("fidelity", help="fidelity of two states of the same kind")
    p_fid.add_argument("--state", required=True, help="first state JSON file")
    p_fid.add_argument("--state2", required=True, help="second state JSON file")
    p_fid.add_argument("--oracle", action="store_true",
                       help="also compute the Fock-oracle value and the delta")
    p_fid.set_defaults(func=_cmd_fidelity)

    p_ent = sub.add_parser("entangle", help="separability threshold, verdict, and E0")
    p_ent.add_argument("--state", required=True, help="sts2 state JSON file")
    p_ent.set_defaults(func=_cmd_entangle)

    p_tel = sub.add_parser("teleport", help="teleport a one-mode state through a "
                                            "squeezed thermal resource")
    p_tel.add_argument("--state", required=True, help="dsts input state JSON file")
    p_tel.add_argument("--resource", required=True, help="sts2 resource state JSON file")
    p_tel.set_defaults(func=_cmd_teleport)

    p_sweep = sub.add_parser("sweep", help="write figure CSV files")
    p_sweep.add_argument("figure", choices=("fig1", "fig2"))
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.add_argument("--points", type=int, default=99,
                         help=f"grid size (2 to {MAX_POINTS})")
    p_sweep.add_argument("--r-in", dest="r_in", type=_finite, default=None,
                         help=f"input squeeze factor (fig1, default {teleport.FIG1_R_IN})")
    p_sweep.add_argument("--nbar-in", dest="nbar_in", type=_finite_list, default=None,
                         help="comma-separated input occupancies (fig1)")
    p_sweep.add_argument("--e0", type=_finite_list, default=None,
                         help="comma-separated resource entanglements (fig2)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run the oracle-vs-closed-form check suite")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
