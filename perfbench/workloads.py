"""The four benchmark workloads: seeded input generation, the op that drives
the library, and the correctness check run on each op's stored output.

Inputs are plain JSON-serializable values made from the seed alone, so the
same seed gives byte-identical inputs.  Each op calls only the entry points
that the README and the CLI handlers use, looked up on the package at call
time, so that the tracer's patches see every call.

A check returns an ``Outcome``.  Items carry a class tag that only the
benchmark sees:

* ``bulk``: well-formed input in the domain the validate suite covers.  Any
  exception or broken tolerance is a failure, and makes the run incorrect.
* ``tail``: well-formed input from the log-scaled extremes.  Rejection with
  the package's own exceptions is allowed; a broken tolerance or any other
  exception is a failure.
* ``malformed``: must be rejected with ``DomainError`` or
  ``UnphysicalState``; anything else is a failure.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Tolerances of the validate suite and the acceptance criteria.
TOL_ROUNDTRIP = 1e-12        # dsts/cf round trip
TOL_CLOSED_VS_CLOSED = 1e-10  # teleport closed form vs input/output fidelity
TOL_COHERENT_ROW = 1e-12     # coherent-input teleportation row
TOL_IDENTITY = 1e-12         # figure-2 identity curve at E0 = 1
TOL_CSV = 5e-12              # relative rounding of 12 significant digits
TOL_MINIMIZER = 1e-4
TOL_ORACLE_1M = 1e-6
TOL_ORACLE_2M = 1e-4
TOL_TRACE_PRODUCT = 1e-8
#: input squeeze factor from which the figure-2 sweep leaves the validated domain
TAIL_R_IN = 9.0
#: one-mode pairs enter the agreement only when both states hold at most this
#: many photons on average, so dim-120 truncation stays far below the delta
RESOLVED_PHOTONS = 4.0


@dataclass
class Outcome:
    """Result of checking one item."""

    failed_ops: int = 0
    rejected: bool = False
    delta: float | None = None
    reasons: list[str] = field(default_factory=list)
    #: the part of failed_ops on tail or malformed inputs, outside the domain
    #: the validate suite covers; these do not make a run incorrect
    tail_failed_ops: int = 0


class Workload:
    """Defaults shared by the workloads: one op per item, no scratch files,
    op times scaled by the speed probe of small numpy calls."""

    speed_ref = "small"

    def ops_in(self, item) -> int:
        return 1

    def open(self, scratch: Path) -> None:
        pass

    def close(self) -> None:
        pass


def _rng(seed: int, stream: int, block: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, block])


class _Draws:
    """The scalar ``uniform``/``integers`` calls of a Generator, served from
    one array drawn up front, which is several times cheaper per value."""

    def __init__(self, rng: np.random.Generator, n: int):
        self._u = iter(rng.random(n).tolist())

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * next(self._u)

    def integers(self, high: int) -> int:
        return int(high * next(self._u))


def _strata(rng, n: int, dims: int) -> np.ndarray:
    """Latin-hypercube sample of shape (n, dims) in [0, 1): each column puts
    one value in each of n equal strata.  Spreading every run's inputs evenly
    over the domain keeps the cost of a run from depending on the seed."""
    return (np.array([rng.permutation(n) for _ in range(dims)]).T
            + rng.uniform(size=(n, dims))) / n


def _package_error(cv, err) -> bool:
    return isinstance(err, (cv.DomainError, cv.UnphysicalState))


def _err_name(err) -> str:
    return f"{type(err).__name__}: {err}"


def _bad_unit(x) -> bool:
    """True unless x is a finite number in [0, 1]."""
    return not (isinstance(x, float) and 0.0 <= x <= 1.0)


# ---------------------------------------------------------------------------
# point_queries


MALFORMED_KINDS = ("string", "null", "overflow", "infinity", "negative", "missing")
#: share of descriptors that are malformed; the log-scaled extremes get the
#: same share, so the two kinds of input outside the validated domain weigh
#: alike
P_MALFORMED = 0.05
P_TAIL = P_MALFORMED
#: shares of the query kinds.  Each share is proportional to one over the
#: kind's mean op time, measured on the code the benchmark was defined on
#: (one-mode pair 81-106 us, two-mode pair 458-598 us, teleport 47-59 us, on
#: 2 cores), so that each kind takes about a third of the op time and
#: ``ops_per_s`` weighs the three routes alike.
QUERY_SHARES = {"dsts_pair": 0.34, "sts_pair": 0.06, "teleport": 0.60}


def _malform(desc: dict, rng) -> dict:
    kind = MALFORMED_KINDS[int(rng.integers(len(MALFORMED_KINDS)))]
    occ = "nbar" if desc["kind"] == "dsts" else "nbar1"
    if kind == "string":
        desc[occ] = "abc"
    elif kind == "null":
        if desc["kind"] == "dsts":
            desc["alpha"] = [None, 0]
        else:
            desc["r"] = None
    elif kind == "overflow":
        desc["r"] = 1000
    elif kind == "infinity":
        desc[occ] = math.inf
    elif kind == "negative":
        desc[occ] = -float(rng.uniform(0.01, 2.0))
    else:
        del desc["r"]
    return desc


def _tail_values(rng) -> tuple[float | None, float | None]:
    """Log-scaled extremes: nbar up to 1e8, r up to 12, or both."""
    which = int(rng.integers(3))
    nbar = float(10.0 ** rng.uniform(0.7, 8.0)) if which != 1 else None
    r = float(math.exp(rng.uniform(math.log(2.0), math.log(12.0)))) if which != 0 else None
    return nbar, r


def _descriptor(kind: str, rng) -> tuple[str, str]:
    """One JSON descriptor and its class tag."""
    if kind == "dsts":
        desc = {"kind": "dsts", "nbar": float(rng.uniform(0.0, 5.0)),
                "r": float(rng.uniform(0.0, 2.0)), "phi": float(rng.uniform(-math.pi, math.pi)),
                "alpha": [float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0))]}
        occ = ("nbar",)
    else:
        desc = {"kind": "sts2", "nbar1": float(rng.uniform(0.0, 2.0)),
                "nbar2": float(rng.uniform(0.0, 2.0)), "r": float(rng.uniform(0.0, 1.5)),
                "phi": float(rng.uniform(-math.pi, math.pi))}
        occ = ("nbar1", "nbar2")
    tag = "bulk"
    u = rng.uniform()
    if u < P_MALFORMED:
        desc, tag = _malform(desc, rng), "malformed"
    elif u < P_MALFORMED + P_TAIL:
        nbar, r = _tail_values(rng)
        if nbar is not None:
            desc[occ[int(rng.integers(len(occ)))]] = nbar
        if r is not None:
            desc["r"] = r
        tag = "tail"
    return json.dumps(desc), tag


def _worst_tag(tags) -> str:
    for tag in ("malformed", "tail"):
        if tag in tags:
            return tag
    return "bulk"


class PointQueries(Workload):
    """Single-state JSON queries: one-mode pairs, two-mode pairs, teleport."""

    name = "point_queries"
    stream = 1

    def __init__(self, block_size: int = 1024, prefix_blocks: int = 2):
        self.block_size = block_size
        self.prefix_blocks = prefix_blocks

    #: uniform draws an item takes at most: a pair of descriptors that each
    #: take up to 10, and the kind
    DRAWS_PER_ITEM = 21

    def block(self, seed: int, index: int) -> list:
        rng = _Draws(_rng(seed, self.stream, index), self.DRAWS_PER_ITEM * self.block_size)
        items = []
        for _ in range(self.block_size):
            u = rng.uniform()
            if u < QUERY_SHARES["dsts_pair"]:
                (ta, ga), (tb, gb) = (_descriptor("dsts", rng)
                                      for _ in range(2))
                items.append(["dsts_pair", ta, tb, _worst_tag((ga, gb))])
            elif u < QUERY_SHARES["dsts_pair"] + QUERY_SHARES["sts_pair"]:
                (ta, ga), (tb, gb) = (_descriptor("sts2", rng)
                                      for _ in range(2))
                items.append(["sts_pair", ta, tb, _worst_tag((ga, gb))])
            else:
                text, tag = _descriptor("dsts", rng)
                items.append(["teleport", text, float(rng.uniform(0.0, 2.0)),
                              float(rng.uniform(0.0, 1.5)), tag])
        return items

    def run(self, cv, item):
        kind = item[0]
        if kind == "dsts_pair":
            a, b = cv.parse_state(item[1]), cv.parse_state(item[2])
            ga, gb = cv.dsts_to_cf(a), cv.dsts_to_cf(b)
            cv.cf_to_cov(ga)
            return a, ga, cv.fidelity_one_mode(ga, gb), cv.degree_q0(a), cv.is_classical(a)
        if kind == "sts_pair":
            a, b = cv.parse_state(item[1]), cv.parse_state(item[2])
            return (a, cv.fidelity_two_mode_sts(a, b),
                    cv.separability_threshold_rs(a.nbar1, a.nbar2),
                    cv.peres_simon_separable(cv.sts_to_cov2(a)), cv.degree_e0(a))
        state = cv.parse_state(item[1])
        cf_in = cv.dsts_to_cf(state)
        out_cf = cv.teleport_symmetric_sts(cf_in, item[2], item[3])
        out_state = cv.cf_to_dsts(out_cf)
        fid = cv.teleport_fidelity_from_states(state, item[2], item[3])
        cv.state_to_dict(out_state)
        return cf_in, out_cf, fid

    def check(self, cv, item, out, err) -> Outcome:
        outcome = self._classify(cv, item, out, err)
        if item[-1] != "bulk":
            outcome.tail_failed_ops = outcome.failed_ops
        return outcome

    def _classify(self, cv, item, out, err) -> Outcome:
        tag = item[-1]
        if tag == "malformed":
            if err is not None and _package_error(cv, err):
                return Outcome(rejected=True)
            reason = (f"malformed input raised {type(err).__name__}" if err is not None
                      else "malformed input accepted")
            return Outcome(failed_ops=1, reasons=[reason])
        if err is not None:
            if tag == "tail" and _package_error(cv, err):
                return Outcome(rejected=True)
            return Outcome(failed_ops=1, reasons=[f"{tag} input raised {type(err).__name__}"])
        try:
            return self._check_values(cv, item, out)
        except Exception as exc:  # the independent route itself broke
            return Outcome(failed_ops=1, reasons=[f"{tag} check raised {_err_name(exc)}"])

    def _check_values(self, cv, item, out) -> Outcome:
        kind, tag = item[0], item[-1]
        reasons = []
        if kind == "dsts_pair":
            a, ga, f_ab, q0, _ = out
            f_aa, back = cv.fidelity_one_mode(ga, ga), cv.cf_to_dsts(ga)
            if _bad_unit(f_ab) or _bad_unit(q0):
                reasons.append("fidelity or Q0 outside [0, 1]")
            delta = abs(f_aa - 1.0) if math.isfinite(f_aa) else math.inf
            if delta > TOL_CLOSED_VS_CLOSED:
                reasons.append("one-mode self-fidelity != 1")
            dphi = abs(math.remainder(back.phi - a.phi, 2.0 * math.pi)) if a.r > 0.0 else 0.0
            rt = max(abs(back.nbar - a.nbar) / max(1.0, a.nbar),
                     abs(back.r - a.r) / max(1.0, a.r), dphi,
                     abs(back.alpha - a.alpha) / max(1.0, abs(a.alpha)))
            if not rt <= TOL_ROUNDTRIP:
                reasons.append("dsts/cf round trip")
        elif kind == "sts_pair":
            a, f_ab, rs, separable, e0 = out
            f_aa = cv.fidelity_two_mode_sts(a, a)
            if _bad_unit(f_ab) or _bad_unit(e0):
                reasons.append("fidelity or E0 outside [0, 1]")
            delta = abs(f_aa - 1.0) if math.isfinite(f_aa) else math.inf
            if delta > TOL_CLOSED_VS_CLOSED:
                reasons.append("two-mode self-fidelity != 1")
            if abs(a.r - rs) > 1e-6:  # the verdicts may differ at the boundary
                if separable != (a.r <= rs):
                    reasons.append("Peres-Simon verdict vs closed threshold")
                if (e0 > 0.0) != (a.r > rs):
                    reasons.append("E0 vs closed threshold")
        else:
            cf_in, out_cf, fid = out
            route = cv.fidelity_one_mode(cf_in, out_cf)
            delta = abs(fid - route) if math.isfinite(fid) else math.inf
            if _bad_unit(fid) or delta > TOL_CLOSED_VS_CLOSED:
                reasons.append("teleport closed form vs input/output fidelity")
        reasons = [f"{tag} {reason}" for reason in reasons]
        return Outcome(failed_ops=1 if reasons else 0, reasons=reasons,
                       delta=delta if tag == "bulk" else None)

    def warmup(self, cv, seed: int, scratch: Path) -> None:
        self.run(cv, next(item for item in self.block(seed, 0) if item[-1] == "bulk"))


# ---------------------------------------------------------------------------
# grid_sweeps


class GridSweeps(Workload):
    """Dense figure-1 and figure-2 sweeps written as CSV; an op is one grid
    point computed and written."""

    name = "grid_sweeps"
    stream = 2

    def __init__(self, points: int = 512, batches_per_block: int = 4, prefix_blocks: int = 8,
                 route_stride: int = 32):
        self.points = points
        self.batches_per_block = batches_per_block
        self.prefix_blocks = prefix_blocks
        self.route_stride = route_stride
        self.outdir: Path | None = None

    def open(self, scratch: Path) -> None:
        self.outdir = Path(tempfile.mkdtemp(prefix="grid-", dir=scratch))

    def close(self) -> None:
        if self.outdir is not None:
            shutil.rmtree(self.outdir, ignore_errors=True)
            self.outdir = None

    def block(self, seed: int, index: int) -> list:
        rng = _rng(seed, self.stream, index)
        items = []
        for k in range(self.batches_per_block):
            # every other batch has r_in = 0, so its nbar_in = 0 curve is the
            # coherent row
            r_in = 0.0 if k % 2 == 0 else float(rng.uniform(0.2, 1.5))
            nbars = [0.0] + sorted(float(10.0 ** rng.uniform(-2.0, 1.0)) for _ in range(3))
            e0s = [1.0] + sorted((float(rng.uniform(0.2, 0.95)) for _ in range(2)), reverse=True)
            # each batch of a block writes to its own directory, checked after the block
            items.append([r_in, nbars, e0s, self.points, f"batch{k}"])
        return items

    def ops_in(self, item) -> int:
        return item[3] * (len(item[1]) + len(item[2]))

    def run(self, cv, item):
        r_in, nbars, e0s, points, subdir = item
        fig1 = cv.sweep_fig1(r_in, nbars, np.linspace(0.01, 0.99, points))
        paths1 = cv.teleport.write_fig1_csv(fig1, self.outdir / subdir)
        fig2 = cv.sweep_fig2(e0s, np.linspace(0.0, 0.99, points))
        paths2 = cv.teleport.write_fig2_csv(fig2, self.outdir / subdir)
        return fig1, paths1, fig2, paths2

    def check(self, cv, item, out, err) -> Outcome:
        if err is not None:
            return Outcome(failed_ops=self.ops_in(item),
                           reasons=[f"sweep raised {type(err).__name__}"])
        try:
            return self._check_values(cv, item, out)
        except Exception as exc:
            return Outcome(failed_ops=self.ops_in(item),
                           reasons=[f"sweep check raised {_err_name(exc)}"])

    def _check_values(self, cv, item, out) -> Outcome:
        r_in = item[0]
        fig1, paths1, fig2, paths2 = out
        bad: set[tuple[str, float, int]] = set()
        tail_bad: set[tuple[str, float, int]] = set()
        reasons: list[str] = []
        worst = 0.0  # over the numeric routes; the CSV check is exact up to rounding

        def flag(curve, key, i, reason, tail=False):
            (tail_bad if tail else bad).add((curve, key, i))
            if reason not in reasons:
                reasons.append(reason)

        for curve, sweep, paths, header in (("fig1", fig1, paths1, "e0,fidelity"),
                                            ("fig2", fig2, paths2, "q_in,q_out")):
            if len(paths) != len(sweep):
                flag(curve, -1.0, -1, f"{curve} file count")
            for (key, rows), path in zip(sweep.items(), paths):
                lines = Path(path).read_text().splitlines()
                if lines[0] != header or len(lines) != len(rows) + 1:
                    flag(curve, key, -1, f"{curve} CSV layout")
                    continue
                for i, (line, row) in enumerate(zip(lines[1:], rows)):
                    for text, value in zip(line.split(","), row):
                        if abs(float(text) - value) > TOL_CSV * abs(value):
                            flag(curve, key, i, f"{curve} CSV read-back")

        for nbar, rows in fig1.items():
            cf_in = cv.dsts_to_cf(cv.DstsParams(nbar=nbar, r=r_in))
            for i, (e0, fid) in enumerate(rows):
                z = cv.z_from_e0(e0)
                if _bad_unit(fid):
                    flag("fig1", nbar, i, "fig1 fidelity outside [0, 1]")
                if r_in == 0.0 and nbar == 0.0:
                    delta = abs(fid - 1.0 / (1.0 + z))
                    worst = max(worst, delta)
                    if delta > TOL_COHERENT_ROW:
                        flag("fig1", nbar, i, "fig1 coherent row vs 1/(1+z)")
                if i % self.route_stride == 0:
                    route = cv.fidelity_one_mode(cf_in, cv.teleport_with_noise(cf_in, z))
                    delta = abs(fid - route)
                    worst = max(worst, delta)
                    if delta > TOL_CLOSED_VS_CLOSED:
                        flag("fig1", nbar, i,
                             "fig1 teleport closed form vs input/output fidelity")

        for e0, rows in fig2.items():
            for i, (q_in, q_out) in enumerate(rows):
                # inputs squeezed past r = 9 are outside the validated domain
                tail = q_in > 0.0 and math.acosh(1.0 / (1.0 - q_in) ** 2) >= TAIL_R_IN
                where = " (r_in >= 9)" if tail else ""
                if e0 == 1.0:
                    delta = abs(q_out - q_in)
                    worst = max(worst, delta)
                    if delta > TOL_IDENTITY:
                        flag("fig2", e0, i, f"fig2 identity curve at E0 = 1{where}", tail)
                elif q_in > 0.0 and not q_out < q_in:
                    flag("fig2", e0, i, f"fig2 noise does not degrade Q{where}", tail)
                if i and not q_out >= rows[i - 1][1]:
                    flag("fig2", e0, i, f"fig2 curve not monotone{where}", tail)

        if any(i < 0 for _, _, i in bad):
            return Outcome(failed_ops=self.ops_in(item), reasons=reasons, delta=worst)
        tail_bad -= bad
        return Outcome(failed_ops=len(bad) + len(tail_bad), tail_failed_ops=len(tail_bad),
                       reasons=reasons, delta=worst)

    def warmup(self, cv, seed: int, scratch: Path) -> None:
        item = self.block(seed, 0)[0]
        self.open(scratch)
        try:
            self.run(cv, [item[0], item[1][:1], item[2][:1], 2, item[4]])
        finally:
            self.close()


# ---------------------------------------------------------------------------
# distance_search


def _rs(n1: float, n2: float) -> float:
    """Separability threshold, written out independently of the package."""
    return math.acosh(max(1.0, math.sqrt((n1 + 1.0) * (n2 + 1.0) / (n1 + n2 + 1.0))))


class DistanceSearch(Workload):
    """Numeric closest-classical and closest-separable searches; an op is
    one search.  A cycle is one undisplaced and one displaced DSTS search
    and one STS search.  Every ``design_cycles`` consecutive cycles form one
    Latin-hypercube design over the parameter domain.  A run does at least
    ``prefix_blocks`` = 12 cycles, 36 searches: the median search falls among
    the displaced DSTS searches, whose cost varies with the input by up to
    2x, and over 8 cycles it spread 0.07-0.20 across seeds."""

    name = "distance_search"
    stream = 3
    design_stream = 103
    design_cycles = 12

    def __init__(self, prefix_blocks: int = 12, n_starts: int | None = None):
        self.prefix_blocks = prefix_blocks
        self.n_starts = n_starts  # None: the library default

    def block(self, seed: int, index: int) -> list:
        design = _strata(_rng(seed, self.design_stream, index // self.design_cycles),
                         self.design_cycles, 9)
        u = iter(design[index % self.design_cycles].tolist())
        rng = _rng(seed, self.stream, index)
        items = []
        for displaced in (False, True):
            # validate's domain, nbar <= 1 and r <= 1.5, past the threshold by
            # a margin that keeps Q0 > 0.01
            nbar = next(u)
            rc = 0.5 * math.log1p(2.0 * nbar)
            r_hi = max(1.5, rc + 0.5)
            r = rc + 0.25 + next(u) * (r_hi - rc - 0.25)
            alpha = ([2.0 * next(u) - 1.0, 2.0 * next(u) - 1.0]
                     if displaced else [0.0, 0.0])
            items.append(["q0", nbar, r, float(rng.uniform(-math.pi, math.pi)), alpha])
        n1, n2 = 0.8 * next(u), 0.8 * next(u)
        r = _rs(n1, n2) + 0.2 + 0.8 * next(u)
        items.append(["e0", n1, n2, r, float(rng.uniform(-math.pi, math.pi))])
        return items

    def _kwargs(self) -> dict:
        return {} if self.n_starts is None else {"n_starts": self.n_starts}

    def run(self, cv, item):
        if item[0] == "q0":
            p = cv.DstsParams(nbar=item[1], r=item[2], phi=item[3],
                              alpha=complex(item[4][0], item[4][1]))
            closest, value = cv.closest_classical_numeric(p, **self._kwargs())
        else:
            p = cv.TwoModeStsParams(nbar1=item[1], nbar2=item[2], r=item[3], phi=item[4])
            closest, value = cv.closest_separable_numeric(p, **self._kwargs())
        return p, closest, value

    def check(self, cv, item, out, err) -> Outcome:
        if err is not None:
            return Outcome(failed_ops=1, reasons=[f"{item[0]} search raised {type(err).__name__}"])
        p, closest, value = out
        if item[0] == "q0":
            delta = abs(value - cv.degree_q0(p))
            inside = cv.is_classical(closest)
        else:
            delta = abs(value - cv.degree_e0(p))
            inside = closest.r <= _rs(closest.nbar1, closest.nbar2) + 1e-12
        reasons = []
        if not delta <= TOL_MINIMIZER:
            reasons.append(f"{item[0]} minimizer vs closed degree")
        if not inside:
            reasons.append(f"{item[0]} minimizer left the constraint set")
        return Outcome(failed_ops=1 if reasons else 0, reasons=reasons, delta=delta)

    def warmup(self, cv, seed: int, scratch: Path) -> None:
        self.run(cv, self.block(seed, 0)[0])


# ---------------------------------------------------------------------------
# fock_oracle


class FockOracle(Workload):
    """Closed forms against the truncated Fock-space oracle; an op is one
    pair compared.  A cycle is one two-mode pair at ``dim_2m`` per mode and
    ``one_mode_per_cycle`` one-mode pairs at ``dim_1m``, a ratio that gives
    each kind about half the time on the implementation the benchmark was
    defined on (11.4 s for a two-mode pair, 39 ms mean for a one-mode pair,
    one BLAS thread); every fourth one-mode pair is pure and also goes through
    the trace product."""

    name = "fock_oracle"
    stream = 4
    speed_ref = "dense"

    def __init__(self, dim_1m: int = 120, dim_2m: int = 40, one_mode_per_cycle: int = 288,
                 prefix_blocks: int = 1, dim_1m_ref: int = 256):
        self.dim_1m = dim_1m
        self.dim_2m = dim_2m
        self.dim_1m_ref = dim_1m_ref
        self.one_mode_per_cycle = one_mode_per_cycle
        self.prefix_blocks = prefix_blocks

    def block(self, seed: int, index: int) -> list:
        rng = _rng(seed, self.stream, index)
        # validate's two-mode oracle domain
        items = [["2m"] + [[float(rng.uniform(0.0, 0.6)), float(rng.uniform(0.0, 0.6)),
                            float(rng.uniform(0.0, 1.0)), float(rng.uniform(-math.pi, math.pi))]
                           for _ in range(2)]]
        # validate's one-mode oracle and trace-product domains, one
        # Latin-hypercube design per cycle for each
        n_pure = self.one_mode_per_cycle // 4
        mixed = iter(_strata(rng, self.one_mode_per_cycle - n_pure, 10).tolist())
        pure = iter(_strata(rng, n_pure, 8).tolist())
        for k in range(self.one_mode_per_cycle):
            if k % 4 == 3:
                u = next(pure)
                pair = [[0.0, 0.8 * u[4 * j], math.pi * (2.0 * u[4 * j + 1] - 1.0),
                         [0.7 * (2.0 * u[4 * j + 2] - 1.0), 0.7 * (2.0 * u[4 * j + 3] - 1.0)]]
                        for j in range(2)]
                items.append(["1m_pure"] + pair)
            else:
                u = next(mixed)
                pair = [[2.0 * u[5 * j], u[5 * j + 1], math.pi * (2.0 * u[5 * j + 2] - 1.0),
                         [2.0 * u[5 * j + 3] - 1.0, 2.0 * u[5 * j + 4] - 1.0]]
                        for j in range(2)]
                items.append(["1m"] + pair)
        return items

    def run(self, cv, item):
        kind, a, b = item
        if kind == "2m":
            p1, p2 = cv.TwoModeStsParams(*a), cv.TwoModeStsParams(*b)
            closed = cv.fidelity_two_mode_sts(p1, p2)
            r1, r2 = cv.sts2_dm(p1, self.dim_2m), cv.sts2_dm(p2, self.dim_2m)
            return closed, cv.uhlmann_fidelity_numeric(r1, r2), None
        p1 = cv.DstsParams(a[0], a[1], a[2], complex(*a[3]))
        p2 = cv.DstsParams(b[0], b[1], b[2], complex(*b[3]))
        closed = cv.fidelity_one_mode(cv.dsts_to_cf(p1), cv.dsts_to_cf(p2))
        r1, r2 = cv.dsts_dm(p1, self.dim_1m), cv.dsts_dm(p2, self.dim_1m)
        trace = cv.trace_product(r1, r2) if kind == "1m_pure" else None
        return closed, cv.uhlmann_fidelity_numeric(r1, r2), trace

    def check(self, cv, item, out, err) -> Outcome:
        kind = item[0]
        if err is not None:
            return Outcome(failed_ops=1, reasons=[f"{kind} oracle raised {type(err).__name__}"])
        closed, numeric, trace = out
        delta = abs(closed - numeric)
        reasons = []
        if kind != "2m" and not delta <= TOL_ORACLE_1M:
            # A truncated squeeze or displacement is exactly unitary, so the
            # oracle's trace-based tail mass stays ~0 even when dim is too
            # small.  Re-run the oracle at the largest dim: if it agrees
            # there, the miss is the truncation of the oracle, not the
            # closed form, and does not make the run incorrect.
            p1, p2 = (cv.DstsParams(x[0], x[1], x[2], complex(*x[3])) for x in item[1:])
            ref = cv.uhlmann_fidelity_numeric(cv.dsts_dm(p1, self.dim_1m_ref),
                                              cv.dsts_dm(p2, self.dim_1m_ref))
            if abs(closed - ref) <= TOL_ORACLE_1M:
                return Outcome(failed_ops=1, tail_failed_ops=1, reasons=[
                    f"1m Fock oracle truncated at dim {self.dim_1m} "
                    f"(agrees at dim {self.dim_1m_ref})"])
            reasons.append("1m closed form vs Fock oracle")
        elif kind == "2m" and not delta <= TOL_ORACLE_2M:
            reasons.append("2m closed form vs Fock oracle")
        if trace is not None:
            delta = max(delta, abs(closed - trace))
            if not abs(closed - trace) <= TOL_TRACE_PRODUCT:
                reasons.append("pure-state fidelity vs trace product")
        # agreement is taken where truncation does not dominate the delta
        resolved = kind == "2m" or max(map(_photons, item[1:])) <= RESOLVED_PHOTONS
        return Outcome(failed_ops=1 if reasons else 0, reasons=reasons,
                       delta=delta if resolved else None)

    def warmup(self, cv, seed: int, scratch: Path) -> None:
        self.run(cv, self.block(seed, 0)[1])


def _photons(x) -> float:
    """Mean photon number of a DSTS given as [nbar, r, phi, [re, im]]."""
    return (x[0] + 0.5) * math.cosh(2.0 * x[1]) - 0.5 + x[3][0] ** 2 + x[3][1] ** 2


WORKLOADS = {w.name: w for w in (PointQueries, GridSweeps, DistanceSearch, FockOracle)}


def tiny(name: str):
    """A workload at a size that runs in about a second, for the self-test."""
    return {
        "point_queries": lambda: PointQueries(block_size=32, prefix_blocks=2),
        "grid_sweeps": lambda: GridSweeps(points=8, batches_per_block=2, prefix_blocks=2,
                                          route_stride=2),
        "distance_search": lambda: DistanceSearch(prefix_blocks=1, n_starts=1),
        "fock_oracle": lambda: FockOracle(dim_1m=12, dim_2m=6, one_mode_per_cycle=4,
                                          dim_1m_ref=24),
    }[name]()
