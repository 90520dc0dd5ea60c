"""cvgauss benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process drives the library as a closed loop: each op starts
only after the previous one returned.  Inputs come from ``--seed`` alone.

With ``--trace 0`` the run measures the end-to-end metrics: set-up time
(fresh interpreters importing ``cvgauss`` and running one warm-up op), ops
per second, op latency percentiles, the share of ops that did not fail, and
the agreement in digits between independent routes.  Every time is scaled
to a nominal machine speed by reference probes run between ops (see
``speed.py``).  With ``--trace 1`` it runs one warm-up block, then the same
ops untraced and then traced, and reports per-layer metrics and the tracing
overhead instead.  Correctness checks run outside the timed region on every
op's stored output.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
the ops that failed in the validated domain, and ``correct`` is true when
there are none; failures on malformed or extreme inputs count only in
``ok_share`` and in the report.  Results, the environment and the failing
inputs are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh interpreters started per run to measure set-up time
SETUP_REPEATS = 3
#: failing inputs kept per failure reason
EXAMPLES_PER_REASON = 3

sys.path.insert(0, str(HERE))
import envinfo  # noqa: E402  (no numerical import; BLAS settings come first)

WORKLOAD_NAMES = ("point_queries", "grid_sweeps", "distance_search", "fock_oracle")

SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import cvgauss, workloads; "
    "from pathlib import Path; "
    "workloads.WORKLOADS[sys.argv[3]]().warmup(cvgauss, int(sys.argv[4]), Path(sys.argv[5]))"
)


@dataclass
class LoopResult:
    blocks: int = 0
    items: int = 0
    ops: int = 0
    busy_s: float = 0.0
    scaled_busy_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)
    block_p99s: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rejected: int = 0
    core_failed: int = 0
    worst_prefix_delta: float | None = None
    failures: dict[str, dict] = field(default_factory=dict)


def run_loop(cv, wl, seed: int, seconds: float, min_blocks: int, tracer=None) -> LoopResult:
    """Run whole blocks until ``seconds`` of op time have passed and at least
    ``min_blocks`` blocks are done; check each block's outputs untimed.

    Op times are scaled to the nominal machine speed by speed probes taken
    between ops (see ``speed.py``); ``busy_s`` is the unscaled op time."""
    import speed

    res = LoopResult()
    clock = time.perf_counter
    scale = speed.Scale(wl.speed_ref)
    block_spans = []
    while res.busy_s < seconds or res.blocks < min_blocks:
        block = wl.block(seed, res.blocks)
        outputs = []
        marks = []
        scale.mark(force=True)  # the checks of the last block took time
        for item in block:
            marks.append((scale.mark(), scale.total))
            if tracer is not None:
                tracer.op[0] = res.items  # span op id: the item's index in the run
            res.items += 1
            t0 = clock()
            try:
                out, err = wl.run(cv, item), None
            except Exception as exc:  # classified by the check below
                out, err = None, exc
            elapsed = clock() - t0
            scale.add(elapsed)
            res.busy_s += elapsed
            outputs.append((out, err, elapsed))
        scale.mark(force=True)
        if tracer is not None:
            tracer.op[0] = -1
        block_spans.append(([wl.ops_in(item) for item in block], [o[2] for o in outputs], marks))
        for item, (out, err, _) in zip(block, outputs):
            n = wl.ops_in(item)
            outcome = wl.check(cv, item, out, err)
            res.attempted += n
            res.failed += outcome.failed_ops
            res.rejected += n if outcome.rejected else 0
            res.core_failed += outcome.failed_ops - outcome.tail_failed_ops
            if outcome.delta is not None and res.blocks < wl.prefix_blocks:
                delta = outcome.delta if outcome.delta <= 1.0 else 1.0  # NaN counts as 1
                res.worst_prefix_delta = max(res.worst_prefix_delta or 0.0, delta)
            for reason in outcome.reasons:
                entry = res.failures.setdefault(reason, {"items": 0, "examples": []})
                entry["items"] += 1
                if len(entry["examples"]) < EXAMPLES_PER_REASON:
                    entry["examples"].append({"input": item, "error": None if err is None
                                              else f"{type(err).__name__}: {err}"})
        res.blocks += 1
    scale.close()
    for ops_in, times, marks in block_spans:
        latencies = []
        for n, elapsed, (mark, start) in zip(ops_in, times, marks):
            scaled = elapsed * scale.factor(mark, start, elapsed)
            res.scaled_busy_s += scaled
            res.ops += n
            latencies.append(scaled / n)
            res.raw_latencies.append(elapsed / n)
        res.latencies += latencies
        res.block_p99s.append(tail_percentile(latencies))
    res.probes = scale.times
    return res


def measure_setup(name: str, seed: int, repeats: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters importing cvgauss and running one op,
    unscaled and scaled.  All of them are scaled by the mean of two
    ``start`` probes, fresh interpreters importing the modules cvgauss
    imports, one run before the first and one after the last: start-up is
    process creation, file reads and imports, which the speed levels slow
    less than numerical work."""
    import speed

    times, probes = [], [speed.probe("start")]
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), name,
                        str(seed), str(OUT)], check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    probes.append(speed.probe("start"))
    factor = speed.NOMINAL_S["start"] / statistics.mean(probes)
    return times, [t * factor for t in times]


def end_to_end(loop: LoopResult, setup: list[float]) -> dict:
    """Every time is scaled to the nominal machine speed.  Throughput is all
    ops over all op time.  The tail percentile is taken per block and
    reported as its median over blocks."""
    worst = max(loop.worst_prefix_delta or 0.0, 1e-16)  # exact agreement reads 16 digits
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (loop.ops / loop.scaled_busy_s, "1/s"),
        "op_p50_ms": (percentile(loop.latencies, 50) * 1e3, "ms"),
        "op_p99_ms": (statistics.median(loop.block_p99s) * 1e3, "ms"),
        "ok_share": (1.0 - loop.failed / loop.attempted, "share"),
        "agreement_digits": (-math.log10(worst), "digits"),
    }


def tail_percentile(values: list[float]) -> float:
    """The 99th percentile, or for fewer than 1000 values the highest
    percentile with ten values beyond it, or for ten values or fewer the
    largest.  A 99th percentile of 289 ops is the third-slowest, which one
    hiccup of the machine sets."""
    n = len(values)
    if n <= 10:
        return max(values)
    return percentile(values, min(99.0, 100.0 * (1.0 - 10.0 / n)))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q % of the
    samples at or below it.  Unlike interpolation it never mixes two op
    kinds of very different cost into a value neither of them takes."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1]


def run_benchmark(cv, wl, seed: int, seconds: float, trace: bool,
                  setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload; return the result record (metrics, counts, failures)."""
    OUT.mkdir(exist_ok=True)
    record: dict = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    # one untimed op first, so that no timed op pays first-call costs
    wl.warmup(cv, seed, OUT)
    wl.open(OUT)
    try:
        if not trace:
            setup, scaled_setup = measure_setup(wl.name, seed, setup_repeats)
            loop = run_loop(cv, wl, seed, seconds, wl.prefix_blocks)
            metrics = end_to_end(loop, scaled_setup)
            record["setup_runs_s"] = setup
            record["scaled_setup_runs_s"] = scaled_setup
            record["unscaled"] = {"setup_s": statistics.median(setup),
                                  "ops_per_s": loop.ops / loop.busy_s,
                                  "op_p50_ms": percentile(loop.raw_latencies, 50) * 1e3}
        else:
            from tracer import Tracer

            # one untimed block first, so that neither pass pays first-call costs
            run_loop(cv, wl, seed, 0.0, 1)
            plain = run_loop(cv, wl, seed, seconds / 2.0, 1)
            tracer = Tracer(cv)
            with tracer:
                loop = run_loop(cv, wl, seed, 0.0, plain.blocks, tracer)
            metrics = tracer.layer_metrics(loop.ops)
            metrics["trace.overhead_ms_per_op"] = (
                (loop.busy_s - plain.busy_s) * 1e3 / loop.ops, "ms")
            metrics["trace.overhead_share"] = (loop.busy_s / plain.busy_s - 1.0, "share")
            spans = OUT / f"spans-{wl.name}-seed{seed}.npz"
            tracer.save(spans)
            record["untraced_busy_s"] = plain.busy_s
            record["traced_busy_s"] = loop.busy_s
            record["spans_file"] = str(spans.relative_to(ROOT))
    finally:
        wl.close()
    record.update(
        blocks=loop.blocks, ops=loop.ops, busy_s=loop.busy_s, attempted=loop.attempted,
        failed=loop.failed, rejected=loop.rejected, core_failed=loop.core_failed,
        failed_share=loop.failed / loop.attempted, failures=loop.failures,
        block_p99s=loop.block_p99s, probe_ms=[t * 1e3 for t in loop.probes],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    return record


def report(record: dict, env: dict) -> None:
    """Human-readable lines, then the result JSON as the last line."""
    print(f"env {json.dumps(env, sort_keys=True)}")
    if env["blas_threads_exceed_nproc"]:
        print("WARNING: BLAS threads exceed nproc; timings are not comparable")
    for var, value in env["library_vars_cleared"].items():
        print(f"NOTE: {var}={value} was unset for this run")
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['ops']} ops in {record['blocks']} blocks, {record['busy_s']:.3f} s busy")
    print(f"attempted {record['attempted']}  failed {record['failed']}  "
          f"rejected {record['rejected']}  failed_share {record['failed_share']:.6g}  "
          f"failed in the validated domain {record['core_failed']}")
    for reason, entry in sorted(record["failures"].items()):
        example = json.dumps(entry["examples"][0])
        print(f"  FAIL {reason}: {entry['items']} items, e.g. {example[:300]}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in record.get("unscaled", {}).items():
        print(f"  unscaled {name} = {value:.6g}")
    print(json.dumps({
        "correct": record["core_failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["core_failed"],
        "metrics": record["metrics"],
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "cvgauss" / "__init__.py").is_file():
        print(f"error: no cvgauss source under {SRC}", file=sys.stderr)
        return 2

    envinfo.pin_blas_threads(os.environ)
    cleared = envinfo.clear_library_vars(os.environ)
    sys.path.insert(0, str(SRC))
    import cvgauss
    import workloads

    if Path(cvgauss.__file__).resolve().parent != SRC / "cvgauss":
        print(f"error: imported cvgauss from {cvgauss.__file__}, not {SRC}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", cvgauss.TruncationWarning)
    env = envinfo.collect()
    env["library_vars_cleared"] = cleared
    record = run_benchmark(cvgauss, workloads.WORKLOADS[args.workload](), args.seed,
                           args.seconds, bool(args.trace))
    record["env"] = env
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    report(record, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
