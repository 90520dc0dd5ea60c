"""Self-test of the benchmark, at tiny sizes (about a minute on 2 cores):

    python3 perfbench/selftest.py

* the same seed gives byte-identical inputs and another seed different ones;
* every workload runs untraced and traced, and prints every metric that
  ``BENCHMARK.json`` names, with its unit;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import envinfo  # noqa: E402

envinfo.pin_blas_threads(os.environ)
envinfo.clear_library_vars(os.environ)
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import cvgauss  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _inputs(wl, seed: int) -> bytes:
    return json.dumps([wl.block(seed, i) for i in range(2)]).encode()


def check_inputs(name: str) -> list[str]:
    errors = []
    for wl in (workloads.WORKLOADS[name](), workloads.tiny(name)):
        if _inputs(wl, 1) != _inputs(wl, 1):
            errors.append(f"{name}: seed 1 inputs differ between two generations")
        if _inputs(wl, 1) == _inputs(wl, 2):
            errors.append(f"{name}: seeds 1 and 2 give the same inputs")
    return errors


def check_metrics(name: str, trace: bool) -> list[str]:
    record = run.run_benchmark(cvgauss, workloads.tiny(name), seed=1, seconds=0.2,
                               trace=trace, setup_repeats=1)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in record["metrics"].items()}
    errors = [f"{name} trace={int(trace)}: metric {k} missing" for k in wanted if k not in got]
    errors += [f"{name} trace={int(trace)}: metric {k} has unit {got[k]}, not {u}"
               for k, u in wanted.items() if k in got and got[k] != u]
    errors += [f"{name} trace={int(trace)}: metric {k} not in BENCHMARK.json"
               for k in got if k not in wanted]
    if not record["attempted"] >= 1:
        errors.append(f"{name} trace={int(trace)}: no ops attempted")
    return errors


def check_bare_directory() -> list[str]:
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(SPEC["command"] + ["--workload", "point_queries", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        return ["bare directory: benchmark exited with code 0"]
    if '"metrics"' in proc.stdout:
        return ["bare directory: benchmark printed a result"]
    return []


def main() -> int:
    errors = []
    for name in run.WORKLOAD_NAMES:
        errors += check_inputs(name)
        for trace in (False, True):
            errors += check_metrics(name, trace)
        print(f"{name}: checked", flush=True)
    errors += check_bare_directory()
    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
