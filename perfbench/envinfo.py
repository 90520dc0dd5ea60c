"""Environment record attached to every benchmark result.

BLAS thread settings must be applied before numpy is first imported, so
``pin_blas_threads`` is called by ``run.py`` ahead of any numerical import.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: library settings that change what a workload computes: ``CVGAUSS_MAX_DIM``
#: caps every Fock truncation below the dims ``fock_oracle`` asks for
LIBRARY_VARS = ("CVGAUSS_MAX_DIM",)


def nproc() -> int:
    """CPUs this process may run on (what the ``nproc`` command prints)."""
    return len(os.sched_getaffinity(0))


def pin_blas_threads(env: dict) -> None:
    """Set every BLAS thread variable in ``env`` to one thread.

    One thread never exceeds ``nproc``, and it keeps the timings steady: on
    the 2-CPU shared machine the benchmark was defined on, a second BLAS
    thread made the dim-120 oracle ops take 56-350 ms where one thread took
    34-57 ms, most likely because each thread waits for the other whenever
    the other CPU is busy.
    """
    for var in BLAS_THREAD_VARS:
        env[var] = "1"


def clear_library_vars(env: dict) -> dict:
    """Remove the library's settings from ``env``; return those that were set."""
    return {var: env.pop(var) for var in LIBRARY_VARS if var in env}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cgroup_cpu_max() -> str | None:
    try:
        with open("/sys/fs/cgroup/cpu.max") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _openblas_runtime() -> list[dict]:
    """Thread count and build string of every OpenBLAS loaded in-process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas_", "openblas_"):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and "threads" not in info:
                    threads.restype = ctypes.c_int
                    info["threads"] = int(threads())
                if config is not None and "config" not in info:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode(errors="replace")
        found.append(info)
    return found


def _build_blas(module) -> dict:
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except Exception:  # show_config's layout differs between releases
        return {"name": "unknown", "version": "unknown"}


def collect() -> dict:
    """Versions, BLAS build and runtime threads, CPU count and model."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    runtime = _openblas_runtime()
    cpus = nproc()
    thread_counts = [lib["threads"] for lib in runtime if "threads" in lib]
    env_threads = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    max_threads = max(thread_counts, default=max(
        (int(v) for v in env_threads.values() if v and v.isdigit()), default=0))
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _build_blas(numpy),
        "scipy_blas": _build_blas(scipy),
        "blas_runtime": runtime,
        "blas_thread_env": env_threads,
        "nproc": cpus,
        "os_cpu_count": os.cpu_count(),
        "cgroup_cpu_max": _cgroup_cpu_max(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "blas_threads_exceed_nproc": max_threads > cpus,
    }
