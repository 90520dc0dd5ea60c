"""Fixed reference computations that measure how fast the machine runs now.

On a shared virtual machine the same computation runs at speeds that switch
between levels every few seconds and drift over minutes, by up to 2x.  The
benchmark runs a probe between ops, at most ``PROBE_EVERY_S`` of op time
apart, and scales every op time by the probe's nominal time over the median
of the probes taken around the op.  A time so scaled reads what the op would
take on a machine where the probe takes its nominal time; a change to the
library moves it, a change in the machine's speed mostly does not.

The levels do not slow every kind of work alike.  Measured on the machine
the benchmark was defined on, the slow level took 1.36x as long as the fast
one for numpy calls on 4x4 matrices, 1.38x for ``point_queries`` ops and
1.40x for ``grid_sweeps`` batches, but only 1.19x for LAPACK on a 150x150
matrix and for ``fock_oracle`` pairs.  So there are two probes, and each
workload names the one whose kind of work it does:

* ``small``: numpy calls on 4x4 matrices from an interpreted loop, the work
  of the closed forms;
* ``dense``: LAPACK and a matrix product on a 150x150 matrix, the work of
  the Fock oracle;
* ``start``: a fresh interpreter that imports the numpy and scipy modules
  that ``cvgauss`` imports, most of the work of set-up.

None touches ``cvgauss``, so no change to the library can move them.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

import numpy as np

#: each probe's time on the machine the benchmark was defined on (2 vCPUs of
#: an Intel Xeon, one BLAS thread), about the median over its speed levels.
#: Fixed: changing one rescales every end-to-end time that uses it.
NOMINAL_S = {"small": 0.0035, "dense": 0.0035, "start": 0.8}
#: longest op-time gap between two probes
PROBE_EVERY_S = 0.1
#: probes on each side of an op that set its scale.  A single probe reads
#: up to 30 % off its neighbours; the median of six does not follow one
#: such reading, but follows a change of speed that lasts a second.
WINDOW = 3

_rng = np.random.default_rng(20061)
_SMALL = _rng.standard_normal((4, 4))
_SMALL_SPD = _SMALL @ _SMALL.T + np.eye(4)
_BIG = _rng.standard_normal((150, 150))
_BIG_SPD = _BIG @ _BIG.T


def _small(n: int = 260) -> float:
    x = _SMALL
    for _ in range(n):
        x = np.linalg.solve(_SMALL_SPD, x) @ _SMALL_SPD
    return float(x[0, 0])


def _dense(n: int = 2) -> float:
    acc = 0.0
    for _ in range(n):
        acc += float(np.linalg.eigvalsh(_BIG_SPD)[-1] + (_BIG @ _BIG)[0, 0])
    return acc


def _start() -> None:
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg, scipy.optimize, scipy.special"],
                   check=True, timeout=60)


_PROBES = {"small": _small, "dense": _dense, "start": _start}


def probe(kind: str) -> float:
    """Wall time of one reference computation of ``kind``, in seconds."""
    work = _PROBES[kind]
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


class Scale:
    """Probe times along a run, and the factor that scales each op time.

    ``mark()`` probes if at least ``PROBE_EVERY_S`` of op time passed since
    the last probe and returns the index of the latest probe.  An op that
    starts after that probe, at ``total`` seconds of op time, is scaled by
    the median of the ``WINDOW`` probes up to that one, the ``WINDOW``
    probes after it, and every probe within half the op's own duration
    before or after it: an op of several seconds spans speed switches that
    the probes next to it miss.  ``close()`` takes the final probes."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.total = 0.0
        self.times = [probe(kind)]
        self.at = [0.0]
        self._since = 0.0

    def mark(self, force: bool = False) -> int:
        if force or self._since >= PROBE_EVERY_S:
            self.times.append(probe(self.kind))
            self.at.append(self.total)
            self._since = 0.0
        return len(self.times) - 1

    def add(self, op_time: float) -> None:
        self._since += op_time
        self.total += op_time

    def close(self) -> None:
        for _ in range(WINDOW):
            self.times.append(probe(self.kind))
            self.at.append(self.total)

    def factor(self, index: int, start: float, duration: float) -> float:
        lo = min(index + 1 - WINDOW, bisect.bisect_left(self.at, start - duration / 2.0))
        hi = max(index + 1 + WINDOW, bisect.bisect_right(self.at, start + 1.5 * duration))
        return NOMINAL_S[self.kind] / statistics.median(self.times[max(lo, 0):hi])
