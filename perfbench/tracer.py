"""In-memory span tracer for the traced benchmark run.

Every public function of each layer module, and the ``__post_init__``
physicality check of every dataclass a layer defines, is replaced by a
wrapper that records a span: name, start, end, parent span and the id of the
benchmark op that caused it.  The package's modules import each other with
``from .x import y``, so each function has several binding sites; all of them
(every ``cvgauss`` module namespace holding the original object) are patched
and restored afterwards.  Names that a layer no longer defines are simply not
traced, so removals inside the package do not break the tracer.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from array import array

import numpy as np

#: layer modules, in the order the per-layer metrics are reported
LAYERS = ("states", "fidelity", "nonclassicality", "entanglement", "teleport",
          "_optim", "fock")

#: metric prefix of a layer (metric names must start with a letter or digit)
PREFIX = {layer: layer.lstrip("_") for layer in LAYERS}

FOCK_BUILDERS = ("fock.dsts_dm", "fock.sts2_dm")
FOCK_EXPM = ("fock.squeeze_matrix", "fock.displacement_matrix",
             "fock.two_mode_squeeze_matrix")
SWEEPS = ("teleport.sweep_fig1", "teleport.sweep_fig2")
WRITERS = ("teleport.write_fig1_csv", "teleport.write_fig2_csv")
MINIMIZER = "_optim.multistart_nelder_mead"
OBJECTIVE = "_optim.objective"


class Tracer:
    """Patch the layers of an imported ``cvgauss`` and record spans."""

    def __init__(self, package):
        self.package = package
        self.op = [-1]  # id of the op being run; -1 outside ops
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.is_check: list[bool] = []
        self.name_id: dict[str, int] = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_raised = array("b")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.fock_dms: list[tuple[int, int, int, float, int]] = []  # dim, modes, nbytes, tail, op
        self.bytes_written = 0

    # -- span recording -------------------------------------------------

    def _nid(self, name: str, layer: str, check: bool) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.is_check.append(check)
        return self.name_id[name]

    def _wrap(self, nid: int, fn, hook=None, wrap_objective=False):
        names, parents, ops = self.s_name, self.s_parent, self.s_op
        starts, ends, raised = self.s_start, self.s_end, self.s_raised
        stack, cur_op, clock = self._stack, self.op, time.perf_counter
        objective_nid = self._nid(OBJECTIVE, "_optim", False) if wrap_objective else -1

        def traced(*args, **kwargs):
            if wrap_objective and args and callable(args[0]):
                args = (self._wrap(objective_nid, args[0]),) + args[1:]
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(cur_op[0])
            ends.append(0.0)
            raised.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _record_dm(self, dm) -> None:
        self.fock_dms.append((dm.dim, dm.modes, dm.matrix.nbytes, dm.tail_mass, self.op[0]))

    def _record_written(self, paths) -> None:
        self.bytes_written += sum(os.path.getsize(p) for p in paths)

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        pkg = self.package.__name__
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{pkg}.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    hook = None
                    if name in FOCK_BUILDERS:
                        hook = self._record_dm
                    elif name in WRITERS:
                        hook = self._record_written
                    replace[id(obj)] = self._wrap(
                        self._nid(name, layer, False), obj, hook,
                        wrap_objective=(name == MINIMIZER))
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    check = vars(obj)["__post_init__"]
                    self._patches.append((obj, "__post_init__", check))
                    setattr(obj, "__post_init__",
                            self._wrap(self._nid(f"{name}.__post_init__", layer, True), check))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == pkg or modname.startswith(pkg + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.s_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.s_parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.s_op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.s_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.s_end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.s_raised, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        """Write all spans, with the name table, as one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), layers=np.array(self.layer_of),
                            **self.arrays())

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer counts and times over spans recorded inside ops.

        Self time is a span's duration minus the durations of its direct
        children.  A layer "entry" is a span whose parent lies in another
        layer (or that has no parent): calls made from the benchmark or from
        another layer, not the layer's internal calls.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        layer_idx = {layer: i for i, layer in enumerate(LAYERS)}
        span_layer = np.array([layer_idx[l] for l in self.layer_of] + [-1])[a["name"]]
        parent_layer = np.where(has_parent, span_layer[np.maximum(a["parent"], 0)], -1)
        in_op = a["op"] >= 0
        entry = in_op & (parent_layer != span_layer)
        check = np.array(self.is_check + [False])[a["name"]]
        per_op = 1.0 / max(n_ops, 1)

        def named(targets) -> np.ndarray:
            ids = [self.name_id[t] for t in targets if t in self.name_id]
            return in_op & np.isin(a["name"], ids)

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            i, pre = layer_idx[layer], PREFIX[layer]
            mine = in_op & (span_layer == i)
            out[f"{pre}.self_ms_per_op"] = (float(self_time[mine].sum()) * 1e3 * per_op, "ms")
            out[f"{pre}.errors"] = (int(a["raised"][entry & (span_layer == i)].sum()), "count")

        states = in_op & (span_layer == layer_idx["states"])
        out["states.calls_per_op"] = (int((entry & states & ~check).sum()) * per_op, "count")
        out["states.checks_per_op"] = (int((states & check).sum()) * per_op, "count")
        out["states.rejected"] = (int(a["raised"][states & check].sum()), "count")

        fid = entry & (span_layer == layer_idx["fidelity"])
        n_fid = int(fid.sum())
        out["fidelity.calls_per_op"] = (n_fid * per_op, "count")
        out["fidelity.us_per_call"] = (float(dur[fid].sum()) * 1e6 / max(n_fid, 1), "us")

        searches = named([MINIMIZER])
        n_search = max(int(searches.sum()), 1)
        objective = named([OBJECTIVE])
        out["optim.objective_calls_per_search"] = (int(objective.sum()) / n_search, "count")
        out["optim.self_ms_per_search"] = (float(self_time[searches].sum()) * 1e3 / n_search, "ms")
        out["optim.objective_ms_per_search"] = (float(dur[objective].sum()) * 1e3 / n_search, "ms")

        out["teleport.sweep_self_s"] = (float(self_time[named(SWEEPS)].sum()), "s")
        out["teleport.write_self_s"] = (float(self_time[named(WRITERS)].sum()), "s")
        out["teleport.bytes_written"] = (self.bytes_written, "bytes")

        out["fock.build_ms_per_op"] = (float(dur[named(FOCK_BUILDERS)].sum()) * 1e3 * per_op, "ms")
        out["fock.expm_ms_per_op"] = (float(dur[named(FOCK_EXPM)].sum()) * 1e3 * per_op, "ms")
        out["fock.uhlmann_ms_per_op"] = (
            float(dur[named(["fock.uhlmann_fidelity_numeric"])].sum()) * 1e3 * per_op, "ms")
        dms = [d for d in self.fock_dms if d[4] >= 0]
        out["fock.dm_bytes_per_op"] = (sum(d[2] for d in dms) * per_op, "bytes")
        out["fock.dim_1m"] = (max((d[0] for d in dms if d[1] == 1), default=0), "count")
        out["fock.dim_2m"] = (max((d[0] for d in dms if d[1] == 2), default=0), "count")
        out["fock.tail_mass_max"] = (max((d[3] for d in dms), default=0.0), "prob")
        out["trace.spans_per_op"] = (int(in_op.sum()) * per_op, "count")
        return out
