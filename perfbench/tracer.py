"""Span recording from outside the program.

The tracer replaces module and class attributes that bodl looks up at call
time with thin wrappers that stamp ``perf_counter_ns()`` on entry and exit.
Nothing in ``src/`` knows it is being traced, so the wrapped run must write
the same report as an untraced one; the benchmark checks that by hash.

Each span records its name, start, end, parent span and the index of the
stream instance being processed (the instance id shared by every span of
one test-then-train step), plus the machine-speed factor of that instance
(see timing.py). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# (span name, module, attribute path). The span name is the module that
# makes the call plus the callee, so `harness.forward` and `bilevel.forward`
# are the same function seen from the main loop and from the drift response.
HOOKS = (
    ("harness.forward", "bodl.harness", "forward"),
    ("harness.predict_ensemble", "bodl.harness", "predict_ensemble"),
    ("harness.total_loss", "bodl.harness", "total_loss"),
    ("harness.hedge_update", "bodl.harness", "hedge_update"),
    ("harness.backward", "bodl.harness", "backward"),
    ("harness.apply_update", "bodl.harness", "apply_update"),
    ("harness.adapt_on_drift", "bodl.harness", "adapt_on_drift"),
    ("harness.update_metrics", "bodl.harness", "update_metrics"),
    ("drift.observe", "bodl.drift", "observe"),
    ("hedge_net.adam_step", "bodl.hedge_net", "adam_step"),
    ("memory.maybe_insert", "bodl.memory", "EpisodicMemory.maybe_insert"),
    ("streams.standardize", "bodl.streams", "Standardizer.standardize"),
    ("baselines.step", "bodl.baselines", "LinearBaseline.step"),
    ("bilevel.inner_adapt", "bodl.bilevel", "inner_adapt"),
    ("bilevel.lookahead", "bodl.bilevel", "lookahead"),
    ("bilevel.outer_interpolate", "bodl.bilevel", "outer_interpolate"),
    ("bilevel.params_distance", "bodl.bilevel", "params_distance"),
    ("bilevel.forward", "bodl.bilevel", "forward"),
    ("bilevel.backward", "bodl.bilevel", "backward"),
    ("bilevel.sgd_step", "bodl.bilevel", "sgd_step"),
)
ROOT = "harness.prequential_run"
NETWORK_MODULES = ("bodl.hedge_net", "bodl.bilevel")


def _resolve(module: str, path: str):
    """(owner, attribute name, current value), or None if any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """Installs the hooks, records spans and counts, and restores on exit."""

    def __init__(self):
        self.names = [ROOT] + [name for name, _, _ in HOOKS]
        self.network = np.zeros(len(self.names), dtype=bool)
        self.missing: list[str] = []
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.instance = array("q")
        self.scale = array("d")
        self.stack = [-1]
        self.stamps = array("q")    # the traced source's hand-over stamps
        self.offered = 0             # reservoir offers seen by the hook
        self.kept = 0                # offers that entered the reservoir
        self._undo = []

    # -- hooks ---------------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for nid, (name, module, path) in enumerate(HOOKS, start=1):
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            self.network[nid] = getattr(fn, "__module__", "") in NETWORK_MODULES
            wrapped = self._wrap(nid, fn)
            if name == "memory.maybe_insert":
                wrapped = self._count_kept(wrapped)
            own = attr in vars(owner)
            self._undo.append((owner, attr, fn, own))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, fn, own in reversed(self._undo):
            if own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)
        self._undo = []

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.instance.append(len(self.stamps) - 1)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, nid: int, fn):
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
        traced.__wrapped__ = fn
        return traced

    def _count_kept(self, wrapped):
        """Counts reservoir offers that were kept, outside the timed span."""
        def traced(memory, inst, *args, **kwargs):
            items = getattr(memory, "items", None)
            before = len(items) if items is not None else 0
            result = wrapped(memory, inst, *args, **kwargs)
            if items is not None:
                self.offered += 1
                if len(items) > before or any(x is inst for x in items):
                    self.kept += 1
            return result
        return traced

    # -- root span around one prequential_run call ----------------------------

    def begin_pass(self, stamps: array) -> int:
        self.stamps = stamps
        return self._open(0)

    def end_pass(self, root: int) -> None:
        self._close(root)
        self.stamps = array("q")

    def scale_pass(self, root: int, step_factor: np.ndarray, setup_factor: float,
                   root_ref_ns: float) -> None:
        """Give the pass's spans their instance's speed factor; the root span,
        which covers many instances and the probes, is set to root_ref_ns."""
        inst = np.array(self.instance[root:], dtype=np.int64)
        f = np.where(inst >= 0, step_factor[np.maximum(inst, 0)], setup_factor)
        f[0] = root_ref_ns / (self.end[root] - self.start[root])
        self.scale.extend(f.tolist())

    # -- analysis --------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "instance": np.array(self.instance, dtype=np.int64),
            "scale": np.array(self.scale, dtype=np.float64),
        }

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total ns, self ns) at reference speed. Self
        time is the span's duration minus that of its direct children; calls
        nest strictly on one thread, so children never overlap."""
        a = self.arrays()
        dur = (a["end"] - a["start"]) * a["scale"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=dur - child, minlength=k)
        return {n: (int(calls[j]), float(total[j]), float(own[j]))
                for j, n in enumerate(self.names)}

    def network_spans(self) -> int:
        """Spans whose callee is defined in hedge_net or bilevel."""
        a = self.arrays()
        return int(np.count_nonzero(self.network[a["name"]]))

    def save(self, path) -> None:
        np.savez(path, **self.arrays())
