"""In-memory spans and the wrappers that record them.

A :class:`SpanRecorder` keeps one row per span -- name, layer, start,
end, parent span and operation id -- in flat arrays, and computes each
span's self time (its duration minus its direct children) when asked.
:func:`install` wraps the program's public functions at class or module
level so every call records a span; :func:`uninstall` puts the originals
back.

Two rules keep the wrappers from changing what they measure:

* a call made while a span of the same layer is open on the same thread
  records nothing (a ``super()`` chain or a profile build's tracker pass
  is one piece of work, not two);
* nothing is wrapped on an instance, and disk-policy hooks are left
  alone, because the replay-mode selection inspects those by identity.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

#: (owner, attribute, original) -- what :func:`uninstall` restores.
Patch = Tuple[object, str, object]

MEMORY_RUN_METHODS = (
    "charge_hit_run", "charge_miss_run", "consume_hit_run", "consume_hit_run_rw",
)
MEMORY_ACCESS_METHODS = ("access", "access_rw", "charge_page_access")


class SpanRecorder:
    """Spans of every thread of one process, kept until the run ends."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> int:
        """Start a span; returns its index, or -1 when nothing is recorded."""
        if not self.active:
            return -1
        stack = self._stack()
        for _, open_layer in stack:
            if open_layer == layer:
                return -1
        with self._lock:
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self.names)
                self.names.append(name)
                self.layers.append(layer)
            index = len(self.start)
            self.name_id.append(name_id)
            self.start.append(time.perf_counter())
            self.end.append(float("nan"))
            self.parent.append(stack[-1][0] if stack else -1)
            self.op.append(self.op[stack[0][0]] if stack else index)
        stack.append((index, layer))
        return index

    def close(self, index: int) -> None:
        if index < 0:
            return
        now = time.perf_counter()
        stack = self._stack()
        while stack:
            if stack.pop()[0] == index:
                break
        self.end[index] = now

    def span(self, name: str, layer: str) -> "_Span":
        return _Span(self, name, layer)

    # --- read-out ---------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        duration = np.where(np.isnan(end), 0.0, end - start)
        children = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "duration": duration,
            "self": duration - children,
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        data = self.arrays()
        out: Dict[str, Dict[str, float]] = {}
        for name_id, name in enumerate(self.names):
            mask = data["name_id"] == name_id
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(data["duration"][mask].sum()),
                "self_s": float(data["self"][mask].sum()),
            }
        return out

    def share_by_root(self, child: str) -> Dict[str, Dict[str, float]]:
        """Per root-span name: count, total time, and the part spent in ``child``.

        A root span is one opened with no span open on its thread -- one
        operation; ``child`` spans belong to the operation sharing their
        operation id.
        """
        data = self.arrays()
        roots = data["parent"] < 0
        child_total = np.zeros(len(data["start"]))
        if child in self._name_ids:
            is_child = data["name_id"] == self._name_ids[child]
            np.add.at(child_total, data["op"][is_child], data["duration"][is_child])
        out: Dict[str, Dict[str, float]] = {}
        for index in np.flatnonzero(roots):
            row = out.setdefault(
                self.names[data["name_id"][index]], {"count": 0, "total_s": 0.0, "child_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += float(data["duration"][index])
            row["child_s"] += float(child_total[index])
        return out

    def write(self, path) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        data = self.arrays()
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            layers=np.array(self.layers, dtype=str),
            **data,
        )


class _Span:
    def __init__(self, recorder: SpanRecorder, name: str, layer: str) -> None:
        self._recorder = recorder
        self._name = name
        self._layer = layer
        self._index = -1

    def __enter__(self) -> "_Span":
        self._index = self._recorder.open(self._name, self._layer)
        return self

    def __exit__(self, *exc_info) -> None:
        self._recorder.close(self._index)


def _wrap(recorder: SpanRecorder, owner, attr: str, name: str, layer: str,
          patches: List[Patch]) -> None:
    original = getattr(owner, attr) if not isinstance(owner, type) else owner.__dict__[attr]

    @functools.wraps(original)
    def traced(*args, **kwargs):
        index = recorder.open(name, layer)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.close(index)

    setattr(owner, attr, traced)
    patches.append((owner, attr, original))


def _own_methods(base: type, attrs) -> List[Tuple[type, str]]:
    """(class, attr) for every class in ``base``'s tree defining ``attr`` itself."""
    found = []
    pending = [base]
    seen = set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        found.extend((cls, attr) for attr in attrs if attr in cls.__dict__)
    return found


def install(recorder: SpanRecorder) -> List[Patch]:
    """Wrap every traced entry point; returns the patches to undo."""
    import repro.cache.profile as profile_mod
    import repro.sim.audit as audit_mod
    import repro.sim.runner as runner_mod
    import repro.traces.suites as suites_mod
    from repro.cache.predictor import ResizePredictor
    from repro.cache.stack_distance import StackDistanceTracker
    from repro.core.joint import JointPowerManager
    from repro.disk.drive import SimDisk
    from repro.memory.system import MemorySystem
    from repro.service.sessions import SessionRegistry

    patches: List[Patch] = []
    _wrap(recorder, suites_mod, "build", "traces.build", "traces", patches)
    _wrap(recorder, profile_mod, "build_profile", "cache.build_profile", "cache", patches)
    _wrap(recorder, StackDistanceTracker, "access_array", "cache.tracker", "cache", patches)
    _wrap(recorder, ResizePredictor, "predict", "cache.predict", "cache.predict", patches)
    _wrap(recorder, runner_mod, "run_method", "sim.run_method", "sim", patches)
    _wrap(recorder, audit_mod, "assert_clean", "sim.audit", "sim.audit", patches)
    for cls, attr in _own_methods(MemorySystem, MEMORY_RUN_METHODS):
        _wrap(recorder, cls, attr, f"memory.run.{attr}", "memory.run", patches)
    for cls, attr in _own_methods(MemorySystem, MEMORY_ACCESS_METHODS):
        _wrap(recorder, cls, attr, f"memory.access.{attr}", "memory.access", patches)
    for cls, attr in _own_methods(SimDisk, ("submit",)):
        _wrap(recorder, cls, attr, "disk.submit", "disk", patches)
    for cls, attr in _own_methods(SimDisk, ("submit_run",)):
        _wrap(recorder, cls, attr, "disk.submit_run", "disk", patches)
    _wrap(recorder, JointPowerManager, "end_period", "core.end_period", "core", patches)
    _wrap(recorder, SessionRegistry, "feed", "service.feed", "service", patches)
    _wrap(recorder, SessionRegistry, "close", "service.close", "service", patches)
    return patches


def uninstall(patches: List[Patch]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


def merge_summaries(*summaries: Optional[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {}
    for summary in summaries:
        for name, row in (summary or {}).items():
            into = merged.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += row[key]
    return merged


def layer_total(summary: Dict[str, Dict[str, float]], prefix: str, key: str = "total_s") -> float:
    """Sum of ``key`` over span names equal to or starting with ``prefix.``."""
    return sum(
        row[key]
        for name, row in summary.items()
        if name == prefix or name.startswith(prefix + ".")
    )
