"""In-memory span tracer and the layer map of the simulator.

The tracer wraps public entry points of each layer at class level, so it
must be installed before any FTL or replay driver is built (several of
them bind methods at construction).  Every wrapped call appends one span
(layer, parent span, start, end) to flat arrays; nothing is aggregated on
the hot path.  :meth:`Tracer.summary` derives each layer's self time as
its spans' duration minus the part covered by their child spans.

Only the installing process records: a process forked from it (the
experiment pool's workers) runs the wrappers as plain pass-throughs.
"""

from __future__ import annotations

import functools
import os
import time
import weakref
from array import array
from pathlib import Path

import numpy as np

#: Layer names whose spans count as replay-driver entries (their
#: ``:suffix`` variants are nested parts of the same layer).
REPLAY_LAYER = "sim"


class Tracer:
    """Flat span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        #: Entry points the layer map names but this tree lacks.
        self.missing: list[str] = []
        self.enabled = False
        ref = weakref.ref(self)

        def disable_in_child() -> None:
            tracer = ref()
            if tracer is not None:
                tracer.enabled = False

        os.register_at_fork(after_in_child=disable_in_child)

    def _layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.layers)
            self.layers.append(name)
        return self._ids[name]

    def count(self, name: str) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + 1

    def wrap(self, fn, layer: str):
        """``fn`` recording one span per call while the tracer is enabled."""
        lid = self._layer_id(layer)
        layers, parents, starts, ends = self.layer, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(layers)
            layers.append(lid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def patch(self, owner, attr: str, layer: str, adapt=None) -> None:
        """Replace ``owner.attr`` by its traced form (``adapt`` first
        wraps the plain function, e.g. to count outcomes)."""
        raw = vars(owner).get(attr)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw
        if adapt is not None:
            fn = adapt(fn)
        new = self.wrap(fn, layer)
        setattr(owner, attr, classmethod(new) if is_cm else new)
        self._patched.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()
        self.enabled = False

    def mark(self) -> int:
        """Span index where the next recorded span will land."""
        return len(self.layer)

    def summary(self, lo: int = 0, hi: "int | None" = None) -> dict:
        """Per layer: ``calls``, ``entries`` (spans whose parent belongs to
        another layer) and ``self_s``, over spans ``lo:hi``.  Layers named
        ``x:part`` fold into ``x`` but never count as its entries."""
        n = len(self.layer)
        hi = n if hi is None else hi
        out: dict[str, dict] = {}
        if n == 0 or hi <= lo:
            return out
        layer = np.frombuffer(self.layer, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_t = dur - child
        report = [name.split(":")[0] for name in self.layers]
        report_id = np.array([self._ids.get(r, i) for i, r in enumerate(report)])
        is_part = np.array([":" in name for name in self.layers])
        own_report = report_id[layer]
        entry = ~is_part[layer] & (
            ~has_parent | (report_id[layer[parent]] != own_report))
        for lid in np.unique(layer[lo:hi]):
            sel = layer[lo:hi] == lid
            stats = out.setdefault(report[lid], {"calls": 0, "entries": 0,
                                                 "self_s": 0.0})
            stats["calls"] += int(sel.sum())
            stats["entries"] += int(entry[lo:hi][sel].sum())
            stats["self_s"] += float(self_t[lo:hi][sel].sum())
        return out

    def dump(self, path: Path) -> None:
        """Write every span to ``path`` (``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, layers=np.array(self.layers, dtype=str),
                 layer=np.frombuffer(self.layer, dtype=np.intc),
                 parent=np.frombuffer(self.parent, dtype=np.intc),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def _defining(classes, attr: str) -> list:
    """Every class in ``classes`` or their bases that defines ``attr``
    itself (so an override and the base it calls both get a span)."""
    seen: list = []
    for cls in classes:
        for klass in cls.__mro__:
            if attr in vars(klass) and klass not in seen:
                seen.append(klass)
    return seen


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (see README.md for the map)."""
    from repro import SCHEMES
    from repro.experiments.cache import ResultCache
    from repro.frontend.cache import WriteBuffer
    from repro.frontend.scheduler import MultiQueueScheduler
    from repro.frontend.simulate import FrontendSimulator
    from repro.ftl import victim
    from repro.ftl.gc import GarbageCollector
    from repro.nand.flash import FlashArray
    from repro.sim.simulator import SimulationResult, Simulator
    from repro.traces.synth import SyntheticTraceGenerator

    schemes = list(SCHEMES.values())
    policies = [c for c in vars(victim).values()
                if isinstance(c, type) and "select_indexed" in vars(c)]

    def count_hits(fn):
        def get(self, key):
            payload = fn(self, key)
            tracer.count("experiments.cache.hits" if payload is not None
                         else "experiments.cache.misses")
            return payload
        return get

    for owner, attr in ((Simulator, "run"), (Simulator, "run_closed"),
                        (FrontendSimulator, "run")):
        tracer.patch(owner, attr, REPLAY_LAYER)
    # The scheduler's issue callback prices ops on the simulator's
    # resources: replay-driver work, not scheduler work.
    tracer.patch(FrontendSimulator, "_issue", REPLAY_LAYER + ":issue")
    for attr, layer in (("handle_write", "ftl.handle_write"),
                        ("handle_read", "ftl.handle_read"),
                        ("write", "ftl.place"),
                        ("program_subpages", "nand.program")):
        for cls in _defining(schemes, attr):
            if not getattr(vars(cls)[attr], "__isabstractmethod__", False):
                tracer.patch(cls, attr, layer)
    tracer.patch(GarbageCollector, "maybe_collect", "ftl.gc")
    for cls in policies:
        tracer.patch(cls, "select_indexed", "ftl.victim")
    for attr in ("read_list", "read_span", "invalidate_many", "erase"):
        tracer.patch(FlashArray, attr, f"nand.{attr}")
    for attr in ("submit", "advance", "drain"):
        tracer.patch(MultiQueueScheduler, attr, "frontend.sched")
    for attr in ("write", "split_read", "expire", "drain"):
        tracer.patch(WriteBuffer, attr, "frontend.buffer")
    tracer.patch(SyntheticTraceGenerator, "generate", "traces.synth")
    tracer.patch(ResultCache, "get", "experiments.cache.get", adapt=count_hits)
    tracer.patch(ResultCache, "put", "experiments.cache.put")
    tracer.patch(SimulationResult, "to_dict", "experiments.result_io")
    tracer.patch(SimulationResult, "from_dict", "experiments.result_io")
