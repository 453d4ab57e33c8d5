"""Span tracing for the benchmark's traced runs.

Wrappers are installed on the names the package looks up at call time
(module attributes and class attributes), record one span per call and are
removed again afterwards; nothing under ``src/`` is edited.  Spans live in
compact arrays in memory and are written out once, at the end of a run.

A span is (name, start, end, parent).  A layer's self time is its span's
duration minus the durations of its direct child spans: the program is
single-threaded, so children nest inside their parent and never overlap.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np


class Tracer:
    """In-memory span recorder plus named event counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add_span(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span; returns its index (used by the tests)."""
        idx = len(self.name_id)
        self.name_id.append(self._id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return idx

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``observe(result, args)`` runs after the span has closed, so the
        bookkeeping it does is not charged to the layer.
        """
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result, args)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total time ``s``, ``self_s`` and ``calls``."""
        n = len(self.name_id)
        if n == 0:
            return {}
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=n)
        self_time = dur - child_time
        k = len(self.names)
        total = np.bincount(name_id, weights=dur, minlength=k)
        total_self = np.bincount(name_id, weights=self_time, minlength=k)
        calls = np.bincount(name_id, minlength=k)
        return {name: {"s": float(total[i]), "self_s": float(total_self[i]),
                       "calls": int(calls[i])}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


class Patcher:
    """Replaces attributes and restores the originals, in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every layer boundary the per-layer metrics are built from."""
    from clocksync import analysis, engine, experiments, sync, topology

    c = tracer.counters

    def span(owner, attr, name, observe=None):
        original = getattr(owner, attr)
        patcher.replace(owner, attr, tracer.wrap(name, original, observe))

    def count_deliveries(result, _args):
        c["engine.deliveries"] += len(result)

    def count_attempts(result, _args):
        c["engine.out_arc_attempts"] += len(result)

    def count_updates(result, _args):
        c["sync.drift_updates"] += result.drift_updated
        c["sync.first_messages"] += result.first_message

    def count_csv_bytes(_result, args):
        c["engine.Trace.to_csv.bytes"] += os.path.getsize(args[1])

    def count_trace(result, _args):
        tr = result.trace
        c["engine.updates"] += result.updates
        c["engine.trace_bytes"] += sum(
            a.nbytes for a in (tr.t, tr.receiver, tr.sender, tr.k,
                               tr.a_hat, tr.b_hat, tr.c_hat))

    # Names the engine imported into its own namespace.
    span(engine, "substream", "streams.substream")
    span(engine, "read_local_time", "clock.read_local_time")
    span(engine, "sample_delay", "clock.sample_delay")
    span(engine, "broadcast", "engine.broadcast", count_deliveries)
    span(engine, "run", "engine.run", count_trace)

    schedule_ticks = engine.schedule_ticks

    def counted_ticks(net, seed):
        for tick in schedule_ticks(net, seed):
            c["engine.ticks"] += 1
            yield tick

    patcher.replace(engine, "schedule_ticks", counted_ticks)

    span(sync.SyncState, "process_message", "sync.process_message", count_updates)
    span(topology.Network, "out_neighbors", "topology.out_neighbors", count_attempts)
    span(topology.Network, "save", "topology.Network.save")
    load = vars(topology.Network)["load"].__func__
    patcher.replace(topology.Network, "load",
                    classmethod(tracer.wrap("topology.Network.load", load)))
    span(topology, "generate_geometric", "topology.generate_geometric")
    span(engine.Trace, "to_csv", "engine.Trace.to_csv", count_csv_bytes)
    span(analysis.Metrics, "to_csv", "analysis.Metrics.to_csv")
    for fn in ("metrics", "fixed_point_residual", "spectral_check",
               "lyapunov_solve", "rate_bound"):
        span(analysis, fn, f"analysis.{fn}")
    for fn in ("run_single", "run_experiment", "report", "run_scaling"):
        span(experiments, fn, f"experiments.{fn}")


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    patcher = Patcher()
    try:
        install(tracer, patcher)
        yield tracer
    finally:
        patcher.restore()
