"""Span tracing at the simulator's layer boundaries, from outside ``src/``.

:meth:`Tracer.install` replaces each boundary method on its class with
a wrapper that times (or only counts) the call; :meth:`Tracer.uninstall`
restores the originals.  The program's source is never edited; the
wrappers call straight through and return the original result, so a
traced run simulates exactly what an untraced one does (the benchmark
checks this by comparing results digests).

Three kinds of span:

* **coarse** -- a few per simulation point (``run_point``, network
  build, workload install, each ``Environment.run`` chunk, the window
  finish, cache get/put, a served job).  Each is kept in memory as a
  record: id, name, start, end, self time, the id of the span that
  caused it, and the point it belongs to.
* **fine** -- once per simulated cycle (engine steps).  Keeping one
  record per call would cost more memory than the simulation, so each
  is folded into an aggregate per (point, name): count, total and self
  time.
* **leaf** -- aggregated like fine spans, for boundaries that call no
  other traced boundary (offers, routing, transmits), so the wrapper
  opens no frame and costs about half as much.

Self time is a span's duration minus the time its child spans cover.
Boundaries in :data:`COUNT_ONLY` are counted but never timed: timing a
call that short would mostly measure the timer.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

clock = time.perf_counter

#: (module, class, method, span name, kind) of every timed boundary;
#: kinds are explained in :meth:`Tracer.timed`.
TIMED = (
    ("repro.experiments.runner", None, "run_point", "run_point", "coarse"),
    ("repro.experiments.config", "NetworkConfig", "build", "network.build", "coarse"),
    ("repro.traffic.workload", "Workload", "install", "traffic.install", "coarse"),
    ("repro.sim.core", "Environment", "run", "sim.run", "coarse"),
    ("repro.metrics.collector", "MeasurementWindow", "finish", "metrics.finish", "coarse"),
    ("repro.serve.cache", "ResultCache", "get", "cache.get", "coarse"),
    ("repro.serve.cache", "ResultCache", "put", "cache.put", "coarse"),
    ("repro.serve.service", "SweepService", "run_job_sync", "serve.job", "coarse"),
    ("repro.wormhole.engine", "WormholeEngine", "step_cycle", "engine.step", "fine"),
    ("repro.wormhole.engine", "WormholeEngine", "offer", "traffic.offer", "leaf"),
    ("repro.wormhole.network", "*SimNetwork", "candidates", "routing.candidates", "leaf"),
    ("repro.wormhole.network", "*SimNetwork", "preferred_lane", "routing.preferred_lane", "leaf"),
    ("repro.wormhole.channel", "PhysChannel", "transmit", "channel.transmit", "leaf"),
)

#: Boundaries the tracer counts without timing (reported in the output).
COUNT_ONLY = ("Lane.acquire",)


class Patches:
    """Class attributes replaced by wrappers, and how to put them back."""

    def __init__(self) -> None:
        self._undo: list = []

    def patch(self, owner, attr: str, wrapper) -> None:
        """Set ``owner.attr`` (a class or module) to ``wrapper``."""
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class PointProbe(Patches):
    """Per-point counters read at the measurement window's edges.

    Installed in timed and traced runs alike: it adds two calls per
    simulation point, nothing per cycle.  ``begin`` sees the warm-up
    deliveries just before the window resets them; ``finish`` reads
    the engine's and kernel's public counters at the end of the point.
    """

    def __init__(self) -> None:
        super().__init__()
        self.points: list[dict] = []

    def install(self) -> "PointProbe":
        from repro.metrics.collector import MeasurementWindow

        begin = vars(MeasurementWindow)["begin"]
        finish = vars(MeasurementWindow)["finish"]
        points = self.points

        def probed_begin(window):
            stats = window.engine.stats
            window._probe = {
                "warmup_flits": stats.delivered_flits,
                "warmup_packets": stats.delivered_packets,
            }
            return begin(window)

        def probed_finish(window):
            m = finish(window)
            engine = window.engine
            env = engine.env
            points.append({
                **window._probe,
                "network": engine.network.kind.value,
                "cycles": env.now,
                "cycles_run": engine.cycles_run,
                "events_fired": env.events_fired,
                "events_scheduled": env.events_scheduled,
                "max_heap_depth": env.max_heap_depth,
                "records": len(engine.stats.records),
            })
            return m

        self.patch(MeasurementWindow, "begin", probed_begin)
        self.patch(MeasurementWindow, "finish", probed_finish)
        return self


class Tracer(Patches):
    """In-memory span store for every boundary in :data:`TIMED`."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list = []   # coarse: (id, name, start, end, self, parent id, point)
        self.fine: dict = {}    # (point, name) -> [count, total, self]
        self.counts: dict = {"alloc.injections": 0, "alloc.grants": 0}
        self._point = None
        self._acc: dict = {}    # name -> [count, total, self] of the current point
        self._stack: list = []  # open coarse/fine frames: [name, start, child time, id]
        self._next_id = 0

    @property
    def point(self):
        """Label of the simulation point now running (spans carry it)."""
        return self._point

    @point.setter
    def point(self, label) -> None:
        self._flush()
        self._point = label

    def _flush(self) -> None:
        """Fold the current point's fine aggregates into :attr:`fine`."""
        for name, acc in self._acc.items():
            if acc[0]:
                agg = self.fine.setdefault((self._point, name), [0, 0.0, 0.0])
                for i in range(3):
                    agg[i] += acc[i]
                acc[:] = [0, 0.0, 0.0]

    def reset(self) -> None:
        """Drop every recorded span (a forked worker starts clean)."""
        for acc in self._acc.values():
            acc[:] = [0, 0.0, 0.0]
        self.spans.clear()
        self.fine.clear()
        for name in self.counts:
            self.counts[name] = 0
        self._stack.clear()
        # Span ids stay unique when worker dumps merge into the parent.
        self._next_id = os.getpid() << 32

    # ------------------------------------------------------------ wrappers

    def timed(self, name: str, fn, kind: str = "coarse"):
        """``fn`` wrapped to record a span named ``name`` per call.

        ``kind`` is ``"coarse"`` (one record per call), ``"fine"``
        (aggregated per point) or ``"leaf"`` (aggregated, and cheaper:
        a leaf calls no other traced boundary, so it opens no frame).
        """
        stack = self._stack
        acc = self._acc.setdefault(name, [0, 0.0, 0.0])

        if kind == "leaf":
            def leaf(*args):
                t0 = clock()
                result = fn(*args)
                dur = clock() - t0
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur
                if stack:
                    stack[-1][2] += dur
                return result

            leaf.__wrapped__ = fn
            return leaf

        spans = self.spans
        tracer = self
        coarse = kind == "coarse"

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, 0.0, None]
            if coarse:
                tracer._next_id += 1
                frame[3] = tracer._next_id
            stack.append(frame)
            frame[1] = t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][2] += dur
                if coarse:
                    parent = stack[-1][3] if stack else None
                    spans.append((frame[3], name, t0, t1, dur - frame[2], parent, tracer._point))
                else:
                    acc[0] += 1
                    acc[1] += dur
                    acc[2] += dur - frame[2]

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_acquire(self, fn):
        counts = self.counts

        def acquire(lane, packet):
            # A packet holding no lane yet is being injected; any other
            # acquire is a routed grant that followed a candidates call.
            if packet.lanes:
                counts["alloc.grants"] += 1
            else:
                counts["alloc.injections"] += 1
            return fn(lane, packet)

        acquire.__wrapped__ = fn
        return acquire

    def install(self) -> "Tracer":
        """Wrap every boundary in :data:`TIMED` and :data:`COUNT_ONLY`."""
        import importlib

        from repro.wormhole.channel import Lane

        for module_name, cls_name, attr, name, kind in TIMED:
            module = importlib.import_module(module_name)
            for owner in _owners(module, cls_name, attr):
                fn = vars(owner)[attr]
                self.patch(owner, attr, self.timed(name, fn, kind))
        self.patch(Lane, "acquire", self._count_acquire(vars(Lane)["acquire"]))
        # repro.serve.compute binds run_point by name at import time.
        import repro.experiments.runner as runner
        import repro.serve.compute as compute

        self.patch(compute, "run_point", runner.run_point)
        return self

    # ------------------------------------------------------------ summaries

    def totals(self) -> dict:
        """name -> {"count", "total_s", "self_s"} over every span."""
        self._flush()
        out: dict = {}

        def add(name, n, total, self_s):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += n
            row["total_s"] += total
            row["self_s"] += self_s

        for _sid, name, t0, t1, self_s, _parent, _point in self.spans:
            add(name, 1, t1 - t0, self_s)
        for (_point, name), (n, total, self_s) in self.fine.items():
            add(name, n, total, self_s)
        for name, n in self.counts.items():
            add(name, n, 0.0, 0.0)
        return out

    def dump(self) -> dict:
        """The JSON-ready record of every span (see :meth:`merge`)."""
        self._flush()
        return {
            "spans": [list(s) for s in self.spans],
            "fine": [[point, name, *agg] for (point, name), agg in self.fine.items()],
            "counts": dict(self.counts),
        }

    def merge(self, record: dict) -> None:
        """Fold a :meth:`dump` from another process into this tracer."""
        self.spans.extend(tuple(s) for s in record["spans"])
        for point, name, n, total, self_s in record["fine"]:
            agg = self.fine.setdefault((point, name), [0, 0.0, 0.0])
            agg[0] += n
            agg[1] += total
            agg[2] += self_s
        for name, n in record["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + n

    def write(self, path: Path, extra: dict) -> None:
        """Write every span out (called once, when the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "count_only": list(COUNT_ONLY), **self.dump()}))


def _owners(module, cls_name, attr):
    """The module or classes whose own namespace defines ``attr``.

    ``"*Base"`` names a base class: the base and every loaded subclass
    that overrides the method are patched (``candidates`` is defined
    per network family).
    """
    if cls_name is None:
        return [module]
    if not cls_name.startswith("*"):
        return [getattr(module, cls_name)]
    found, todo = [], [getattr(module, cls_name[1:])]
    while todo:
        cls = todo.pop()
        if attr in vars(cls):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found
