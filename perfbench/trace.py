"""Span tracing around the public entry points of each layer.

:func:`install` wraps methods of the program's classes from here, in the
benchmark's own files; no source under ``src/`` records anything.  Each
call becomes a span ``(id, name, start, end, parent, slide)``: the
parent is the enclosing span on the same thread and the slide is the
query time of the pipeline slide in progress (or last started, for the
event-loop spans that run between slides).  Spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of a run.

Counts are taken at the same boundaries (positions per batch, candidate
and close pairs per spatial query, bytes per feed line), so ratios are
measured where the work happens.
"""

import asyncio
import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict

#: ``(span name, module, class, method)`` of every traced entry point.
SPANS = (
    ("ais.scan", "repro.ais.scanner", "DataScanner", "scan"),
    ("wal.append", "repro.resilience.wal", "IngestJournal", "append"),
    ("wal.sync", "repro.resilience.wal", "IngestJournal", "sync"),
    ("state.update", "repro.service.state", "VesselStateStore", "update"),
    ("feed.publish", "repro.service.feed", "FeedHub", "publish"),
    ("gateway.route", "repro.gateway.routing", "SentenceRouter", "route"),
    ("pipeline.slide", "repro.pipeline.system", "SurveillanceSystem",
     "process_slide"),
    ("tracking.process_batch", "repro.tracking.columnar", "ColumnarTracker",
     "process_batch"),
    ("tracking.process_batch", "repro.tracking.tracker", "MobilityTracker",
     "process_batch"),
    ("tracking.compressor", "repro.tracking.compressor", "Compressor",
     "slide"),
    ("mod.stage", "repro.mod.database", "MovingObjectDatabase",
     "stage_points"),
    ("mod.reconstruct", "repro.mod.database", "MovingObjectDatabase",
     "reconstruct"),
    ("recognition.ingest", "repro.maritime.recognizer", "MaritimeRecognizer",
     "ingest"),
    ("recognition.step", "repro.maritime.recognizer", "MaritimeRecognizer",
     "step"),
    ("spatial.observe", "repro.maritime.pairwise.monitor", "PairwiseMonitor",
     "observe"),
    ("spatial.close_pairs", "repro.spatial.grid", "SlideGridIndex",
     "close_pairs"),
)


def _resolve(module: str, name: str):
    import importlib

    return getattr(importlib.import_module(module), name)


class Tracer:
    """In-memory span recorder plus the counters taken at span boundaries."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: Per-object gauges (one tracker or store each), summed on read.
        self.gauges: dict[str, dict[int, int]] = defaultdict(dict)
        self.slide: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: id(system) -> id(ingest queue) of each service runtime, and
        #: id(queue) -> enqueue time of the item it handed out last.
        self._queue_of: dict[int, int] = {}
        self._last_enqueued: dict[int, float] = {}

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, owner, attr: str, after=None) -> None:
        """Record a span around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, name, start, end, parent, tracer.slide)
                )
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    # -- installation ---------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every entry point in :data:`SPANS` plus the queue hooks.

        The wrappers replace class attributes for the rest of the
        process, so install only in the process under test."""
        hooks = {
            "feed.publish": self._after_publish,
            "state.update": self._after_state,
            "tracking.process_batch": self._after_batch,
            "tracking.compressor": self._after_compressor,
            "mod.reconstruct": self._after_reconstruct,
            "recognition.step": self._after_step,
            "spatial.close_pairs": self._after_close_pairs,
        }
        for name, module, cls, method in SPANS:
            owner = _resolve(module, cls)
            if name == "pipeline.slide":
                self._wrap_slide(owner)
            else:
                self.wrap(name, owner, method, hooks.get(name))
        self._wrap_queue()
        self._wrap_fanin()
        return self

    def _wrap_slide(self, owner) -> None:
        """``process_slide`` also sets the slide id and measures how long
        the slide waited since its closing sentence reached the queue."""
        self.wrap("pipeline.slide", owner, "process_slide")
        traced = owner.process_slide
        tracer = self

        @functools.wraps(traced)
        def with_slide(system, batch, query_time):
            tracer.slide = query_time
            queue = tracer._queue_of.get(id(system))
            enqueued = tracer._last_enqueued.get(queue)
            if enqueued is not None:
                tracer.samples["pipeline.slide.wait"].append(
                    time.perf_counter() - enqueued
                )
            return traced(system, batch, query_time)

        owner.process_slide = with_slide

    def _wrap_queue(self) -> None:
        """Queue wait per dequeued sentence, and each runtime's queue."""
        queue_cls = _resolve("repro.service.ingest", "IngestQueue")
        get = queue_cls.get
        tracer = self

        @functools.wraps(get)
        async def traced_get(queue):
            item = await get(queue)
            if item is not None:
                now = time.perf_counter()
                tracer.samples["service.ingest.queue_wait"].append(
                    now - item[2]
                )
                tracer._last_enqueued[id(queue)] = item[2]
            return item

        queue_cls.get = traced_get
        supervisor_cls = _resolve(
            "repro.service.supervisor", "ServiceSupervisor"
        )
        init = supervisor_cls.__init__

        @functools.wraps(init)
        def traced_init(supervisor, *args, **kwargs):
            init(supervisor, *args, **kwargs)
            tracer._queue_of[id(supervisor.system)] = id(supervisor.queue)

        supervisor_cls.__init__ = traced_init

    def _wrap_fanin(self) -> None:
        """Fan-in hold: a runtime line's arrival to its merged emission."""
        import repro.gateway.fanin as fanin

        parse = fanin.parse_feed_line
        merge = fanin.merged_feed_line
        arrivals: dict[tuple, list[float]] = defaultdict(list)
        tracer = self

        def traced_parse(line):
            payload = parse(line)
            if isinstance(payload, dict):
                key = (payload.get("type"), payload.get("query_time"))
                arrivals[key].append(time.perf_counter())
            return payload

        def traced_merge(payloads):
            now = time.perf_counter()
            key = (payloads[0]["type"], payloads[0]["query_time"])
            for arrived in arrivals.pop(key, ()):
                tracer.samples["gateway.fanin.hold"].append(now - arrived)
            return merge(payloads)

        fanin.parse_feed_line = traced_parse
        fanin.merged_feed_line = traced_merge

    # -- counters at span boundaries -------------------------------------

    def _after_publish(self, args, result) -> None:
        self.counts["feed.bytes"] += len(args[1]) + 1

    def _after_state(self, args, result) -> None:
        self.gauges["state.vessels"][id(args[0])] = len(args[0])

    def _after_batch(self, args, result) -> None:
        self.counts["tracking.positions"] += len(args[1])
        self.counts["tracking.events"] += len(result)
        self.gauges["tracking.vessels"][id(args[0])] = args[0].vessel_count()

    def _after_compressor(self, args, result) -> None:
        self.counts["tracking.critical_points"] += len(result[0])

    def _after_reconstruct(self, args, result) -> None:
        self.counts["mod.trips"] += result

    def _after_step(self, args, result) -> None:
        self.counts["recognition.complex_events"] += (
            result.complex_event_count()
        )

    def _after_close_pairs(self, args, result) -> None:
        self.counts["spatial.candidate_pairs"] += args[0].candidates_examined
        self.counts["spatial.close_pairs"] += len(result)

    # -- reading out ----------------------------------------------------

    def gauge(self, name: str) -> int:
        return sum(self.gauges[name].values())

    def summary(self) -> dict:
        """Per span name: calls, busy and self seconds, p50/p99 in ms.

        Self time is a span's duration minus the time its direct child
        spans (same thread) cover.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, dict] = {}
        durations: dict[str, list[float]] = defaultdict(list)
        for span_id, name, start, end, _, _ in self.spans:
            entry = totals.setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            duration = end - start
            entry["calls"] += 1
            entry["busy_s"] += duration
            entry["self_s"] += duration - child_time.get(span_id, 0.0)
            durations[name].append(duration * 1000.0)
        for name, entry in totals.items():
            entry["p50_ms"] = quantile(durations[name], 0.5)
            entry["p99_ms"] = quantile(durations[name], 0.99)
        return totals

    def report(self) -> dict:
        """Everything the parent needs, reduced to numbers."""
        return {
            "spans": self.summary(),
            "counts": dict(self.counts),
            "samples_ms": {
                name: {
                    "n": len(values),
                    "p50": quantile(values, 0.5) * 1000.0,
                    "p99": quantile(values, 0.99) * 1000.0,
                }
                for name, values in self.samples.items()
            },
            "gauges": {name: self.gauge(name) for name in self.gauges},
        }

    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, slide in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "slide": slide,
                }) + "\n")


def quantile(values, q: float) -> float:
    """The ``q``-quantile with linear interpolation (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


async def loop_lag_probe(samples: list[float], interval: float = 0.005):
    """Record how late the event loop wakes a sleeper, until cancelled."""
    while True:
        start = time.perf_counter()
        await asyncio.sleep(interval)
        samples.append(time.perf_counter() - start - interval)
