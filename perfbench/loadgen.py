"""Open-loop load generator and feed subscriber: one thread, two connections.

Every sentence has a due time fixed by its rung's offered rate; the
generator writes whatever is due, whether or not the system keeps up,
and records when each batch was actually written.  Latency is counted
from the due time, so a stall in the system also delays everything
queued behind it.  When the generator itself falls behind (median
lateness over :data:`~perfbench.spec.GENERATOR_LATENESS_P50_LIMIT_MS`)
the rung is invalid: neither sustained nor failed.

Freshness of slide *k* runs from the due time of the sentence that
closes it (the first sentence stamped after the slide's query time) to
the moment the subscriber reads slide *k*'s feed line.
"""

import asyncio
import bisect
import json
import time
from dataclasses import dataclass, field

from perfbench import spec
from perfbench.trace import quantile

#: Stream reader limit: one slide line carries every fresh critical point.
FEED_LINE_LIMIT = 1 << 26
#: Longest wait for the system to publish a rung's last slide.
CATCH_UP_TIMEOUT_S = 60.0
#: Shortest pause between writes; at high rates each write carries
#: every sentence that fell due meanwhile.
MIN_SLEEP_S = 0.0005


@dataclass
class Rung:
    """One step of offered load: sentences ``[start, stop)`` at ``rate``."""

    rate: float
    start: int
    stop: int
    #: Due time of sentence ``start`` (perf_counter seconds).
    t0: float = 0.0
    #: ``(first index, end index, write time)`` of each write.
    writes: list = field(default_factory=list)

    def due(self, index: int) -> float:
        return self.t0 + (index - self.start) / self.rate


class Stream:
    """The run's sentences, pre-encoded for the wire, with slide closers."""

    def __init__(self, sentences: list[tuple[int, str]], slide_seconds: int):
        self.timestamps = [ts for ts, _ in sentences]
        encoded = [f"{ts}\t{s}\n".encode("ascii") for ts, s in sentences]
        self.offsets = [0]
        for line in encoded:
            self.offsets.append(self.offsets[-1] + len(line))
        self.blob = b"".join(encoded)
        self.slide_seconds = slide_seconds

    def closer(self, query_time: int) -> int:
        """Index of the sentence that closes the slide at ``query_time``."""
        return bisect.bisect_right(self.timestamps, query_time)

    def last_closed_slide(self, stop: int) -> int:
        """Query time of the last slide closed by a sentence before ``stop``."""
        slide = self.slide_seconds
        return ((self.timestamps[stop - 1] - 1) // slide) * slide


class Feed:
    """The subscriber: reads slide lines, stamping each on arrival."""

    def __init__(self, reader: asyncio.StreamReader):
        self.reader = reader
        #: ``(read time, raw line)`` in arrival order.
        self.lines: list[tuple[float, str]] = []
        self.latest_slide = -1
        self._arrived = asyncio.Event()

    async def run(self) -> None:
        while True:
            raw = await self.reader.readline()
            if not raw:
                break
            now = time.perf_counter()
            line = raw.decode("utf-8").rstrip("\n")
            self.lines.append((now, line))
            payload = json.loads(line)
            if payload.get("type") == "slide":
                self.latest_slide = max(
                    self.latest_slide, payload["query_time"]
                )
            self._arrived.set()
        self._arrived.set()

    async def wait_for_slide(self, query_time: int) -> bool:
        """Wait until the slide at ``query_time`` (or a later one) arrived."""
        deadline = time.perf_counter() + CATCH_UP_TIMEOUT_S
        while self.latest_slide < query_time:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.reader.at_eof():
                return False
            self._arrived.clear()
            try:
                await asyncio.wait_for(self._arrived.wait(), remaining)
            except asyncio.TimeoutError:
                return False
        return True


async def send_rung(writer: asyncio.StreamWriter, stream: Stream, rung: Rung):
    """Write the rung's sentences on their schedule, never waiting for
    the system: the transport buffers whatever the socket cannot take."""
    index = rung.start
    rung.t0 = time.perf_counter()
    while index < rung.stop:
        now = time.perf_counter()
        due = rung.start + int((now - rung.t0) * rung.rate) + 1
        end = min(rung.stop, due)
        if end > index:
            writer.write(stream.blob[stream.offsets[index]:stream.offsets[end]])
            rung.writes.append((index, end, now))
            index = end
        if index < rung.stop:
            # Never spin: the generator shares the host with the system.
            await asyncio.sleep(
                max(MIN_SLEEP_S, rung.due(index) - time.perf_counter())
            )


def lateness_ms(rung: Rung) -> list[float]:
    """Per sentence: write time minus due time, in ms."""
    values = []
    for first, end, written in rung.writes:
        values.extend(
            (written - rung.due(i)) * 1000.0 for i in range(first, end)
        )
    return values


def slide_samples(feed: Feed, stream: Stream, rungs: list[Rung], sent: int):
    """``(rung index, closer, freshness ms, read time)`` per slide line
    closed by a sentence that was sent (the drain closes the last one)."""
    starts = [rung.start for rung in rungs]
    samples = []
    for read_at, line in feed.lines:
        payload = json.loads(line)
        if payload.get("type") != "slide":
            continue
        closer = stream.closer(payload["query_time"])
        if closer >= sent:
            continue
        which = bisect.bisect_right(starts, closer) - 1
        rung = rungs[which]
        samples.append(
            (which, closer, (read_at - rung.due(closer)) * 1000.0, read_at)
        )
    return samples


def evaluate(rung: Rung, samples: list[tuple]) -> dict:
    """Is the rung sustained?  Freshness p99 within the limit, backlog
    not growing; invalid when the generator fell behind."""
    fresh = [f for _, _, f, _ in samples]
    late = lateness_ms(rung)
    late_p50 = quantile(late, 0.5)
    result = {
        "rate": rung.rate,
        "sentences": rung.stop - rung.start,
        "slides": len(fresh),
        "freshness_p50_ms": quantile(fresh, 0.5),
        "freshness_p99_ms": quantile(fresh, 0.99),
        "generator_lateness_p50_ms": late_p50,
        "generator_lateness_p99_ms": quantile(late, 0.99),
        "valid": late_p50 <= spec.GENERATOR_LATENESS_P50_LIMIT_MS,
        "freshness_ms": [round(f, 3) for _, _, f, _ in sorted(samples)],
    }
    if len(samples) < 8:
        result.update(sustained=False, backlog_growth=None, throughput=None)
        return result
    quarter = len(samples) // 4
    ordered = sorted(samples, key=lambda s: s[1])
    head = [f for _, _, f, _ in ordered[:quarter]]
    tail = [f for _, _, f, _ in ordered[-quarter:]]
    growth = (quantile(tail, 0.5) - quantile(head, 0.5)) / 1000.0 * rung.rate
    per_slide = result["sentences"] / len(samples)
    _, last_closer, _, last_read = ordered[-1]
    result["backlog_growth"] = growth
    result["throughput"] = (last_closer - rung.start) / (last_read - rung.t0)
    result["sustained"] = (
        result["freshness_p99_ms"] <= spec.FRESHNESS_P99_LIMIT_MS
        and growth <= spec.BACKLOG_GROWTH_SLIDES * per_slide
    )
    return result
