"""The system under test, run in a child process the benchmark launches.

Usage (by :mod:`perfbench.run` only)::

    python3 perfbench/sut.py '<json job>'

The job names a mode:

* ``offline`` — build a :class:`~repro.pipeline.system.SurveillanceSystem`,
  replay the cached positions slide by slide, finalize, and write the
  feed lines to ``job["lines"]``.
* ``service`` — serve one :class:`~repro.service.ServiceSupervisor` on
  ephemeral ports, write-ahead journal on (``fsync=batch``).
* ``gateway`` — serve a :class:`~repro.gateway.GatewayCluster` of one
  gateway and two runtimes, journals on.

The child talks to its parent in JSON lines: it prints ``ready`` once it
can take input (with ``load_s``, the seconds spent loading inputs, which
the parent subtracts from set-up time), and ``done`` with its own CPU
time, peak RSS and counters.  A served system reads commands on stdin:
``go`` (the parent has connected its feed subscriber; answered with
``subscribed`` once the system sees it), ``mark`` (answered with the CPU
seconds used since ready and the peak RSS so far) and ``stop`` (drain
and stop).  With ``job["trace"]`` the
:mod:`perfbench.trace` wrappers are installed first.
"""

import asyncio
import json
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def say(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def cpu_seconds() -> float:
    """CPU seconds of every thread of this process."""
    return time.process_time()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load(path: str):
    started = time.perf_counter()
    with open(path, "rb") as handle:
        value = pickle.load(handle)
    return value, time.perf_counter() - started


def run_offline(job, tracer) -> dict:
    from perfbench import calibrate, inputs
    from repro.ais.stream import StreamReplayer, TimedArrival
    from repro.pipeline.system import SurveillanceSystem
    from repro.service.protocol import slide_feed_line

    (specs, positions), load_s = load(job["inputs"])
    started = time.perf_counter()
    arrivals = [TimedArrival(p.timestamp, p) for p in positions]
    load_s += time.perf_counter() - started
    config = inputs.system_config(job["workload"])
    system = SurveillanceSystem(inputs.world(), specs, config)
    say("ready", load_s=load_s)

    # A calibration follows every slide, so that the slide's CPU time
    # can be scaled by how fast the core ran around it.
    lines, slide_ms, round_ms, cpu = [], [], [], 0.0
    replayer = StreamReplayer(arrivals, config.window.slide_seconds)
    for query_time, batch in replayer.batches():
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        lines.append(
            slide_feed_line(system.process_slide(batch, query_time), "slide")
        )
        slide_ms.append((time.perf_counter() - wall0) * 1000.0)
        cpu += cpu_seconds() - cpu0
        round_ms.append(calibrate.measure_ms(calibrate.ROUNDS_PER_SLIDE))
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    final = system.finalize()
    if final is not None:
        lines.append(slide_feed_line(final, "finalize"))
    wall = sum(slide_ms) / 1000.0 + time.perf_counter() - wall0
    cpu += cpu_seconds() - cpu0
    round_ms.append(calibrate.measure_ms(calibrate.ROUNDS_PER_SLIDE))
    system.database.close()
    with open(job["lines"], "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "round_ms": statistics.mean(round_ms),
        "positions": len(positions),
        "slide_ms": slide_ms,
        "counters": {},
    }


async def serve(job, tracer) -> dict:
    from perfbench import inputs
    from perfbench.trace import loop_lag_probe

    specs, load_s = load(job["inputs"])
    config = inputs.system_config(job["workload"])
    if job["mode"] == "gateway":
        target = await _start_gateway(job, specs, config)
    else:
        target = await _start_service(job, specs, config)
    say("ready", load_s=load_s, **target["ports"])

    loop = asyncio.get_running_loop()
    commands: asyncio.Queue = asyncio.Queue()
    # One readline per readable event is enough: the parent waits for the
    # answer to each command before it sends the next.
    loop.add_reader(
        sys.stdin.fileno(),
        lambda: commands.put_nowait(sys.stdin.readline().strip()),
    )
    probe = None
    lag: list[float] = []
    if tracer is not None:
        probe = asyncio.ensure_future(loop_lag_probe(lag))
    cpu0 = cpu_seconds()
    while True:
        command = await commands.get()
        if command == "go":
            while target["subscribers"]() < 1:
                await asyncio.sleep(0.002)
            say("subscribed")
        elif command == "mark":
            say("mark", cpu_s=cpu_seconds() - cpu0, peak_rss_mb=peak_rss_mb())
        elif command in ("stop", ""):  # "" is EOF: the parent went away
            break
        else:
            raise SystemExit(f"unexpected command {command!r}")
    while target["open_ingest"]():
        await asyncio.sleep(0.002)
    await target["stop"]()
    cpu = cpu_seconds() - cpu0
    loop.remove_reader(sys.stdin.fileno())
    if probe is not None:
        probe.cancel()
        try:
            await probe
        except asyncio.CancelledError:
            pass
    counters = target["counters"]()
    if tracer is not None:
        tracer.samples["service.loop_lag"] = lag
    return {"cpu_s": cpu, "counters": counters}


async def _start_service(job, specs, config) -> dict:
    from perfbench import inputs
    from repro.service import ServiceConfig, ServiceSupervisor

    supervisor = ServiceSupervisor(
        inputs.world(),
        specs,
        config,
        ServiceConfig(
            ingest_port=0,
            feed_port=0,
            http_port=0,
            wal_dir=job["wal"],
            wal_fsync="batch",
        ),
    )
    await supervisor.start()
    ports = supervisor.ports()

    def counters() -> dict:
        return {
            "ingested": supervisor.queue.put_count,
            "shed": supervisor.queue.shed_count,
            "rejected": supervisor.batcher.scanner.statistics.rejected,
            "feed_evictions": supervisor.feed.evicted_count,
            "pipeline_errors": supervisor.batcher.pipeline_errors,
        }

    return {
        "ports": {"ingest": ports["ingest"], "feed": ports["feed"]},
        "subscribers": lambda: supervisor.feed.subscriber_count,
        "open_ingest": lambda: supervisor.ingest.open_connections,
        "stop": supervisor.drain_and_stop,
        "counters": counters,
    }


async def _start_gateway(job, specs, config) -> dict:
    from perfbench import inputs
    from repro.gateway import GatewayCluster, GatewayClusterConfig

    cluster = GatewayCluster(
        inputs.world(),
        specs,
        config,
        GatewayClusterConfig(gateways=1, runtimes=2, wal_root=job["wal"]),
    )
    await cluster.start()
    node = cluster.nodes[0]

    def counters() -> dict:
        node_counts = node.registry.snapshot()["counters"]
        link_wait = node.registry.histogram("gateway.ingest.latency_seconds")
        return {
            "ingested": sum(s.queue.put_count for s in cluster.supervisors),
            "shed": sum(s.queue.shed_count for s in cluster.supervisors)
            + int(node_counts.get("gateway.link.shed", 0)),
            "rejected": sum(
                s.batcher.scanner.statistics.rejected
                for s in cluster.supervisors
            ),
            "feed_evictions": cluster.aggregator.hub.evicted_count
            + sum(s.feed.evicted_count for s in cluster.supervisors),
            "pipeline_errors": sum(
                s.batcher.pipeline_errors for s in cluster.supervisors
            ),
            "route_unroutable": int(
                node_counts.get("gateway.route.unroutable", 0)
            ),
            "link_shed": int(node_counts.get("gateway.link.shed", 0)),
            "link_queue_wait_p99_ms": (
                link_wait.quantile(0.99) * 1000.0 if link_wait.count else 0.0
            ),
        }

    return {
        "ports": {"ingest": node.port, "feed": cluster.ports()["feed"]},
        "subscribers": lambda: cluster.aggregator.hub.subscriber_count,
        "open_ingest": lambda: node.open_connections,
        "stop": cluster.drain_and_stop,
        "counters": counters,
    }


def main() -> None:
    job = json.loads(sys.argv[1])
    # Importing the program is set-up; unpickling inputs would otherwise
    # import it inside the input-loading time the parent subtracts.
    import repro.gateway  # noqa: F401
    import repro.service  # noqa: F401

    tracer = None
    if job.get("trace"):
        from perfbench.trace import Tracer

        tracer = Tracer().install()
    if job["mode"] == "offline":
        result = run_offline(job, tracer)
    else:
        result = asyncio.run(serve(job, tracer))
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["trace"] = tracer.report()
        tracer.dump(job["spans"])
    say("done", **result)


if __name__ == "__main__":
    main()
