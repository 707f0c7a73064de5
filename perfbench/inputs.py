"""Seeded benchmark inputs and their reference outputs, built once and cached.

Everything here runs outside the timed region.  The fleet comes from
:mod:`repro.simulator` with the run's ``--seed``; positions are encoded
into timestamped ``!AIVDM`` sentences the same way the pipeline harness
does it.  Encoding costs about as much as the service's own decode, so
it is done here, once per seed, and never while a system is measured.

Reference outputs (the "oracle") are the offline twin's feed lines over
exactly the sentences a run sent.  Inputs and oracles depend on the code
under test and on the parameters in :mod:`perfbench.spec`, so the cache,
under ``perfbench/.cache`` inside the checkout, is keyed by a digest of
both.
"""

import dataclasses
import functools
import hashlib
import os
import pickle
import shutil
from pathlib import Path

from perfbench import spec

ROOT = Path(__file__).resolve().parent.parent
CACHE = Path(__file__).resolve().parent / ".cache"
#: Seeds whose inputs stay cached; the earliest built are removed.
KEEP_SEEDS = 24


@functools.lru_cache(maxsize=1)
def source_digest() -> str:
    """SHA-256 over the program (``src/``) and the files here that define
    the inputs: a cached input or oracle is reused only for the same."""
    digest = hashlib.sha256()
    here = Path(__file__).resolve().parent
    files = sorted((ROOT / "src").rglob("*.py"))
    files += [here / "spec.py", here / "inputs.py"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cache_path(seed: int, name: str) -> Path:
    """Where ``name`` for ``seed`` is cached (a pickle)."""
    return CACHE / source_digest()[:16] / f"seed-{seed}" / f"{name}.pkl"


def _cached(seed: int, name: str, build):
    """Load ``name`` for ``seed`` from the cache, building it on a miss."""
    path = cache_path(seed, name)
    directory = path.parent
    if path.exists():
        with path.open("rb") as handle:
            return pickle.load(handle)
    value = build()
    directory.mkdir(parents=True, exist_ok=True)
    _prune(keep=directory)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    with tmp.open("wb") as handle:
        pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
    tmp.replace(path)
    return value


def _prune(keep: Path) -> None:
    """Drop other digests, and all but the latest-built seeds of this one."""
    for stale in CACHE.iterdir():
        if stale != keep.parent:
            shutil.rmtree(stale, ignore_errors=True)
    seeds = sorted(
        (p for p in keep.parent.glob("seed-*") if p != keep),
        key=lambda p: p.stat().st_mtime,
    )
    for stale in seeds[: max(0, len(seeds) - (KEEP_SEEDS - 1))]:
        shutil.rmtree(stale, ignore_errors=True)


def world():
    """The fixed world model every workload runs in."""
    from repro import build_aegean_world

    return build_aegean_world()


def fleet(seed: int):
    """``(specs, positions)`` of the seeded fleet, timestamp-ordered,
    cached at ``cache_path(seed, "fleet")``."""

    def build():
        from repro import FleetSimulator

        simulator = FleetSimulator(
            world(), seed=seed, duration_seconds=spec.FLEET_HOURS * 3600
        )
        vessels = simulator.build_mixed_fleet(spec.FLEET_VESSELS)
        specs = {vessel.mmsi: vessel.spec for vessel in vessels}
        return specs, simulator.positions(vessels)

    return _cached(seed, "fleet", build)


def encode(positions) -> list[tuple[int, str]]:
    """Timestamped ``!AIVDM`` sentences for a list of positions."""
    from repro.ais import PositionReport, encode_position_report, wrap_aivdm

    sentences = []
    for position in positions:
        payload, fill = encode_position_report(PositionReport(
            message_type=1,
            mmsi=position.mmsi,
            lon=position.lon,
            lat=position.lat,
            speed_knots=10.0,
            course_degrees=90.0,
            second_of_minute=position.timestamp % 60,
        ))
        sentences.append((position.timestamp, wrap_aivdm(payload, fill)))
    return sentences


def live_stream(seed: int, count: int, churn: bool):
    """``(specs, sentences)``: the first ``count`` sentences of the fleet.

    With ``churn`` every vessel takes a fresh MMSI each
    ``CHURN_PERIOD_SECONDS`` simulated seconds, and each churned MMSI
    gets its vessel's spec.
    """
    specs, positions = fleet(seed)
    name = f"{'churn' if churn else 'live'}-{count}"

    def build():
        chosen = positions[:count]
        if not churn:
            return specs, encode(chosen)
        churned = _churned(specs, chosen)
        churned_specs = {}
        for position, original in zip(churned, chosen):
            if position.mmsi not in churned_specs:
                churned_specs[position.mmsi] = dataclasses.replace(
                    specs[original.mmsi], mmsi=position.mmsi
                )
        return churned_specs, encode(churned)

    return _cached(seed, name, build)


def _churned(specs, positions):
    """The positions with each vessel's MMSI replaced once per epoch."""
    index = {mmsi: i for i, mmsi in enumerate(sorted(specs))}
    return [
        position._replace(
            mmsi=spec.CHURN_MMSI_BASE + index[position.mmsi] * 100_000
            + position.timestamp // spec.CHURN_PERIOD_SECONDS
        )
        for position in positions
    ]


def distinct_mmsis(seed: int, count: int, churn: bool) -> int:
    """Distinct MMSIs among the first ``count`` sentences of a stream."""
    specs, positions = fleet(seed)
    chosen = positions[:count]
    if churn:
        chosen = _churned(specs, chosen)
    return len({position.mmsi for position in chosen})


def system_config(workload: str):
    """The pipeline configuration a workload runs with."""
    from repro.pipeline.config import SystemConfig
    from repro.tracking import WindowSpec

    if workload == "offline-replay":
        return SystemConfig(
            window=WindowSpec.of_minutes(*spec.OFFLINE_WINDOW_MINUTES),
            pairwise=True,
        )
    # A gateway cluster only accepts per-vessel rule-sets.
    ce_scope = "vessel" if workload == "gateway-1x2" else "full"
    return SystemConfig(
        window=WindowSpec.of_minutes(*spec.LIVE_WINDOW_MINUTES),
        ce_scope=ce_scope,
    )


def offline_slide_lines(positions, specs, config) -> list[str]:
    """The offline twin's feed lines for a positional stream.

    Mirrors :func:`repro.service.replay.offline_feed_lines` minus the
    scanner, because ``offline-replay`` feeds positions, not sentences.
    """
    from repro.ais.stream import StreamReplayer, TimedArrival
    from repro.pipeline.system import SurveillanceSystem
    from repro.service.protocol import slide_feed_line

    system = SurveillanceSystem(world(), specs, config)
    lines = []
    try:
        replayer = StreamReplayer(
            [TimedArrival(p.timestamp, p) for p in positions],
            config.window.slide_seconds,
        )
        for query_time, batch in replayer.batches():
            lines.append(
                slide_feed_line(system.process_slide(batch, query_time), "slide")
            )
        final = system.finalize()
        if final is not None:
            lines.append(slide_feed_line(final, "finalize"))
    finally:
        system.database.close()
    return lines


def oracle(seed: int, key: str, build) -> list[str]:
    """Reference feed lines, cached per seed and input key."""
    return _cached(seed, f"oracle-{key}", build)
