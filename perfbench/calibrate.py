"""A fixed CPU calibration: how fast this core runs right now.

On a shared host another tenant on the same physical core slows this
process by up to 1.8x for seconds to minutes at a time, and neither
steal time nor the load of the other core shows it.  CPU time, not only
wall time, grows with it: whole offline repetitions of the same inputs
took 10.4 and 18.3 ms of CPU per 1000 positions minutes apart.  A round
of fixed pure-Python work, run after every offline slide, slows by the
same factor (the program's CPU per round stayed within a few percent
across both states), so ``offline-replay`` reports its CPU time scaled
to a core on which one round costs :data:`REFERENCE_ROUND_MS`.

The live workloads report raw CPU time.  A served system at the
reference rate sleeps between sentences; its CPU per sentence did not
follow the 1.8x states and drifted instead by up to a third over
minutes, which neither rounds run back to back around the stream nor
single rounds run on its event loop during the stream followed
reliably.

This file is part of the benchmark's definition: changing the round
changes every scaled figure.
"""

import gc
import math
import time

#: CPU milliseconds of one :func:`work_round` on the host the benchmark
#: was defined on (Intel Xeon, 2.0 GHz, Python 3.11) at a quiet moment;
#: scaled figures read as milliseconds on that core.
REFERENCE_ROUND_MS = 0.45
#: Rounds after every offline slide (about 2 ms of CPU against the
#: slide's 10-100 ms).
ROUNDS_PER_SLIDE = 5


def work_round() -> int:
    """One round of interpreter-bound work like the pipeline's: float
    geometry, dict and list updates, small tuples and a sort."""
    totals: dict[int, float] = {}
    points = []
    for i in range(300):
        lat = math.radians((i * 37 % 180) - 90.0)
        lon = math.radians((i * 71 % 360) - 180.0)
        a = (math.sin(lat / 2) ** 2
             + math.cos(lat) * math.sin(lon / 2) ** 2)
        distance = 2 * 6371.0 * math.asin(math.sqrt(min(1.0, a)))
        key = i % 97
        totals[key] = totals.get(key, 0.0) + distance
        points.append((lat, lon, distance))
    points.sort(key=lambda point: point[2])
    return len(totals) + len(points)


def measure_ms(rounds: int) -> float:
    """CPU milliseconds per round over ``rounds`` rounds.

    The collector is off meanwhile, so a collection the program's own
    garbage is due for is not charged to the calibration.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.process_time()
        for _ in range(rounds):
            work_round()
        return (time.process_time() - started) * 1000.0 / rounds
    finally:
        if enabled:
            gc.enable()


def scaled_cpu_ms(cpu: float, round_ms: float) -> float:
    """``cpu`` as it would read on the reference core, given the CPU
    milliseconds a round took alongside it (any unit in, same unit out)."""
    return cpu * REFERENCE_ROUND_MS / round_ms
