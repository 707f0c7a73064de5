"""Fixed parameters of the repository benchmark.

Everything a later change may want to cite by name lives here: the
workloads and why each exists, the offered-rate ladder, the freshness
limit that decides whether a rung is sustained, and the table saying
which end-to-end metric each per-layer metric should move, on which
workload.  ``BENCHMARK.json`` at the repository root carries the names,
units and regression bounds; this module carries the numbers behind
them.  Changing anything here changes the benchmark, which is its own
change and is never bundled with a change that claims a gain.
"""

#: The simulated fleet every workload draws from (seeded by ``--seed``).
FLEET_VESSELS = 150
FLEET_HOURS = 24

#: Window range / slide in minutes.  Offline replays the coarse window
#: of the pipeline harness; the live workloads use the Fig. 7 setting.
OFFLINE_WINDOW_MINUTES = (120, 30)
LIVE_WINDOW_MINUTES = (10, 1)

#: Absolute offered rates (sentences/s) of the live ladder:
#: 1150 * 2**(k/4) for k = 0..24, i.e. 1150, 1368, ..., 2300, ..., 73600.
#: It runs from well below today's knees (about 3.3k/s for
#: ``gateway-1x2`` and 4-6k/s for ``live-paced`` on a 2-core host, which
#: move by a third as a shared host gets busy) to past 8x them, so a
#: faster codec lands inside.  Quarter-octave steps keep host noise from
#: moving the sustained rate by more than a step or two.
LADDER = tuple(round(1150 * 2 ** (k / 4)) for k in range(25))
#: The reference rate of every live workload, where freshness, CPU and
#: memory are measured: each of ``MIN_SETUPS`` launches of the system
#: sends it the first ``--seconds / MIN_SETUPS`` seconds of the stream.
#: ``mmsi-churn`` runs only this rate.
REFERENCE_RATE = LADDER[0]
#: One more launch searches the ladder from the start of the stream,
#: ``RUNG_SENTENCES`` per rung: it climbs every ``RUNG_STRIDE``-th rung
#: (doubling the rate) until one fails, bisects between the last rung
#: held and the first that failed, then sends one burst of
#: ``RUNG_SENTENCES`` at the top rung: its drain rate is the throughput.
#: An invalid rung is sent again (continuing the stream) up to
#: ``RUNG_RETRIES`` times; the search never sends more than
#: ``CLIMB_SENTENCES``.  Rungs stay below the 8192-sentence ingest queue,
#: so nothing is shed by design and a shed sentence is a failure.
RUNG_SENTENCES = 5000
RUNG_STRIDE = 4
RUNG_RETRIES = 1
CLIMB_SENTENCES = 50000

#: Simulated seconds after which every vessel takes a fresh MMSI: over
#: the first 5000 sentences that makes about 22 distinct MMSIs per vessel.
CHURN_PERIOD_SECONDS = 100
#: Churned MMSIs are ``CHURN_MMSI_BASE + vessel index * 10**5 + epoch``.
CHURN_MMSI_BASE = 300_000_000

#: A rung is sustained when the p99 freshness of its slides stays under
#: this limit and its backlog does not grow.
FRESHNESS_P99_LIMIT_MS = 1000.0
#: Backlog "grows" when the lag of the rung's last quarter of slides
#: exceeds that of its first quarter by more than this many slides'
#: worth of sentences.
BACKLOG_GROWTH_SLIDES = 2.0
#: A rung is invalid (the generator, not the system, fell behind) when
#: the median lateness of sends against their due times exceeds this; an
#: invalid rung is neither sustained nor failed.  The median, not a tail:
#: a shared host stalls the generator for tens of milliseconds now and
#: then (its p99 is recorded), but the generator catches up and the rung
#: still carries its offered rate.
GENERATOR_LATENESS_P50_LIMIT_MS = 5.0

#: Launches of the system per run (each a fresh process), so that
#: ``setup_s`` and the reference figures are medians or pools over
#: several processes.  Offline replay adds repetitions beyond this until
#: ``--seconds`` of processing time is spent.
MIN_SETUPS = 3

WORKLOADS = {
    "offline-replay": {
        "mode": "offline",
        "why": (
            "150 vessels x 24 h, w=2h b=30min, pairwise on: tracking, MOD, "
            "RTEC and the spatial index do all the work; no decode, service, "
            "WAL or gateway, so codec or gateway changes must not move it"
        ),
    },
    "live-paced": {
        "mode": "service",
        "why": (
            "The fleet as !AIVDM over TCP into one service (WAL fsync=batch, "
            "w=10min b=1min), open-loop ladder 1150*2^(k/4) to 73600/s; "
            "decode, WAL, queue and feed share one event loop"
        ),
    },
    "gateway-1x2": {
        "mode": "gateway",
        "why": (
            "Same sentences and ladder into 1 gateway x 2 runtimes, read from "
            "the merged feed: the only workload through SentenceRouter.route, "
            "RuntimeLink, the watermark barrier and FeedFanIn"
        ),
    },
    "mmsi-churn": {
        "mode": "service",
        "churn": True,
        "why": (
            "live-paced stream, each vessel taking a fresh MMSI every 100 "
            "simulated s (~22x the fleet in distinct MMSIs), 1150/s then "
            "a 73600/s burst: many short-lived keys in per-vessel state"
        ),
    },
}

#: per-layer metric prefix -> (end-to-end metric it should move,
#: workloads it should move on).  Zero on every other workload is the
#: prediction (for example ``ais.scan.calls`` on ``offline-replay``).
#: ``sustained_rate_per_s``, ``positions_per_s`` and ``freshness_*`` are
#: reported with every result but carry no bound (see ``perfbench/run.py``).
LIVE = ("live-paced", "gateway-1x2", "mmsi-churn")
LAYER_TABLE = {
    "ais.scan": ("sustained_rate_per_s, positions_per_s", LIVE),
    "gateway.route": ("sustained_rate_per_s", ("gateway-1x2",)),
    "gateway.link": ("freshness_p90_ms", ("gateway-1x2",)),
    "gateway.fanin": ("freshness_p90_ms", ("gateway-1x2",)),
    "service.ingest": (
        "freshness_p90_ms (rises before sustained_rate_per_s falls)", LIVE,
    ),
    "service.loop_lag": ("freshness_p90_ms", LIVE),
    "wal": ("sustained_rate_per_s, cpu_ms_per_kpos", LIVE),
    "pipeline.slide": (
        "positions_per_s (offline), freshness_p50_ms (live)",
        tuple(WORKLOADS),
    ),
    "tracking": (
        "positions_per_s; tracking.vessels -> peak_rss_mb on mmsi-churn",
        tuple(WORKLOADS),
    ),
    "mod": (
        "positions_per_s (offline), freshness_p50_ms (live)",
        tuple(WORKLOADS),
    ),
    "recognition": (
        "positions_per_s (offline), freshness_p50_ms (live)",
        tuple(WORKLOADS),
    ),
    "spatial": ("positions_per_s", ("offline-replay",)),
    "feed": ("freshness_p90_ms, cpu_ms_per_kpos", LIVE),
    "state": (
        "cpu_ms_per_kpos; state.vessels -> peak_rss_mb on mmsi-churn", LIVE,
    ),
}
