"""Merging worker results back into one deterministic run report.

Three merges, each with an exactness argument:

* **Matches** — every pair is reported by exactly one shard (the
  routing schemes are complete and non-duplicating), so the global
  match set is the disjoint union of per-worker tables; the canonical
  order ``(timestamp, rid_a, rid_b)`` (plain tuple order of
  :data:`~repro.parallel.codec.MatchRow`) is a total order independent
  of worker count — ``rid_a`` repeats across a probe's partners but
  ``(rid_a, rid_b)`` is unique per pair. A lone in-order table *is*
  the merge; otherwise :meth:`MatchTable.sort` merges the runs.
* **Meters** — operation/event counts are integers (see
  ``WorkMeter.charge_many``), so summing per-shard totals in any order
  reproduces a serial run's totals bit-for-bit; we still sum in sorted
  shard order for belt-and-braces determinism. Signals keep the peak,
  and max() is order-independent.
* **Timelines** — per-worker ``(start, end)`` monotonic busy spans are
  rebased to the run start and fed to the ordinary
  :class:`~repro.obs.timeline.TimelineRecorder` /
  load-skew health detector, so ``repro.obs`` renders process workers
  exactly like simulated tasks.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.obs.health import HealthMonitor
from repro.obs.registry import ObsRegistry
from repro.obs.timeline import TimelineRecorder
from repro.parallel.codec import MatchTable

#: Timeline/health component name for physical worker processes.
WORKER_COMPONENT = "pworker"


def merge_matches(chunks: Iterable) -> MatchTable:
    """Per-worker results (tables, or row lists, whose order is checked
    rather than assumed) as one table in canonical order. The first
    table is adopted — returned itself, grown in place by the others —
    so a lone worker's result is never copied or sorted."""
    tables = [c if isinstance(c, MatchTable) else MatchTable(c) for c in chunks]
    merged = tables[0] if tables else MatchTable()
    for table in tables[1:]:
        merged.extend(table)
    merged.sort()
    return merged


def merge_meters(
    shard_meters: Dict[int, Dict[str, Dict[str, float]]],
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
    """Sum per-shard meter snapshots into run totals.

    ``shard_meters`` maps shard id → ``{"operations": {...},
    "events": {...}, "signals": {...}}`` (the :class:`ShardWorker`
    summary format). Returns ``(operations, events, signals)``.
    """
    operations: Dict[str, float] = {}
    events: Dict[str, float] = {}
    signals: Dict[str, float] = {}
    for shard in sorted(shard_meters):
        snapshot = shard_meters[shard]
        for name, value in snapshot.get("operations", {}).items():
            operations[name] = operations.get(name, 0.0) + value
        for name, value in snapshot.get("events", {}).items():
            events[name] = events.get(name, 0.0) + value
        for name, value in snapshot.get("signals", {}).items():
            if name not in signals or value > signals[name]:
                signals[name] = value
    return operations, events, signals


def parallel_fingerprint(result) -> Dict[str, object]:
    """A ``repro diff``-comparable fingerprint of a parallel run.

    Same schema as :func:`repro.obs.baseline.fingerprint_from_metrics`:
    operations become exact ``op:<name>`` counters, events exact
    plain-name counters (matching how ``WorkMeter`` series surface in a
    cluster metrics dump), plus ``run_records``/``run_results``. All of
    these are pure functions of the shard plan — independent of
    ``--workers``, batch size and executor — so fingerprints of the
    same workload at different worker counts must compare ``ok``.
    Nothing wall-clock-dependent is included (``banded`` stays empty):
    real-time throughput is reported by the bench suite, not gated.
    """
    exact: Dict[str, Dict[str, float]] = {}
    for name in sorted(result.operations):
        exact[f"op:{name}"] = {"total": result.operations[name], "series": 1}
    for name in sorted(result.events):
        exact[name] = {"total": result.events[name], "series": 1}
    exact["run_records"] = {"total": float(result.records), "series": 1}
    exact["run_results"] = {"total": float(result.results), "series": 1}
    return {
        "schema": 1,
        "labels": {
            "engine": "parallel",
            "method": result.config.method_label,
            "shards": str(result.num_shards),
        },
        "exact": exact,
        "banded": {},
    }


def worker_timeline(result) -> TimelineRecorder:
    """Per-worker busy/idle spans as a standard obs timeline.

    Spans are rebased so 0 is the run start; the recorder merges
    back-to-back batches, and ``render()``/``as_dict()`` work exactly
    as for simulated components (the time axis is wall time here).
    """
    recorder = TimelineRecorder()
    base = result.started
    for stats in result.worker_stats:
        worker = stats["worker"]
        for start, end in stats["intervals"]:
            recorder.record(
                WORKER_COMPONENT, worker, max(0.0, start - base), max(0.0, end - base)
            )
    if result.wall_s > recorder.horizon:
        recorder.horizon = result.wall_s
    return recorder


def worker_metrics(result, registry: Optional[ObsRegistry] = None) -> ObsRegistry:
    """Per-worker wall-clock telemetry as standard obs gauges.

    One gauge family per quantity, labelled ``component="pworker",
    task="<worker>"`` like every other per-task series, plus run-level
    shape gauges — ready for :func:`repro.obs.exporters.write_metrics`
    (JSON + Prometheus), so a parallel run exports the same way a
    simulated one does.
    """
    if registry is None:
        registry = ObsRegistry(
            engine="parallel",
            executor=result.executor,
            method=result.config.method_label,
        )
    registry.gauge("run_wall_seconds", help="wall-clock run time").set(
        result.wall_s
    )
    registry.gauge("run_workers", help="physical worker processes").set(
        result.workers
    )
    registry.gauge("run_shards", help="logical shards").set(result.num_shards)
    registry.gauge("run_records", help="records routed").set(result.records)
    registry.gauge("run_results", help="match pairs reported").set(
        result.results
    )
    gauges = (
        ("worker_busy_seconds", "seconds spent processing batches", "busy_s"),
        ("worker_batches", "batches processed", "batches"),
        ("worker_records", "records processed", "records"),
        ("worker_bytes_out", "match frame bytes sent", "bytes_out"),
        ("worker_lifetime_seconds", "seconds from start to loop end", "lifetime_s"),
        (
            "worker_peak_rss_bytes",
            "peak resident set size in bytes (ru_maxrss normalised: "
            "KiB on Linux, bytes on macOS)",
            "peak_rss_bytes",
        ),
        ("worker_heartbeats", "heartbeat samples emitted", "heartbeats"),
    )
    for stats in result.worker_stats:
        labels = {"component": WORKER_COMPONENT, "task": stats["worker"]}
        for name, help_text, key in gauges:
            registry.gauge(name, help=help_text, **labels).set(
                stats.get(key, 0) or 0
            )
        lifetime = stats.get("lifetime_s", 0.0) or 0.0
        registry.gauge(
            "worker_idle_seconds", help="lifetime not spent busy", **labels,
        ).set(max(0.0, lifetime - stats["busy_s"]))
    return registry


def worker_health(result) -> HealthMonitor:
    """Run the end-of-run health detectors over a parallel result.

    The load-skew detector sees per-worker busy seconds (a straggler
    process reads exactly like a straggler task). The run's routing
    observations are replayed with their true peak (the one-shot
    critical alert) and true average (the run-end warning), and engine
    health signals (e.g. expiration lag) replay their peaks — the
    peak is exactly what those one-shot detectors key on.
    """
    monitor = HealthMonitor()
    for name, value in sorted(result.signals.items()):
        if name == "routing_fanout_fraction":
            continue  # replayed below with exact average semantics
        monitor.on_signal("driver", 0, result.wall_s, name, value)
    fanout = result.routing_fanout
    if fanout["count"]:
        # One observation at the peak drives the one-shot critical
        # detector through its public path; then restore the true
        # total/count so finalize's average-based warning sees exactly
        # what per-record observations would have accumulated.
        monitor.on_signal(
            "driver", 0, 0.0, "routing_fanout_fraction", fanout["peak"]
        )
        stats = monitor._fanout[("driver", 0)]
        stats.total = fanout["total"]
        stats.count = fanout["count"]
    busy = [stats["busy_s"] for stats in result.worker_stats]
    monitor.finalize({WORKER_COMPONENT: busy}, ObsRegistry(), result.wall_s)
    return monitor
