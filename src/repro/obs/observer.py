"""The observer: everything one cluster run should capture.

A :class:`RunObserver` bundles the optional instruments — record
tracing and profiling timeline — and, after the run, holds the
populated metrics registry, so callers write all artefacts from one
handle::

    observer = RunObserver.create(trace_sample=10, timeline=True)
    report = DistributedStreamJoin(config).run(stream, observer=observer)
    observer.write_trace("run.rectrace.jsonl")
    observer.write_metrics("run.metrics")     # .json + .prom

Record tracing keeps one :class:`~repro.obs.eventlog.EventLog` per
actor — the same recorder and the same rectrace artefact as the
parallel runtime (DESIGN §8.1). The metrics registry itself is always
on (it lives inside the storm
:class:`~repro.storm.metrics.MetricsRegistry`); the observer only adds
the per-record instruments that cost memory proportional to the run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.artefact import write_jsonl
from repro.obs.eventlog import EventLog, log_rows
from repro.obs.exporters import write_metrics
from repro.obs.health import HealthMonitor
from repro.obs.rectrace import rectrace_header
from repro.obs.registry import ObsRegistry
from repro.obs.timeline import TimelineRecorder


class RunObserver:
    """Instruments for one run, plus the run's registry afterwards."""

    def __init__(
        self,
        trace_sample: int = 0,
        timeline: Optional[TimelineRecorder] = None,
        health: Optional[HealthMonitor] = None,
    ):
        if trace_sample < 0:
            raise ValueError(f"trace_sample must be >= 0, got {trace_sample}")
        #: Trace every rid that is a multiple of this (0 = tracing off).
        self.trace_sample = trace_sample
        self.timeline = timeline
        self.health = health
        #: Actor → its event log (actor ``t`` = join task ``t``; ``-1``
        #: = the source, dispatch and sink tasks).
        self.logs: Dict[int, EventLog] = {}
        #: The rectrace document (header first), set when a traced run
        #: drains.
        self.trace: Optional[List[Dict[str, object]]] = None
        #: Populated by the cluster when the run finishes.
        self.registry: Optional[ObsRegistry] = None

    @classmethod
    def create(
        cls, trace_sample: int = 0, timeline: bool = False, health: bool = False
    ) -> "RunObserver":
        """Convenience constructor from CLI-style options.

        ``trace_sample=0`` disables tracing; ``trace_sample=k`` traces
        every record whose rid is a multiple of *k*. ``health=True``
        runs the online health detectors alongside the topology.
        """
        return cls(
            trace_sample=trace_sample,
            timeline=TimelineRecorder() if timeline else None,
            health=HealthMonitor() if health else None,
        )

    # -- cluster hooks ------------------------------------------------------
    def attach(self, registry: ObsRegistry) -> None:
        """Called by the cluster at run start."""
        self.registry = registry
        self.logs = {}
        self.trace = None

    def trace_log(self, actor: int) -> Optional[EventLog]:
        """``actor``'s event log (built on first use; ``None`` with
        tracing off)."""
        if not self.trace_sample:
            return None
        log = self.logs.get(actor)
        if log is None:
            log = self.logs[actor] = EventLog(
                trace_sample=self.trace_sample, measure=False
            )
        return log

    def close_trace(self, records: int, wall_s: float, join_tasks: int) -> None:
        """Called by the cluster when a traced run drains: every
        actor's rows → the rectrace document."""
        rows: List[Dict[str, object]] = []
        for actor, log in sorted(self.logs.items()):
            rows.extend(log_rows(log.columns(), worker=actor)[1])
        shape = {
            "wall_s": round(wall_s, 9),
            "executor": "simulated",
            "workers": join_tasks,
            "shards": join_tasks,
        }
        header = rectrace_header(rows, shape, records, self.trace_sample)
        self.trace = [header] + rows

    # -- artefacts ----------------------------------------------------------
    def write_trace(self, path: str) -> int:
        if self.trace is None:
            raise ValueError("run was not traced (trace_sample=0)")
        return write_jsonl(path, self.trace[0], self.trace[1:])

    def write_health(self, path: str) -> int:
        if self.health is None:
            raise ValueError("run had no health monitor (health=False)")
        return self.health.write_jsonl(path)

    def write_metrics(self, base_path: str, timeline_buckets: int = 60) -> List[str]:
        if self.registry is None:
            raise ValueError("observer has no registry; run a topology first")
        extra: Dict[str, object] = {}
        if self.timeline is not None:
            extra["timeline"] = self.timeline.as_dict(timeline_buckets)
        return write_metrics(self.registry, base_path, extra=extra or None)
