"""Online health detectors: severity-tagged events from a running cluster.

PR 1 made runs *recordable*; this module makes them *interpretable*
while they run. A :class:`HealthMonitor` sits on the cluster's hook
points and watches for the failure modes a streaming join actually
degrades through (SWOOP's diagnosis: index growth and skew over stream
progress):

* **queue growth / backpressure** — a task's input backlog crosses a
  threshold and keeps doubling: the task cannot absorb its offered
  rate (fed per delivery by :class:`repro.storm.cluster.LocalCluster`);
* **straggler / load skew** — one task of a component carries far more
  busy time than its siblings (fed at run end from the metrics
  registry, and mid-run from live worker heartbeats through
  :meth:`HealthMonitor.on_busy_snapshot`);
* **routing fanout / replication blow-up** — records fan out to most
  of the join tasks, so communication dominates (fed per record by the
  dispatcher via ``ctx.signal``; a one-task plan feeds zero, see
  :func:`repro.routing.base.fanout_fraction`);
* **window expiration lag** — lazily-expired postings linger far past
  their window before a scan collects them, inflating index scans (fed
  by the join engines via ``WorkMeter.signal``).

Events are deterministic: they are emitted in the simulator's event
order with simulated-clock timestamps, and each detector escalates on
first crossings (plus doubling for queue depth) rather than per
observation, so the event list is small and byte-identical across
same-seed runs. The JSONL dump mirrors the trace format: a header
line (``kind: "header"``) with the schema version and thresholds,
then one ``kind: "event"`` object per line;
:func:`validate_health_lines` checks the schema the smoke gate relies
on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.artefact import check_fields, load_jsonl_objects, write_jsonl

HEALTH_SCHEMA_VERSION = 1

SEVERITIES = ("info", "warning", "critical")

#: Required fields of an event line and their types.
HEALTH_SCHEMA: Dict[str, type] = {
    "kind": str,        # "event"
    "time": float,      # simulated seconds
    "severity": str,    # "info" | "warning" | "critical"
    "detector": str,    # "queue_growth" | "load_skew" | ...
    "component": str,
    "task": int,        # -1 for component-level events
    "value": float,     # the observed quantity
    "threshold": float, # the limit it crossed
    "message": str,
}

TaskKey = Tuple[str, int]


@dataclass(frozen=True)
class HealthEvent:
    """One detector firing at one simulated instant."""

    time: float
    severity: str
    detector: str
    component: str
    task: int
    value: float
    threshold: float
    message: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": "event",
            "time": self.time,
            "severity": self.severity,
            "detector": self.detector,
            "component": self.component,
            "task": self.task,
            "value": self.value,
            "threshold": self.threshold,
            "message": self.message,
        }


@dataclass(frozen=True)
class HealthThresholds:
    """Trigger levels for every detector (see module doc).

    Ratios are dimensionless: skew is max/avg busy time, fanout is the
    fraction of join tasks a record reaches, expiration lag is in
    units of the window length.
    """

    queue_warning: int = 64
    queue_critical: int = 512
    skew_warning: float = 1.5
    skew_critical: float = 3.0
    fanout_warning: float = 0.5
    fanout_critical: float = 0.95
    expiration_lag_warning: float = 0.5
    expiration_lag_critical: float = 2.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "queue_warning": self.queue_warning,
            "queue_critical": self.queue_critical,
            "skew_warning": self.skew_warning,
            "skew_critical": self.skew_critical,
            "fanout_warning": self.fanout_warning,
            "fanout_critical": self.fanout_critical,
            "expiration_lag_warning": self.expiration_lag_warning,
            "expiration_lag_critical": self.expiration_lag_critical,
        }


@dataclass
class _FanoutStats:
    total: float = 0.0
    count: int = 0
    alerted: bool = False


def _load_skew(busy: List[float]) -> Optional[Tuple[float, int]]:
    """``(max/avg ratio, straggler index)`` of one component's per-task
    busy seconds; ``None`` with fewer than two tasks or no busy time."""
    if len(busy) < 2:
        return None
    average = sum(busy) / len(busy)
    if average <= 0:
        return None
    peak = max(busy)
    return peak / average, busy.index(peak)


class HealthMonitor:
    """Collects health events from the cluster's hook points.

    The cluster feeds :meth:`on_queue_depth` per delivery and calls
    :meth:`finalize` once at run end; bolts and engines feed
    :meth:`on_signal` through ``ctx.signal`` / ``WorkMeter.signal``.
    Every hook is O(1) with a dict lookup, so monitoring adds no
    measurable cost to a run.
    """

    def __init__(self, thresholds: Optional[HealthThresholds] = None):
        self.thresholds = thresholds if thresholds is not None else HealthThresholds()
        self.events: List[HealthEvent] = []
        #: Next queue depth that triggers an event, per task (doubling).
        self._queue_next: Dict[TaskKey, int] = {}
        self._fanout: Dict[TaskKey, _FanoutStats] = {}
        #: Highest expiration-lag severity already reported, per task
        #: (0 = none, 1 = warning, 2 = critical).
        self._lag_level: Dict[TaskKey, int] = {}
        #: One-shot leveling for the *online* load-skew detector
        #: (component-level: keyed by component, task -1 semantics).
        self._skew_level: Dict[str, int] = {}
        self._finalized = False

    # -- hook points ---------------------------------------------------------
    def on_queue_depth(
        self, component: str, task: int, time: float, depth: int
    ) -> None:
        """Cluster hook: backlog of a task at one delivery."""
        key = (component, task)
        trigger = self._queue_next.get(key, self.thresholds.queue_warning)
        if depth < trigger:
            return
        severity = (
            "critical" if depth >= self.thresholds.queue_critical else "warning"
        )
        self._emit(
            time, severity, "queue_growth", component, task,
            float(depth), float(trigger),
            f"input backlog of {component}[{task}] reached {depth} tuples "
            f"(threshold {trigger}): the task is falling behind its "
            f"offered rate",
        )
        # Escalate on doubling so a growing backlog keeps reporting
        # without flooding the event stream.
        self._queue_next[key] = max(depth, trigger) * 2

    def on_signal(
        self, component: str, task: int, time: float, name: str, value: float
    ) -> None:
        """Bolt/engine hook: a named health signal (unknown names are
        ignored, so components may emit forward-compatible signals)."""
        if name == "routing_fanout_fraction":
            self._on_fanout(component, task, time, value)
        elif name == "window_expiration_lag_fraction":
            self._on_expiration_lag(component, task, time, value)

    def _on_fanout(
        self, component: str, task: int, time: float, fraction: float
    ) -> None:
        stats = self._fanout.setdefault((component, task), _FanoutStats())
        stats.total += fraction
        stats.count += 1
        if fraction >= self.thresholds.fanout_critical and not stats.alerted:
            stats.alerted = True
            self._emit(
                time, "critical", "routing_fanout", component, task,
                fraction, self.thresholds.fanout_critical,
                f"record dispatched by {component}[{task}] replicated to "
                f"{fraction:.0%} of the join tasks: routing degenerates "
                f"to broadcast",
            )

    def _on_expiration_lag(
        self, component: str, task: int, time: float, lag_fraction: float
    ) -> None:
        key = (component, task)
        level = self._lag_level.get(key, 0)
        if lag_fraction >= self.thresholds.expiration_lag_critical and level < 2:
            self._lag_level[key] = 2
            self._emit(
                time, "critical", "expiration_lag", component, task,
                lag_fraction, self.thresholds.expiration_lag_critical,
                f"expired posting at {component}[{task}] lingered "
                f"{lag_fraction:.2f} windows past its expiry before lazy "
                f"collection: dead entries are inflating index scans",
            )
        elif lag_fraction >= self.thresholds.expiration_lag_warning and level < 1:
            self._lag_level[key] = 1
            self._emit(
                time, "warning", "expiration_lag", component, task,
                lag_fraction, self.thresholds.expiration_lag_warning,
                f"expired posting at {component}[{task}] lingered "
                f"{lag_fraction:.2f} windows past its expiry before lazy "
                f"collection",
            )

    def on_busy_snapshot(
        self, component: str, time: float, busy: List[float]
    ) -> None:
        """Telemetry hook: the *online* load-skew detector.

        ``busy`` is the current per-task busy seconds of one component
        (e.g. every worker's rolling ``busy_s`` from its latest
        heartbeat). Applies the same max/avg ratio and thresholds as
        :meth:`finalize`'s end-of-run detector, but with one-shot
        leveling so a persistent straggler is reported the moment the
        ratio first crosses each level — mid-run, not post-hoc.
        """
        self._skew_level[component] = self._load_skew_event(
            time, component, busy, self._skew_level.get(component, 0), True
        )

    def _load_skew_event(
        self, time: float, component: str, busy: List[float], level: int,
        online: bool,
    ) -> int:
        """The one warning/critical ladder of the load-skew detector:
        emit the event ``busy`` earns if its level (1 warning, 2
        critical) is above ``level``, and return the level reached. An
        online warning is the short message; every other event says
        what the skew bounds."""
        skew = _load_skew(busy)
        if skew is None:
            return level
        ratio, straggler = skew
        critical = self.thresholds.skew_critical
        warning = self.thresholds.skew_warning
        if ratio >= critical:
            reached, severity, threshold = 2, "critical", critical
        elif ratio >= warning:
            reached, severity, threshold = 1, "warning", warning
        else:
            return level
        if reached <= level:
            return level
        message = (
            f"{component}[{straggler}] carries {ratio:.2f}x the "
            f"average busy time of its component"
        )
        if reached == 2 or not online:
            message += ": straggler / load skew bounds throughput"
        self._emit(
            time, severity, "load_skew", component, straggler,
            ratio, threshold, message,
        )
        return reached

    def finalize(
        self, busy_by_component: Dict[str, List[float]], obs, time: float
    ) -> None:
        """Run-end detectors over per-task busy seconds grouped by
        component; the event counts become ``health_events`` gauges of
        the :class:`~repro.obs.registry.ObsRegistry` ``obs``.
        Idempotent — a second call is a no-op, mirroring
        ``sync_obs``.
        """
        if self._finalized:
            return
        self._finalized = True
        for (component, task), stats in sorted(self._fanout.items()):
            if not stats.count:
                continue
            average = stats.total / stats.count
            if average >= self.thresholds.fanout_warning:
                self._emit(
                    time, "warning", "routing_fanout", component, task,
                    average, self.thresholds.fanout_warning,
                    f"average routing fanout at {component}[{task}] is "
                    f"{average:.0%} of the join tasks: replication "
                    f"dominates communication cost",
                )
        for component, busy in sorted(busy_by_component.items()):
            self._load_skew_event(time, component, busy, 0, False)
        counts = self.counts()
        for severity in SEVERITIES:
            obs.gauge(
                "health_events",
                help="health events emitted by the run's online detectors",
                severity=severity,
            ).set(counts.get(severity, 0))

    def _emit(
        self,
        time: float,
        severity: str,
        detector: str,
        component: str,
        task: int,
        value: float,
        threshold: float,
        message: str,
    ) -> None:
        self.events.append(
            HealthEvent(
                time, severity, detector, component, task,
                value, threshold, message,
            )
        )

    # -- reading -------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Events per severity (absent severities omitted)."""
        totals: Dict[str, int] = {}
        for event in self.events:
            totals[event.severity] = totals.get(event.severity, 0) + 1
        return totals

    def render(self) -> str:
        """Short plain-text digest for the CLI."""
        if not self.events:
            return "(no health events)"
        lines = []
        for event in self.events:
            lines.append(
                f"[{event.severity:>8}] t={event.time:.4f}s "
                f"{event.detector}: {event.message}"
            )
        counts = self.counts()
        summary = ", ".join(
            f"{counts[s]} {s}" for s in SEVERITIES if s in counts
        )
        lines.append(f"{len(self.events)} events ({summary})")
        return "\n".join(lines)

    # -- artefacts -----------------------------------------------------------
    def write_jsonl(self, path: str) -> int:
        """Dump header + events, one JSON object per line; return #lines."""
        header = {
            "kind": "header",
            "schema": HEALTH_SCHEMA_VERSION,
            "thresholds": self.thresholds.as_dict(),
        }
        return write_jsonl(path, header, (e.as_dict() for e in self.events))


def load_health_jsonl(path: str) -> List[Dict[str, object]]:
    """All lines of a JSONL health dump as dicts (pointed errors)."""
    return load_jsonl_objects(path, "health")


def validate_health_lines(rows: Iterable[Dict[str, object]]) -> List[str]:
    """Schema errors of a whole health dump (empty list = valid)."""
    errors: List[str] = []
    rows = list(rows)
    if not rows:
        return ["empty health file"]
    if rows[0].get("kind") != "header":
        errors.append("first line is not a header")
    elif rows[0].get("schema") != HEALTH_SCHEMA_VERSION:
        errors.append(f"unsupported health schema {rows[0].get('schema')!r}")
    for index, row in enumerate(rows[1:]):
        if row.get("kind") != "event":
            errors.append(f"line {index + 1}: kind is not 'event'")
            continue
        errors.extend(
            f"event {index}: {error}" for error in check_fields(row, HEALTH_SCHEMA)
        )
        if row.get("severity") not in SEVERITIES:
            errors.append(
                f"event {index}: unknown severity {row.get('severity')!r}"
            )
    return errors
