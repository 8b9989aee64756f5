"""Metrics: per-task counters, latency quantiles and cluster reports.

Every number the paper's evaluation plots comes out of this module:
throughput (capacity and achieved), communication cost (messages and
bytes), load balance (max/avg busy time across the join tasks), latency
quantiles, and the algorithmic counters (candidates, verifications,
results) behind the ablation experiments.

Every registry also carries an :class:`repro.obs.registry.ObsRegistry`
— the labeled, exportable view of the same numbers. Each number is
kept once: latencies go straight into its ``latency_seconds``
histogram, while counters and task/channel totals stay in their
:class:`TaskMetrics` / :class:`ChannelMetrics` until :func:`build_report`
publishes them, with the run-level aggregates, so a JSON/Prometheus
dump of ``registry.obs`` is sufficient to recompute every experiment
headline.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.registry import ObsRegistry


@dataclass
class TaskMetrics:
    """Counters for one task (one executor) of one component.

    Algorithmic counters live in ``counters`` only (one dict lookup and
    one float add per charge); :meth:`MetricsRegistry.sync_obs`
    publishes each as a labeled counter (``component``/``task``).
    """

    component: str
    task_index: int
    tuples_in: int = 0
    tuples_out: int = 0
    work_units: float = 0.0
    busy_seconds: float = 0.0
    peak_queue: int = 0
    counters: Dict[str, float] = field(default_factory=dict)

    def add_counter(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)


@dataclass
class ChannelMetrics:
    """Message/byte accounting for one (source component → dest component) edge."""

    source: str
    destination: str
    messages: int = 0
    bytes: int = 0


class MetricsRegistry:
    """All metrics of one cluster run, keyed by task and channel.

    ``labels`` become constant labels (method, corpus, …) on every
    series of the attached :class:`~repro.obs.registry.ObsRegistry`.
    """

    def __init__(self, labels: Optional[Dict[str, str]] = None) -> None:
        self._tasks: Dict[Tuple[str, int], TaskMetrics] = {}
        self._channels: Dict[Tuple[str, str], ChannelMetrics] = {}
        self.obs = ObsRegistry(**(labels or {}))
        #: End-to-end record latency; :func:`build_report` reads its
        #: quantiles and the exporters dump the same reservoir.
        self.latency = self.obs.histogram(
            "latency_seconds",
            help="end-to-end record latency (arrival to probe completion)",
        )

    def task(self, component: str, task_index: int) -> TaskMetrics:
        key = (component, task_index)
        if key not in self._tasks:
            self._tasks[key] = TaskMetrics(component, task_index)
        return self._tasks[key]

    def channel(self, source: str, destination: str) -> ChannelMetrics:
        key = (source, destination)
        if key not in self._channels:
            self._channels[key] = ChannelMetrics(source, destination)
        return self._channels[key]

    def all_tasks(self) -> List[TaskMetrics]:
        return [m for _, m in sorted(self._tasks.items())]

    def all_channels(self) -> List[ChannelMetrics]:
        return [m for _, m in sorted(self._channels.items())]

    def busy_by_component(self) -> Dict[str, List[float]]:
        """Busy seconds per task, grouped by component (task order).

        The shared hook for everything that reasons about load shape:
        :func:`build_report` (load balance, per-task busy lists) and
        the :class:`repro.obs.health.HealthMonitor` straggler/skew
        detector read the same grouping.
        """
        grouped: Dict[str, List[float]] = {}
        for task in self.all_tasks():
            grouped.setdefault(task.component, []).append(task.busy_seconds)
        return grouped

    def sync_obs(self) -> ObsRegistry:
        """Publish task counters and task/channel totals into the obs view.

        Idempotent (gauges are set, counters reset to totals), so
        re-building a report never double-counts. The latency histogram
        is observed directly and needs no sync.
        """
        task_gauges = (
            ("task_tuples_in", "tuples delivered to the task"),
            ("task_tuples_out", "tuples the task emitted downstream"),
            ("task_work_units", "cost-model work units charged"),
            ("task_busy_seconds", "simulated seconds the task was busy"),
            ("task_peak_queue", "peak input-queue depth observed"),
        )
        for task in self.all_tasks():
            labels = {"component": task.component, "task": task.task_index}
            values = (
                task.tuples_in,
                task.tuples_out,
                task.work_units,
                task.busy_seconds,
                task.peak_queue,
            )
            for (name, help_text), value in zip(task_gauges, values):
                self.obs.gauge(name, help=help_text, **labels).set(value)
            for name, total in task.counters.items():
                self.obs.counter(name, **labels).reset_to(total)
        for channel in self.all_channels():
            labels = {"source": channel.source, "destination": channel.destination}
            self.obs.counter(
                "channel_messages", help="messages shipped on the edge", **labels
            ).reset_to(channel.messages)
            self.obs.counter(
                "channel_bytes", help="payload bytes shipped on the edge", **labels
            ).reset_to(channel.bytes)
        return self.obs


@dataclass
class ClusterReport:
    """The digest of one simulated run — the experiments read this.

    Attributes
    ----------
    records:
        Number of source records fed in.
    makespan:
        Simulated time from first arrival to last processed event.
    capacity_throughput:
        ``records / busiest-task busy-time`` — the sustainable input
        rate the topology could absorb, bounded by its bottleneck. This
        is the paper's throughput metric (they push input until
        saturation; saturation is exactly the bottleneck's capacity).
    achieved_throughput:
        ``records / makespan`` at the offered rate of this run.
    messages / bytes:
        Total inter-task traffic (communication cost).
    load_balance:
        max/avg busy time across the join-component tasks; 1.0 is
        perfect balance.
    """

    records: int
    results: int
    makespan: float
    capacity_throughput: float
    achieved_throughput: float
    messages: int
    bytes: int
    load_balance: float
    bottleneck_component: str
    latency_mean: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    counters: Dict[str, float]
    per_task_busy: Dict[str, List[float]]
    wall_clock_seconds: float = 0.0
    #: The run's exportable metrics view (set by :func:`build_report`).
    obs: Optional[ObsRegistry] = field(default=None, repr=False, compare=False)

    @property
    def messages_per_record(self) -> float:
        return self.messages / self.records if self.records else 0.0

    @property
    def bytes_per_record(self) -> float:
        return self.bytes / self.records if self.records else 0.0

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def as_row(self) -> Dict[str, object]:
        """Flat row for tabular reports."""
        return {
            "records": self.records,
            "results": self.results,
            "throughput": round(self.capacity_throughput, 1),
            "msgs/rec": round(self.messages_per_record, 2),
            "bytes/rec": round(self.bytes_per_record, 1),
            "balance": round(self.load_balance, 3),
            "lat_p95_ms": round(self.latency_p95 * 1e3, 3),
        }


def build_report(
    registry: MetricsRegistry,
    records: int,
    makespan: float,
    join_component: str,
    wall_clock_seconds: float = 0.0,
) -> ClusterReport:
    """Aggregate a registry into a :class:`ClusterReport`.

    ``join_component`` names the component whose tasks define load
    balance (the parallel join bolts).
    """
    all_tasks = registry.all_tasks()
    busiest = max(all_tasks, key=lambda t: t.busy_seconds, default=None)
    max_busy = busiest.busy_seconds if busiest else 0.0
    # A run that timed nothing (no records) reports 0 records/s, as the
    # parallel runtime does: a fingerprint must stay JSON.
    capacity = records / max_busy if max_busy > 0 else 0.0
    achieved = records / makespan if makespan > 0 else 0.0

    per_task_busy = registry.busy_by_component()
    join_busy = per_task_busy.get(join_component, [])
    avg_busy = sum(join_busy) / len(join_busy) if join_busy else 0.0
    balance = (max(join_busy) / avg_busy) if avg_busy > 0 else 1.0

    messages = sum(c.messages for c in registry.all_channels())
    total_bytes = sum(c.bytes for c in registry.all_channels())

    counters: Dict[str, float] = defaultdict(float)
    for task in all_tasks:
        for name, value in task.counters.items():
            counters[name] += value

    obs = registry.sync_obs()
    run_gauges = {
        "run_records": (records, "source records fed into the topology"),
        "run_results": (counters.get("results", 0), "similar pairs reported"),
        "run_makespan_seconds": (makespan, "first arrival to last event"),
        "run_capacity_throughput": (
            capacity,
            "records per second at the bottleneck (records / max task busy)",
        ),
        "run_achieved_throughput": (
            achieved,
            "records per second at the offered rate",
        ),
        "run_messages_total": (messages, "inter-task messages shipped"),
        "run_bytes_total": (total_bytes, "inter-task payload bytes shipped"),
        "run_load_balance": (
            balance,
            "max/avg busy seconds across the join tasks (1.0 = perfect)",
        ),
    }
    for name, (value, help_text) in run_gauges.items():
        obs.gauge(name, help=help_text).set(value)
    obs.gauge(
        "run_info",
        help="run topology facts carried as labels",
        join_component=join_component,
        bottleneck=busiest.component if busiest else "",
    ).set(1.0)

    return ClusterReport(
        records=records,
        results=int(counters.get("results", 0)),
        makespan=makespan,
        capacity_throughput=capacity,
        achieved_throughput=achieved,
        messages=messages,
        bytes=total_bytes,
        load_balance=balance,
        bottleneck_component=busiest.component if busiest else "",
        latency_mean=registry.latency.mean(),
        latency_p50=registry.latency.quantile(0.50),
        latency_p95=registry.latency.quantile(0.95),
        latency_p99=registry.latency.quantile(0.99),
        counters=dict(counters),
        per_task_busy=dict(per_task_busy),
        wall_clock_seconds=wall_clock_seconds,
        obs=obs,
    )
