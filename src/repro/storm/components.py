"""Spout / Bolt component model and the output collector.

Mirrors Storm's programming model: a *spout* is a source of tuples, a
*bolt* consumes tuples and may emit new ones. Each component runs as
``parallelism`` independent *tasks*; a task is single-threaded and owns
private state. Bolts interact with the runtime through two handles given
to :meth:`Bolt.prepare`:

* :class:`TopologyContext` — identity, cost charging, counters, clock;
* :class:`OutputCollector` — emitting tuples downstream.

Cost charging is the heart of the simulation: a bolt *must* charge the
work it performs (``ctx.charge("posting_scan", n)``) so the executor can
occupy the task for the corresponding simulated time. The join bolts in
:mod:`repro.core` charge every operation they perform.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Tuple

from repro.obs.eventlog import RECORD_SCOPE
from repro.obs.rectrace import EVENT_ID
from repro.storm.costmodel import CostModel
from repro.storm.metrics import MetricsRegistry, TaskMetrics
from repro.storm.tuples import StormTuple


class TopologyContext:
    """Runtime handle for one task: identity, cost model, metrics, clock."""

    def __init__(
        self,
        component: str,
        task_index: int,
        num_tasks: int,
        cost: CostModel,
        metrics: TaskMetrics,
        registry: MetricsRegistry,
        health=None,
    ):
        self.component = component
        self.task_index = task_index
        self.num_tasks = num_tasks
        self.cost = cost
        self.metrics = metrics
        self._registry = registry
        #: Optional :class:`repro.obs.health.HealthMonitor` receiving
        #: named signals from this task (None = monitoring off).
        self._health = health
        #: Simulated time at which the current tuple's processing began.
        #: Maintained by the executor.
        self.now: float = 0.0
        #: Work units accumulated for the tuple being processed.
        self.pending_units: float = 0.0
        #: This task's :class:`repro.obs.eventlog.EventLog` and the
        #: shard its rows carry (set by the cluster when tracing is on),
        #: and the rid of the tuple being processed (set by the executor
        #: only when that rid is sampled).
        self.trace_log = None
        self.trace_shard = -1
        self.trace_rid: Optional[int] = None

    def charge(self, operation: str, count: float = 1.0) -> None:
        """Charge ``count`` occurrences of a cost-model operation.

        Also counted under ``op:<operation>`` so experiments can report
        exact operation totals (postings scanned, tokens compared, …).
        """
        self.pending_units += getattr(self.cost, operation) * count
        self.metrics.add_counter("op:" + operation, count)

    def charge_units(self, units: float) -> None:
        """Charge raw work units (for costs outside the named operations)."""
        self.pending_units += units

    def add_counter(self, name: str, amount: float = 1.0) -> None:
        """Bump an algorithmic counter (candidates, verifications, …)."""
        self.metrics.add_counter(name, amount)

    def observe_latency(self, seconds: float) -> None:
        """Record one end-to-end latency sample."""
        self._registry.latency.observe(seconds)

    def signal(self, name: str, value: float) -> None:
        """Report a named health signal (no-op without a monitor).

        Stamped with this task's identity and the current simulated
        time; see :class:`repro.obs.health.HealthMonitor` for the
        signals the detectors understand.
        """
        if self._health is not None:
            self._health.on_signal(
                self.component, self.task_index, self.now, name, value
            )

    @property
    def obs(self):
        """The run's labeled metrics registry (for bolt-level series)."""
        return self._registry.obs

    # -- tracing ------------------------------------------------------------
    @contextmanager
    def trace_child(self, event: str, only_for: Optional[int] = None):
        """Record a ``probe`` / ``insert`` trace event for a phase of
        the current ``execute``.

        Timestamps derive from the cost-model charges: the phase's
        simulated window is ``now + seconds(pending-units-at-enter)``
        to ``now + seconds(pending-units-at-exit)``, so event widths
        are exactly the simulated time the charged work occupies.
        Cheap no-op when the current tuple is not sampled, or when
        ``only_for`` is given and names a different rid than the
        executing tuple's — the guard bolts use when they process
        buffered work that may not belong to the tuple currently
        executing.
        """
        rid = self.trace_rid
        if rid is None or (only_for is not None and only_for != rid):
            yield
            return
        enter = self.now + self.cost.seconds(self.pending_units)
        try:
            yield
        finally:
            end = self.now + self.cost.seconds(self.pending_units)
            self.trace_log.record(
                RECORD_SCOPE | EVENT_ID[event], enter, end, self.trace_shard, rid
            )


class OutputCollector:
    """Collects emissions from the current ``execute`` call.

    The executor drains :attr:`pending` after each call and schedules
    the deliveries; bolts never see the event loop.
    """

    def __init__(self) -> None:
        self.pending: List[Tuple[str, Tuple[Any, ...], Optional[int]]] = []

    def emit(
        self,
        values: Tuple[Any, ...],
        stream: str = "default",
        direct_task: Optional[int] = None,
    ) -> None:
        """Emit a tuple on ``stream``; ``direct_task`` targets one task
        of every direct-grouped subscriber."""
        self.pending.append((stream, tuple(values), direct_task))

    def drain(self) -> List[Tuple[str, Tuple[Any, ...], Optional[int]]]:
        emitted, self.pending = self.pending, []
        return emitted


class Spout:
    """A finite source of timestamped tuples.

    Subclasses implement :meth:`emissions`, yielding
    ``(event_time, stream, values)`` triples in non-decreasing event
    time. Spouts are free sources: they charge no processing cost (the
    paper's spouts replay pre-loaded data; ingestion is never the
    bottleneck under study).
    """

    def emissions(self) -> Iterator[Tuple[float, str, Tuple[Any, ...]]]:
        raise NotImplementedError


class Bolt:
    """Base class for processing components.

    Lifecycle: ``prepare`` once per task, ``execute`` per input tuple,
    ``finish`` once after the stream drains (for end-of-run flushes).
    """

    ctx: TopologyContext
    collector: OutputCollector

    def prepare(self, ctx: TopologyContext, collector: OutputCollector) -> None:
        self.ctx = ctx
        self.collector = collector

    def execute(self, tup: StormTuple) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Hook called once when the topology drains; default no-op."""
