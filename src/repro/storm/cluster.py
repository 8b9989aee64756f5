"""The discrete-event cluster: deterministic execution of a topology.

Execution model
---------------
Each task is single-threaded. A tuple delivered at simulated time ``t``
to a task whose previous work ends at ``busy_until`` starts processing
at ``max(t, busy_until)`` and occupies the task for
``work_units × seconds_per_unit`` seconds, where ``work_units`` is the
tuple-handling overhead plus everything the bolt charged during
``execute``. Emitted tuples leave when processing ends and arrive after
the network delay for their serialized size. Deliveries to one task are
processed in delivery order (FIFO, ties broken by a global sequence
number), so the whole simulation is a deterministic function of the
topology and the input stream.

Queueing is therefore real: if tuples arrive faster than a task can
process them, its backlog — and the end-to-end latency — grows, exactly
as on a saturated Storm worker. ``ClusterReport.capacity_throughput``
reads the bottleneck directly as ``records / busiest-task busy-time``.
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_right
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.eventlog import RECORD_SCOPE
from repro.obs.observer import RunObserver
from repro.obs.rectrace import EVENT_ID
from repro.records import Record
from repro.storm.components import Bolt, OutputCollector, Spout, TopologyContext
from repro.storm.costmodel import CostModel, NetworkModel
from repro.storm.metrics import ClusterReport, MetricsRegistry, build_report
from repro.storm.topology import Topology
from repro.storm.tuples import StormTuple, payload_bytes

TaskKey = Tuple[str, int]

#: Safety valve against runaway topologies: processing more events
#: than this raises ``RuntimeError``.
MAX_EVENTS = 200_000_000

_EMIT = RECORD_SCOPE | EVENT_ID["emit"]
_QUEUE = RECORD_SCOPE | EVENT_ID["queue"]


def _trace_key(stream: str, values: Tuple[object, ...]) -> Optional[int]:
    """The rid of the source record a tuple belongs to.

    Work/record tuples carry the :class:`Record` itself; result tuples
    carry the probing record's rid first; watermark and other control
    tuples are untraceable (``None``).
    """
    if stream == "wm":
        return None
    for value in values:
        if isinstance(value, Record):
            return value.rid
    if stream == "results" and values and isinstance(values[0], int):
        return values[0]
    return None


class _Executor:
    """One task: a component instance plus its scheduling state."""

    __slots__ = (
        "key", "instance", "ctx", "collector", "busy_until", "end_times",
        "service",
    )

    def __init__(
        self,
        key: TaskKey,
        instance: Bolt,
        ctx: TopologyContext,
        collector: OutputCollector,
    ):
        self.key = key
        self.instance = instance
        self.ctx = ctx
        self.collector = collector
        self.busy_until = 0.0
        #: Monotone list of processing-completion times; used to compute
        #: the queue depth at any delivery time by binary search.
        self.end_times: List[float] = []
        #: Stage byte of this task's per-hop service row (tracing only).
        self.service = 0


class LocalCluster:
    """Runs a :class:`~repro.storm.topology.Topology` to completion.

    Parameters
    ----------
    cost:
        Work-unit prices; see :class:`~repro.storm.costmodel.CostModel`.
    network:
        Message latency/bandwidth model.
    observer:
        Optional :class:`~repro.obs.observer.RunObserver` switching on
        record tracing and/or the busy/idle timeline for this cluster's
        runs; the run's metrics registry is attached to it at start.
        A traced run records into one event log per actor: join task
        *t* is worker and shard *t*; every other task is actor ``-1``.
    """

    def __init__(
        self,
        cost: Optional[CostModel] = None,
        network: Optional[NetworkModel] = None,
        observer: Optional[RunObserver] = None,
    ):
        self.cost = cost if cost is not None else CostModel()
        self.network = network if network is not None else NetworkModel()
        self.observer = observer
        self._timeline = observer.timeline if observer is not None else None
        self._source_log = None
        self._health = observer.health if observer is not None else None

    def run(
        self,
        topology: Topology,
        join_component: str = "join",
        labels: Optional[Dict[str, str]] = None,
    ) -> ClusterReport:
        """Execute the topology until every event drains; return the report.

        ``labels`` (method, corpus, …) are stamped on every series of
        the run's exportable metrics registry.
        """
        wall_start = time.perf_counter()
        registry = MetricsRegistry(labels=labels)
        if self.observer is not None:
            self.observer.attach(registry.obs)
            self._source_log = self.observer.trace_log(-1)
        executors = self._build_executors(topology, registry, join_component)

        heap: List[Tuple[float, int, int, Any]] = []
        # Per-channel FIFO state: last delivery time per (source task →
        # destination task) link, mirroring a TCP connection — a later
        # message never overtakes an earlier one on the same link.
        self._channel_clock: Dict[Tuple[str, int, str, int], float] = {}
        seq = 0
        # Event kinds: 0 = spout emission due, 1 = tuple delivery.
        spout_iters: Dict[str, Iterator] = {}
        source_records = 0
        first_source: Optional[float] = None

        for name, spout in topology.spouts.items():
            iterator = iter(spout.emissions())
            spout_iters[name] = iterator
            first = next(iterator, None)
            if first is not None:
                t, stream, values = first
                heapq.heappush(heap, (t, seq, 0, (name, stream, values)))
                seq += 1

        last_time = 0.0
        events = 0
        while heap:
            events += 1
            if events > MAX_EVENTS:
                raise RuntimeError(
                    f"simulation exceeded {MAX_EVENTS} events; "
                    "topology is likely emitting in a cycle"
                )
            when, _, kind, payload = heapq.heappop(heap)
            if kind == 0:
                name, stream, values = payload
                source_records += 1
                if first_source is None:
                    first_source = when
                last_time = max(last_time, when)
                tup = StormTuple(stream, values, name, 0, when)
                if self._source_log is not None:
                    rid = _trace_key(stream, values)
                    if rid is not None and self._source_log.selected(rid):
                        self._source_log.record(_EMIT, when, when, -1, rid)
                seq = self._route(topology, executors, registry, heap, seq, tup, None)
                nxt = next(spout_iters[name], None)
                if nxt is not None:
                    t, nstream, nvalues = nxt
                    if t < when:
                        raise ValueError(
                            f"spout {name!r} emitted out of order: {t} after {when}"
                        )
                    heapq.heappush(heap, (t, seq, 0, (name, nstream, nvalues)))
                    seq += 1
            else:
                dest_key, tup = payload
                seq, end = self._process(
                    executors[dest_key], tup, when, topology, executors, registry, heap, seq
                )
                last_time = max(last_time, end)

        # End-of-stream flushes (may emit; drain whatever they produce).
        for key in sorted(executors):
            executor = executors[key]
            if isinstance(executor.instance, Bolt):
                executor.ctx.now = last_time
                executor.ctx.pending_units = 0.0
                executor.instance.finish()
                for _stream, values, _direct in executor.collector.pending:
                    executor.ctx.pending_units += (
                        self.cost.emit_overhead
                        + self.cost.emit_per_byte * payload_bytes(values)
                    )
                flush_tuples = self._drain(executor, last_time)
                for tup in flush_tuples:
                    seq = self._route(topology, executors, registry, heap, seq, tup, None)
        while heap:
            when, _, kind, payload = heapq.heappop(heap)
            if kind != 1:  # pragma: no cover - spouts are exhausted here
                continue
            dest_key, tup = payload
            seq, end = self._process(
                executors[dest_key], tup, when, topology, executors, registry, heap, seq
            )
            last_time = max(last_time, end)

        if self._health is not None:
            self._health.finalize(
                registry.busy_by_component(), registry.obs, last_time
            )
        if self._source_log is not None:
            self.observer.close_trace(
                source_records, last_time,
                topology.parallelism.get(join_component, 0),
            )
        makespan = last_time - (first_source or 0.0)
        return build_report(
            registry,
            records=source_records,
            makespan=max(makespan, 0.0),
            join_component=join_component,
            wall_clock_seconds=time.perf_counter() - wall_start,
        )

    # -- internals ---------------------------------------------------------
    def _build_executors(
        self, topology: Topology, registry: MetricsRegistry, join_component: str
    ) -> Dict[TaskKey, _Executor]:
        executors: Dict[TaskKey, _Executor] = {}
        for name, factory in topology.bolts.items():
            num_tasks = topology.parallelism[name]
            if self._source_log is not None and name not in EVENT_ID:
                raise ValueError(
                    f"cannot trace component {name!r}: a hop's service row "
                    f"is named after its component, and the trace "
                    f"vocabulary has no event {name!r}"
                )
            for index in range(num_tasks):
                ctx = TopologyContext(
                    component=name,
                    task_index=index,
                    num_tasks=num_tasks,
                    cost=self.cost,
                    metrics=registry.task(name, index),
                    registry=registry,
                    health=self._health,
                )
                collector = OutputCollector()
                instance = factory(index)
                instance.prepare(ctx, collector)
                executor = _Executor((name, index), instance, ctx, collector)
                if self._source_log is not None:
                    actor = index if name == join_component else -1
                    ctx.trace_log = self.observer.trace_log(actor)
                    ctx.trace_shard = actor
                    executor.service = RECORD_SCOPE | EVENT_ID[name]
                executors[(name, index)] = executor
        return executors

    def _process(
        self,
        executor: _Executor,
        tup: StormTuple,
        deliver_time: float,
        topology: Topology,
        executors: Dict[TaskKey, _Executor],
        registry: MetricsRegistry,
        heap: List,
        seq: int,
    ) -> Tuple[int, float]:
        """Run one tuple through a bolt; schedule its emissions."""
        ctx = executor.ctx
        metrics = ctx.metrics
        queue_depth = len(executor.end_times) - bisect_right(
            executor.end_times, deliver_time
        )
        if queue_depth > metrics.peak_queue:
            metrics.peak_queue = queue_depth
        if self._health is not None:
            self._health.on_queue_depth(
                executor.key[0], executor.key[1], deliver_time, queue_depth
            )

        rid: Optional[int] = None
        if ctx.trace_log is not None:
            candidate = _trace_key(tup.stream, tup.values)
            if candidate is not None and ctx.trace_log.selected(candidate):
                rid = candidate

        start = max(deliver_time, executor.busy_until)
        ctx.now = start
        ctx.pending_units = (
            self.cost.tuple_overhead
            + self.cost.tuple_per_byte * payload_bytes(tup.values)
        )
        ctx.trace_rid = rid
        executor.instance.execute(tup)
        ctx.trace_rid = None
        emit_units = 0.0
        for _stream, values, _direct in executor.collector.pending:
            emit_units += self.cost.emit_overhead
            emit_units += self.cost.emit_per_byte * payload_bytes(values)
        ctx.pending_units += emit_units
        duration = self.cost.seconds(ctx.pending_units)
        end = start + duration
        executor.busy_until = end
        executor.end_times.append(end)
        if rid is not None:
            log, shard = ctx.trace_log, ctx.trace_shard
            if start > deliver_time:
                log.record(_QUEUE, deliver_time, start, shard, rid)
            log.record(executor.service, start, end, shard, rid)
        if self._timeline is not None:
            self._timeline.record(executor.key[0], executor.key[1], start, end)

        metrics.tuples_in += 1
        metrics.work_units += ctx.pending_units
        metrics.busy_seconds += duration

        for out in self._drain(executor, end):
            seq = self._route(topology, executors, registry, heap, seq, out, None)
        return seq, end

    def _drain(self, executor: _Executor, emit_time: float) -> List[StormTuple]:
        component, task_index = executor.key
        return [
            StormTuple(stream, values, component, task_index, emit_time)
            if direct is None
            else _DirectTuple(stream, values, component, task_index, emit_time, direct)
            for stream, values, direct in executor.collector.drain()
        ]

    def _route(
        self,
        topology: Topology,
        executors: Dict[TaskKey, _Executor],
        registry: MetricsRegistry,
        heap: List,
        seq: int,
        tup: StormTuple,
        _unused,
    ) -> int:
        """Fan a tuple out to every subscriber per its grouping."""
        direct_task = getattr(tup, "direct_task", None)
        subs = topology.subscribers(tup.source_component, tup.stream)
        if not subs:
            return seq
        size = payload_bytes(tup.values)
        producer = registry.task(tup.source_component, tup.source_task)
        for sub in subs:
            num_tasks = topology.parallelism[sub.destination]
            targets = sub.grouping.targets(
                tup.values, tup.source_task, num_tasks, direct_task, seq
            )
            channel = registry.channel(tup.source_component, sub.destination)
            for target in targets:
                delay = self.network.delivery_delay(size)
                link = (tup.source_component, tup.source_task, sub.destination, target)
                arrival = max(
                    tup.emit_time + delay, self._channel_clock.get(link, 0.0)
                )
                self._channel_clock[link] = arrival
                channel.messages += 1
                channel.bytes += size
                producer.tuples_out += 1
                heapq.heappush(
                    heap,
                    (arrival, seq, 1, ((sub.destination, target), tup)),
                )
                seq += 1
        return seq


class _DirectTuple(StormTuple):
    """A tuple carrying its direct-grouping destination task."""

    # StormTuple is a frozen dataclass; extend via __new__-free subclass
    # holding the extra attribute through object.__setattr__ in __init__.
    def __init__(self, stream, values, source_component, source_task, emit_time, direct_task):
        super().__init__(stream, values, source_component, source_task, emit_time)
        object.__setattr__(self, "direct_task", direct_task)
