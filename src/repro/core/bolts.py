"""Storm components of the distributed join topology.

Topology (identical for every distribution scheme — only the router
and the join engine change)::

    source (spout) ──> dispatch ──direct──> join ×k ──> sink
                       routing decisions    local joins   results

Message kinds on the ``work`` stream: ``"p"`` probe-only, ``"i"``
index-only, ``"b"`` both (probe first, then index — the order that
makes every pair reported exactly once, by its later-arriving member,
and never as a self-pair).
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator, List, Optional, Tuple

from repro.core.bundle import BundleIndex
from repro.core.config import JoinConfig
from repro.core.metering import WorkMeter
from repro.core.shard_engine import build_shard_engine
from repro.records import Record
from repro.routing.base import Router, fanout_fraction
from repro.similarity.functions import SimilarityFunction
from repro.storm.components import Bolt, Spout
from repro.storm.tuples import StormTuple
from repro.streams.stream import RecordStream
from repro.streams.window import SlidingWindow

PROBE, INDEX, BOTH = "p", "i", "b"


class RecordSpout(Spout):
    """Replays a :class:`RecordStream` at its event timestamps."""

    def __init__(self, stream: RecordStream):
        self.stream = stream

    def emissions(self) -> Iterator[Tuple[float, str, Tuple[Any, ...]]]:
        for record in self.stream:
            yield record.timestamp, "records", (record,)


class DispatcherBolt(Bolt):
    """Computes the routing decision and fans the record out.

    With ``parallelism > 1`` (the parallel input pipeline the paper's
    Storm deployment needs for high offered rates), each dispatcher
    also broadcasts periodic *watermarks* — "I have dispatched all my
    records with rid ≤ w" — on the ``wm`` stream. Join bolts use them
    to process work in record order, which restores the exactly-once
    guarantee that a single totally-ordered dispatcher gives for free
    (see :class:`JoinBolt`).
    """

    def __init__(self, router: Router, watermark_interval: int = 16):
        if watermark_interval < 1:
            raise ValueError(
                f"watermark_interval must be >= 1, got {watermark_interval}"
            )
        self.router = router
        self.watermark_interval = watermark_interval
        self._since_watermark = 0
        self._last_rid = -1

    def execute(self, tup: StormTuple) -> None:
        record: Record = tup[0]
        ctx = self.ctx
        ctx.charge("route_record")
        ctx.charge_units(self.router.routing_units(record, ctx.cost))
        decision = self.router.route(record)
        index_set = set(decision.index_tasks)
        probe_set = set(decision.probe_tasks)
        fanout = len(index_set | probe_set)
        ctx.add_counter("routing_fanout", fanout)
        # Health signal: what share of the join tasks this record
        # reaches — the replication blow-up detector's input.
        ctx.signal(
            "routing_fanout_fraction",
            fanout_fraction(fanout, self.router.num_workers),
        )
        for task in sorted(index_set | probe_set):
            if task in index_set and task in probe_set:
                kind = BOTH
            elif task in index_set:
                kind = INDEX
            else:
                kind = PROBE
            self.collector.emit((kind, record), stream="work", direct_task=task)
        self._last_rid = record.rid
        if self.ctx.num_tasks > 1:
            self._since_watermark += 1
            if self._since_watermark >= self.watermark_interval:
                self._since_watermark = 0
                self.collector.emit(
                    (self.ctx.task_index, self._last_rid), stream="wm"
                )

    def finish(self) -> None:
        if self.ctx.num_tasks > 1:
            # Terminal watermark: nothing more is coming from this task.
            self.collector.emit((self.ctx.task_index, 2**62), stream="wm")


class JoinBolt(Bolt):
    """One join worker: a local engine behind the ``work`` stream.

    Ordering: with one dispatcher, work tuples arrive in record order
    per worker (total input order × per-channel FIFO), so they are
    processed on arrival. With ``d`` parallel dispatchers, tuples from
    different dispatchers interleave arbitrarily; the bolt then buffers
    work in a min-heap keyed by rid and drains it up to the watermark
    ``min_d w_d`` — every record at or below that rid has been fully
    dispatched (watermark semantics) *and* delivered (channel FIFO:
    the watermark tuple left its dispatcher after the work tuples it
    covers). Draining in rid order restores exactly the single-
    dispatcher schedule per worker, so results stay exactly-once.
    """

    def __init__(self, config: JoinConfig, func: SimilarityFunction):
        self.config = config
        self.func = func

    def prepare(self, ctx, collector) -> None:
        super().prepare(ctx, collector)
        config = self.config
        self._defer = config.dispatcher_parallelism > 1
        self._watermarks = [-1] * config.dispatcher_parallelism
        self._pending: List[Tuple[int, str, Record]] = []
        self.meter = WorkMeter(ctx)
        if config.use_bundles:
            self.engine = BundleIndex(
                self.func,
                window=SlidingWindow(config.window_seconds),
                meter=self.meter,
                bundle_threshold=config.bundle_threshold,
                batch_verification=config.batch_verification,
            )
        else:
            self.engine = build_shard_engine(
                config, self.func, ctx.task_index, ctx.num_tasks, self.meter
            )

    def execute(self, tup: StormTuple) -> None:
        if tup.stream == "wm":
            dispatcher, rid = tup.values
            if rid > self._watermarks[dispatcher]:
                self._watermarks[dispatcher] = rid
            self._drain()
            return
        kind, record = tup.values
        if self._defer:
            heapq.heappush(self._pending, (record.rid, kind, record))
            self._drain()
            return
        self._process(kind, record)

    def _drain(self) -> None:
        safe = min(self._watermarks)
        while self._pending and self._pending[0][0] <= safe:
            _, kind, record = heapq.heappop(self._pending)
            self._process(kind, record)

    def _process(self, kind: str, record: Record) -> None:
        ctx = self.ctx
        if kind in (PROBE, BOTH):
            # The probe phase is candidate generation + verification;
            # its trace event shows where the hop's service time went.
            with ctx.trace_child("probe", only_for=record.rid):
                matches = self.engine.probe(record)
        else:
            matches = []
        if kind in (INDEX, BOTH):
            with ctx.trace_child("insert", only_for=record.rid):
                if isinstance(self.engine, BundleIndex):
                    self.engine.insert(record, matches if kind == BOTH else None)
                else:
                    self.engine.insert(record)
        if kind in (PROBE, BOTH):
            # Queueing delay is visible here: ctx.now is when this probe
            # actually started processing, record.timestamp when it
            # entered the system.
            self.ctx.observe_latency(self.ctx.now - record.timestamp)
            self.meter.event("results", len(matches))
            if matches:
                pairs: Optional[Tuple[Tuple[int, int, float], ...]] = None
                if self.config.collect_pairs:
                    pairs = tuple(
                        (record.rid, match.partner.rid, match.similarity)
                        for match in matches
                    )
                self.collector.emit(
                    (record.rid, len(matches), record.timestamp, pairs),
                    stream="results",
                )

    def finish(self) -> None:
        if self._pending:  # terminal watermarks should have drained all
            self._watermarks = [2**62] * len(self._watermarks)
            self._drain()
        self.meter.event("final_postings", self.engine.live_postings)
        if isinstance(self.engine, BundleIndex):
            self.meter.event("final_bundles", self.engine.num_bundles)


class ResultSink(Bolt):
    """Terminal bolt: latency samples and (optionally) the pair set."""

    def __init__(self, collect_pairs: bool = False):
        self.collect_pairs = collect_pairs
        self.pairs: List[Tuple[int, int, float]] = []
        self.total_results = 0

    def execute(self, tup: StormTuple) -> None:
        rid, count, timestamp, pairs = tup.values
        self.total_results += count
        self.ctx.add_counter("sink_results", count)
        if self.collect_pairs and pairs:
            self.pairs.extend(pairs)
