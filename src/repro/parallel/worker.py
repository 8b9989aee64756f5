"""The worker side of the parallel runtime.

A physical worker process hosts one or more logical shards, each a
:class:`~repro.core.local_join.StreamingSetJoin` built by the function
:class:`~repro.core.bolts.JoinBolt` builds its engine with for task
index ``shard`` of ``num_shards``
(:func:`~repro.core.shard_engine.build_shard_engine`) — so a shard
behaves identically whether it runs inside the simulated cluster, in
:func:`~repro.parallel.runtime.run_serial`, or in a worker process.

Records never cross a wire. Every worker is handed the config, the
published input and the shard plan once, as process start-up arguments
(inherited under ``fork``, pickled once under ``spawn``). The input is
a :class:`~repro.streams.stream.RecordStream` — corpus tuples plus a
replayable arrival process, so iterating it builds each
:class:`~repro.records.Record` here, in the process that uses it — or
a record list. :meth:`ShardWorker.run` self-selects with one loop for
either: it walks the records in arrival order, asks the plan for each
record's ``(shard, op)`` tasks, keeps the tasks of the shards it hosts
and cuts them into per-shard batches of
``config.batch_size`` — the map-side partitioning of a candidate-free
distributed join, with no per-record work left in the driver. A batch
is one shard's unit of work: one meter flush and at most one match ship.

Wire protocol, results direction only (one :func:`multiprocessing.Pipe`
per worker, message = one ``send_bytes`` frame, first byte = tag, tags
defined in :mod:`repro.parallel.codec`):

    worker → driver   TAG_MATCHES   match batch (codec), repeated,
                                    iff the driver collects rows
                      TAG_HEARTBEAT pickled counter snapshot, iff
                                    telemetry is on, repeated
                      TAG_DONE      pickled run-end summary: the last
                                    counters, the meters and the
                                    event-log columns
                      TAG_ERROR     pickled traceback string

Results stream: a collecting worker ships its emit buffer at every
batch boundary that has rows (:meth:`ShardWorker.flush_matches`) and
starts a fresh one, so it never holds more than one batch's rows; its
one run-end summary follows when the loop ends. Rows cross the pipe
only when someone reads them: a count-only worker (``collect=False``,
when the caller wants the result's size and not its rows) skips the
emit, so its buffer stays empty and it never ships. Its shard meters'
``results`` events count the rows either way, and the summary's
``matches`` carries that count.

Deadlock freedom: the driver never writes after start-up and reads
every worker's pipe at once, so no wait cycle exists. A worker blocked
writing a frame — matches, heartbeat or summary — waits only for the
driver, and the driver waits for no worker in particular.

Live telemetry rides the same pipe: :class:`HeartbeatEmitter` is polled
at every batch boundary, after the batch's match ship, and when a
sample is due writes one ``TAG_HEARTBEAT`` frame — a blocking write
like every other. A sample's ``matches`` is the rows the worker has
found so far; when collecting, frames of one pipe arrive in order, so
that is exactly the rows the driver has already taken from it. A
sample is :meth:`ShardWorker.counters` and nothing else: the driver
stamps which worker sent it, its sequence number and whether it
is final. The ``TAG_DONE`` summary carries the same counters, which the
driver files as the worker's final sample, so every finished run
carries at least one sample per worker at any interval.

One batch path: :meth:`ShardWorker.run` hands every batch to
:meth:`ShardWorker.process_batch`, and every record runs through one
probe → emit → insert body. Instruments are selected per *batch*, never
by a second copy of that body: a batch whose per-shard sequence number
falls in the span sample (``spans_sample >= 1``) times every record
(per-phase totals must be exact), any other batch times only its traced
rids (``rid % trace_sample == 0``, derived from the stride), and
everything not selected — the whole batch when both are off — runs
through the one un-timed loop. Engine and meter calls are the same
calls in the same order either way, so instrumentation can never change
an observable. Spans (the loop's own routing time between batches,
probe, insert, meter flush, the per-batch result ship) and trace events
(probe/insert/match-emit; a count-only worker still stamps match-emit
for a traced probe that found rows, so a record's event structure does
not depend on ``collect``) are rows of the worker's one
:class:`~repro.obs.eventlog.EventLog`, whose columns ship back inside
the ``TAG_DONE`` summary; independent of it, every worker tracks cheap
per-run telemetry (busy seconds, rows found and bytes shipped so far,
peak RSS) carried live by the heartbeats and at the end by the summary.
"""

from __future__ import annotations

import pickle
import sys
import time
import traceback
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import JoinConfig
from repro.core.local_join import StreamingSetJoin
from repro.core.metering import WorkMeter
from repro.core.shard_engine import build_shard_engine
from repro.obs.eventlog import RECORD_SCOPE, EventLog
from repro.obs.rectrace import EVENT_ID
from repro.obs.spans import PHASE_ID, WORKER_PHASES
from repro.parallel.codec import (
    INDEX,
    PROBE,
    TAG_DONE,
    TAG_ERROR,
    TAG_HEARTBEAT,
    TAG_MATCHES,
    MatchTable,
)
from repro.records import Record
from repro.routing.base import fanout_fraction
from repro.similarity.functions import get_similarity

__all__ = [
    "TAG_MATCHES", "TAG_DONE", "TAG_HEARTBEAT", "TAG_ERROR",
    "MATCH_CHUNK", "peak_rss_bytes", "build_shard_engine",
    "ShardWorker", "HeartbeatEmitter", "worker_main",
]

#: Rows per TAG_MATCHES frame — bounds peak frame size (~40 bytes/row).
MATCH_CHUNK = 16384

_MATCHES_TAG = bytes([TAG_MATCHES])
_HEARTBEAT_TAG = bytes([TAG_HEARTBEAT])

_ROUTE = PHASE_ID["route"]
_PROBE_PHASE = PHASE_ID["probe"]
_INSERT_PHASE = PHASE_ID["insert"]
_METER_FLUSH = PHASE_ID["meter_flush"]
_PIPE_WRITE = PHASE_ID["pipe_write"]

_EV_PROBE = RECORD_SCOPE | EVENT_ID["probe"]
_EV_INSERT = RECORD_SCOPE | EVENT_ID["insert"]
_EV_MATCH_EMIT = RECORD_SCOPE | EVENT_ID["match_emit"]


def peak_rss_bytes() -> int:
    """This process's peak resident set size in **bytes**, normalised
    across platforms (0 where the ``resource`` module is unavailable,
    e.g. Windows). ``getrusage`` reports ``ru_maxrss`` in KiB on Linux
    but bytes on macOS — callers should never have to know that."""
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX-only dependency
        return 0
    rss = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform != "darwin":
        rss *= 1024
    return rss


def _run_untimed(engine, event, emit, items) -> None:
    """The un-instrumented record body: one tight loop, no timing and
    no instrument test per record. ``event`` is the shard meter's
    bound ``event`` method, ``emit`` the match table's (``None``: a
    count-only worker, whose probes' rows are counted and dropped)."""
    probe = engine.probe
    insert = engine.insert
    for op, record in items:
        if op & PROBE:
            matches = probe(record)
            event("results", len(matches))
            if matches and emit is not None:
                emit(record.timestamp, record.rid, matches)
        if op & INDEX:
            insert(record)


class ShardWorker:
    """Executes batches against the shards hosted by one worker.

    ``spans_sample >= 1`` switches on wall-clock span recording with
    that downsampling stride (0 = off); ``trace_sample >= 1`` switches
    on per-record tracing with that rid stride (0 = off); ``worker``
    is the physical worker id. Nothing the worker sends carries it:
    the driver knows which worker each pipe belongs to.

    ``collect=False`` makes a count-only worker: its probes' rows are
    counted by the shard meters' ``results`` events and never emitted,
    so its emit buffer stays empty and it ships no match frame.
    """

    def __init__(
        self,
        config: JoinConfig,
        shard_ids: Sequence[int],
        num_shards: int,
        spans_sample: int = 0,
        worker: int = 0,
        trace_sample: int = 0,
        collect: bool = True,
    ):
        #: The worker's start: ``uptime_s`` counts from here, engine
        #: construction included.
        self.born = time.monotonic()
        self.config = config
        self.num_shards = num_shards
        self.worker = worker
        self.collect = collect
        self.func = get_similarity(config.similarity, config.threshold)
        self.meters: Dict[int, WorkMeter] = {}
        self.engines: Dict[int, StreamingSetJoin] = {}
        for shard in shard_ids:
            meter = WorkMeter()
            self.meters[shard] = meter
            self.engines[shard] = build_shard_engine(
                config, self.func, shard, num_shards, meter
            )
        #: The emit buffer: one batch's rows under a ``ship`` hook
        #: (:meth:`flush_matches` replaces it), the whole result when
        #: nobody ships (``process_batch`` + ``finish()`` callers),
        #: always empty when the worker does not ``collect``.
        self.matches = MatchTable()
        self.records = 0
        self.batches = 0
        self.busy_s = 0.0
        #: ``(start, end)`` monotonic spans of batch processing, for the
        #: driver's busy/idle timeline.
        self.intervals: List[Tuple[float, float]] = []
        #: Telemetry: match-frame bytes sent so far (what the ``ship``
        #: hook returned) — 0 throughout a count-only run, which ships
        #: no match frame. The run-end summary is not counted: it
        #: carries this count and cannot include itself.
        self.bytes_out = 0
        #: The worker's one event log — spans and trace events both —
        #: or ``None`` when neither is on: an uninstrumented worker
        #: calibrates nothing and allocates no columns.
        self.log: Optional[EventLog] = (
            EventLog(spans_sample, trace_sample)
            if spans_sample or trace_sample
            else None
        )
        #: Per-shard batch sequence numbers — the deterministic sampling
        #: key (a pure function of the shard plan and batch size, never
        #: of the wall clock or the worker count).
        self._batch_seq: Dict[int, int] = {}

    def counters(self) -> dict:
        """The rolling counters: one heartbeat's whole body, and the
        head of :meth:`finish`'s summary — O(shards) plus, when spans
        are on, a pass over the rows logged since the last call for the
        per-phase split. Pure read: touches no engine or meter state,
        so sampling can never perturb an observable."""
        if self.log is not None:
            by_id = self.log.phase_seconds()
            phase_s = {name: by_id[PHASE_ID[name]] for name in WORKER_PHASES}
        else:
            phase_s = {name: 0.0 for name in WORKER_PHASES}
        return {
            "uptime_s": time.monotonic() - self.born,
            "batches": self.batches,
            "records": self.records,
            # Rows the probes have found so far, emitted or not: the
            # shard meters' ``results`` events count whole rows.
            "matches": int(sum(
                meter.events.get("results", 0) for meter in self.meters.values()
            )),
            "live_postings": sum(
                engine.live_postings for engine in self.engines.values()
            ),
            "busy_s": self.busy_s,
            "bytes_out": self.bytes_out,
            "rss_bytes": peak_rss_bytes(),
            "phase_s": phase_s,
        }

    def run(
        self, records: Iterable[Record], plan, emitter=None, ship=None
    ) -> Dict[str, float]:
        """Walk the published ``records`` (a stream or a record list,
        anything iterable with a ``len``) in arrival order and process
        what ``plan`` assigns the hosted shards; returns the
        routing-fanout totals ``{"total", "count", "peak"}`` of the
        per-record reached-shards fraction (over every record and every
        shard, so all workers of a run return the same three numbers).

        A record's tasks land in per-shard buffers, each cut at
        ``config.batch_size`` and handed to :meth:`process_batch`;
        leftovers flush in shard order at the end. Per-shard batch
        boundaries and the cross-shard batch order are therefore a pure
        function of the plan and the config, whatever the worker count.
        After every batch, ``ship`` (``table -> bytes sent``) gets the
        rows it left in the emit buffer (:meth:`flush_matches`) and
        ``emitter`` (a :class:`HeartbeatEmitter`) is polled. With spans
        on, the loop's own time between two batches — plan lookups,
        fanout tally, buffer appends, never the ship — is one ``route``
        span per kept frame."""
        shards = plan.num_shards
        batch_size = self.config.batch_size
        tasks_of = plan.tasks
        log = self.log
        monotonic = time.monotonic
        engines = self.engines
        buffers: List[Optional[list]] = [
            [] if shard in engines else None for shard in range(shards)
        ]
        frames = 0
        mark = monotonic()

        def flush(shard: int, buffer: list) -> None:
            nonlocal frames, mark
            if log is not None and log.keep(frames):
                log.record(_ROUTE, mark, monotonic(), -1, frames)
            frames += 1
            self.process_batch(shard, buffer)
            buffer.clear()
            if ship is not None and len(self.matches):
                self.flush_matches(ship, shard)
            if emitter is not None:
                emitter.maybe_emit(self)
            if log is not None:
                mark = monotonic()

        fanout_total = 0.0
        fanout_peak = 0.0
        for record in records:
            tasks = tasks_of(record)
            fraction = fanout_fraction(len(tasks), shards)
            fanout_total += fraction
            if fraction > fanout_peak:
                fanout_peak = fraction
            for shard, op in tasks:
                buffer = buffers[shard]
                if buffer is None:
                    continue
                buffer.append((op, record))
                if len(buffer) >= batch_size:
                    flush(shard, buffer)
        for shard, buffer in enumerate(buffers):
            if buffer:
                flush(shard, buffer)
        return {
            "total": fanout_total, "count": len(records), "peak": fanout_peak
        }

    def process_batch(
        self, shard: int, items: Sequence[Tuple[int, Record]]
    ) -> None:
        """Probe → emit → insert every record of one batch, under one
        meter flush (charge_many/event_many exactness contract: totals
        stay bit-identical to per-record metering). A count-only worker
        (``collect=False``) skips the emit.

        ``timed`` is the batch's instrument selection (see the module
        docstring): selected records take the timed step, the stretches
        between them — the whole batch when nothing is selected — take
        :func:`_run_untimed`. Emitted spans are laid out from the batch
        start in canonical phase order (probe, insert, flush) —
        per-phase totals are exact, positions within the batch
        approximate (the phases interleave per record). No phase times
        the emit: it runs after the probe's end stamp, so its cost is
        the gap before the flush span."""
        seq = self._batch_seq.get(shard, 0)
        self._batch_seq[shard] = seq + 1
        log = self.log
        stride = log.trace_sample if log is not None else 0
        keep = log is not None and log.keep(seq)
        if keep:
            timed = range(len(items))
        elif stride:
            timed = [i for i, item in enumerate(items) if not item[1].rid % stride]
        else:
            timed = ()
        monotonic = time.monotonic
        engine = self.engines[shard]
        event = self.meters[shard].event
        emit = self.matches.emit if self.collect else None
        probe_s = insert_s = 0.0
        had_probe = had_insert = False
        cursor = 0
        start = monotonic()
        with engine.batched():
            for pos in timed:
                if cursor < pos:
                    _run_untimed(engine, event, emit, items[cursor:pos])
                cursor = pos + 1
                op, record = items[pos]
                traced = stride and not record.rid % stride
                if op & PROBE:
                    had_probe = True
                    t0 = monotonic()
                    matches = engine.probe(record)
                    t1 = monotonic()
                    probe_s += t1 - t0
                    if traced:
                        log.record(_EV_PROBE, t0, t1, shard, record.rid)
                    event("results", len(matches))
                    if matches:
                        if traced:
                            t0 = monotonic()
                        if emit is not None:
                            emit(record.timestamp, record.rid, matches)
                        if traced:
                            log.record(
                                _EV_MATCH_EMIT, t0, monotonic(), shard, record.rid
                            )
                if op & INDEX:
                    had_insert = True
                    t0 = monotonic()
                    engine.insert(record)
                    t1 = monotonic()
                    insert_s += t1 - t0
                    if traced:
                        log.record(_EV_INSERT, t0, t1, shard, record.rid)
            _run_untimed(engine, event, emit, items[cursor:] if cursor else items)
            flush_start = monotonic()
        end = monotonic()
        if keep:
            cursor = start
            if had_probe:
                log.record(_PROBE_PHASE, cursor, cursor + probe_s, shard, seq)
                cursor += probe_s
            if had_insert:
                log.record(_INSERT_PHASE, cursor, cursor + insert_s, shard, seq)
            log.record(_METER_FLUSH, flush_start, end, shard, seq)
        self.records += len(items)
        self.batches += 1
        self.busy_s += end - start
        self.intervals.append((start, end))

    def flush_matches(self, ship, shard: int) -> None:
        """Hand the emit buffer to ``ship`` as one table in canonical
        order (one shard's batch of an in-order stream is one run
        already) and start a fresh buffer — the frame views ``ship``
        takes pin the old columns, so replace, never clear. With spans
        on, the ship is one row of the batch ``shard`` just finished."""
        table = self.matches
        self.matches = MatchTable()
        table.sort()
        start = time.monotonic()
        self.bytes_out += ship(table)
        seq = self._batch_seq[shard] - 1
        if self.log is not None and self.log.keep(seq):
            self.log.record(_PIPE_WRITE, start, time.monotonic(), shard, seq)

    def finish(self) -> dict:
        """Final-postings events, canonical match order of whatever the
        emit buffer still holds, and the run-end summary: the last
        :meth:`counters` (the driver's final sample), the meters, the
        busy intervals and the event log — its columns (``None``
        without a log), row counts and per-stamp cost. ``lifetime_s``
        and ``peak_rss_bytes`` are the final ``uptime_s`` and
        ``rss_bytes`` under their ``worker_stats`` names."""
        for shard in sorted(self.engines):
            self.meters[shard].event(
                "final_postings", self.engines[shard].live_postings
            )
        self.matches.sort()
        log = self.log
        span_count, trace_count = log.counts() if log is not None else (0, 0)
        summary = self.counters()
        summary.update(
            meters={
                shard: {
                    "operations": dict(meter.operations),
                    "events": dict(meter.events),
                    "signals": dict(meter.signals),
                }
                for shard, meter in self.meters.items()
            },
            intervals=list(self.intervals),
            lifetime_s=summary["uptime_s"],
            peak_rss_bytes=summary["rss_bytes"],
            columns=log.columns() if log is not None else None,
            span_count=span_count,
            trace_count=trace_count,
            record_cost_s=log.record_cost_s if log is not None else 0.0,
        )
        return summary


class HeartbeatEmitter:
    """One worker's ``TAG_HEARTBEAT`` schedule: at a batch boundary
    where a sample is due, the worker's :meth:`ShardWorker.counters`
    go to the result pipe ``conn`` as a tagged pickle. The first sample
    is due ``interval`` (> 0) after the worker's start ``born``.
    """

    __slots__ = ("conn", "interval", "_next_due")

    def __init__(self, conn, interval: float, born: float):
        self.conn = conn
        self.interval = interval
        self._next_due = born + interval

    def maybe_emit(self, worker: "ShardWorker") -> None:
        """Write one sample iff the interval has elapsed."""
        now = time.monotonic()
        if now >= self._next_due:
            self._next_due = now + self.interval
            self.conn.send_bytes(_HEARTBEAT_TAG + pickle.dumps(worker.counters()))


def ship_matches(table: MatchTable, conn) -> int:
    """The one shipper of the results direction: cut ``table`` into
    ``MATCH_CHUNK`` frames and send each as it is cut, column views
    joined into a ``TAG_MATCHES`` pipe frame — never a second copy of
    the rows; returns the bytes sent."""
    sent = 0
    for i in range(0, len(table), MATCH_CHUNK):
        frame = b"".join((_MATCHES_TAG, *table.parts(i, i + MATCH_CHUNK)))
        conn.send_bytes(frame)
        sent += len(frame)
    return sent


def worker_main(
    conn,
    worker_id: int,
    config: JoinConfig,
    shard_ids: Sequence[int],
    records: Iterable[Record],
    plan,
    spans_sample: int = 0,
    heartbeat_interval: float = 0.0,
    trace_sample: int = 0,
    collect: bool = True,
) -> None:
    """Child-process entry point (module-level: spawn-context picklable).

    ``records`` (a :class:`~repro.streams.stream.RecordStream` or a
    record list) and ``plan`` (a
    :class:`~repro.parallel.planner.ShardPlan`) are the whole published
    input — inherited under ``fork``, pickled once under ``spawn`` —
    which :meth:`ShardWorker.run` walks for the hosted ``shard_ids``;
    nothing is read from ``conn``. A fault the walk raises (a stream
    whose arrival process goes backwards) is this worker's
    ``TAG_ERROR``.

    With ``heartbeat_interval > 0`` a rolling-counter ``TAG_HEARTBEAT``
    frame follows any batch that finds a sample due. The one
    ``TAG_DONE`` summary ends every run: its ``matches`` is the
    worker's found-row count, which the driver sums into the run's
    ``results``. With ``collect`` off the worker is count-only and
    sends no ``TAG_MATCHES`` frame.
    ``spans_sample`` / ``trace_sample`` are the :class:`ShardWorker`
    strides (0 = off).
    """
    try:
        worker = ShardWorker(
            config, shard_ids, plan.num_shards,
            spans_sample=spans_sample, worker=worker_id,
            trace_sample=trace_sample, collect=collect,
        )
        emitter = None
        if heartbeat_interval > 0:
            emitter = HeartbeatEmitter(conn, heartbeat_interval, worker.born)
        ship = partial(ship_matches, conn=conn)
        fanout = worker.run(records, plan, emitter, ship)
        summary = worker.finish()
        summary["fanout"] = fanout
        conn.send_bytes(bytes([TAG_DONE]) + pickle.dumps(summary))
    except Exception:
        try:
            conn.send_bytes(
                bytes([TAG_ERROR])
                + pickle.dumps(
                    f"worker {worker_id} failed:\n{traceback.format_exc()}"
                )
            )
        except Exception:
            pass
    finally:
        conn.close()
