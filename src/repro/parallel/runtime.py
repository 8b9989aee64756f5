"""The driver: feed a record stream through sharded worker processes.

Execution model::

    driver                          worker 0..W-1 (processes)
    ------                          -------------------------
    plan shards (router)            build engines for its shards
    route each record ──batches──>  probe/insert under one meter
    send EOF                        flush per batch
    drain matches + summaries <──   sort + stream matches, summary
    merge (sort, sum meters)

Determinism: the stream is routed over ``num_shards`` logical shards
(default ``config.num_workers``) regardless of the physical worker
count; each shard receives its records in arrival order (driver routes
sequentially, per-worker pipes are FIFO, and a worker processes frames
in receive order), so every shard engine performs the identical
operation sequence for any ``workers``/``batch_size``/executor choice.
The merged observables — match rows in ``(timestamp, rid_a, rid_b)``
order, summed integer meter totals — are therefore bit-identical
across configurations, which the differential tests and the ``repro
diff`` fingerprint gate both assert.

Three executors:

* ``"process"`` — real ``multiprocessing`` workers (the point).
* ``"inline"``  — same :class:`ShardWorker` code and codec round-trip,
  driven in-process: the single-core fallback and what the
  differential tests use to cover worker-count grids cheaply.
* :func:`run_serial` — no batching, no codec, direct per-record
  engine calls: the ground truth the other two must reproduce.
"""

from __future__ import annotations

import atexit
import math
import pickle
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import JoinConfig
from repro.core.metering import WorkMeter
from repro.obs.rectrace import (
    DEFAULT_TRACE_SAMPLE,
    EVENT_ID,
    RECTRACE_ARTEFACT,
    RECTRACE_SCHEMA_VERSION,
    TraceRecorder,
    latency_digest,
    latency_metrics,
    trace_to_rows,
    write_rectrace_jsonl,
)
from repro.obs.spans import (
    DRIVER,
    PHASE_ID,
    SPANS_SCHEMA_VERSION,
    SpanRecorder,
    spans_to_rows,
    write_spans_jsonl,
)
from repro.obs.timeseries import (
    DEFAULT_HEARTBEAT_INTERVAL,
    TelemetryRecorder,
)
from repro.parallel.codec import (
    INDEX,
    PROBE,
    TAG_BATCH,
    TAG_DONE,
    TAG_EOF,
    TAG_ERROR,
    TAG_HEARTBEAT,
    TAG_MATCHES,
    TAG_SHM_FRAME,
    TAG_SHM_MATCHES,
    TAG_SPANS,
    TAG_TRACE,
    BatchEncoder,
    MatchRow,
    decode_heartbeat,
    decode_match_batch,
    decode_record_batch,
    decode_shm_descriptor,
    decode_span_frame,
    decode_trace_frame,
    encode_heartbeat,
    encode_record_batch,
    encode_shm_descriptor,
    encode_span_frame,
    encode_trace_frame,
    record_batch_parts,
)
from repro.parallel.merge import (
    merge_matches,
    merge_meters,
    parallel_fingerprint,
    worker_health,
    worker_metrics,
    worker_timeline,
)
from repro.parallel.planner import ShardPlan, plan_shards
from repro.parallel.shm import (
    DEFAULT_RING_BYTES,
    MIN_RING_BYTES,
    RingBuffer,
    ShmRing,
    shm_supported,
)
from repro.parallel.worker import (
    ShardWorker,
    build_shard_engine,
    peak_rss_bytes,
    worker_main,
)
from repro.records import Record
from repro.routing.base import fanout_fraction

_U32 = struct.Struct("<I")

_SETUP = PHASE_ID["setup"]
_FEED = PHASE_ID["feed"]
_ENCODE = PHASE_ID["encode"]
_PIPE_WRITE = PHASE_ID["pipe_write"]
_SHM_WRITE = PHASE_ID["shm_write"]
_DRAIN = PHASE_ID["drain"]
_MERGE = PHASE_ID["merge"]
_DECODE = PHASE_ID["decode"]

_EV_FEED = EVENT_ID["feed"]
_EV_ENCODE = EVENT_ID["encode"]
_EV_PIPE_WRITE = EVENT_ID["pipe_write"]
_EV_DECODE = EVENT_ID["decode"]

EXECUTORS = ("process", "inline")
#: Batch transports: ``pipe`` ships whole frames through the result
#: pipe (the struct codec); ``shm`` ships the same column bytes through
#: per-worker shared-memory rings and only 21-byte descriptors through
#: the pipe (see :mod:`repro.parallel.shm`). ``"auto"`` is accepted by
#: the runner and resolves to shm for the process executor when the
#: platform supports it.
TRANSPORTS = ("pipe", "shm")


def _unlink_rings(channels) -> None:
    """The atexit backstop (and ``finally`` body): unlink every ring
    segment of one run. Idempotent — double unlinking is a no-op."""
    for pair in channels:
        for ring in pair:
            ring.unlink()


class ParallelWorkerError(RuntimeError):
    """A worker process failed; carries its formatted traceback."""


@dataclass
class ParallelJoinResult:
    """Everything one parallel run produced, already merged."""

    config: JoinConfig
    num_shards: int
    workers: int
    batch_size: int
    executor: str
    records: int
    #: Canonically ordered ``(timestamp, rid_a, rid_b, overlap,
    #: similarity)`` rows — ``rid_a`` is the later (probing) record.
    matches: List[MatchRow]
    operations: Dict[str, float]
    events: Dict[str, float]
    signals: Dict[str, float]
    #: Raw per-shard meter snapshots (summary format of
    #: :meth:`ShardWorker.finish`), for per-shard inspection.
    shard_meters: Dict[int, dict] = field(repr=False)
    #: Per physical worker: ``{"worker", "shards", "records",
    #: "batches", "busy_s", "intervals"}``.
    worker_stats: List[dict] = field(repr=False)
    #: Driver-observed routing fanout: ``{"total", "count", "peak"}``
    #: of the per-record reached-shards fraction.
    routing_fanout: Dict[str, float] = field(repr=False)
    #: Batch transport the run used (``"pipe"`` or ``"shm"``) — purely
    #: a mechanism label: every observable above is transport-invariant.
    transport: str = "pipe"
    #: Monotonic clock value at run start (base for worker intervals).
    started: float = 0.0
    wall_s: float = 0.0
    #: Spans artefact header (``None`` unless the run recorded spans):
    #: schema, wall time, executor/worker/shard shape, sampling stride
    #: and the recorder's own overhead budget per actor.
    span_header: Optional[Dict[str, object]] = field(default=None, repr=False)
    #: Merged driver + worker span dicts, rebased so 0 = run start and
    #: sorted by start time (``None`` unless the run recorded spans).
    span_rows: Optional[List[Dict[str, object]]] = field(default=None, repr=False)
    #: Full telemetry document (header line first) — ``None`` unless
    #: the run was started with telemetry enabled.
    telemetry: Optional[List[Dict[str, object]]] = field(default=None, repr=False)
    #: Record-trace artefact header (``None`` unless tracing was on):
    #: artefact/schema discriminators, run shape, sampling stride,
    #: traced-record count and the per-stage latency digest.
    trace_header: Optional[Dict[str, object]] = field(default=None, repr=False)
    #: Merged driver + worker trace events, rebased so 0 = run start
    #: (``None`` unless tracing was on).
    trace_rows: Optional[List[Dict[str, object]]] = field(default=None, repr=False)

    @property
    def results(self) -> int:
        return len(self.matches)

    @property
    def throughput(self) -> float:
        """Records per wall-clock second (0 for an empty run)."""
        return self.records / self.wall_s if self.wall_s > 0 else 0.0

    def operation(self, name: str) -> float:
        return self.operations.get(name, 0.0)

    def count(self, name: str) -> float:
        return self.events.get(name, 0.0)

    def fingerprint(self) -> Dict[str, object]:
        """``repro diff``-comparable digest (worker-count independent)."""
        return parallel_fingerprint(self)

    def timeline(self):
        """Per-worker busy/idle :class:`TimelineRecorder` (wall time)."""
        return worker_timeline(self)

    def health(self, thresholds=None):
        """Finalized :class:`HealthMonitor` (load skew across workers,
        routing fanout, pipe backpressure / worker starvation, engine
        signals)."""
        return worker_health(self, thresholds)

    def metrics_registry(self):
        """Per-worker wall-clock telemetry as an :class:`ObsRegistry`
        ready for the JSON/Prometheus exporters. When the run traced
        records, the registry also carries per-stage latency
        reservoirs (``rectrace_stage_latency_seconds``)."""
        registry = worker_metrics(self)
        if self.trace_rows is not None:
            latency_metrics(self.trace_rows, registry)
        return registry

    # -- spans ----------------------------------------------------------------
    def spans_document(self) -> List[Dict[str, object]]:
        """The full spans artefact (header line first), as the JSONL
        loader would return it. Raises unless the run was started with
        ``spans=True``."""
        if self.span_header is None or self.span_rows is None:
            raise ValueError(
                "this run recorded no spans "
                "(construct ParallelJoinRunner with spans=True)"
            )
        return [self.span_header] + list(self.span_rows)

    def write_spans(self, path: str) -> int:
        """Dump the spans artefact to ``path``; returns #lines."""
        document = self.spans_document()
        return write_spans_jsonl(path, document[0], document[1:])

    def phase_totals(self) -> Dict[str, object]:
        """Per-actor seconds by phase (see :func:`repro.obs.spans.phase_totals`)."""
        from repro.obs.spans import phase_totals

        return phase_totals(self.spans_document())

    # -- telemetry -----------------------------------------------------------
    def telemetry_document(self) -> List[Dict[str, object]]:
        """The full telemetry artefact (header line first). Raises
        unless the run was started with ``telemetry=True``."""
        if self.telemetry is None:
            raise ValueError(
                "this run recorded no telemetry "
                "(construct ParallelJoinRunner with telemetry=True)"
            )
        return list(self.telemetry)

    def telemetry_samples(self) -> int:
        """Heartbeat samples collected (0 without telemetry)."""
        if self.telemetry is None:
            return 0
        return sum(1 for row in self.telemetry if row.get("kind") == "sample")

    # -- record traces --------------------------------------------------------
    def rectrace_document(self) -> List[Dict[str, object]]:
        """The full record-trace artefact (header line first). Raises
        unless the run was started with ``trace=True``."""
        if self.trace_header is None or self.trace_rows is None:
            raise ValueError(
                "this run traced no records "
                "(construct ParallelJoinRunner with trace=True)"
            )
        return [self.trace_header] + list(self.trace_rows)

    def write_rectrace(self, path: str) -> int:
        """Dump the record-trace artefact to ``path``; returns #lines."""
        document = self.rectrace_document()
        return write_rectrace_jsonl(path, document[0], document[1:])

    def latency_digest(self) -> Dict[str, Dict[str, float]]:
        """Per-stage p50/p95/p99 latency digest of the traced records
        (raises unless the run was started with ``trace=True``)."""
        if self.trace_rows is None:
            raise ValueError(
                "this run traced no records "
                "(construct ParallelJoinRunner with trace=True)"
            )
        return latency_digest(self.trace_rows)


def _corpus_of(stream, records: Sequence[Record]) -> Sequence[Tuple[int, ...]]:
    corpus = getattr(stream, "corpus", None)
    if corpus is not None:
        return corpus
    return [record.tokens for record in records]


class ParallelJoinRunner:
    """Runs one config over real cores. See the module docstring.

    ``workers`` is the physical process count (capped at the shard
    count — an extra process would host zero shards); ``num_shards``
    defaults to ``config.num_workers`` so parallel runs shard the
    stream exactly like the simulated cluster; ``batch_size`` defaults
    to ``config.batch_size``. ``spans=True`` switches on wall-clock
    span recording in the driver and every worker (see
    :mod:`repro.obs.spans`); ``spans_sample`` is the deterministic
    batch-index downsampling stride for the high-rate batch-scoped
    phases (1 = record every batch).

    ``telemetry=True`` (implied by ``telemetry_out`` or an explicit
    ``heartbeat_interval``) switches on the live heartbeat channel
    (see :mod:`repro.obs.timeseries`): each worker samples its rolling
    counters every ``heartbeat_interval`` seconds onto a dedicated
    non-blocking pipe, and the driver aggregates them into a rolling
    time series with online health detection, optionally appended as
    JSONL to ``telemetry_out``. Telemetry is monitoring-plane only —
    every observable stays bit-identical with it on or off.

    ``trace=True`` switches on distributed per-record tracing (see
    :mod:`repro.obs.rectrace`): records with ``rid % trace_sample ==
    0`` are followed across the process boundary — the driver stamps
    feed/encode/pipe-write, the workers stamp
    decode/probe/insert/match-emit — and the merged, clock-rebased
    event rows land on the result (``trace_rows`` /
    ``rectrace_document()`` / ``latency_digest()``). The traced rid
    set is a pure function of rid, so it is identical across worker
    counts, batch sizes and executors; like spans and telemetry,
    tracing never changes an observable.

    ``transport`` picks how batch bytes reach the workers: ``"pipe"``
    (the struct codec over the result pipe — the default and the
    universal fallback), ``"shm"`` (per-worker shared-memory rings with
    descriptor-only pipe traffic — see :mod:`repro.parallel.shm`), or
    ``"auto"`` (shm for the process executor when the platform supports
    it). ``ring_bytes`` sizes each ring's data region; batches that
    cannot fit a ring fall back to pipe frames transparently. The
    transport is pure mechanism: observables are bit-identical across
    transports, which the differential grid asserts.
    """

    def __init__(
        self,
        config: JoinConfig,
        workers: int = 1,
        num_shards: Optional[int] = None,
        batch_size: Optional[int] = None,
        executor: str = "process",
        start_method: Optional[str] = None,
        spans: bool = False,
        spans_sample: int = 1,
        telemetry: bool = False,
        telemetry_out: Optional[str] = None,
        heartbeat_interval: Optional[float] = None,
        trace: bool = False,
        trace_sample: int = DEFAULT_TRACE_SAMPLE,
        transport: str = "pipe",
        ring_bytes: int = DEFAULT_RING_BYTES,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        if transport != "auto" and transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be 'auto' or one of {TRANSPORTS}, "
                f"got {transport!r}"
            )
        if ring_bytes < MIN_RING_BYTES:
            raise ValueError(
                f"ring_bytes must be >= {MIN_RING_BYTES}, got {ring_bytes}"
            )
        if transport == "auto":
            # Only the process executor has real segments to gain from;
            # inline defaults to the pipe codec round-trip.
            transport = (
                "shm"
                if executor == "process" and shm_supported()[0]
                else "pipe"
            )
        elif transport == "shm" and executor == "process":
            ok, reason = shm_supported()
            if not ok:
                raise ValueError(
                    f"shm transport is unsupported on this platform "
                    f"({reason}); use transport='pipe'"
                )
        if batch_size is None:
            batch_size = config.batch_size
        elif batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if spans_sample < 1:
            raise ValueError(f"spans_sample must be >= 1, got {spans_sample}")
        if trace_sample < 1:
            raise ValueError(f"trace_sample must be >= 1, got {trace_sample}")
        if heartbeat_interval is not None and (
            not math.isfinite(heartbeat_interval) or heartbeat_interval <= 0
        ):
            raise ValueError(
                f"heartbeat_interval must be a positive finite number of "
                f"seconds, got {heartbeat_interval}"
            )
        self.config = config
        self.workers = workers
        self.num_shards = num_shards
        self.batch_size = batch_size
        self.executor = executor
        self.start_method = start_method
        self.spans = bool(spans)
        self.spans_sample = spans_sample
        self.telemetry = (
            bool(telemetry)
            or telemetry_out is not None
            or heartbeat_interval is not None
        )
        self.telemetry_out = telemetry_out
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else DEFAULT_HEARTBEAT_INTERVAL
        )
        self.trace = bool(trace)
        self.trace_sample = trace_sample
        self.transport = transport
        self.ring_bytes = ring_bytes
        #: Segment names of the most recent shm run (empty otherwise) —
        #: the leak tests assert these are unattachable afterwards.
        self.shm_segment_names: List[str] = []

    # -- execution -----------------------------------------------------------
    def run(self, stream) -> ParallelJoinResult:
        """Route ``stream`` (a RecordStream or record iterable) through
        the workers; block until merged."""
        started = time.monotonic()
        self._run_started = started
        self._driver_spans = (
            SpanRecorder(sample=self.spans_sample) if self.spans else None
        )
        #: worker id → decoded span columns, filled while draining.
        self._worker_span_cols: Dict[int, tuple] = {}
        self._driver_trace = (
            TraceRecorder(sample=self.trace_sample) if self.trace else None
        )
        #: worker id → decoded trace columns, filled while draining.
        self._worker_trace_cols: Dict[int, tuple] = {}
        records = list(stream)
        plan = plan_shards(
            self.config, _corpus_of(stream, records), self.num_shards
        )
        shards = plan.num_shards
        workers = max(1, min(self.workers, shards))
        assignment = [plan.shards_of_worker(w, workers) for w in range(workers)]

        self._telemetry = (
            TelemetryRecorder(
                workers=workers,
                shards=shards,
                executor=self.executor,
                interval=self.heartbeat_interval,
                base=started,
                out_path=self.telemetry_out,
                transport=self.transport,
            )
            if self.telemetry
            else None
        )

        if self.executor == "process":
            chunks, summaries = self._run_process(
                plan, records, workers, assignment
            )
        else:
            chunks, summaries = self._run_inline(
                plan, records, workers, assignment
            )

        return self._merge(plan, records, workers, chunks, summaries, started)

    def _feed(self, plan: ShardPlan, records, send) -> Dict[str, float]:
        """Route records into per-shard batches; ``send(shard, items,
        traced_rids)`` ships one full batch. Returns the driver's
        fanout stats.

        The tracing stride is hoisted out of the loop entirely: the
        untraced run takes a loop with no per-record stride arithmetic
        at all, and the traced run accumulates each batch's traced rids
        *here*, alongside the buffer appends, so the senders stamp
        encode/write events without rescanning every batch for traced
        records (the rid set is a pure function of the stride either
        way — the worker still re-derives it independently)."""
        shards = plan.num_shards
        batch_size = self.batch_size
        tracer = self._driver_trace
        stride = tracer.sample if tracer is not None else 0
        monotonic = time.monotonic
        buffers: List[List[Tuple[int, Record]]] = [[] for _ in range(shards)]
        fanout_total = 0.0
        fanout_peak = 0.0
        count = 0
        if not stride:
            for record in records:
                tasks = plan.tasks(record)
                fraction = fanout_fraction(len(tasks), shards)
                fanout_total += fraction
                if fraction > fanout_peak:
                    fanout_peak = fraction
                count += 1
                for shard, op in tasks:
                    buffer = buffers[shard]
                    buffer.append((op, record))
                    if len(buffer) >= batch_size:
                        send(shard, buffer, None)
                        buffer.clear()
            for shard, buffer in enumerate(buffers):
                if buffer:
                    send(shard, buffer, None)
                    buffer.clear()
            return {
                "total": fanout_total, "count": count, "peak": fanout_peak
            }
        traced_rids: List[List[int]] = [[] for _ in range(shards)]
        for record in records:
            # The feed event covers the record's routing and buffer
            # appends — including any batch flush it triggers, which is
            # latency the record genuinely experiences at the driver.
            traced = not record.rid % stride
            if traced:
                t_rec = monotonic()
            tasks = plan.tasks(record)
            fraction = fanout_fraction(len(tasks), shards)
            fanout_total += fraction
            if fraction > fanout_peak:
                fanout_peak = fraction
            count += 1
            for shard, op in tasks:
                buffer = buffers[shard]
                buffer.append((op, record))
                if traced:
                    traced_rids[shard].append(record.rid)
                if len(buffer) >= batch_size:
                    send(shard, buffer, traced_rids[shard])
                    buffer.clear()
                    traced_rids[shard] = []
            if traced:
                tracer.record(_EV_FEED, record.rid, t_rec, monotonic())
        for shard, buffer in enumerate(buffers):
            if buffer:
                send(shard, buffer, traced_rids[shard])
                buffer.clear()
                traced_rids[shard] = []
        return {"total": fanout_total, "count": count, "peak": fanout_peak}

    def _run_process(self, plan, records, workers, assignment):
        import multiprocessing as mp

        spans = self._driver_spans
        spans_sample = self.spans_sample if spans is not None else 0
        tracer = self._driver_trace
        trace_sample = self.trace_sample if tracer is not None else 0
        telemetry = self._telemetry
        interval = self.heartbeat_interval
        monotonic = time.monotonic
        ctx = mp.get_context(self.start_method)
        use_shm = self.transport == "shm"
        conns = []
        procs = []
        hb_conns = []
        #: Per-worker ``(batch ShmRing, mirror ShmRing)`` — created (and
        #: therefore unlinked) by the driver, before the workers that
        #: attach by name exist.
        channels: List[Tuple[ShmRing, ShmRing]] = []
        self.shm_segment_names = []
        if use_shm:
            # Backstop first, segments second: whatever gets created is
            # already covered if the process dies mid-setup. The happy
            # path unlinks in the ``finally`` below and unregisters.
            atexit.register(_unlink_rings, channels)
        try:
            if use_shm:
                for w in range(workers):
                    pair = (ShmRing(self.ring_bytes), ShmRing(self.ring_bytes))
                    channels.append(pair)
                    self.shm_segment_names.extend(seg.name for seg in pair)
            for w in range(workers):
                parent, child = ctx.Pipe(duplex=True)
                hb_send = None
                if telemetry is not None:
                    # Dedicated one-way heartbeat pipe: the monitoring
                    # plane never shares the result pipe, so the
                    # deadlock-freedom argument is untouched.
                    hb_recv, hb_send = ctx.Pipe(duplex=False)
                    hb_conns.append(hb_recv)
                proc = ctx.Process(
                    target=worker_main,
                    args=(
                        child, w, self.config, assignment[w],
                        plan.num_shards, spans_sample,
                        hb_send, interval if telemetry is not None else 0.0,
                        trace_sample,
                        self.transport,
                        channels[w][0].name if use_shm else None,
                        channels[w][1].name if use_shm else None,
                    ),
                    daemon=True,
                )
                proc.start()
                child.close()
                if hb_send is not None:
                    hb_send.close()
                conns.append(parent)
                procs.append(proc)
            hb_active = list(hb_conns)
            if spans is not None:
                spans.record(_SETUP, self._run_started, monotonic())

            def pump() -> None:
                """Drain every buffered heartbeat frame (non-blocking).
                A closed write end (worker exited) retires its pipe."""
                for conn in list(hb_active):
                    while True:
                        try:
                            if not conn.poll(0):
                                break
                            msg = conn.recv_bytes()
                        except (EOFError, OSError):
                            hb_active.remove(conn)
                            break
                        if msg and msg[0] == TAG_HEARTBEAT:
                            telemetry.on_heartbeat(decode_heartbeat(msg))

            #: Per-shard batch sequence (the deterministic sampling key
            #: for the driver's encode/write spans — it mirrors the
            #: worker-side counter by construction: both sides see
            #: each shard's batches in the same order).
            batch_seq: Dict[int, int] = {}
            track = telemetry is not None
            stride = tracer.sample if tracer is not None else 0
            tstate = {
                "records": 0, "batches": 0, "bytes": 0,
                "encode_s": 0.0, "write_s": 0.0,
                "feed_t0": 0.0, "next": monotonic() + interval,
            }
            #: One tag+shard prefix and one scratch buffer for the whole
            #: feed: the pipe path allocates nothing per batch beyond
            #: the codec's own column slices.
            prefixes = [
                bytes([TAG_BATCH]) + _U32.pack(shard)
                for shard in range(plan.num_shards)
            ]
            encoder = BatchEncoder()
            #: Per-worker generation counters: frames the driver
            #: published (in) and mirror frames it consumed (out).
            generations = [0] * workers
            drain_generations = [0] * workers

            def driver_stats(feed_s: float) -> dict:
                stats = {
                    "records_routed": tstate["records"],
                    "batches_sent": tstate["batches"],
                    "bytes_out": tstate["bytes"],
                    "feed_s": feed_s,
                    "encode_s": tstate["encode_s"],
                    "pipe_write_s": 0.0 if use_shm else tstate["write_s"],
                }
                if use_shm:
                    stats["shm_write_s"] = tstate["write_s"]
                    stats["ring_occupancy"] = max(
                        pair[0].ring.occupancy() for pair in channels
                    )
                return stats

            def worker_died(w: int) -> ParallelWorkerError:
                """Surface a worker's death during the feed: prefer its
                own TAG_ERROR traceback if one is buffered."""
                conn = conns[w]
                try:
                    if conn.poll(0):
                        msg = conn.recv_bytes()
                        if msg and msg[0] == TAG_ERROR:
                            return ParallelWorkerError(pickle.loads(msg[1:]))
                except (EOFError, OSError):
                    pass
                return ParallelWorkerError(
                    f"worker {w} died mid-feed (pipe closed before EOF)"
                )

            def wait_claim(w: int, ring: RingBuffer, length: int):
                """Credit wait: sleep-poll the consumer's tail counter.
                The worker releases every frame right after decoding it
                and sends nothing before EOF, so the wait is bounded —
                unless the worker died, which the periodic liveness
                check turns into a pointed error instead of a hang."""
                claim = ring.try_claim(length)
                polls = 0
                while claim is None:
                    if track:
                        pump()
                    time.sleep(0.0002)
                    polls += 1
                    if polls % 64 == 0:
                        if conns[w].poll(0) or not procs[w].is_alive():
                            raise worker_died(w)
                    claim = ring.try_claim(length)
                return claim

            def send_pipe(shard: int, items, traced) -> None:
                if spans is None and not track and tracer is None:
                    conns[shard % workers].send_bytes(
                        encoder.encode(prefixes[shard], items)
                    )
                    return
                seq = batch_seq.get(shard, 0)
                batch_seq[shard] = seq + 1
                keep = spans is not None and spans.keep(seq)
                # Traced rids come pre-accumulated from the feed loop —
                # no per-batch rescan here.
                traced_rids = traced if traced else None
                if not keep and not track and not traced_rids:
                    conns[shard % workers].send_bytes(
                        encoder.encode(prefixes[shard], items)
                    )
                    return
                t0 = monotonic()
                frame = encoder.encode(prefixes[shard], items)
                t1 = monotonic()
                conns[shard % workers].send_bytes(frame)
                t2 = monotonic()
                if keep:
                    spans.record(_ENCODE, t0, t1, shard, seq)
                    spans.record(_PIPE_WRITE, t1, t2, shard, seq)
                if traced_rids:
                    # Every traced record in the batch inherits the
                    # batch's encode and pipe-write windows.
                    for rid in traced_rids:
                        tracer.record(_EV_ENCODE, rid, t0, t1, shard)
                        tracer.record(_EV_PIPE_WRITE, rid, t1, t2, shard)
                if track:
                    tstate["encode_s"] += t1 - t0
                    tstate["write_s"] += t2 - t1
                    tstate["batches"] += 1
                    tstate["records"] += len(items)
                    tstate["bytes"] += len(frame)
                    if t2 >= tstate["next"]:
                        tstate["next"] = t2 + interval
                        pump()
                        telemetry.driver_tick(
                            driver_stats(t2 - tstate["feed_t0"])
                        )

            def send_shm(shard: int, items, traced) -> None:
                w = shard % workers
                seq = batch_seq.get(shard, 0)
                batch_seq[shard] = seq + 1
                keep = spans is not None and spans.keep(seq)
                traced_rids = traced if traced else None
                timed = keep or track or bool(traced_rids)
                if timed:
                    t0 = monotonic()
                parts = record_batch_parts(items)
                total = sum(len(part) for part in parts)
                if timed:
                    t1 = monotonic()
                ring = channels[w][0].ring
                claim = ring.try_claim(total)
                if claim is None and not ring.claimable(total):
                    # A batch too large for the ring (or un-claimable at
                    # this wrap offset): per-frame pipe-codec fallback.
                    frame = bytearray(prefixes[shard])
                    for part in parts:
                        frame += part
                    sent = len(frame)
                    try:
                        conns[w].send_bytes(frame)
                    except OSError:
                        raise worker_died(w) from None
                else:
                    if claim is None:
                        claim = wait_claim(w, ring, total)
                    offset, advance = claim
                    ring.write(offset, parts)
                    ring.publish(advance)
                    descriptor = encode_shm_descriptor(
                        TAG_SHM_FRAME, shard, offset, total, advance,
                        generations[w],
                    )
                    generations[w] += 1
                    sent = len(descriptor) + total
                    try:
                        conns[w].send_bytes(descriptor)
                    except OSError:
                        raise worker_died(w) from None
                if timed:
                    t2 = monotonic()
                if keep:
                    spans.record(_ENCODE, t0, t1, shard, seq)
                    spans.record(_SHM_WRITE, t1, t2, shard, seq)
                if traced_rids:
                    # The trace event vocabulary is transport-neutral:
                    # pipe_write is "the transport publish window",
                    # here the ring copy + descriptor send.
                    for rid in traced_rids:
                        tracer.record(_EV_ENCODE, rid, t0, t1, shard)
                        tracer.record(_EV_PIPE_WRITE, rid, t1, t2, shard)
                if track:
                    tstate["encode_s"] += t1 - t0
                    tstate["write_s"] += t2 - t1
                    tstate["batches"] += 1
                    tstate["records"] += len(items)
                    tstate["bytes"] += sent
                    if t2 >= tstate["next"]:
                        tstate["next"] = t2 + interval
                        pump()
                        telemetry.driver_tick(
                            driver_stats(t2 - tstate["feed_t0"])
                        )

            send = send_shm if use_shm else send_pipe
            t_feed = monotonic()
            tstate["feed_t0"] = t_feed
            self._fanout = self._feed(plan, records, send)
            if spans is not None:
                spans.record(_FEED, t_feed, monotonic())
            if track:
                # Closing driver row: cumulative feed totals, so every
                # telemetry artefact carries at least one driver tick.
                t_now = monotonic()
                pump()
                telemetry.driver_tick(driver_stats(t_now - t_feed))

            t_drain = monotonic()
            for w, conn in enumerate(conns):
                try:
                    conn.send_bytes(bytes([TAG_EOF]))
                except OSError:
                    raise worker_died(w) from None

            chunks: List[List[MatchRow]] = []
            summaries = []
            for w, conn in enumerate(conns):
                rows: List[MatchRow] = []
                while True:
                    try:
                        if track:
                            # Keep ingesting live samples while blocked
                            # on a straggler's results.
                            while not conn.poll(0.05):
                                pump()
                        msg = conn.recv_bytes()
                    except EOFError:
                        raise ParallelWorkerError(
                            f"worker {w} exited without a summary "
                            f"(killed or crashed before reporting)"
                        ) from None
                    tag = msg[0]
                    if tag == TAG_MATCHES:
                        rows.extend(decode_match_batch(msg[1:]))
                    elif tag == TAG_SHM_MATCHES:
                        _, offset, length, advance, generation = (
                            decode_shm_descriptor(msg[1:])
                        )
                        if generation != drain_generations[w]:
                            raise ParallelWorkerError(
                                f"worker {w} mirror ring desynced: frame "
                                f"generation {generation}, expected "
                                f"{drain_generations[w]}"
                            )
                        drain_generations[w] += 1
                        ring = channels[w][1].ring
                        # decode copies the columns out; releasing right
                        # after returns the credit a blocked worker may
                        # be waiting on.
                        rows.extend(
                            decode_match_batch(ring.view(offset, length))
                        )
                        ring.release(advance)
                    elif tag == TAG_SPANS:
                        self._worker_span_cols[w] = decode_span_frame(msg[1:])
                    elif tag == TAG_TRACE:
                        self._worker_trace_cols[w] = decode_trace_frame(msg[1:])
                    elif tag == TAG_DONE:
                        summaries.append(pickle.loads(msg[1:]))
                        break
                    elif tag == TAG_ERROR:
                        raise ParallelWorkerError(pickle.loads(msg[1:]))
                    else:
                        raise ParallelWorkerError(
                            f"worker {w} sent unknown frame tag {tag}"
                        )
                chunks.append(rows)
            for proc in procs:
                proc.join()
            if track:
                # Workers closed their heartbeat ends on exit; drain
                # whatever is still buffered (the flagged final
                # samples) through to EOF.
                pump()
            if spans is not None:
                spans.record(_DRAIN, t_drain, monotonic())
            return chunks, summaries
        finally:
            for conn in conns:
                conn.close()
            for conn in hb_conns:
                conn.close()
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join()
            if use_shm:
                # Unlink after the workers are gone, on every exit path
                # — normal return, worker crash, KeyboardInterrupt —
                # then retire the atexit backstop (unlink is idempotent,
                # but a later run re-registers a fresh channel list).
                _unlink_rings(channels)
                atexit.unregister(_unlink_rings)

    def _run_inline(self, plan, records, workers, assignment):
        spans = self._driver_spans
        spans_sample = self.spans_sample if spans is not None else 0
        tracer = self._driver_trace
        trace_sample = self.trace_sample if tracer is not None else 0
        telemetry = self._telemetry
        interval = self.heartbeat_interval
        monotonic = time.monotonic
        born = monotonic()
        pool = [
            ShardWorker(
                self.config, assignment[w], plan.num_shards,
                spans_sample=spans_sample, worker=w,
                trace_sample=trace_sample,
            )
            for w in range(workers)
        ]
        if spans is not None:
            spans.record(_SETUP, self._run_started, monotonic())

        #: Inline heartbeat state: per-worker sample sequence and next
        #: due time. Samples round-trip through the wire codec so the
        #: inline differential grid covers the heartbeat frame format
        #: exactly like it covers the record/span codecs.
        hb_seq = [0] * workers
        hb_next = [born + interval] * workers

        def emit_heartbeat(worker: ShardWorker, final: bool = False) -> None:
            now = monotonic()
            frame = encode_heartbeat(
                worker.worker,
                hb_seq[worker.worker],
                now - born,
                now,
                worker.telemetry_snapshot(),
                dropped=0,
                final=final,
            )
            hb_seq[worker.worker] += 1
            hb_next[worker.worker] = now + interval
            telemetry.on_heartbeat(decode_heartbeat(frame))

        batch_seq: Dict[int, int] = {}
        use_shm = self.transport == "shm"
        #: Inline rings are plain ``bytearray``-backed — the identical
        #: claim/publish/release protocol with no real segments, which
        #: is what lets the differential grid cover ring wraparound
        #: deterministically on any platform, processes or not.
        rings = (
            [RingBuffer.local(self.ring_bytes) for _ in range(workers)]
            if use_shm
            else None
        )

        def materialize(worker: ShardWorker, items):
            """Produce the decode buffer for one batch: a pipe-codec
            bytes object, or a zero-copy ring view (published then
            immediately consumed — the inline executor is both ends of
            the ring, so wraparound happens and credits always clear).
            Returns ``(payload, advance, ring)``; a non-zero advance
            must be released after decode."""
            if not use_shm:
                return encode_record_batch(items), 0, None
            ring = rings[worker.worker]
            parts = record_batch_parts(items)
            total = sum(len(part) for part in parts)
            claim = ring.try_claim(total)
            if claim is None:
                # Un-claimable (frame ~ring-sized): pipe-codec fallback,
                # same as the process executor.
                return b"".join(parts), 0, None
            offset, advance = claim
            ring.write(offset, parts)
            ring.publish(advance)
            return ring.view(offset, total), advance, ring

        def send(shard: int, items, traced) -> None:
            # Round-trip through the codec so inline runs exercise the
            # exact wire path (and records arrive re-materialized, as
            # they would from a pipe or a ring). Traced rids arrive
            # pre-accumulated from the feed loop.
            worker = pool[shard % workers]
            traced_rids = traced if traced else None
            keep = False
            if spans is not None:
                seq = batch_seq.get(shard, 0)
                batch_seq[shard] = seq + 1
                keep = spans.keep(seq)
            if keep or traced_rids:
                t0 = monotonic()
                payload, advance, ring = materialize(worker, items)
                t1 = monotonic()
                if keep:
                    spans.record(_ENCODE, t0, t1, shard, seq)
                if traced_rids:
                    for rid in traced_rids:
                        tracer.record(_EV_ENCODE, rid, t0, t1, shard)
            else:
                payload, advance, ring = materialize(worker, items)
            worker.bytes_in += len(payload)
            span_decode = worker.will_sample(shard)
            if span_decode or traced_rids:
                wseq = worker._batch_seq.get(shard, 0)
                t0 = monotonic()
                decoded = decode_record_batch(payload)
                t1 = monotonic()
                if span_decode:
                    worker.spans.record(_DECODE, t0, t1, shard, wseq)
                if traced_rids:
                    # Stamped into the *worker's* recorder, mirroring
                    # worker_main (no pipe-write event inline — there
                    # is no pipe).
                    wtracer = worker.tracer
                    for rid in traced_rids:
                        wtracer.record(_EV_DECODE, rid, t0, t1, shard)
            else:
                decoded = decode_record_batch(payload)
            if advance:
                ring.release(advance)
            worker.process_batch(shard, decoded)
            if telemetry is not None and monotonic() >= hb_next[worker.worker]:
                emit_heartbeat(worker)

        t_feed = monotonic()
        self._fanout = self._feed(plan, records, send)
        if spans is not None:
            spans.record(_FEED, t_feed, monotonic())
        for worker in pool:
            worker.lifetime_s = monotonic() - born
        if telemetry is not None:
            # The flagged final sample per worker, mirroring the
            # process executor's EOF heartbeat.
            for worker in pool:
                emit_heartbeat(worker, final=True)
        summaries = [worker.finish() for worker in pool]
        if telemetry is not None:
            for w, summary in enumerate(summaries):
                summary["heartbeats"] = hb_seq[w]
                summary["heartbeats_dropped"] = 0
        if spans is not None:
            # Round-trip worker spans through the wire frame too, for
            # the same inline-covers-the-codec reason as above.
            for w, worker in enumerate(pool):
                self._worker_span_cols[w] = decode_span_frame(
                    encode_span_frame(*worker.spans.columns())
                )
        if tracer is not None:
            # Same round-trip for the trace columns: the inline
            # differential grid covers the TAG_TRACE frame format.
            for w, worker in enumerate(pool):
                self._worker_trace_cols[w] = decode_trace_frame(
                    encode_trace_frame(*worker.tracer.columns())
                )
        return [worker.matches for worker in pool], summaries

    def _merge(
        self, plan, records, workers, chunks, summaries, started
    ) -> ParallelJoinResult:
        spans = getattr(self, "_driver_spans", None)
        t_merge = time.monotonic()
        shard_meters: Dict[int, dict] = {}
        worker_stats = []
        for w, summary in enumerate(summaries):
            shard_meters.update(summary["meters"])
            worker_stats.append(
                {
                    "worker": w,
                    "shards": plan.shards_of_worker(w, workers),
                    "records": summary["records"],
                    "batches": summary["batches"],
                    "busy_s": summary["busy_s"],
                    "intervals": summary["intervals"],
                    "blocked_s": summary.get("blocked_s", 0.0),
                    "bytes_in": summary.get("bytes_in", 0),
                    "bytes_out": summary.get("bytes_out", 0),
                    "lifetime_s": summary.get("lifetime_s", 0.0),
                    "peak_rss_bytes": summary.get("peak_rss_bytes", 0),
                    "span_count": summary.get("span_count", 0),
                    "heartbeats": summary.get("heartbeats", 0),
                    "heartbeats_dropped": summary.get("heartbeats_dropped", 0),
                }
            )
        operations, events, signals = merge_meters(shard_meters)
        matches = merge_matches(chunks)
        fanout = getattr(self, "_fanout", {"total": 0.0, "count": 0, "peak": 0.0})
        if fanout["count"]:
            peak = fanout["peak"]
            if (
                "routing_fanout_fraction" not in signals
                or peak > signals["routing_fanout_fraction"]
            ):
                signals["routing_fanout_fraction"] = peak
        if spans is not None:
            spans.record(_MERGE, t_merge, time.monotonic())
        wall_s = time.monotonic() - started

        telemetry_doc = None
        recorder = getattr(self, "_telemetry", None)
        if recorder is not None:
            recorder.finalize(wall_s, len(records), len(matches))
            telemetry_doc = recorder.document()

        span_header = span_rows = None
        if spans is not None:
            span_rows = spans.rows(base=started, worker=DRIVER)
            overhead_workers: Dict[str, dict] = {}
            for w, summary in enumerate(summaries):
                cols = self._worker_span_cols.get(w)
                if cols is not None:
                    span_rows.extend(spans_to_rows(*cols, base=started, worker=w))
                count = summary.get("span_count", 0)
                cost = summary.get("span_record_cost_s", 0.0)
                overhead_workers[str(w)] = {
                    "count": count,
                    "record_cost_s": round(cost, 12),
                    "estimated_s": round(count * cost, 9),
                }
            span_rows.sort(key=lambda r: (r["start"], r["end"], r["worker"]))
            span_header = {
                "kind": "header",
                "schema": SPANS_SCHEMA_VERSION,
                "wall_s": round(wall_s, 9),
                "executor": self.executor,
                "transport": self.transport,
                "workers": workers,
                "shards": plan.num_shards,
                "batch_size": self.batch_size,
                "batches": sum(s["batches"] for s in summaries),
                "sample": self.spans_sample,
                "overhead": {
                    "driver": {
                        "count": len(spans),
                        "record_cost_s": round(spans.record_cost_s, 12),
                        "estimated_s": round(spans.estimated_overhead_s(), 9),
                    },
                    "workers": overhead_workers,
                },
            }

        trace_header = trace_rows = None
        tracer = getattr(self, "_driver_trace", None)
        if tracer is not None:
            # Driver and worker stamps share one comparable monotonic
            # clock (workers are forked/spawned from this process on
            # the same host), so rebasing every column to run start is
            # the whole clock alignment story — see DESIGN §13.
            trace_rows = tracer.rows(base=started, worker=DRIVER)
            for w in range(workers):
                cols = self._worker_trace_cols.get(w)
                if cols is not None:
                    trace_rows.extend(
                        trace_to_rows(*cols, base=started, worker=w)
                    )
            trace_rows.sort(
                key=lambda r: (r["rid"], r["start"], r["end"], r["worker"])
            )
            traced = {row["rid"] for row in trace_rows}
            trace_header = {
                "kind": "header",
                "artefact": RECTRACE_ARTEFACT,
                "schema": RECTRACE_SCHEMA_VERSION,
                "wall_s": round(wall_s, 9),
                "executor": self.executor,
                "transport": self.transport,
                "workers": workers,
                "shards": plan.num_shards,
                "batch_size": self.batch_size,
                "records": len(records),
                "sample": self.trace_sample,
                "traced": len(traced),
                "events": len(trace_rows),
                "stages": latency_digest(trace_rows),
            }
        return ParallelJoinResult(
            config=self.config,
            num_shards=plan.num_shards,
            workers=workers,
            batch_size=self.batch_size,
            executor=self.executor,
            records=len(records),
            matches=matches,
            operations=operations,
            events=events,
            signals=signals,
            shard_meters=shard_meters,
            worker_stats=worker_stats,
            routing_fanout=fanout,
            transport=self.transport,
            started=started,
            wall_s=wall_s,
            span_header=span_header,
            span_rows=span_rows,
            telemetry=telemetry_doc,
            trace_header=trace_header,
            trace_rows=trace_rows,
        )


def run_serial(
    config: JoinConfig, stream, num_shards: Optional[int] = None
) -> ParallelJoinResult:
    """Ground-truth serial execution of the identical sharded workload.

    Same shard plan, same engines, same per-record schedule — but no
    batching, no codec, no processes: every probe/insert hits its
    engine directly and meters per record. The parallel runtime must
    reproduce this result bit-for-bit on every observable; the
    differential tests diff against this function.
    """
    started = time.monotonic()
    records = list(stream)
    plan = plan_shards(config, _corpus_of(stream, records), num_shards)
    shards = plan.num_shards
    meters = {shard: WorkMeter() for shard in range(shards)}
    engines = {
        shard: build_shard_engine(config, plan.func, shard, shards, meters[shard])
        for shard in range(shards)
    }
    matches: List[MatchRow] = []
    fanout_total = 0.0
    fanout_peak = 0.0
    for record in records:
        tasks = plan.tasks(record)
        fraction = fanout_fraction(len(tasks), shards)
        fanout_total += fraction
        if fraction > fanout_peak:
            fanout_peak = fraction
        for shard, op in tasks:
            engine = engines[shard]
            if op & PROBE:
                found = engine.probe(record)
                meters[shard].event("results", len(found))
                ts, rid = record.timestamp, record.rid
                for m in found:
                    matches.append((ts, rid, m.partner.rid, m.overlap, m.similarity))
            if op & INDEX:
                engine.insert(record)
    for shard in range(shards):
        meters[shard].event("final_postings", engines[shard].live_postings)
    matches.sort()

    shard_meters = {
        shard: {
            "operations": dict(meter.operations),
            "events": dict(meter.events),
            "signals": dict(meter.signals),
        }
        for shard, meter in meters.items()
    }
    operations, events, signals = merge_meters(shard_meters)
    fanout = {"total": fanout_total, "count": len(records), "peak": fanout_peak}
    if fanout["count"] and (
        "routing_fanout_fraction" not in signals
        or fanout_peak > signals["routing_fanout_fraction"]
    ):
        signals["routing_fanout_fraction"] = fanout_peak
    wall_s = time.monotonic() - started
    return ParallelJoinResult(
        config=config,
        num_shards=shards,
        workers=1,
        batch_size=0,
        executor="serial",
        records=len(records),
        matches=matches,
        operations=operations,
        events=events,
        signals=signals,
        shard_meters=shard_meters,
        worker_stats=[
            {
                "worker": 0,
                "shards": list(range(shards)),
                "records": len(records),
                "batches": 0,
                "busy_s": wall_s,
                "intervals": [(started, started + wall_s)],
                "blocked_s": 0.0,
                "bytes_in": 0,
                "bytes_out": 0,
                "lifetime_s": wall_s,
                "peak_rss_bytes": peak_rss_bytes(),
                "span_count": 0,
            }
        ],
        routing_fanout=fanout,
        started=started,
        wall_s=wall_s,
    )
