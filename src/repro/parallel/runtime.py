"""The driver: publish a record stream once to sharded worker processes.

Execution model::

    driver                          worker 0..W-1 (processes)
    ------                          -------------------------
    plan from the corpus head       (start-up arguments: config,
    spawn workers ───────────────>   hosted shards, stream, plan)
                                    build engines for its shards
                                    walk the stream, building each
                                    record; keep its shards' tasks,
                                    probe/insert per batch
    drain every worker at once <──  ship each batch's matches as it
    (collect frames, or count)      finishes (only if collecting); one
    merge (sort, sum meters)        run-end summary last

Determinism: the stream is routed over ``config.num_workers`` logical
shards — the config is the one place a run's shard count and batch size
are set — regardless of the physical worker count; every worker walks
the same published stream in arrival order through the same pure
:class:`~repro.parallel.planner.ShardPlan`, so each shard engine
performs the identical operation sequence for any ``workers``,
``config.batch_size`` or start method. The merged observables —
match rows in ``(timestamp, rid_a, rid_b)`` order, summed integer meter
totals — are therefore bit-identical across configurations, which the
differential tests and the ``repro diff`` fingerprint gate both assert.

One executor: every :class:`ParallelJoinRunner` run starts real
``multiprocessing`` workers. :func:`run_serial` — no batching, direct
per-record engine calls — is the ground truth it must reproduce.

One publish, no record wire: :meth:`ParallelJoinRunner.run` hands every
worker ``(config, hosted shards, stream, plan)`` once — inherited
under ``fork``, pickled once under ``spawn``, one code path either way
— and :meth:`ShardWorker.run` self-selects its shards' tasks from them.
A :class:`~repro.streams.stream.RecordStream` is published as it is:
its corpus tuples plus its arrival process, which is replayable, so
each worker builds every :class:`~repro.records.Record` itself as it
walks and the driver never holds one. Any other record iterable is
listed once and published as that list; the worker's walk is the same
loop for both.
The driver writes nothing after start-up: it goes from spawn straight
to draining results, which return over one pipe per worker — the only
results wire, and the only pipe a worker has: live heartbeats are
frames on it too.

Results stream: rows cross the pipe only when someone reads them.
A collecting run (``run(stream)``, the default) has its workers ship at
every batch boundary that has rows, and one loop over
:func:`multiprocessing.connection.wait` consumes a frame when it
arrives, whoever sent it: frames extend per-worker tables that
:func:`~repro.parallel.merge.merge_matches` puts in canonical order. A
count-only run (``run(stream, collect=False)``: only the result's size
is wanted) starts count-only workers, which emit and ship no rows; the
drain then reads heartbeats and summaries only. Either way the run's
``results`` is the sum of the workers' found-row counts, read from
their summaries.

Every stamp — spans and record-trace events alike — lands in one
:class:`~repro.obs.eventlog.EventLog` per actor (the driver's on the
per-run :class:`_Run`, each worker's shipped back inside its
``TAG_DONE`` summary), and one merge helper
(:meth:`ParallelJoinRunner._artefacts`) splits them into the two JSONL
artefacts. Placement and the run's log live on :class:`_Run`; the
runner holds configuration only.
"""

from __future__ import annotations

import math
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import PLAN_SAMPLE_SIZE, JoinConfig
from repro.core.metering import WorkMeter
from repro.obs.artefact import write_jsonl
from repro.obs.eventlog import EventLog, log_rows
from repro.obs.rectrace import latency_digest, latency_metrics, rectrace_header
from repro.obs.spans import DRIVER, PHASE_ID, SPANS_SCHEMA_VERSION
from repro.obs.timeseries import (
    DEFAULT_HEARTBEAT_INTERVAL,
    TelemetryRecorder,
)
from repro.parallel.codec import (
    INDEX,
    PROBE,
    TAG_DONE,
    TAG_ERROR,
    TAG_HEARTBEAT,
    TAG_MATCHES,
    MatchTable,
    decode_match_batch,
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
from repro.parallel.worker import build_shard_engine, peak_rss_bytes, worker_main
from repro.routing.base import fanout_fraction
from repro.streams.stream import RecordStream

_SETUP = PHASE_ID["setup"]
_DRAIN = PHASE_ID["drain"]
_MERGE = PHASE_ID["merge"]

#: What a :class:`ParallelJoinRunner` run's artefacts and result say
#: ran them (``run_serial`` says ``"serial"``, the simulator
#: ``"simulated"``).
EXECUTOR = "process"

#: The one value ``ParallelJoinRunner(transport=)`` accepts: results
#: come back over one pipe per worker.
TRANSPORT = "pipe"

#: What a worker's ``worker_stats`` entry keeps of its summary.
WORKER_STATS = (
    "records", "batches", "busy_s", "intervals", "bytes_out", "lifetime_s",
    "peak_rss_bytes", "span_count",
)


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
    #: similarity)`` rows — ``rid_a`` is the later (probing) record —
    #: as columns; a sequence of ``MatchRow`` tuples to its readers.
    #: ``None`` for a count-only run (``collect=False``), which holds
    #: no rows.
    matches: Optional[MatchTable]
    #: Match rows the run found: the sum of the workers' found-row
    #: counts, collected or not — always ``events["results"]``, and
    #: ``len(matches)`` when collected.
    results: int
    operations: Dict[str, float]
    events: Dict[str, float]
    signals: Dict[str, float]
    #: Raw per-shard meter snapshots (summary format of
    #: :meth:`ShardWorker.finish`), for per-shard inspection.
    shard_meters: Dict[int, dict] = field(repr=False)
    #: Per physical worker: ``{"worker", "shards", "heartbeats"}`` and
    #: the :data:`WORKER_STATS` keys of its summary.
    worker_stats: List[dict] = field(repr=False)
    #: Driver-observed routing fanout: ``{"total", "count", "peak"}``
    #: of the per-record reached-shards fraction.
    routing_fanout: Dict[str, float] = field(repr=False)
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

    def health(self):
        """Finalized :class:`HealthMonitor` (load skew across workers,
        routing fanout, engine signals)."""
        return worker_health(self)

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
        a ``spans_sample`` stride."""
        if self.span_header is None or self.span_rows is None:
            raise ValueError(
                "this run recorded no spans "
                "(construct ParallelJoinRunner with spans_sample >= 1)"
            )
        return [self.span_header] + list(self.span_rows)

    def write_spans(self, path: str) -> int:
        """Dump the spans artefact to ``path``; returns #lines."""
        document = self.spans_document()
        return write_jsonl(path, document[0], document[1:])

    def phase_totals(self) -> Dict[str, object]:
        """Per-actor seconds by phase (see :func:`repro.obs.spans.phase_totals`)."""
        from repro.obs.spans import phase_totals

        return phase_totals(self.spans_document())

    # -- telemetry -----------------------------------------------------------
    def telemetry_samples(self) -> int:
        """Heartbeat samples collected (0 without telemetry)."""
        if self.telemetry is None:
            return 0
        return sum(1 for row in self.telemetry if row.get("kind") == "sample")

    # -- record traces --------------------------------------------------------
    def rectrace_document(self) -> List[Dict[str, object]]:
        """The full record-trace artefact (header line first). Raises
        unless the run was started with a ``trace_sample`` stride."""
        if self.trace_header is None or self.trace_rows is None:
            raise ValueError(
                "this run traced no records "
                "(construct ParallelJoinRunner with trace_sample >= 1)"
            )
        return [self.trace_header] + list(self.trace_rows)

    def write_rectrace(self, path: str) -> int:
        """Dump the record-trace artefact to ``path``; returns #lines."""
        document = self.rectrace_document()
        return write_jsonl(path, document[0], document[1:])

    def latency_digest(self) -> Dict[str, Dict[str, float]]:
        """Per-stage p50/p95/p99 latency digest of the traced records
        (raises like :meth:`rectrace_document` on an untraced run)."""
        return latency_digest(self.rectrace_document()[1:])


@dataclass
class _Run:
    """What one :meth:`ParallelJoinRunner.run` call owns besides its
    inputs, passed to the drain loop and the merge — the runner holds
    configuration only, so its runs cannot see each other."""

    #: Monotonic clock value at run start (base for every rebase).
    started: float
    #: The runner's sampling strides, as every worker gets them (0: that
    #: instrument is off).
    spans_sample: int
    trace_sample: int
    telemetry: Optional[TelemetryRecorder] = None
    #: The planner's placement, decided once per run: ``assignment[w]``
    #: lists worker ``w``'s shards.
    assignment: List[List[int]] = field(default_factory=list)
    #: worker id → its event-log columns (``None`` without a log), taken
    #: from its summary while draining.
    columns: Dict[int, Optional[tuple]] = field(default_factory=dict)
    #: Whether the workers ship their rows: into ``chunks``, one table
    #: per worker, for the merge (``False``: count-only, no frames).
    collect: bool = True
    chunks: List[MatchTable] = field(default_factory=list)
    #: Rows found by the workers whose summaries have arrived.
    results: int = 0
    #: The driver's event log, built from the strides (``None``: neither
    #: spans nor tracing — nothing is calibrated or allocated).
    log: Optional[EventLog] = field(init=False, default=None)

    def __post_init__(self):
        if self.spans_sample or self.trace_sample:
            self.log = EventLog(self.spans_sample, self.trace_sample)

    def consume(self, w: int, frame: MatchTable) -> None:
        """The one consumer of a decoded match frame: append it to
        worker ``w``'s table."""
        self.chunks[w].extend(frame)

    def window(self, phase: int, start: float) -> None:
        """Close one of the driver's top-level windows (setup, drain,
        merge) now — recorded whenever spans are on, whatever the batch
        sampling stride."""
        if self.spans_sample:
            self.log.record(phase, start, time.monotonic())


def _fold_fanout(signals: Dict[str, float], fanout: Dict[str, float]) -> None:
    """The routing fanout peak the walk observed becomes the run's
    ``routing_fanout_fraction`` signal when it tops the engines' own."""
    if fanout["count"] and fanout["peak"] > signals.get(
        "routing_fanout_fraction", -math.inf
    ):
        signals["routing_fanout_fraction"] = fanout["peak"]


def _plan(config: JoinConfig, records) -> ShardPlan:
    """The shard plan over the first ``PLAN_SAMPLE_SIZE`` token tuples
    of ``records`` (a stream or a record list) — only the sample is
    copied, never the whole corpus, and a stream builds no record."""
    if isinstance(records, RecordStream):
        sample = records.head(PLAN_SAMPLE_SIZE)
    else:
        sample = [record.tokens for record in records[:PLAN_SAMPLE_SIZE]]
    return plan_shards(config, sample)


class ParallelJoinRunner:
    """Runs one config over worker processes. See the module docstring.

    ``workers`` is the physical process count (capped at the shard
    count — an extra process would host zero shards). The shard count
    and batch size are ``config.num_workers`` and ``config.batch_size``
    — parallel runs shard the stream exactly like the simulated
    cluster. ``start_method`` picks the :mod:`multiprocessing` context
    (``None``: the platform default).

    Spans and record tracing are one stride each, 0 = off.
    ``spans_sample >= 1`` records wall-clock spans in the driver and
    every worker (see :mod:`repro.obs.spans`), the high-rate
    batch-scoped phases of every ``spans_sample``-th batch only.
    ``trace_sample >= 1`` follows every record with ``rid %
    trace_sample == 0`` through the workers (see
    :mod:`repro.obs.rectrace`): each stamps the record's
    probe/insert/match-emit on every shard it reaches, and the merged,
    clock-rebased event rows land on the result (``trace_rows`` /
    ``rectrace_document()`` / ``latency_digest()``). The traced rid set
    is a pure function of rid, so it is identical across worker counts,
    batch sizes and start methods.

    Telemetry is on iff ``heartbeat_interval`` or ``telemetry_out`` is
    given (see :mod:`repro.obs.timeseries`): each worker samples its
    rolling counters every ``heartbeat_interval`` seconds (default
    :data:`~repro.obs.timeseries.DEFAULT_HEARTBEAT_INTERVAL`) onto its
    result pipe, and the driver aggregates them into a rolling time
    series with online load-skew detection, optionally appended as
    JSONL to ``telemetry_out``. No instrument changes an observable:
    every one stays bit-identical with spans, tracing or telemetry on
    or off.

    Match rows come back over one pipe per worker, the only results
    wire; ``transport`` survives for one caller and accepts only
    ``"pipe"``.
    """

    def __init__(
        self,
        config: JoinConfig,
        workers: int = 1,
        start_method: Optional[str] = None,
        spans_sample: int = 0,
        trace_sample: int = 0,
        telemetry_out: Optional[str] = None,
        heartbeat_interval: Optional[float] = None,
        transport: str = TRANSPORT,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        # Only because benchmarks/e2e/layers.py still passes
        # transport="pipe"; ROADMAP item 1 (the benchmark-only change)
        # deletes that call and this parameter.
        if transport != TRANSPORT:
            raise ValueError(
                f"transport must be {TRANSPORT!r}, got {transport!r} "
                f"(the shm transport was removed: it won on no workload)"
            )
        if spans_sample < 0:
            raise ValueError(f"spans_sample must be >= 0, got {spans_sample}")
        if trace_sample < 0:
            raise ValueError(f"trace_sample must be >= 0, got {trace_sample}")
        if heartbeat_interval is not None and (
            not math.isfinite(heartbeat_interval) or heartbeat_interval <= 0
        ):
            raise ValueError(
                f"heartbeat_interval must be a positive finite number of "
                f"seconds, got {heartbeat_interval}"
            )
        self.config = config
        self.workers = workers
        self.start_method = start_method
        self.spans_sample = spans_sample
        self.trace_sample = trace_sample
        self.telemetry = (
            telemetry_out is not None or heartbeat_interval is not None
        )
        self.telemetry_out = telemetry_out
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else DEFAULT_HEARTBEAT_INTERVAL
        )

    # -- execution -----------------------------------------------------------
    def run(self, stream, collect: bool = True) -> ParallelJoinResult:
        """Publish ``stream`` to the workers; block until merged.

        A :class:`~repro.streams.stream.RecordStream` is published as it
        is and only the workers iterate it; any other record iterable is
        listed once here. A fault the walk raises — a record that is not
        canonical, an arrival process that goes backwards — therefore
        surfaces as :class:`ParallelWorkerError` carrying its text.

        With ``collect`` (the default) the workers' rows are collected
        into the canonical ``result.matches``. With ``collect=False``
        the run is count-only: no worker emits or ships a row,
        ``result.matches`` is ``None`` and every ``bytes_out`` is 0.
        ``result.results`` counts the rows either way, and every other
        observable is the same."""
        started = time.monotonic()
        run = _Run(
            started=started,
            spans_sample=self.spans_sample,
            trace_sample=self.trace_sample,
            collect=collect,
        )
        records = stream if isinstance(stream, RecordStream) else list(stream)
        plan = _plan(self.config, records)
        shards = plan.num_shards
        workers = max(1, min(self.workers, shards))
        run.assignment = [
            plan.shards_of_worker(w, workers) for w in range(workers)
        ]
        run.chunks = [MatchTable() for _ in range(workers)]
        if self.telemetry:
            run.telemetry = TelemetryRecorder(
                workers=workers,
                shards=shards,
                interval=self.heartbeat_interval,
                base=started,
                out_path=self.telemetry_out,
            )
        try:
            summaries = self._run_process(run, plan, records)
        except (ParallelWorkerError, KeyboardInterrupt) as error:
            if run.telemetry is not None:
                # Close the file with its one final row, so a reader
                # tailing it (``repro top``) sees the run end.
                run.telemetry.finalize(
                    time.monotonic() - started, len(records), run.results,
                    error=str(error) or type(error).__name__,
                )
            raise
        return self._merge(run, plan, records, summaries)

    def _run_process(self, run: _Run, plan, records):
        import multiprocessing as mp
        from multiprocessing.connection import wait

        telemetry = run.telemetry
        workers = len(run.assignment)
        ctx = mp.get_context(self.start_method)
        conns = []
        procs = []
        try:
            for w in range(workers):
                parent, child = ctx.Pipe(duplex=True)
                # The one publish: the stream (or record list) and the
                # plan ride the start-up arguments (inherited under
                # fork, pickled under spawn).
                proc = ctx.Process(
                    target=worker_main,
                    args=(
                        child, w, self.config, run.assignment[w],
                        records, plan, run.spans_sample,
                        self.heartbeat_interval if telemetry is not None else 0.0,
                        run.trace_sample, run.collect,
                    ),
                    daemon=True,
                )
                proc.start()
                child.close()
                conns.append(parent)
                procs.append(proc)
            run.window(_SETUP, run.started)

            t_drain = time.monotonic()
            #: Result pipe → its worker, until that worker's TAG_DONE.
            pending = {conn: w for w, conn in enumerate(conns)}
            summaries: List[Optional[dict]] = [None] * workers
            while pending:
                # Every pipe at once: a frame or a dead worker's EOF is
                # handled when it arrives, whoever's.
                for conn in wait(list(pending)):
                    w = pending[conn]
                    try:
                        msg = conn.recv_bytes()
                    except EOFError:
                        raise ParallelWorkerError(
                            f"worker {w} exited without a summary "
                            f"(killed or crashed before reporting)"
                        ) from None
                    tag = msg[0]
                    body = memoryview(msg)[1:]
                    if tag == TAG_MATCHES:
                        run.consume(w, decode_match_batch(body))
                    elif tag == TAG_HEARTBEAT:
                        telemetry.on_heartbeat(w, pickle.loads(body), final=False)
                    elif tag == TAG_DONE:
                        summary = summaries[w] = pickle.loads(body)
                        run.columns[w] = summary.pop("columns")
                        run.results += summary["matches"]
                        if telemetry is not None:
                            telemetry.on_heartbeat(w, summary, final=True)
                        del pending[conn]
                    elif tag == TAG_ERROR:
                        raise ParallelWorkerError(pickle.loads(body))
                    else:
                        raise ParallelWorkerError(
                            f"worker {w} sent unknown frame tag {tag}"
                        )
            for proc in procs:
                proc.join()
            run.window(_DRAIN, t_drain)
            return summaries
        finally:
            for conn in conns:
                conn.close()
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                proc.join()

    def _artefacts(self, run: _Run, summaries, shape, records: int):
        """The one merge helper: every actor's event log → ``(span
        header, span rows, trace header, trace rows)``, each pair
        ``None`` unless that artefact was asked for.

        Driver and worker stamps share one comparable monotonic clock
        (workers are forked/spawned from this process on the same
        host), so rebasing every column to run start is the whole clock
        alignment story — see DESIGN §13. Both headers carry the log's
        self-measured cost as ``overhead``: per actor, its rows in that
        artefact x its calibrated per-stamp cost."""
        log = run.log
        if log is None:
            return None, None, None, None
        span_rows, trace_rows = log_rows(log.columns(), run.started, DRIVER)
        driver_counts = len(span_rows), len(trace_rows)
        for w, columns in sorted(run.columns.items()):
            spans, events = log_rows(columns, run.started, w)
            span_rows.extend(spans)
            trace_rows.extend(events)

        def entry(count: int, cost: float) -> Dict[str, object]:
            return {
                "count": count,
                "record_cost_s": round(cost, 12),
                "estimated_s": round(count * cost, 12),
            }

        def overhead(view: int, count_key: str) -> Dict[str, object]:
            return {
                "driver": entry(driver_counts[view], log.record_cost_s),
                "workers": {
                    str(w): entry(summary[count_key], summary["record_cost_s"])
                    for w, summary in enumerate(summaries)
                },
            }

        span_header = trace_header = None
        if run.spans_sample:
            span_rows.sort(key=lambda r: (r["start"], r["end"], r["worker"]))
            span_header = {
                "kind": "header",
                "schema": SPANS_SCHEMA_VERSION,
                **shape,
                "batches": sum(s["batches"] for s in summaries),
                "sample": run.spans_sample,
                "overhead": overhead(0, "span_count"),
            }
        if run.trace_sample:
            trace_header = rectrace_header(
                trace_rows, shape, records, run.trace_sample,
                overhead=overhead(1, "trace_count"),
            )
        return (
            span_header, span_rows if run.spans_sample else None,
            trace_header, trace_rows if run.trace_sample else None,
        )

    def _merge(self, run: _Run, plan, records, summaries) -> ParallelJoinResult:
        started = run.started
        workers = len(run.assignment)
        t_merge = time.monotonic()
        shard_meters: Dict[int, dict] = {}
        worker_stats = []
        samples = run.telemetry.by_worker if run.telemetry is not None else {}
        for w, summary in enumerate(summaries):
            shard_meters.update(summary["meters"])
            worker_stats.append({
                "worker": w,
                "shards": run.assignment[w],
                **{key: summary[key] for key in WORKER_STATS},
                "heartbeats": len(samples.get(w, ())),
            })
        operations, events, signals = merge_meters(shard_meters)
        matches = merge_matches(run.chunks) if run.collect else None
        # Every worker tallies the same walk over the same records.
        fanout = summaries[0]["fanout"]
        _fold_fanout(signals, fanout)
        run.window(_MERGE, t_merge)
        wall_s = time.monotonic() - started

        #: The run-shape fields both artefact headers carry, in order.
        shape = {
            "wall_s": round(wall_s, 9),
            "executor": EXECUTOR,
            "workers": workers,
            "shards": plan.num_shards,
            "batch_size": self.config.batch_size,
        }
        telemetry_doc = None
        if run.telemetry is not None:
            run.telemetry.finalize(wall_s, len(records), run.results)
            telemetry_doc = run.telemetry.document()
        span_header, span_rows, trace_header, trace_rows = self._artefacts(
            run, summaries, shape, len(records)
        )
        return ParallelJoinResult(
            config=self.config,
            num_shards=plan.num_shards,
            workers=workers,
            batch_size=self.config.batch_size,
            executor=EXECUTOR,
            records=len(records),
            matches=matches,
            results=run.results,
            operations=operations,
            events=events,
            signals=signals,
            shard_meters=shard_meters,
            worker_stats=worker_stats,
            routing_fanout=fanout,
            started=started,
            wall_s=wall_s,
            span_header=span_header,
            span_rows=span_rows,
            telemetry=telemetry_doc,
            trace_header=trace_header,
            trace_rows=trace_rows,
        )


def run_serial(config: JoinConfig, stream) -> ParallelJoinResult:
    """Ground-truth serial execution of the identical sharded workload.

    Same shard plan, same engines, same per-record schedule — but no
    batching, no codec, no processes: every probe/insert hits its
    engine directly and meters per record. The parallel runtime must
    reproduce this result bit-for-bit on every observable; the
    differential tests diff against this function.
    """
    started = time.monotonic()
    records = list(stream)
    plan = _plan(config, records)
    shards = plan.num_shards
    meters = {shard: WorkMeter() for shard in range(shards)}
    engines = {
        shard: build_shard_engine(config, plan.func, shard, shards, meters[shard])
        for shard in range(shards)
    }
    matches = MatchTable()
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
                if found:
                    matches.emit(record.timestamp, record.rid, found)
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
    _fold_fanout(signals, fanout)
    wall_s = time.monotonic() - started
    return ParallelJoinResult(
        config=config,
        num_shards=shards,
        workers=1,
        batch_size=0,
        executor="serial",
        records=len(records),
        matches=matches,
        results=len(matches),
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
