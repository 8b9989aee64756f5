"""The worker side of the parallel runtime.

A physical worker process hosts one or more logical shards, each a
:class:`~repro.core.local_join.StreamingSetJoin` built by the function
:class:`~repro.core.bolts.JoinBolt` builds its engine with for task
index ``shard`` of ``num_shards``
(:func:`~repro.core.shard_engine.build_shard_engine`) — so a shard
behaves identically whether it runs inside the simulated cluster,
inline in the driver, or in a forked process.

Wire protocol (one :func:`multiprocessing.Pipe` per worker, message =
one ``send_bytes`` frame, first byte = tag, tags defined in
:mod:`repro.parallel.codec`):

    driver → worker   TAG_BATCH      u32 shard + record batch (codec)
                      TAG_SHM_FRAME  ring descriptor (shm transport)
                      TAG_EOF        (empty)
    worker → driver   TAG_MATCHES      match batch (codec), repeated
                      TAG_SHM_MATCHES  mirror-ring descriptor (shm)
                      TAG_EVENTS       event-log frame (codec), iff spans
                                       or tracing are on
                      TAG_DONE         pickled summary dict
                      TAG_ERROR        pickled traceback string

Under ``--transport shm`` (:mod:`repro.parallel.shm`) the batch bytes
live in a driver-owned shared-memory ring the worker mapped once at
startup: ``TAG_SHM_FRAME`` names a frame in that ring, the worker
decodes it as a zero-copy ``memoryview`` and releases the bytes back
to the driver's credit immediately after decode. Match rows return
through a mirror ring the same way (``TAG_SHM_MATCHES``), with the
struct-codec pipe frames kept as the per-frame fallback for batches
larger than a ring. The worker only ever *attaches* to the segments —
cleanup (unlink) belongs exclusively to the driver.

Deadlock freedom: workers send **nothing** until they receive EOF —
matches (and the event log) accumulate locally — so while the driver is
feeding batches its reads can't be required to unblock anyone; after
it sends EOF to every worker it switches to draining, and workers
blocked writing a large match chunk (or waiting for mirror-ring
credits, which the draining driver replenishes as it consumes)
proceed as soon as their turn is read.

Live telemetry rides a *separate* one-way heartbeat pipe per worker
so the argument above is untouched: :class:`HeartbeatEmitter` hands
:func:`pipe_sink` one fixed-size ``TAG_HEARTBEAT`` frame per sampling
interval, written with the pipe in non-blocking mode — the frame is
far below ``PIPE_BUF``, so the write either lands atomically or raises
``BlockingIOError``, in which case the sample is dropped (and counted)
rather than ever blocking the worker on the monitoring plane. A final
flagged heartbeat is always emitted at EOF, so every finished run
carries at least one sample per worker at any interval.

One batch path: every record batch, whatever carried it, enters
through :meth:`ShardWorker.receive` (decode → stamp → release the ring
credit → :meth:`ShardWorker.process_batch`), called by
:func:`worker_main` and by the runtime's inline executor alike, and
every record runs through one probe → emit → insert body. Instruments
are selected per *batch*, never by a second copy of that body: a batch
whose per-shard sequence number falls in the span sample
(``spans_sample >= 1``) times every record (per-phase totals must be
exact), any other batch times only its traced rids (``rid %
trace_sample == 0``, re-derived from the stride — no trace context is
ever sent on the wire), and everything not selected — the whole batch
when both are off — runs through the one un-timed loop. Engine and
meter calls are the same calls in the same order either way, so
instrumentation can never change an observable. Spans (blocked-read
wait, decode, probe, insert, meter flush) and trace events
(decode/probe/insert/match-emit) are rows of the worker's one
:class:`~repro.obs.eventlog.EventLog` and ship back post-EOF as one
``TAG_EVENTS`` frame; independent of it, every worker tracks cheap
per-run telemetry (blocked/busy seconds, bytes in/out, peak RSS)
reported in the ``TAG_DONE`` summary.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import JoinConfig
from repro.core.local_join import StreamingSetJoin
from repro.core.metering import WorkMeter
from repro.core.shard_engine import build_shard_engine
from repro.obs.eventlog import RECORD_SCOPE, EventLog
from repro.obs.rectrace import EVENT_ID
from repro.obs.spans import PHASE_ID
from repro.parallel.codec import (
    INDEX,
    PROBE,
    TAG_BATCH,
    TAG_DONE,
    TAG_EOF,
    TAG_ERROR,
    TAG_EVENTS,
    TAG_HEARTBEAT,
    TAG_MATCHES,
    TAG_SHM_FRAME,
    TAG_SHM_MATCHES,
    HEARTBEAT_PHASES,
    MatchTable,
    decode_record_batch,
    decode_shm_descriptor,
    encode_event_frame,
    encode_heartbeat,
    encode_shm_descriptor,
)
from repro.parallel.shm import RingBuffer, attach_ring
from repro.records import Record
from repro.similarity.functions import get_similarity

__all__ = [
    "TAG_BATCH", "TAG_EOF", "TAG_MATCHES", "TAG_DONE", "TAG_EVENTS",
    "TAG_HEARTBEAT", "TAG_SHM_FRAME", "TAG_SHM_MATCHES", "TAG_ERROR",
    "MATCH_CHUNK", "peak_rss_bytes", "build_shard_engine",
    "ShardWorker", "HeartbeatEmitter", "pipe_sink", "worker_main",
]

#: Rows per TAG_MATCHES frame — bounds peak frame size (~40 bytes/row).
MATCH_CHUNK = 16384

_U32 = struct.Struct("<I")
_MATCHES_TAG = bytes([TAG_MATCHES])

_PIPE_READ = PHASE_ID["pipe_read"]
_SHM_READ = PHASE_ID["shm_read"]
_DECODE = PHASE_ID["decode"]
_PROBE_PHASE = PHASE_ID["probe"]
_INSERT_PHASE = PHASE_ID["insert"]
_METER_FLUSH = PHASE_ID["meter_flush"]

_EV_DECODE = RECORD_SCOPE | EVENT_ID["decode"]
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
    bound ``event`` method, ``emit`` the match table's."""
    probe = engine.probe
    insert = engine.insert
    for op, record in items:
        if op & PROBE:
            matches = probe(record)
            event("results", len(matches))
            if matches:
                emit(record.timestamp, record.rid, matches)
        if op & INDEX:
            insert(record)


class ShardWorker:
    """Executes batches against the shards hosted by one worker.

    Used by the forked worker process *and* by the runtime's inline
    executor (single-core fallback / differential tests) — one code
    path, so inline and process runs cannot drift apart.

    ``spans_sample >= 1`` switches on wall-clock span recording with
    that downsampling stride (0 = off); ``trace_sample >= 1`` switches
    on per-record tracing with that rid stride (0 = off); ``worker``
    is the physical worker id stamped onto telemetry, spans and trace
    events.
    """

    def __init__(
        self,
        config: JoinConfig,
        shard_ids: Sequence[int],
        num_shards: int,
        spans_sample: int = 0,
        worker: int = 0,
        trace_sample: int = 0,
    ):
        self.config = config
        self.num_shards = num_shards
        self.worker = worker
        self.func = get_similarity(config.similarity, config.threshold)
        self.meters: Dict[int, WorkMeter] = {}
        self.engines: Dict[int, StreamingSetJoin] = {}
        for shard in shard_ids:
            meter = WorkMeter()
            self.meters[shard] = meter
            self.engines[shard] = build_shard_engine(
                config, self.func, shard, num_shards, meter
            )
        self.matches = MatchTable()
        self.records = 0
        self.batches = 0
        self.busy_s = 0.0
        #: ``(start, end)`` monotonic spans of batch processing, for the
        #: driver's busy/idle timeline.
        self.intervals: List[Tuple[float, float]] = []
        #: Telemetry filled by the hosting loop (``worker_main`` or the
        #: inline executor): blocked-read seconds, frame bytes each way,
        #: and the worker's total lifetime.
        self.blocked_s = 0.0
        self.bytes_in = 0
        self.bytes_out = 0
        self.lifetime_s = 0.0
        #: The worker's one event log — spans and trace events both —
        #: or ``None`` when neither is on: an uninstrumented worker
        #: calibrates nothing and allocates no columns.
        self.log: Optional[EventLog] = (
            EventLog(spans_sample, trace_sample)
            if spans_sample >= 1 or trace_sample >= 1
            else None
        )
        #: Per-shard batch sequence numbers — the deterministic sampling
        #: key (a pure function of the shard plan and batch size, never
        #: of the wall clock or the worker count).
        self._batch_seq: Dict[int, int] = {}

    def telemetry_snapshot(self) -> dict:
        """Rolling counters for one heartbeat frame — O(shards) plus,
        when spans are on, a pass over the rows logged since the last
        snapshot for the per-phase split. Pure read: touches no engine
        or meter state, so sampling can never perturb an observable."""
        if self.log is not None:
            by_id = self.log.phase_seconds()
            phase_s = {
                name: by_id[PHASE_ID[name]] for name in HEARTBEAT_PHASES
            }
        else:
            phase_s = {name: 0.0 for name in HEARTBEAT_PHASES}
        return {
            "batches": self.batches,
            "records": self.records,
            "matches": len(self.matches),
            "live_postings": sum(
                engine.live_postings for engine in self.engines.values()
            ),
            "busy_s": self.busy_s,
            "blocked_s": self.blocked_s,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "rss_bytes": peak_rss_bytes(),
            "phase_s": phase_s,
        }

    def receive(
        self, shard: int, payload, ring: Optional[RingBuffer] = None,
        advance: int = 0,
    ) -> None:
        """The one receiver: decode ``payload`` (pipe bytes or a ring
        view), stamp the decode span / per-rid decode events, hand
        ``advance`` ring bytes back to the sender's credit, and process
        the batch. Traced rids are re-derived from the stride: every
        traced record in the batch inherits the batch's decode window."""
        seq = self._batch_seq.get(shard, 0)
        t0 = time.monotonic()
        items = decode_record_batch(payload)
        t1 = time.monotonic()
        log = self.log
        if log is not None:
            stride = log.trace_sample
            traced = (
                [r.rid for _op, r in items if not r.rid % stride] if stride else ()
            )
            log.window(_DECODE, _EV_DECODE, t0, t1, shard, seq, traced)
        if advance:
            # Decode fully copied the columns out of the ring; hand the
            # bytes back to the driver's credit before the (potentially
            # long) batch processing.
            ring.release(advance)
        self.process_batch(shard, items)

    def process_batch(
        self, shard: int, items: Sequence[Tuple[int, Record]]
    ) -> None:
        """Probe → emit → insert every record of one batch, under one
        meter flush (charge_many/event_many exactness contract: totals
        stay bit-identical to per-record metering).

        ``timed`` is the batch's instrument selection (see the module
        docstring): selected records take the timed step, the stretches
        between them — the whole batch when nothing is selected — take
        :func:`_run_untimed`. Emitted spans tile the batch window in
        canonical phase order (probe, insert, flush) — per-phase totals
        are exact, positions within the batch approximate (the phases
        interleave per record)."""
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
        emit = self.matches.emit
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

    def finish(self) -> dict:
        """Final-postings events, canonical match order, summary dict."""
        for shard in sorted(self.engines):
            self.meters[shard].event(
                "final_postings", self.engines[shard].live_postings
            )
        self.matches.sort()
        log = self.log
        span_count, trace_count = log.counts() if log is not None else (0, 0)
        return {
            "meters": {
                shard: {
                    "operations": dict(meter.operations),
                    "events": dict(meter.events),
                    "signals": dict(meter.signals),
                }
                for shard, meter in self.meters.items()
            },
            "records": self.records,
            "batches": self.batches,
            "busy_s": self.busy_s,
            "intervals": list(self.intervals),
            "blocked_s": self.blocked_s,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "lifetime_s": self.lifetime_s,
            "peak_rss_bytes": peak_rss_bytes(),
            "span_count": span_count,
            "trace_count": trace_count,
            "record_cost_s": log.record_cost_s if log is not None else 0.0,
        }


def pipe_sink(conn):
    """The heartbeat sink of a process worker: a non-blocking write on
    its dedicated pipe.

    The connection's fd is switched to non-blocking mode here; one
    frame is far below ``PIPE_BUF`` and ``send_bytes`` issues it as a
    single write, so each write is atomic — it lands whole (``True``)
    or raises ``BlockingIOError``, and the sample is dropped
    (``False``). A vanished reader is a drop too: monitoring must not
    kill the run. The worker therefore *never* blocks on the monitoring
    plane, which is what keeps the result-pipe deadlock-freedom
    argument intact with telemetry enabled.
    """
    os.set_blocking(conn.fileno(), False)

    def write(frame: bytes) -> bool:
        try:
            conn.send_bytes(frame)
        except OSError:  # BlockingIOError and InterruptedError included
            return False
        return True

    return write


class HeartbeatEmitter:
    """One worker's ``TAG_HEARTBEAT`` schedule: due times, sequence
    numbers and frames, handed to ``sink(frame) -> delivered``.

    The sink is the only part that knows where a frame goes —
    :func:`pipe_sink` for a process worker, the telemetry recorder
    itself (through the codec) for the inline executor — so both
    executors sample on the same schedule with the same frame.

    ``seq`` increments only on delivered frames, so the driver sees a
    strictly increasing, gap-free sequence per worker; drops surface
    through the ``dropped`` counter carried in every later frame.
    """

    def __init__(self, sink, worker: int, interval: float):
        if interval <= 0:
            raise ValueError(f"heartbeat interval must be > 0, got {interval}")
        self.sink = sink
        self.worker = worker
        self.interval = interval
        self.seq = 0
        self.dropped = 0
        self._born = time.monotonic()
        self._next_due = self._born + interval

    def poll_timeout(self) -> float:
        """Seconds the hosting recv loop may block before a sample is
        due (0 when one is already overdue)."""
        return max(0.0, self._next_due - time.monotonic())

    def emit(self, counters: dict, final: bool = False, retries: int = 0) -> bool:
        """Pack one frame and hand it to the sink; ``retries`` bounds
        short waits for the final flagged sample (still never an
        unbounded block)."""
        now = time.monotonic()
        frame = encode_heartbeat(
            self.worker, self.seq, now - self._born, now,
            counters, dropped=self.dropped, final=final,
        )
        self._next_due = now + self.interval
        for attempt in range(retries + 1):
            if self.sink(frame):
                self.seq += 1
                return True
            if attempt < retries:
                time.sleep(0.001)
        self.dropped += 1
        return False

    def maybe_emit(self, worker: "ShardWorker") -> bool:
        """Emit one sample iff the interval has elapsed."""
        if time.monotonic() < self._next_due:
            return False
        return self.emit(worker.telemetry_snapshot())


def ship_matches(table: MatchTable, conn, ring, worker_id: int) -> int:
    """The one shipper of the results direction: cut ``table`` into
    ``MATCH_CHUNK`` frames and send each as it is cut — column views
    written into the mirror ring (``ring`` is ``None`` on the pipe
    transport) or joined into a ``TAG_MATCHES`` pipe frame, never a
    second copy of the result; returns the data-plane bytes sent.

    Runs strictly post-EOF, when the driver is draining: a full ring
    only means the driver has not yet consumed earlier frames, and its
    drain loop releases them in order, so the credit wait here is
    bounded. A chunk the ring can never hold takes the pipe frame —
    the protocol, not the segment size, is the invariant.
    """
    sent = generation = 0
    chunk = MATCH_CHUNK
    if ring is not None:
        # Chunk by ring size as well as row count: frames under a
        # quarter of the ring keep several in flight while the driver
        # drains, and none is un-claimable at an awkward wrap offset
        # (40 bytes/row).
        chunk = min(chunk, max(1, (ring.capacity // 4) // 40))
    for i in range(0, len(table), chunk):
        parts = table.parts(i, i + chunk)
        total = sum(map(len, parts))
        claim = ring.try_claim(total) if ring is not None else None
        if claim is None and (ring is None or not ring.claimable(total)):
            conn.send_bytes(b"".join((_MATCHES_TAG, *parts)))
            sent += 1 + total
            continue
        while claim is None:
            time.sleep(0.0005)
            if conn.poll(0):
                # The driver sends nothing after EOF — a readable pipe
                # here means it closed its end (died). Abort instead
                # of waiting forever on credits nobody will grant.
                raise RuntimeError(
                    f"worker {worker_id}: driver vanished during match drain"
                )
            claim = ring.try_claim(total)
        offset, advance = claim
        ring.write(offset, parts)
        ring.publish(advance)
        descriptor = encode_shm_descriptor(
            TAG_SHM_MATCHES, worker_id, offset, total, advance, generation
        )
        generation += 1
        conn.send_bytes(descriptor)
        sent += len(descriptor) + total
    return sent


def worker_main(
    conn,
    worker_id: int,
    config: JoinConfig,
    shard_ids: Sequence[int],
    num_shards: int,
    spans_sample: int = 0,
    heartbeat=None,
    heartbeat_interval: float = 0.0,
    trace_sample: int = 0,
    transport: str = "pipe",
    shm_in: Optional[str] = None,
    shm_out: Optional[str] = None,
) -> None:
    """Child-process entry point (module-level: spawn-context picklable).

    ``heartbeat`` is the optional write end of the worker's dedicated
    heartbeat pipe; with ``heartbeat_interval > 0`` the recv loop polls
    the result pipe with a bounded timeout and emits a rolling-counter
    frame whenever a sample falls due — including while blocked waiting
    for the driver, which is exactly when live visibility matters.

    ``spans_sample`` / ``trace_sample`` are the :class:`ShardWorker`
    strides (0 = off). ``transport="shm"`` switches on the zero-copy
    path: ``shm_in`` / ``shm_out`` name the driver-owned batch and
    mirror rings, mapped once here (see
    :func:`repro.parallel.shm.attach_ring` for the tracker discipline)
    then read/written for the whole run. The blocked-wait span phase
    becomes ``shm_read`` so phase totals stay comparable across
    transports.
    """
    born = time.monotonic()
    emitter = None
    segments = []
    ring_in = ring_out = None
    try:
        if transport == "shm":
            if shm_in is None or shm_out is None:
                raise ValueError(
                    f"worker {worker_id}: shm transport without segment names"
                )
            segment, ring_in = attach_ring(shm_in)
            segments.append(segment)
            segment, ring_out = attach_ring(shm_out)
            segments.append(segment)
        wait_phase = _SHM_READ if transport == "shm" else _PIPE_READ
        expect_generation = 0
        worker = ShardWorker(
            config, shard_ids, num_shards,
            spans_sample=spans_sample, worker=worker_id,
            trace_sample=trace_sample,
        )
        if heartbeat is not None and heartbeat_interval > 0:
            emitter = HeartbeatEmitter(
                pipe_sink(heartbeat), worker_id, heartbeat_interval
            )
        log = worker.log
        frames = 0
        while True:
            t_wait = time.monotonic()
            if emitter is not None:
                while not conn.poll(emitter.poll_timeout()):
                    emitter.maybe_emit(worker)
            msg = conn.recv_bytes()
            t_got = time.monotonic()
            worker.blocked_s += t_got - t_wait
            worker.bytes_in += len(msg)
            if log is not None and log.keep(frames):
                log.record(wait_phase, t_wait, t_got, -1, frames)
            frames += 1
            tag = msg[0]
            if tag == TAG_BATCH or tag == TAG_SHM_FRAME:
                advance = 0
                if tag == TAG_BATCH:
                    # Plain pipe frame — the default transport, and the
                    # shm transport's oversized-batch fallback.
                    (shard,) = _U32.unpack_from(msg, 1)
                    payload = msg[1 + _U32.size :]
                else:
                    if ring_in is None:
                        raise ValueError(
                            f"worker {worker_id}: shm frame on pipe transport"
                        )
                    shard, offset, length, advance, generation = (
                        decode_shm_descriptor(msg[1:])
                    )
                    if generation != expect_generation:
                        raise ValueError(
                            f"worker {worker_id}: shm frame generation "
                            f"{generation}, expected {expect_generation} "
                            f"(ring desynced)"
                        )
                    expect_generation += 1
                    payload = ring_in.view(offset, length)
                    worker.bytes_in += length
                worker.receive(shard, payload, ring_in, advance)
                if emitter is not None:
                    emitter.maybe_emit(worker)
            elif tag == TAG_EOF:
                worker.lifetime_s = time.monotonic() - born
                if emitter is not None:
                    # The unconditional flagged sample: every finished
                    # run carries >= 1 heartbeat per worker, whatever
                    # the interval. Bounded retries, never a block.
                    emitter.emit(
                        worker.telemetry_snapshot(), final=True, retries=3
                    )
                summary = worker.finish()
                if emitter is not None:
                    summary["heartbeats"] = emitter.seq
                    summary["heartbeats_dropped"] = emitter.dropped
                # bytes_out counts the data plane (match + event frames,
                # or their ring payload + descriptors under shm); the
                # pickled summary frame itself is excluded — it has to
                # carry the final byte count.
                sent = ship_matches(worker.matches, conn, ring_out, worker_id)
                if log is not None:
                    frame = bytes([TAG_EVENTS]) + encode_event_frame(*log.columns())
                    conn.send_bytes(frame)
                    sent += len(frame)
                summary["bytes_out"] = sent
                conn.send_bytes(bytes([TAG_DONE]) + pickle.dumps(summary))
                return
            else:
                raise ValueError(f"worker {worker_id}: unknown frame tag {tag}")
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
        # Drop every live view into the rings before closing the
        # mappings (SharedMemory refuses to close under live exports);
        # never unlink — the driver owns segment lifetime.
        payload = None  # noqa: F841 - may still hold the last frame view
        for _ring in (ring_in, ring_out):
            if _ring is not None:
                _ring.detach()
        ring_in = ring_out = None
        for segment in segments:
            try:
                segment.close()
            except (OSError, BufferError):
                pass
        if heartbeat is not None:
            try:
                heartbeat.close()
            except OSError:
                pass
        conn.close()
