"""The traced pass: per-layer metrics, measured from outside the program.

Each section calls one layer's public functions and wraps the calls in
spans (``spans.Recorder``). The core is ``replay``: the parallel runtime's
data path rebuilt here, call by call, so that every layer boundary the
runtime crosses gets a span without touching the runtime. Its merged rows
and meter totals must equal ``run_serial``'s exactly — that equality is
what makes the replay's per-layer times the runtime's.

A section whose layer is missing or fails leaves its metrics ``None`` and
the pass goes on; the failure is reported with the results.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import procs
import spans
from e2e import EndToEnd, Prepared, child_env, join_argv, join_workers
from workloads import RATE, SIMILARITY, THRESHOLD

#: Per-record calls are traced one span per this many records.
BLOCK = 512
#: ROADMAP item 4 states the sketch tier's kill criterion at this size.
SKETCH_RECORDS = 15_000
STORM_RECORDS = 3_000
VERIFY_PAIRS = 20_000

Metrics = Dict[str, Optional[float]]


class Layers:
    """Runs the sections for one workload and collects their metrics."""

    def __init__(self, prepared: Prepared, recorder: spans.Recorder):
        self.prepared = prepared
        self.workload = prepared.workload
        self.rec = recorder
        self.metrics: Metrics = {}
        self.errors: List[str] = []
        #: ``run_serial``'s result, the reference for replay and pipe run.
        self.serial = None
        #: Whether the replay reproduced ``run_serial`` bit for bit.
        self.replay_ok = False
        #: Share of the replay each span name accounts for (self time).
        self.replay_shares: Dict[str, float] = {}

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """One layer. If it fails, the metrics it had not yet set stay
        missing (printed as ``null``) and the next section runs."""
        try:
            with self.rec.span(f"section:{name}"):
                yield
        except Exception:  # a layer may be gone; the other layers still run
            self.errors.append(f"{name}: {traceback.format_exc(limit=3)}")

    # -- ingest --------------------------------------------------------------
    def ingest(self):
        """``datasets.loader`` + ``similarity.ordering`` + ``streams``.
        Returns ``(stream, records)`` for the later sections."""
        from repro.datasets.loader import load_token_file
        from repro.similarity.ordering import TokenDictionary

        m, rec, path = self.metrics, self.rec, self.prepared.token_file
        started = time.perf_counter()
        with rec.span("datasets.load"):
            stream, _dictionary = load_token_file(path, rate=RATE)
        m["datasets.load_s"] = time.perf_counter() - started
        corpus = stream.corpus
        m["datasets.tokens"] = sum(len(tokens) for tokens in corpus)

        with open(path, "r", encoding="utf-8") as handle:
            raw = [line.split() for line in handle if line.strip()]
        started = time.perf_counter()
        with rec.span("ordering.build"):
            dictionary = TokenDictionary.from_corpus(raw)
        built = time.perf_counter()
        with rec.span("ordering.canonicalize"):
            canonical = [dictionary.canonicalize(tokens) for tokens in raw]
        m["ordering.build_s"] = built - started
        m["ordering.canonicalize_s"] = time.perf_counter() - built
        if canonical != corpus:
            raise AssertionError("re-canonicalised corpus differs from load_token_file's")

        started = time.perf_counter()
        with rec.span("streams.materialize"):
            records = list(stream)
        m["streams.materialize_s"] = time.perf_counter() - started
        return stream, records

    # -- the runtime's data path, rebuilt ---------------------------------------
    def replay(self, rec, stream, records) -> Tuple[list, tuple, Dict[str, float]]:
        """plan -> ShardWorker -> per record ``tasks`` -> per full batch
        encode -> ring write/publish -> view -> decode -> release ->
        ``process_batch`` -> ``finish`` -> match codec -> merge.

        Returns ``(rows, (operations, events), counts)``."""
        from repro.parallel.codec import (
            BatchEncoder, decode_match_batch, decode_record_batch,
            encode_match_batch,
        )
        from repro.parallel.merge import merge_matches, merge_meters
        from repro.parallel.planner import plan_shards
        from repro.parallel.shm import DEFAULT_RING_BYTES, RingBuffer
        from repro.parallel.worker import MATCH_CHUNK, ShardWorker

        config = self.workload.config()
        batch_size = config.batch_size
        counts = {
            "tasks": 0, "batches": 0, "record_bytes": 0, "shm_bytes": 0,
            "match_bytes": 0,
        }
        with rec.span("replay.pipeline"):
            with rec.span("planner.plan"):
                plan = plan_shards(config, stream.corpus)
            shards = plan.num_shards
            with rec.span("worker.build"):
                worker = ShardWorker(config, range(shards), shards)
            ring = RingBuffer.local(DEFAULT_RING_BYTES)
            encoder = BatchEncoder()
            buffers: List[list] = [[] for _ in range(shards)]
            per_shard = [0] * shards

            def ship(shard: int, items: list) -> None:
                with rec.span("codec.encode", shard):
                    frame = encoder.encode(b"", items)
                length = len(frame)
                with rec.span("shm.write", shard):
                    claim = ring.try_claim(length)
                    if claim is not None:
                        offset, advance = claim
                        ring.write(offset, (frame,))
                        ring.publish(advance)
                if claim is None:
                    # Unplaceable at this wrap offset: like the runtime,
                    # decode the frame itself (the pipe fallback).
                    advance = 0
                    with rec.span("codec.decode", shard):
                        decoded = decode_record_batch(frame)
                else:
                    with rec.span("shm.read", shard):
                        view = ring.view(offset, length)
                    with rec.span("codec.decode", shard):
                        decoded = decode_record_batch(view)
                    with rec.span("shm.read", shard):
                        ring.release(advance)
                with rec.span("worker.process", shard):
                    worker.process_batch(shard, decoded)
                counts["batches"] += 1
                counts["record_bytes"] += length
                counts["shm_bytes"] += advance
                per_shard[shard] += len(items)

            for at in range(0, len(records), BLOCK):
                block = records[at:at + BLOCK]
                with rec.span("planner.tasks"):
                    routed = [plan.tasks(record) for record in block]
                with rec.span("runtime.feed"):
                    for record, tasks in zip(block, routed):
                        counts["tasks"] += len(tasks)
                        for shard, op in tasks:
                            buffer = buffers[shard]
                            buffer.append((op, record))
                            if len(buffer) >= batch_size:
                                ship(shard, buffer)
                                buffer.clear()
            with rec.span("runtime.feed"):
                for shard, buffer in enumerate(buffers):
                    if buffer:
                        ship(shard, buffer)
                        buffer.clear()

            with rec.span("worker.finish"):
                summary = worker.finish()
            with rec.span("codec.match_encode"):
                frames = [
                    encode_match_batch(worker.matches[i:i + MATCH_CHUNK])
                    for i in range(0, len(worker.matches), MATCH_CHUNK)
                ]
            counts["match_bytes"] = sum(len(frame) for frame in frames)
            with rec.span("codec.match_decode"):
                chunk: list = []
                for frame in frames:
                    chunk.extend(decode_match_batch(frame))
            with rec.span("merge.matches"):
                rows = merge_matches([chunk])
            with rec.span("merge.meters"):
                operations, events, _signals = merge_meters(summary["meters"])
        counts["shard_skew"] = max(per_shard) / statistics.mean(per_shard)
        return rows, (operations, events), counts

    def pipeline(self, stream, records) -> None:
        """``run_serial`` (the reference), then the replay traced and the
        replay untraced; fills the planner / codec / shm / worker / merge
        / replay metrics."""
        from repro.parallel.runtime import run_serial

        m, rec = self.metrics, self.rec
        started = time.perf_counter()
        with rec.span("runtime.serial"):
            serial = run_serial(self.workload.config(), stream)
        m["runtime.serial_s"] = time.perf_counter() - started
        self.serial = serial

        gc.collect()
        first = len(rec.spans)
        rows, (operations, events), counts = self.replay(rec, stream, records)
        self.replay_ok = (
            rows == serial.matches
            and operations == serial.operations
            and events == serial.events
        )
        merged_rows = len(rows)
        root = rec.spans[first]
        wall = root["end"] - root["start"]
        self_by_name = rec.self_by_name(root["id"])
        replayed = rec.spans[first:]

        # Same heap for the untraced run as the traced one started with.
        del rows
        gc.collect()
        started = time.perf_counter()
        self.replay(spans.NullRecorder(), stream, records)
        untraced = time.perf_counter() - started

        def total(name: str) -> float:
            return sum(s["end"] - s["start"] for s in replayed if s["name"] == name)

        n = len(records)
        m["planner.plan_s"] = total("planner.plan")
        m["planner.tasks_s"] = total("planner.tasks")
        m["planner.tasks"] = counts["tasks"]
        m["planner.fanout_mean"] = counts["tasks"] / n
        m["planner.shard_skew"] = counts["shard_skew"]
        m["codec.encode_s"] = total("codec.encode")
        m["codec.decode_s"] = total("codec.decode")
        m["codec.batches"] = counts["batches"]
        m["codec.record_bytes"] = counts["record_bytes"]
        m["codec.match_encode_s"] = total("codec.match_encode")
        m["codec.match_decode_s"] = total("codec.match_decode")
        m["codec.match_bytes"] = counts["match_bytes"]
        m["shm.write_s"] = total("shm.write")
        m["shm.read_s"] = total("shm.read")
        m["shm.bytes"] = counts["shm_bytes"]
        m["worker.build_s"] = total("worker.build")
        m["worker.process_s"] = total("worker.process")
        m["worker.finish_s"] = total("worker.finish")
        busy: Dict[int, float] = {}
        for s in replayed:
            if s["name"] == "worker.process":
                busy[s["shard"]] = busy.get(s["shard"], 0.0) + s["end"] - s["start"]
        m["worker.busy_skew"] = max(busy.values()) / statistics.mean(busy.values())
        for width in (2, 4):
            m[f"worker.critical_path_w{width}_s"] = max(
                sum(t for shard, t in busy.items() if shard % width == w)
                for w in range(width)
            )
        m["merge.matches_s"] = total("merge.matches")
        m["merge.meters_s"] = total("merge.meters")
        m["merge.rows"] = merged_rows
        m["runtime.feed_s"] = self_by_name.get("runtime.feed", 0.0)
        m["replay.wall_s"] = wall
        m["replay.coverage"] = sum(self_by_name.values()) / wall
        m["trace.overhead_ratio"] = wall / untraced
        self.replay_shares = {k: v / wall for k, v in self_by_name.items()}

    # -- the engine on its own --------------------------------------------------
    def core(self, records) -> None:
        """``core.local_join`` (time accumulated around each call) and
        ``similarity.verification`` on pairs the engine matched."""
        from repro.core.local_join import StreamingSetJoin
        from repro.similarity.functions import get_similarity
        from repro.similarity.verification import verify_pair
        from repro.streams.window import SlidingWindow

        m, rec = self.metrics, self.rec
        func = get_similarity(SIMILARITY, THRESHOLD)
        engine = StreamingSetJoin(
            func, window=SlidingWindow(self.workload.window_seconds)
        )
        clock = time.perf_counter
        probe_s = insert_s = 0.0
        results = 0
        matched: List[Tuple[int, int]] = []
        for at in range(0, len(records), BLOCK):
            with rec.span("core.local_join"):
                for record in records[at:at + BLOCK]:
                    t0 = clock()
                    found = engine.probe(record)
                    t1 = clock()
                    engine.insert(record)
                    insert_s += clock() - t1
                    probe_s += t1 - t0
                    results += len(found)
                    if found and len(matched) < VERIFY_PAIRS:
                        matched.append((record.rid, found[0].partner.rid))
        meter = engine.meter
        m["core.probe_s"] = probe_s
        m["core.insert_s"] = insert_s
        m["core.candidates"] = meter.count("candidates")
        m["core.posting_scans"] = meter.operation("posting_scan")
        m["core.token_compares"] = meter.operation("token_compare")
        m["core.verifications"] = meter.count("verifications")
        m["core.results"] = results
        m["core.final_postings"] = engine.live_postings
        m["core.verify_hit_ratio"] = results / meter.count("verifications")

        compares = 0
        started = clock()
        with rec.span("similarity.verify_pair"):
            for a, b in matched:
                r, s = records[a].tokens, records[b].tokens
                _overlap, steps = verify_pair(
                    r, s, func.min_overlap(len(r), len(s))
                )
                compares += steps
        m["similarity.verify_pair_us"] = (clock() - started) / len(matched) * 1e6
        m["similarity.verify_token_compares"] = compares

    def sketch(self, records) -> None:
        """The MinHash/LSH tier against the exact engine, both on the
        first ``SKETCH_RECORDS`` records."""
        from repro.core.local_join import StreamingSetJoin
        from repro.similarity.functions import get_similarity
        from repro.sketch.engine import SketchStreamingSetJoin
        from repro.sketch.minhash import MinHashScheme
        from repro.streams.window import SlidingWindow

        m, rec = self.metrics, self.rec
        head = records[:SKETCH_RECORDS]
        func = get_similarity(SIMILARITY, THRESHOLD)

        def join(engine) -> Tuple[float, set]:
            pairs = set()
            started = time.perf_counter()
            for record in head:
                for match in engine.probe(record):
                    pairs.add((match.partner.rid, record.rid))
                engine.insert(record)
            return time.perf_counter() - started, pairs

        window = SlidingWindow(self.workload.window_seconds)
        with rec.span("sketch.exact_join"):
            exact_s, exact = join(StreamingSetJoin(func, window=window))
        scheme = MinHashScheme()
        started = time.perf_counter()
        with rec.span("sketch.signature"):
            for record in head:
                scheme.signature(record)
        m["sketch.signature_s"] = time.perf_counter() - started
        with rec.span("sketch.join"):
            # A fresh scheme: the join pays for its own signatures.
            sketch_s, approx = join(SketchStreamingSetJoin(
                func, scheme=MinHashScheme(), window=window
            ))
        m["sketch.join_s"] = sketch_s
        m["sketch.recall"] = len(approx & exact) / len(exact)
        m["sketch.speedup_vs_core"] = exact_s / sketch_s

    # -- processes, simulator, observability, CLI -------------------------------
    def runtime(self, stream) -> None:
        """``parallel.runtime`` with real processes over pipes, process
        start-up alone, and the ``obs`` calls a join makes at its end."""
        from repro.obs.archive import RunArchive
        from repro.parallel.runtime import ParallelJoinRunner

        m, rec = self.metrics, self.rec
        config = self.workload.config()
        workers = join_workers()
        started = time.perf_counter()
        with rec.span("runtime.pipe"):
            result = ParallelJoinRunner(
                config, workers=workers, transport="pipe"
            ).run(stream)
        m["runtime.pipe_s"] = time.perf_counter() - started
        if result.matches != self.serial.matches:
            raise AssertionError("pipe run and run_serial report different rows")

        started = time.perf_counter()
        with rec.span("runtime.spawn"):
            ParallelJoinRunner(config, workers=workers).run(stream.take(1))
        m["runtime.spawn_s"] = time.perf_counter() - started

        started = time.perf_counter()
        with rec.span("obs.fingerprint"):
            result.fingerprint()
        m["obs.fingerprint_s"] = time.perf_counter() - started
        database = self.prepared.tmp / f"{self.workload.name}.archive.db"
        database.unlink(missing_ok=True)
        started = time.perf_counter()
        with rec.span("obs.archive_write"):
            archive = RunArchive(str(database))
            try:
                archive.record_parallel_run(result)
            finally:
                archive.close()
        m["obs.archive_write_s"] = time.perf_counter() - started

    def storm(self, stream) -> None:
        from repro.core.join import DistributedStreamJoin

        started = time.perf_counter()
        with self.rec.span("storm.sim"):
            report = DistributedStreamJoin(self.workload.config()).run(
                stream.take(STORM_RECORDS)
            )
        self.metrics["storm.sim_s"] = time.perf_counter() - started
        self.metrics["storm.sim_messages"] = report.cluster.messages

    def cli_startup(self) -> None:
        """Three ``repro join --parallel`` runs of an 8-record file:
        interpreter + imports + worker spawn + teardown."""
        tmp = self.prepared.tmp
        tiny = dataclasses.replace(
            self.prepared, token_file=tmp / f"{self.workload.name}.tiny.txt"
        )
        with open(self.prepared.token_file, "r", encoding="utf-8") as handle:
            tiny.token_file.write_text(
                "".join(handle.readline() for _ in range(8))
            )
        argv = join_argv(tiny, tmp / "tiny.fp.json", pairs=False)
        walls = []
        for _ in range(3):
            with self.rec.span("cli.startup"):
                result = procs.run(argv, child_env(), tmp / "tiny.out")
            if not result.ok:
                raise RuntimeError(result.error)
            walls.append(result.wall_s)
        self.metrics["cli.startup_s"] = statistics.median(walls)


def traced_pass(e2e: EndToEnd, out_dir: Path) -> Layers:
    """Every per-layer metric for one workload, on the returned object's
    ``metrics``; writes ``trace-<workload>.jsonl``."""
    prepared = e2e.prepared
    name = prepared.workload.name
    rec = spans.Recorder(name)
    layers = Layers(prepared, rec)
    stream = records = None
    with rec.span("traced_pass"):
        with layers.section("ingest"):
            stream, records = layers.ingest()
        if records is not None:
            with layers.section("pipeline"):
                layers.pipeline(stream, records)
            with layers.section("core"):
                layers.core(records)
            with layers.section("sketch"):
                layers.sketch(records)
            with layers.section("runtime"):
                layers.runtime(stream)
            with layers.section("storm"):
                layers.storm(stream)
        with layers.section("cli"):
            layers.cli_startup()

    m = layers.metrics
    m["runtime.join_wall_s"] = statistics.median(s.wall_s for s in e2e.join)
    m["runtime.single_wall_s"] = statistics.median(s.wall_s for s in e2e.single)
    m["runtime.parallelism"] = statistics.median(
        s.cpu_s / s.wall_s for s in e2e.join
    )
    m["host.calib_s"] = statistics.median(e2e.calibrations)
    m["host.speed_spread"] = max(e2e.calibrations) / min(e2e.calibrations)
    m["trace.spans"] = len(rec.spans)
    out_dir.mkdir(parents=True, exist_ok=True)
    rec.write(out_dir / f"trace-{name}.jsonl")
    return layers
