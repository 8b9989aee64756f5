"""Unit tests for the parallel runtime's pieces: codec, planner,
merger, the engine batch APIs, the config/CLI validation, what the
driver publishes, and how a run fails (a killed worker, a stream the
workers cannot walk, Ctrl-C in the driver)."""

import inspect
import itertools
import math
import os
import pickle
import random
import re
import signal
import time
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MAX_BATCH_SIZE, JoinConfig
from repro.core.local_join import StreamingSetJoin
from repro.core.metering import WorkMeter
from repro.core.shard_engine import build_shard_engine
from repro.parallel import (
    BOTH,
    INDEX,
    PROBE,
    ParallelJoinRunner,
    decode_match_batch,
    decode_record_batch,
    encode_match_batch,
    encode_record_batch,
    merge_meters,
    plan_shards,
    run_serial,
)
from repro.parallel.codec import (
    BatchEncoder,
    CodecError,
    record_batch_parts,
)
from repro.parallel.runtime import ParallelWorkerError
from repro.parallel.worker import ShardWorker
from repro.records import Record
from repro.routing.prefix_router import token_owner
from repro.similarity.functions import get_similarity
from repro.streams.stream import RecordStream, from_records

from tests.test_parallel_differential import fuzz_records, try_process_run


def make_records(n=20, sources=False):
    return [
        Record(
            rid=rid,
            tokens=tuple(range(rid % 5, rid % 5 + 3 + rid % 4)),
            timestamp=rid * 0.25,
            source=("L" if rid % 2 else "R") if sources else "",
        )
        for rid in range(n)
    ]


class TestRecordCodec:
    def test_round_trip(self):
        items = [
            (op, record)
            for op, record in zip(
                [PROBE, INDEX, BOTH] * 7, make_records(20, sources=True)
            )
        ]
        assert decode_record_batch(encode_record_batch(items)) == items

    def test_round_trip_without_sources_or_timestamps(self):
        items = [
            (BOTH, Record(rid=i, tokens=(i, i + 1))) for i in range(5)
        ]
        blob = encode_record_batch(items)
        assert decode_record_batch(blob) == items
        # Both optional sections are elided from the wire format.
        with_ts = encode_record_batch(
            [(BOTH, Record(rid=i, tokens=(i, i + 1), timestamp=1.0))
             for i in range(5)]
        )
        assert len(blob) < len(with_ts)

    def test_empty_batch(self):
        assert decode_record_batch(encode_record_batch([])) == []

    def test_empty_tokens_record(self):
        items = [(INDEX, Record(rid=1, tokens=()))]
        assert decode_record_batch(encode_record_batch(items)) == items

    def test_truncated_buffer_raises(self):
        blob = encode_record_batch([(BOTH, r) for r in make_records(4)])
        with pytest.raises(CodecError, match="truncated"):
            decode_record_batch(blob[: len(blob) // 2])

    def test_bad_magic_raises(self):
        blob = encode_record_batch([(BOTH, r) for r in make_records(2)])
        with pytest.raises(CodecError, match="magic"):
            decode_record_batch(b"\x00\x00" + blob[2:])


class TestBatchEncoder:
    """The record codec's preallocated-scratch encode path (the
    benchmark replay's)."""

    def _items(self, n=50, seed=4):
        rng = random.Random(seed)
        return [
            (
                0,
                Record(
                    rid=i,
                    tokens=tuple(sorted(rng.sample(range(90), rng.randint(1, 9)))),
                    timestamp=round(i * 0.01, 6),
                ),
            )
            for i in range(n)
        ]

    def test_matches_join_encoding(self):
        items = self._items()
        encoder = BatchEncoder()
        view = encoder.encode(b"\x01ABCD", items)
        assert isinstance(view, memoryview)
        assert bytes(view) == b"\x01ABCD" + encode_record_batch(items)

    def test_scratch_reused_across_calls(self):
        items = self._items()
        encoder = BatchEncoder(capacity=16)  # forces at least one growth
        first = bytes(encoder.encode(b"", items))
        # The returned view is a window over the scratch: the next call
        # overwrites it, but its *content* round-trips first.
        second = bytes(encoder.encode(b"", items))
        assert first == second == encode_record_batch(items)

    def test_decoded_from_view_identical(self):
        items = self._items()
        encoder = BatchEncoder()
        decoded = decode_record_batch(encoder.encode(b"", items))
        assert decoded == decode_record_batch(encode_record_batch(items))

    def test_parts_concatenate_to_frame(self):
        items = self._items()
        assert b"".join(record_batch_parts(items)) == encode_record_batch(items)


class TestMatchCodec:
    def test_round_trip(self):
        rows = [
            (0.5, 10, 3, 4, 0.8),
            (0.75, 11, 10, 5, 1.0),
            (1.25, 12, 1, 2, 0.625),
        ]
        assert decode_match_batch(encode_match_batch(rows)) == rows

    def test_empty(self):
        assert decode_match_batch(encode_match_batch([])) == []

    def test_inconsistent_length_raises(self):
        blob = encode_match_batch([(0.5, 1, 0, 2, 0.9)])
        with pytest.raises(CodecError, match="match batch"):
            decode_match_batch(blob + b"\x00")


class TestTruncationContract:
    """A frame cut anywhere — or padded — is a ``CodecError``, never a
    ``struct.error``/``IndexError`` and never a silently short decode."""

    FRAMES = {
        "record": (
            decode_record_batch,
            encode_record_batch([(BOTH, r) for r in make_records(4)]),
        ),
        "record+sources": (
            decode_record_batch,
            encode_record_batch(
                [(BOTH, r) for r in make_records(4, sources=True)]
            ),
        ),
        # Nine rows, every column carrying distinct non-zero values: a
        # column that came up short could not pass for a shorter table.
        "match": (
            decode_match_batch,
            encode_match_batch([
                (0.25 * k, 100 + k, 2 ** 33 + k, 3 + k % 4, 1.0 - k / 64)
                for k in range(1, 10)
            ]),
        ),
    }

    @pytest.mark.parametrize("kind", FRAMES)
    def test_every_prefix_raises_codec_error(self, kind):
        decode, frame = self.FRAMES[kind]
        decode(frame)  # the whole frame parses
        for cut in range(len(frame)):
            with pytest.raises(CodecError):
                decode(frame[:cut])
            with pytest.raises(CodecError):
                decode(memoryview(frame)[:cut])

    @pytest.mark.parametrize("kind", FRAMES)
    def test_trailing_bytes_raise_codec_error(self, kind):
        decode, frame = self.FRAMES[kind]
        with pytest.raises(CodecError, match="inconsistent"):
            decode(frame + b"\x00")

    def test_source_slot_outside_table_raises(self):
        _decode, frame = self.FRAMES["record+sources"]
        corrupt = bytearray(frame)
        corrupt[-2:] = array("h", [99]).tobytes()  # last record's slot
        with pytest.raises(CodecError, match="source slot"):
            decode_record_batch(bytes(corrupt))
        corrupt[-2:] = array("h", [-1]).tobytes()
        with pytest.raises(CodecError, match="source slot"):
            decode_record_batch(bytes(corrupt))

    def test_corrupted_source_name_raises(self):
        _decode, frame = self.FRAMES["record+sources"]
        corrupt = bytearray(frame)
        # Layout from the end: 4 int16 slots, then the 2-entry table's
        # last (u16 length, 1-byte name) — the name is the 9th byte back.
        assert corrupt[-9:-8] in (b"L", b"R")
        corrupt[-9] = 0xFF  # a lone 0xFF is not UTF-8
        with pytest.raises(CodecError, match="UTF-8"):
            decode_record_batch(bytes(corrupt))

    def test_negative_size_raises_even_when_sizes_still_sum(self):
        _decode, frame = self.FRAMES["record"]
        n = 4
        at = 12 + n + 8 * n  # header, ops, rids
        sizes = array("i", bytes(frame[at : at + 4 * n]))
        sizes[1] += sizes[0] + 1
        sizes[0] = -1
        corrupt = frame[:at] + sizes.tobytes() + frame[at + 4 * n :]
        with pytest.raises(CodecError, match="negative record size"):
            decode_record_batch(corrupt)


class TestShardPlanner:
    def test_default_shard_count_is_config_workers(self):
        config = JoinConfig(num_workers=4)
        plan = plan_shards(config, [(1, 2, 3)] * 10)
        assert plan.num_shards <= 4

    def test_prefix_plan_keeps_requested_shards(self):
        config = JoinConfig(distribution="prefix", num_workers=6)
        plan = plan_shards(config, [(1, 2, 3)])
        assert plan.num_shards == 6

    def test_tasks_combine_probe_and_index(self):
        config = JoinConfig(distribution="broadcast", num_workers=3)
        plan = plan_shards(config, [(1, 2)])
        tasks = dict(plan.tasks(Record(rid=4, tokens=(1, 2, 3))))
        assert set(tasks) == {0, 1, 2}
        assert tasks[4 % 3] & INDEX  # home shard indexes
        assert all(op & PROBE for op in tasks.values())  # all probe

    @pytest.mark.parametrize("config", [
        JoinConfig(num_workers=4),
        JoinConfig(distribution="broadcast", num_workers=3),
        JoinConfig(distribution="prefix", num_workers=5),
    ], ids=["length", "broadcast", "prefix"])
    def test_tasks_equal_the_per_record_routing(self, config):
        """Whatever ``tasks`` memoises, every record gets exactly the
        shard/op list its own routing decision spells out."""
        records = make_records(60) + [Record(rid=60, tokens=())]
        plan = plan_shards(config, [r.tokens for r in records])
        for record in records + records:  # second pass: all memo hits
            decision = plan.router.route(record)
            want = sorted(
                (shard,
                 (PROBE if shard in decision.probe_tasks else 0)
                 | (INDEX if shard in decision.index_tasks else 0))
                for shard in {*decision.index_tasks, *decision.probe_tasks}
            )
            assert plan.tasks(record) == want, record
        by_size = plan.router.routes_by_size
        assert by_size == (plan.router.name == "length")
        assert bool(plan._tasks_by_size) == by_size

    @settings(max_examples=40, deadline=None)
    @given(
        sample=st.lists(
            st.frozensets(st.integers(0, 50), min_size=1, max_size=6),
            max_size=6,
        ),
        stream=st.lists(
            st.tuples(st.integers(0, 10**6),
                      st.frozensets(st.integers(0, 200), max_size=30)),
            min_size=1, max_size=30,
        ),
    )
    def test_one_shard_plan_memo_equals_per_record_routing(
        self, sample, stream
    ):
        """Over one shard every router's targets are shard 0, so
        ``tasks`` answers from the by-size memo; the answer must be the
        unmemoised one for empty records and for sizes the planning
        sample never saw."""
        corpus = [tuple(sorted(tokens)) for tokens in sample]
        records = [Record(rid=rid, tokens=tuple(sorted(tokens)))
                   for rid, tokens in stream]
        for config in (
            JoinConfig(num_workers=1),
            JoinConfig(distribution="broadcast", num_workers=1),
            JoinConfig(distribution="prefix", num_workers=1),
        ):
            plan = plan_shards(config, corpus)
            assert plan.num_shards == 1
            for record in records + records:
                assert plan.tasks(record) == plan._tasks_of(record), (
                    plan.router.name, record)
            assert set(plan._tasks_by_size) == {
                len(record.tokens) for record in records
            }

    @settings(max_examples=40, deadline=None)
    @given(
        shards=st.integers(2, 8),
        stream=st.lists(
            st.tuples(st.integers(0, 10**6),
                      st.frozensets(st.integers(0, 200), max_size=30)),
            min_size=1, max_size=30,
        ),
    )
    def test_multi_shard_plan_memo_equals_per_record_routing(
        self, shards, stream
    ):
        """Over 2-8 shards the prefix and broadcast plans answer
        ``tasks`` from the by-targets memo (and the prefix router from
        its token -> owner table); the answer must be the unmemoised
        one, and the table must hold ``token_owner``'s values."""
        records = [Record(rid=rid, tokens=tuple(sorted(tokens)))
                   for rid, tokens in stream]
        for config in (
            JoinConfig(distribution="prefix", num_workers=shards),
            JoinConfig(distribution="broadcast", num_workers=shards),
        ):
            plan = plan_shards(config, [r.tokens for r in records])
            for record in records + records:
                assert plan.tasks(record) == plan._tasks_of(record), (
                    plan.router.name, record)
            assert not plan._tasks_by_size
            assert 1 <= len(plan._tasks_by_targets) <= len(records)
            if plan.router.name == "prefix":
                width = plan.func.probe_prefix_length
                for record in records:
                    owners = {token_owner(t, shards)
                              for t in record.tokens[:width(record.size)]}
                    assert [s for s, _ in plan.tasks(record)] == (
                        sorted(owners) or [0])

    @pytest.mark.parametrize("distribution", ["length", "prefix"])
    def test_pickled_plan_routes_identically(self, distribution):
        """A plan is a ``spawn`` worker's start-up argument: the copy
        that crosses the process boundary (its similarity function and
        router rebuilt with empty memo tables) must return the same
        ``tasks`` for every record — whether the original had warmed
        its memos or not."""
        with pytest.raises(Exception):
            # What makes the ``__reduce__`` pair necessary: the memo
            # tables themselves do not pickle.
            pickle.dumps(get_similarity("jaccard", 0.8).min_overlap)
        func = pickle.loads(pickle.dumps(get_similarity("jaccard", 0.8)))
        assert func == get_similarity("jaccard", 0.8)
        assert func.min_overlap(10, 10) == 9

        rng = random.Random(5)
        records = [
            Record(
                rid=rid,
                tokens=tuple(sorted(rng.sample(range(300), rng.randint(1, 24)))),
                timestamp=float(rid),
            )
            for rid in range(2000)
        ]
        config = JoinConfig(
            threshold=0.7, distribution=distribution, num_workers=4
        )
        plan = plan_shards(config, [r.tokens for r in records])
        cold = pickle.loads(pickle.dumps(plan))
        for record in records[:500]:
            plan.tasks(record)
        warm = pickle.loads(pickle.dumps(plan))
        assert cold.num_shards == warm.num_shards == plan.num_shards
        for record in records:
            want = plan.tasks(record)
            assert cold.tasks(record) == want, record
            assert warm.tasks(record) == want, record

    def test_shards_of_worker_partition_all_shards(self):
        config = JoinConfig(distribution="prefix", num_workers=7)
        plan = plan_shards(config, [(1,)])
        seen = []
        for worker in range(3):
            seen.extend(plan.shards_of_worker(worker, 3))
        assert sorted(seen) == list(range(7))

    def test_bundles_rejected(self):
        config = JoinConfig(use_bundles=True)
        with pytest.raises(ValueError, match="bundles"):
            plan_shards(config, [(1, 2, 3)])


class TestOneEngineBuilder:
    """The simulator's join bolt and the runtime's shards build their
    engines with one function, so task ``t`` of ``n`` meters the same
    work on either runtime."""

    @pytest.mark.parametrize("config", [
        JoinConfig(threshold=0.7, num_workers=3, distribution="prefix"),
        JoinConfig(threshold=0.7, num_workers=3, distribution="prefix",
                   window_seconds=0.2, expiry="eager"),
        JoinConfig(threshold=0.7, num_workers=3),
    ], ids=["prefix", "prefix-eager-window", "length"])
    def test_simulated_cluster_meters_what_the_shards_meter(self, config):
        from repro.core.join import DistributedStreamJoin
        from repro.datasets import synthetic_dblp

        stream = synthetic_dblp(400, seed=3, vocabulary_size=300)
        simulated = DistributedStreamJoin(config).run(stream).cluster
        serial = run_serial(config, stream)
        assert serial.operations["token_compare"] > 0
        for op, total in serial.operations.items():
            assert simulated.counter("op:" + op) == total, op
        for name, total in serial.events.items():
            assert simulated.counter(name) == total, name

    def test_ownership_filter_iff_several_shards(self):
        """A lone shard owns every token, so it gets the unfiltered
        engine; every shard of two or more is filtered."""
        config = JoinConfig(threshold=0.7, distribution="prefix")
        func = get_similarity(config.similarity, config.threshold)
        for shards in (1, 2, 8):
            for shard in range(shards):
                engine = build_shard_engine(
                    config, func, shard, shards, WorkMeter()
                )
                filtered = engine.token_filter is not None
                assert filtered == (shards > 1), (shards, shard)


class TestBatchEngineAPIs:
    """A loop inside ``batched()``: one meter flush, identical totals."""

    def records(self):
        return make_records(30)

    def engines(self):
        func = get_similarity("jaccard", 0.5)
        return (
            StreamingSetJoin(func, meter=WorkMeter()),
            StreamingSetJoin(func, meter=WorkMeter()),
        )

    @staticmethod
    def insert_all(engine, records):
        with engine.batched():
            for record in records:
                engine.insert(record)

    def test_insert_batch_equals_loop(self):
        batched, looped = self.engines()
        records = self.records()
        self.insert_all(batched, records)
        for record in records:
            looped.insert(record)
        assert batched.meter.operations == looped.meter.operations
        assert batched.meter.events == looped.meter.events
        assert batched.live_postings == looped.live_postings

    def test_probe_batch_equals_loop(self):
        batched, looped = self.engines()
        records = self.records()
        self.insert_all(batched, records)
        self.insert_all(looped, records)
        with batched.batched():
            batch_results = [batched.probe(record) for record in records]
        loop_results = [looped.probe(record) for record in records]
        assert batch_results == loop_results
        assert batched.meter.operations == looped.meter.operations
        assert batched.meter.events == looped.meter.events

    def test_batched_restores_meter_on_error(self):
        engine, _ = self.engines()
        real = engine.meter
        with pytest.raises(RuntimeError):
            with engine.batched():
                engine.insert(Record(rid=0, tokens=(1, 2, 3)))
                raise RuntimeError("boom")
        assert engine.meter is real
        # The partial batch still flushed into the real meter.
        assert real.operations.get("posting_append", real.operations) is not None
        assert sum(real.operations.values()) > 0


class TestMergeMeters:
    def test_sums_and_peaks(self):
        merged_ops, merged_events, merged_signals = merge_meters({
            0: {"operations": {"posting_scan": 5.0},
                "events": {"candidates": 2.0},
                "signals": {"lag": 0.5}},
            1: {"operations": {"posting_scan": 7.0, "token_compare": 1.0},
                "events": {"candidates": 0.0},
                "signals": {"lag": 0.25}},
        })
        assert merged_ops == {"posting_scan": 12.0, "token_compare": 1.0}
        assert merged_events == {"candidates": 2.0}
        assert merged_signals == {"lag": 0.5}

    def test_zero_counts_preserved(self):
        ops, events, _ = merge_meters({
            0: {"operations": {}, "events": {"results": 0.0}, "signals": {}},
        })
        assert events == {"results": 0.0}
        assert ops == {}


class TestRunnerValidation:
    def test_bad_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelJoinRunner(JoinConfig(), workers=0)

    def test_bad_executor(self):
        """Worker processes are the only executor: the keyword that
        chose another is gone, whatever its value."""
        for executor in ("inline", "process"):
            with pytest.raises(TypeError, match="executor"):
                ParallelJoinRunner(JoinConfig(), executor=executor)

    def test_duplicate_setters_gone(self):
        """The shard count and batch size are set on ``JoinConfig``
        alone, and each instrument is one stride: the keywords that set
        them a second way are gone, whatever their value."""
        for keyword, value in (
            ("num_shards", 4), ("batch_size", 64), ("spans", True),
            ("trace", True),
        ):
            with pytest.raises(TypeError, match=keyword):
                ParallelJoinRunner(JoinConfig(), **{keyword: value})

    def test_settable_values(self):
        """One setter per value: the runner, the serial reference and
        the planner take exactly these parameters."""
        def names(function):
            return list(inspect.signature(function).parameters)

        assert names(ParallelJoinRunner) == [
            "config", "workers", "start_method", "spans_sample",
            "trace_sample", "telemetry_out", "heartbeat_interval",
            "transport",
        ]
        assert names(run_serial) == ["config", "stream"]
        assert names(plan_shards) == ["config", "corpus"]

    def test_only_the_pipe_transport(self):
        ParallelJoinRunner(JoinConfig(), transport="pipe")
        for transport in ("shm", "auto", "carrier-pigeon"):
            with pytest.raises(ValueError, match="shm transport was removed"):
                ParallelJoinRunner(JoinConfig(), transport=transport)

    def test_workers_capped_at_shards(self):
        config = JoinConfig(distribution="prefix", num_workers=2)
        result = try_process_run(
            ParallelJoinRunner(config, workers=16), make_records(10)
        )
        assert result.workers == 2


class TestConfigBatchSize:
    def test_default_valid(self):
        assert JoinConfig().batch_size == 512

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            JoinConfig(batch_size=0)
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            JoinConfig(batch_size=-5)

    def test_rejects_absurd(self):
        with pytest.raises(ValueError, match="absurd"):
            JoinConfig(batch_size=MAX_BATCH_SIZE + 1)

    def test_max_is_accepted(self):
        assert JoinConfig(batch_size=MAX_BATCH_SIZE).batch_size == MAX_BATCH_SIZE


class TestObsBridges:
    def run_result(self):
        config = JoinConfig(threshold=0.5, distribution="broadcast")
        return try_process_run(
            ParallelJoinRunner(config, workers=2), make_records(40)
        )

    def test_fingerprint_schema(self):
        fp = self.run_result().fingerprint()
        assert fp["schema"] == 1
        assert fp["labels"]["engine"] == "parallel"
        assert fp["exact"]["run_records"]["total"] == 40.0
        assert "run_results" in fp["exact"]
        assert any(name.startswith("op:") for name in fp["exact"])
        assert fp["banded"] == {}

    def test_timeline_renders(self):
        recorder = self.run_result().timeline()
        text = recorder.render(width=20)
        assert "pworker" in text

    def test_health_flags_broadcast_fanout(self):
        monitor = self.run_result().health()
        detectors = {event.detector for event in monitor.events}
        assert "routing_fanout" in detectors

    @pytest.mark.parametrize("distribution", ["length", "prefix", "broadcast"])
    def test_one_shard_plan_raises_no_fanout_event(self, distribution):
        """Reaching the only task is not replication: 1/1 must not read
        as "routing degenerates to broadcast" on either emitter."""
        config = JoinConfig(
            threshold=0.5, distribution=distribution, num_workers=1
        )
        runner = ParallelJoinRunner(config, workers=1)
        for result in (try_process_run(runner, make_records(40)),
                       run_serial(config, make_records(40))):
            assert result.num_shards == 1
            assert result.signals["routing_fanout_fraction"] == 0.0
            detectors = {event.detector for event in result.health().events}
            assert "routing_fanout" not in detectors

    def test_serial_result_has_same_bridges(self):
        config = JoinConfig(threshold=0.5)
        result = run_serial(config, make_records(25))
        assert result.fingerprint()["exact"]["run_records"]["total"] == 25.0
        assert result.timeline().busy_seconds("pworker", 0) > 0

    def test_window_signal_survives_merge(self):
        config = JoinConfig(threshold=0.5, window_seconds=1.0)
        records = make_records(60)
        serial = run_serial(config, records)
        parallel = try_process_run(ParallelJoinRunner(config, workers=3), records)
        assert parallel.signals == serial.signals


def _no_runtime_caller(names, allowed):
    """Lines under ``src/repro`` outside ``allowed`` (paths relative to
    it) that match ``names``."""
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    allowed = {root / path for path in allowed}
    return [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        if path not in allowed
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if names.search(line)
    ]


def test_runtime_calls_neither_the_record_codec_nor_the_ring():
    """The record batch codec and the ring buffer have no runtime caller
    — records are published once and results return over one pipe per
    worker; they stay only for the benchmark replay that imports them
    (ROADMAP 1 deletes both). Nothing under ``src/repro`` may grow a new
    dependency on either outside its own module (and, for the codec,
    the package's re-exports), and shared memory appears nowhere."""
    codec = re.compile(
        r"BatchEncoder|record_batch_parts|encode_record_batch"
        r"|decode_record_batch"
    )
    assert _no_runtime_caller(
        codec, {"parallel/codec.py", "parallel/__init__.py"}
    ) == []
    ring = re.compile(r"RingBuffer|repro\.parallel\.shm|parallel import shm")
    assert _no_runtime_caller(ring, {"parallel/shm.py"}) == []
    assert _no_runtime_caller(re.compile("shared_memory"), set()) == []


class BackwardsAt:
    """An arrival process that steps back once, at record ``at``
    (module-level, so a stream built on it pickles)."""

    def __init__(self, at: int):
        self.at = at

    def timestamps(self):
        for i in itertools.count():
            yield -1.0 if i == self.at else float(i)


class TestPublishedStream:
    """A ``RecordStream`` is published as corpus + arrival process: the
    workers build every record, the driver builds none."""

    def test_driver_never_iterates_a_stream(self, monkeypatch, tmp_path):
        """Every process that iterates the stream writes its pid: the
        workers do (each walks it whole), the driver does not."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable on this host")
        config = JoinConfig(threshold=0.6, num_workers=4, batch_size=32)
        stream = from_records(fuzz_records(seed=31, n=300))
        serial = run_serial(config, stream)
        iterated = tmp_path / "iterated"
        real = RecordStream.__iter__

        def logged(self):
            with open(iterated, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return real(self)

        monkeypatch.setattr(RecordStream, "__iter__", logged)
        result = try_process_run(
            ParallelJoinRunner(config, workers=2, start_method="fork"), stream
        )
        pids = [int(line) for line in iterated.read_text().split()]
        assert os.getpid() not in pids
        assert len(set(pids)) == len(pids) == 2
        assert list(result.matches) == list(serial.matches)
        assert result.fingerprint() == serial.fingerprint()


class TestRunFailure:
    """How a process run ends when it cannot finish: promptly, with the
    error propagated and every worker reaped."""

    @staticmethod
    def assert_no_zombie():
        try:
            # An exited-but-unreaped child would be returned here.
            assert os.waitpid(-1, os.WNOHANG) == (0, 0)
        except ChildProcessError:
            pass  # no children at all

    @pytest.mark.parametrize("heartbeat_interval", [None, 0.01], ids=["off", "on"])
    def test_sigkilled_worker_fails_fast_without_zombies(
        self, monkeypatch, tmp_path, heartbeat_interval
    ):
        """Worker 1 of two SIGKILLed inside ``ShardWorker.run``, a few
        batches into its loop, while worker 0 — slowed to several
        seconds — is still running: ``ParallelWorkerError`` in well
        under half of worker 0's run time (the driver reads every pipe
        at once, so a dead worker is its own pipe's EOF, not something
        found after its predecessors finish), no zombie left behind.
        With heartbeats on, the telemetry file still closes: its last
        row is a ``final`` row carrying the error, the smoke gate fails
        on it, and ``repro top`` (following, not ``--once``) returns."""
        real = ShardWorker.process_batch

        def dying(self, shard, items):
            if self.worker == 1 and self.batches == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            if self.worker == 0:
                time.sleep(0.1)
            real(self, shard, items)

        config = JoinConfig(threshold=0.6, batch_size=64)
        records = fuzz_records(seed=23, n=4000)
        batches = try_process_run(
            ParallelJoinRunner(config, workers=2), records, collect=False,
        ).worker_stats[0]["batches"]
        assert 0.1 * batches > 4.0, "worker 0 would not outlive the check"
        monkeypatch.setattr(ShardWorker, "process_batch", dying)
        telemetry_out = None
        if heartbeat_interval is not None:
            telemetry_out = str(tmp_path / "run.telemetry.jsonl")
        runner = ParallelJoinRunner(
            config, workers=2, start_method="fork",
            heartbeat_interval=heartbeat_interval, telemetry_out=telemetry_out,
        )
        started = time.monotonic()
        with pytest.raises(ParallelWorkerError, match="worker 1 exited"):
            try:
                runner.run(records)
            except (ImportError, OSError, PermissionError) as error:
                pytest.skip(f"multiprocessing unavailable: {error}")
        assert time.monotonic() - started < 2.0
        self.assert_no_zombie()
        if telemetry_out is None:
            return
        from repro.cli import main
        from repro.obs.timeseries import load_telemetry_jsonl, telemetry_smoke

        rows = load_telemetry_jsonl(telemetry_out)
        assert rows[-1]["kind"] == "final"
        assert "worker 1 exited" in rows[-1]["error"]
        assert any("run failed" in f for f in telemetry_smoke(rows))
        started = time.monotonic()
        assert main(["top", telemetry_out, "--refresh", "0.05"]) == 0
        assert time.monotonic() - started < 2.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_backwards_arrivals_fail_in_the_workers(self, workers):
        """The workers build the records, so an arrival process that
        goes backwards raises in their walk: the driver surfaces it as
        ``ParallelWorkerError`` with the walk's text, at once, and
        leaves no worker alive."""
        import multiprocessing

        corpus = [r.tokens for r in fuzz_records(seed=37, n=2000)]
        stream = RecordStream(corpus, arrivals=BackwardsAt(1500))
        runner = ParallelJoinRunner(
            JoinConfig(threshold=0.6, num_workers=4, batch_size=64),
            workers=workers,
        )
        started = time.monotonic()
        with pytest.raises(ParallelWorkerError, match="went backwards"):
            try:
                runner.run(stream)
            except (ImportError, OSError, PermissionError) as error:
                pytest.skip(f"multiprocessing unavailable: {error}")
        assert time.monotonic() - started < 2.0
        assert multiprocessing.active_children() == []
        self.assert_no_zombie()

    def test_keyboard_interrupt_propagates_without_zombies(self, monkeypatch):
        """Ctrl-C mid-drain — raised where the driver decodes a match
        frame — propagates, and no worker is left unreaped."""
        import repro.parallel.runtime as runtime_mod

        def interrupting(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(runtime_mod, "decode_match_batch", interrupting)
        config = JoinConfig(threshold=0.6, batch_size=16)
        records = fuzz_records(seed=29, n=200)
        runner = ParallelJoinRunner(config, workers=2, start_method="fork")
        with pytest.raises(KeyboardInterrupt):
            try:
                runner.run(records)
            except (ImportError, OSError, PermissionError) as error:
                pytest.skip(f"multiprocessing unavailable: {error}")
        self.assert_no_zombie()
