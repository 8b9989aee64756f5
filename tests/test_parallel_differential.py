"""Differential harness: the parallel runtime vs. serial ground truth.

The tentpole contract — parallel execution is *bit-identical* to a
serial run of the same shard plan on every observable: match rows
(values and order), operation totals, event totals, signal peaks and
the ``repro diff`` fingerprint — across worker counts, batch sizes,
expiry modes and routing schemes.

Every cell runs real worker processes — the runtime has no other
executor — through :func:`try_process_run`, which skips gracefully on
hosts where multiprocessing is unavailable. The full grid runs under
the platform's default start method; a smaller grid covers both —
``fork`` inherits the published records and plan, ``spawn`` pickles
them. What only a worker's own loop can show (the emit buffer at each
ship) is checked on :meth:`ShardWorker.run` directly.
"""

import math
import random
import time

import pytest

from repro.core.config import JoinConfig
from repro.core.local_join import StreamingSetJoin
from repro.core.metering import WorkMeter
from repro.obs.baseline import compare_fingerprints
from repro.obs.timeseries import telemetry_smoke
from repro.parallel import ParallelJoinRunner, run_serial
from repro.parallel.planner import plan_shards
from repro.parallel.worker import ShardWorker
from repro.records import Record
from repro.similarity.functions import get_similarity
from repro.streams.stream import from_records

WORKER_COUNTS = (1, 2, 3, 7)


def fuzz_records(seed: int, n: int = 400, sources: bool = False):
    rng = random.Random(seed)
    vocabulary = 120
    records = []
    clock = 0.0
    for rid in range(n):
        clock += rng.expovariate(50.0)
        if records and rng.random() < 0.35:
            # Near-duplicate of an earlier record (drop or add one
            # token) so every stream reliably produces matches.
            base = list(rng.choice(records[-50:]).tokens)
            if len(base) > 1 and rng.random() < 0.5:
                base.pop(rng.randrange(len(base)))
            else:
                extra = rng.randrange(vocabulary)
                if extra not in base:
                    base.append(extra)
            tokens = tuple(sorted(base))
        else:
            size = rng.randint(1, 14)
            tokens = tuple(sorted(rng.sample(range(vocabulary), size)))
        records.append(
            Record(
                rid=rid,
                tokens=tokens,
                timestamp=round(clock, 6),
                source=(rng.choice(("L", "R")) if sources else ""),
            )
        )
    return records


def late_records(seed: int, n: int = 300):
    """Arrival order is rid order, but event timestamps jitter
    backwards — a lazy window must handle both identically."""
    rng = random.Random(seed)
    records = []
    for rid in range(n):
        size = rng.randint(1, 10)
        tokens = tuple(sorted(rng.sample(range(80), size)))
        records.append(
            Record(
                rid=rid,
                tokens=tokens,
                timestamp=round(rid * 0.01 + rng.uniform(-0.05, 0.0), 6),
            )
        )
    return records


def assert_equal_observables(serial, result, context):
    assert result.matches == serial.matches, f"{context}: match rows differ"
    assert result.operations == serial.operations, (
        f"{context}: operation totals differ"
    )
    assert result.events == serial.events, f"{context}: event totals differ"
    assert result.signals == serial.signals, f"{context}: signal peaks differ"
    verdict = compare_fingerprints(serial.fingerprint(), result.fingerprint())
    assert verdict["status"] == "ok", f"{context}: {verdict['failures']}"


def try_process_run(runner, records, collect=True):
    """Run on real processes, or skip when the host forbids them."""
    try:
        return runner.run(records, collect=collect)
    except (ImportError, OSError, PermissionError) as error:
        pytest.skip(f"multiprocessing unavailable on this host: {error}")


def assert_count_only_equals_collect(serial, runner, records, context):
    """One grid cell of the results stream: the same runner collecting
    and count-only. The collecting run is the serial run bit for bit;
    the count-only run holds no rows, ships no bytes, counts the same
    rows and changes no meter."""
    collected = try_process_run(runner, records)
    assert_equal_observables(serial, collected, f"{context}: collect")
    counted = try_process_run(runner, records, collect=False)
    assert counted.matches is None, f"{context}: a count-only run held rows"
    for result in (collected, counted):
        assert result.results == result.events["results"] == len(
            collected.matches
        ), context
    assert all(s["bytes_out"] == 0 for s in counted.worker_stats), context
    assert counted.operations == collected.operations, context
    assert counted.events == collected.events, context
    assert counted.signals == collected.signals, context
    assert counted.fingerprint() == collected.fingerprint(), context


class TestInlineGrid:
    """The full differential grid, on worker processes. (The class
    keeps the name of the in-process executor it was written for.)"""

    @pytest.mark.parametrize("distribution", ["length", "prefix"])
    @pytest.mark.parametrize("expiry", ["lazy", "eager"])
    def test_workers_grid(self, distribution, expiry):
        window = 2.0 if expiry == "eager" else math.inf
        config = JoinConfig(
            threshold=0.6,
            distribution=distribution,
            expiry=expiry,
            window_seconds=window,
        )
        seed = {"length": 100, "prefix": 200}[distribution] + {
            "lazy": 1, "eager": 2
        }[expiry]
        records = fuzz_records(seed=seed)
        serial = run_serial(config, records)
        assert serial.results > 0, "fuzz stream produced no matches"
        for workers in WORKER_COUNTS:
            result = try_process_run(
                ParallelJoinRunner(config.replace(batch_size=64), workers=workers),
                records,
            )
            assert_equal_observables(
                serial, result, f"{distribution}/{expiry}/workers={workers}"
            )

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 10_000])
    def test_batch_size_invariance(self, batch_size):
        config = JoinConfig(threshold=0.7)
        records = fuzz_records(seed=99)
        serial = run_serial(config, records)
        result = try_process_run(
            ParallelJoinRunner(config.replace(batch_size=batch_size), workers=3),
            records,
        )
        assert_equal_observables(serial, result, f"batch={batch_size}")

    def test_broadcast_scheme(self):
        config = JoinConfig(threshold=0.6, distribution="broadcast")
        records = fuzz_records(seed=5)
        serial = run_serial(config, records)
        for workers in (1, 3):
            result = try_process_run(
                ParallelJoinRunner(config, workers=workers), records
            )
            assert_equal_observables(serial, result, f"broadcast/w={workers}")

    def test_cross_source_two_stream(self):
        config = JoinConfig(
            threshold=0.6, distribution="prefix", cross_source_only=True
        )
        records = fuzz_records(seed=17, sources=True)
        serial = run_serial(config, records)
        for ts, rid_a, rid_b, _, _ in serial.matches:
            a = records[rid_a]
            b = records[rid_b]
            assert a.source != b.source
        result = try_process_run(ParallelJoinRunner(config, workers=2), records)
        assert_equal_observables(serial, result, "cross-source")

    def test_out_of_order_timestamps_with_window(self):
        records = late_records(seed=31)
        config = JoinConfig(threshold=0.6, window_seconds=1.0)
        serial = run_serial(config, records)
        result = try_process_run(
            ParallelJoinRunner(config.replace(batch_size=32), workers=3), records
        )
        assert_equal_observables(serial, result, "out-of-order")

    def test_match_rows_canonically_ordered(self):
        config = JoinConfig(threshold=0.6)
        records = fuzz_records(seed=8)
        result = try_process_run(ParallelJoinRunner(config, workers=2), records)
        assert result.matches == sorted(result.matches)

    def test_shard_count_decoupled_from_workers(self):
        """Observables depend on the shard count, never on workers."""
        records = fuzz_records(seed=3)
        for shards in (1, 5):
            config = JoinConfig(threshold=0.6, num_workers=shards)
            serial = run_serial(config, records)
            assert serial.num_shards <= shards
            for workers in (1, 4):
                result = try_process_run(
                    ParallelJoinRunner(config, workers=workers), records
                )
                assert result.num_shards == serial.num_shards
                assert_equal_observables(
                    serial, result, f"shards={shards}/w={workers}"
                )


class TestOneShardOneEngine:
    """At one shard the distribution scheme does not exist: the lone
    shard owns every token, so every scheme builds the same unfiltered
    engine and meters the same work (DESIGN §9.7)."""

    STREAMS = {
        "unbounded": (lambda: fuzz_records(seed=301), math.inf, "lazy"),
        "lazy-window": (lambda: fuzz_records(seed=302), 1.5, "lazy"),
        "eager-window": (lambda: fuzz_records(seed=303), 1.5, "eager"),
        "out-of-order": (lambda: late_records(seed=304), 1.0, "lazy"),
    }

    @pytest.mark.parametrize("stream", sorted(STREAMS))
    def test_exact_block_does_not_depend_on_distribution(self, stream):
        make, window, expiry = self.STREAMS[stream]
        records = make()
        runs = {}
        for distribution in ("length", "prefix", "broadcast"):
            config = JoinConfig(
                threshold=0.6, num_workers=1, distribution=distribution,
                window_seconds=window, expiry=expiry,
            )
            runs[distribution] = try_process_run(
                ParallelJoinRunner(config, workers=1), records
            )
        length = runs.pop("length")
        assert length.num_shards == 1 and length.results > 0
        for distribution, result in runs.items():
            assert result.num_shards == 1, distribution
            assert result.matches == length.matches, distribution
            assert (
                result.fingerprint()["exact"] == length.fingerprint()["exact"]
            ), f"{stream}/{distribution}"

    def test_one_prefix_shard_meters_the_bare_engine(self):
        config = JoinConfig(threshold=0.6, num_workers=1, distribution="prefix")
        records = fuzz_records(seed=305)
        meter = WorkMeter()
        engine = StreamingSetJoin(
            get_similarity(config.similarity, config.threshold), meter=meter
        )
        for record in records:
            meter.event("results", len(engine.probe(record)))
            engine.insert(record)
        meter.event("final_postings", engine.live_postings)
        serial = run_serial(config, records)
        assert serial.num_shards == 1
        assert serial.operations == dict(meter.operations)
        assert serial.events == dict(meter.events)


class TestProcessExecutor:
    """Real multiprocessing workers (skips on restricted hosts)."""

    @pytest.mark.parametrize("distribution", ["length", "prefix"])
    def test_process_equals_serial(self, distribution):
        config = JoinConfig(threshold=0.6, distribution=distribution)
        records = fuzz_records(seed=42, n=250)
        serial = run_serial(config, records)
        runner = ParallelJoinRunner(config.replace(batch_size=32), workers=2)
        result = try_process_run(runner, records)
        assert_equal_observables(serial, result, f"process/{distribution}")
        assert result.executor == "process"

    def test_process_eager_window(self):
        config = JoinConfig(
            threshold=0.6, expiry="eager", window_seconds=1.5
        )
        records = fuzz_records(seed=77, n=250)
        serial = run_serial(config, records)
        runner = ParallelJoinRunner(config, workers=3)
        result = try_process_run(runner, records)
        assert_equal_observables(serial, result, "process/eager")

    def test_worker_stats_cover_all_records(self):
        config = JoinConfig(threshold=0.6, distribution="broadcast")
        records = fuzz_records(seed=11, n=150)
        runner = ParallelJoinRunner(config, workers=2)
        result = try_process_run(runner, records)
        # Broadcast: every record probes every shard; each of the 8
        # shards sees all 150 records, split across 2 workers (4 each).
        assert sum(s["records"] for s in result.worker_stats) == 8 * 150
        assert all(s["batches"] >= 1 for s in result.worker_stats)
        assert all(s["busy_s"] > 0 for s in result.worker_stats)


class TestStartMethods:
    """One publish, three ways to receive it: a forked worker inherits
    ``(records, plan)``, a spawned or forkserver-started one unpickles
    them — a record list, or a stream whose records the worker builds.
    Each must walk them to the same result, batch for batch. The
    two-worker, four-shard cell also runs heartbeats, so ``spawn`` and
    ``forkserver`` cover that path too."""

    @pytest.mark.parametrize("num_shards", [1, 4])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_fork_and_spawn_equal_serial(self, workers, num_shards):
        config = JoinConfig(
            threshold=0.6, window_seconds=1.5, num_workers=num_shards,
            batch_size=16,
        )
        records = fuzz_records(seed=91, n=200)
        serial = run_serial(config, records)
        assert serial.results > 0 and serial.operation("posting_expire") > 0
        heartbeat_interval = 0.01 if (workers, num_shards) == (2, 4) else None
        per_worker = {}
        # A record list is published as it is; a stream as corpus +
        # arrival process, from which each worker builds the records.
        inputs = {"list": records, "stream": from_records(records)}
        for start_method in ("fork", "spawn", "forkserver"):
            for kind, published in inputs.items():
                result = try_process_run(
                    ParallelJoinRunner(
                        config, workers=workers, start_method=start_method,
                        heartbeat_interval=heartbeat_interval,
                    ),
                    published,
                )
                assert_equal_observables(
                    serial, result,
                    f"{start_method} {kind} w={workers} shards={num_shards}",
                )
                if heartbeat_interval is not None:
                    assert telemetry_smoke(result.telemetry) == []
                per_worker[start_method, kind] = [
                    (stats["batches"], stats["records"])
                    for stats in result.worker_stats
                ]
        assert len(set(map(tuple, per_worker.values()))) == 1

    def test_unset_start_method_is_fork_whatever_the_default(self):
        """Left unset, the runner starts its workers with ``fork``, not
        with the platform's default (``forkserver`` on Linux from
        Python 3.14, under which ``RUSAGE_CHILDREN`` misses the
        workers), and the result says which method ran."""
        import multiprocessing as mp

        _fork_or_skip()
        previous = mp.get_start_method(allow_none=True)
        mp.set_start_method("forkserver", force=True)
        try:
            runner = ParallelJoinRunner(JoinConfig(num_workers=2), workers=2)
            result = try_process_run(runner, fuzz_records(seed=5, n=60))
        finally:
            mp.set_start_method(previous, force=True)
        assert runner.start_method == result.start_method == "fork"
        serial = run_serial(JoinConfig(), fuzz_records(seed=5, n=5))
        assert serial.start_method is None


def _fork_or_skip():
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable on this host")


class TestResultsStream:
    """Collecting workers ship at every batch boundary that has rows,
    and the driver drains every worker at once: observably early.
    Count-only workers ship nothing and report the same run."""

    @pytest.mark.parametrize("batch_size", [1, 64, 512])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_sink_equals_collect(self, workers, batch_size):
        """Collecting vs count-only on every grid cell. (The id keeps
        its old name: a count-only run replaced the discarding sink.)"""
        records = fuzz_records(seed=191, n=200)
        for num_shards in (workers, 4):
            config = JoinConfig(
                threshold=0.6, window_seconds=1.5, num_workers=num_shards,
                batch_size=batch_size,
            )
            serial = run_serial(config, records)
            assert serial.results > 0
            runner = ParallelJoinRunner(config, workers=workers)
            assert_count_only_equals_collect(
                serial, runner, records,
                f"w={workers} shards={num_shards} batch={batch_size}",
            )

    def test_dense_cell_ships_many_batches_per_worker(self):
        """~40 matches per record, batches of 8: every process worker
        ships well over three times during its run, each ship one
        ``pipe_write`` span, and the rows equal serial's."""
        records = [
            Record(rid=rid, tokens=(rid % 3, 7, 9), timestamp=rid * 0.001)
            for rid in range(120)
        ]
        config = JoinConfig(
            threshold=0.9, num_workers=4, distribution="prefix", batch_size=8
        )
        serial = run_serial(config, records)
        assert serial.results > 2000
        result = try_process_run(
            ParallelJoinRunner(config, workers=2, spans_sample=1), records
        )
        assert_equal_observables(serial, result, "dense pipe")
        ships = [
            row["worker"] for row in result.span_rows
            if row["phase"] == "pipe_write"
        ]
        assert all(ships.count(worker) >= 3 for worker in (0, 1)), ships

    def test_inline_first_frame_long_before_the_last_batch(self):
        """On the worker's own loop, with a recording ``ship`` hook: at
        every ship the table holds rows of the batch just processed and
        nothing older, the emit buffer starts afresh, and the first ship
        comes when the worker has most of the stream still ahead."""
        config = JoinConfig(threshold=0.6, batch_size=16)
        records = fuzz_records(seed=192)
        plan = plan_shards(config, [record.tokens for record in records])
        worker = ShardWorker(
            config, plan.shards_of_worker(0, 1), plan.num_shards
        )
        real_batch = worker.process_batch
        batch_rids = []

        def batch(shard, items):
            batch_rids.append({record.rid for _, record in items})
            real_batch(shard, items)

        worker.process_batch = batch
        progress = []
        shipped = []

        def ship(table):
            assert set(table.columns[1]) <= batch_rids[-1]
            assert len(worker.matches) == 0
            progress.append(worker.records)
            shipped.extend(table)
            return 0

        worker.run(records, plan, ship=ship)
        assert len(progress) > 3 and len(worker.matches) == 0
        assert progress[0] < worker.records / 2
        serial = run_serial(config, records)
        assert sorted(shipped) == serial.matches

    def test_process_first_frame_long_before_run_end(self, monkeypatch):
        """Every batch slowed by 10 ms: the driver consumes the first
        frame while at least half the injected sleep is still ahead."""
        _fork_or_skip()
        import repro.parallel.runtime as runtime_mod

        real = ShardWorker.process_batch
        real_consume = runtime_mod._Run.consume

        def slow(self, shard, items):
            time.sleep(0.010)
            real(self, shard, items)

        arrivals = []

        def consume(self, w, frame):
            arrivals.append(time.monotonic())
            real_consume(self, w, frame)

        monkeypatch.setattr(ShardWorker, "process_batch", slow)
        monkeypatch.setattr(runtime_mod._Run, "consume", consume)
        runner = ParallelJoinRunner(
            JoinConfig(threshold=0.6, batch_size=16), workers=2,
            start_method="fork",
        )
        result = try_process_run(runner, fuzz_records(seed=193))
        ended = time.monotonic()
        injected = 0.010 * max(s["batches"] for s in result.worker_stats)
        assert injected > 0.2
        assert ended - arrivals[0] >= injected / 2

    def test_frames_interleave_across_workers(self, monkeypatch):
        """Worker 0 slowed: the other workers' frames are consumed
        while it is still working — the first frame the driver consumes
        is not worker 0's, and nobody's frames wait for its summary.
        Every frame is non-empty and sorted."""
        _fork_or_skip()
        import repro.parallel.runtime as runtime_mod

        real_batch = ShardWorker.process_batch
        real_consume = runtime_mod._Run.consume
        order = []

        def slow_worker_0(self, shard, items):
            if self.worker == 0:
                time.sleep(0.03)
            real_batch(self, shard, items)

        def consume(self, w, frame):
            assert len(frame) and frame.ordered, "empty or unsorted frame"
            order.append(w)
            real_consume(self, w, frame)

        monkeypatch.setattr(ShardWorker, "process_batch", slow_worker_0)
        monkeypatch.setattr(runtime_mod._Run, "consume", consume)
        runner = ParallelJoinRunner(
            JoinConfig(threshold=0.6, batch_size=16), workers=3,
            start_method="fork",
        )
        try_process_run(runner, fuzz_records(seed=194))
        assert set(order) == {0, 1, 2}
        assert order[0] != 0
        assert order[-1] == 0
