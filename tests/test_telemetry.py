"""Live telemetry: recorder, analysis, differential, pipe ordering.

The tentpole contract of the observability PR: heartbeats are
monitoring-plane only. Every observable — match rows, operation and
event totals, signal peaks, fingerprints — is bit-identical with
telemetry off, on, and at any sampling interval.
"""

import json

import pytest

from repro.core.config import JoinConfig
from repro.obs.spans import WORKER_PHASES
from repro.obs.timeseries import (
    DEFAULT_HEARTBEAT_INTERVAL,
    TELEMETRY_SCHEMA_VERSION,
    TelemetryRecorder,
    TelemetryView,
    load_telemetry_jsonl,
    rates,
    sparkline,
    split_telemetry,
    telemetry_smoke,
    telemetry_summary,
    validate_telemetry_lines,
    worker_series,
)
from repro.parallel import ParallelJoinRunner, run_serial

from tests.test_parallel_differential import (
    assert_equal_observables,
    fuzz_records,
    try_process_run,
)


class TestDifferentialWithTelemetry:
    """Hard constraint: telemetry must not perturb any observable."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_inline_grid_on_off_any_interval(self, workers):
        """The on/off grid on worker processes (the name is the
        in-process executor's it was written for)."""
        config = JoinConfig(threshold=0.6)
        records = fuzz_records(seed=4201)
        serial = run_serial(config, records)
        assert serial.results > 0
        for interval in (None, DEFAULT_HEARTBEAT_INTERVAL, 10.0, 0.001):
            runner = ParallelJoinRunner(
                config.replace(batch_size=64), workers=workers,
                heartbeat_interval=interval,
            )
            result = try_process_run(runner, records)
            assert_equal_observables(
                serial, result, f"workers={workers} interval={interval}",
            )
            if interval is None:
                assert result.telemetry is None
                continue
            # Each worker's summary, its final sample, guarantees
            # coverage at any interval.
            assert result.telemetry_samples() >= workers

    def test_process_on_off_differential(self):
        config = JoinConfig(threshold=0.6)
        records = fuzz_records(seed=4202)
        serial = run_serial(config, records)
        batched = config.replace(batch_size=64)
        off = try_process_run(ParallelJoinRunner(batched, workers=2), records)
        on = try_process_run(
            ParallelJoinRunner(batched, workers=2, heartbeat_interval=0.005),
            records,
        )
        assert_equal_observables(serial, off, "process telemetry off")
        assert_equal_observables(serial, on, "process telemetry on")
        assert off.telemetry is None
        assert telemetry_smoke(on.telemetry) == []

    def test_live_counters_are_cumulative_and_end_at_the_totals(self, monkeypatch):
        """Workers ship (and empty their emit buffer) at every batch
        boundary, so ``matches`` is rows emitted so far — never the
        buffer's length — and ``bytes_out`` grows as frames leave: both
        non-decreasing per worker, both mid-run non-zero, and the
        final sample equal to the worker's share of the run."""
        import time

        from repro.parallel.worker import ShardWorker

        real = ShardWorker.process_batch

        def slow(self, shard, items):
            time.sleep(0.002)
            real(self, shard, items)

        monkeypatch.setattr(ShardWorker, "process_batch", slow)
        result = try_process_run(
            ParallelJoinRunner(
                JoinConfig(threshold=0.6, batch_size=16), workers=2,
                spans_sample=1, heartbeat_interval=0.004,
            ),
            fuzz_records(seed=4207),
        )
        assert telemetry_smoke(result.telemetry) == []
        samples = [r for r in result.telemetry if r.get("kind") == "sample"]
        for stats in result.worker_stats:
            series = [r for r in samples if r["worker"] == stats["worker"]]
            assert len(series) >= 4 and series[-1]["final"]
            for key in ("matches", "bytes_out"):
                values = [row[key] for row in series]
                assert values == sorted(values)
                # Live, not 0 until exit: some mid-run sample already
                # carries part of the total.
                assert any(0 < value < values[-1] for value in values[:-1])
            share = sum(
                result.shard_meters[shard]["events"]["results"]
                for shard in stats["shards"]
            )
            assert series[-1]["matches"] == share > 0
            assert series[-1]["bytes_out"] == stats["bytes_out"] > 40 * share
        assert sum(
            r["matches"] for r in samples if r["final"]
        ) == result.results == result.telemetry[-1]["results"]

    def test_sample_matches_are_the_rows_already_consumed(self, monkeypatch):
        """Heartbeats ride the result pipe, behind every match frame
        their worker shipped before them: each sample's ``matches`` is
        exactly the rows the driver had consumed from that worker when
        the sample arrived — mid-run samples included."""
        import time

        from repro.parallel import runtime
        from repro.parallel.worker import ShardWorker

        real_batch = ShardWorker.process_batch
        real_consume = runtime._Run.consume
        real_beat = TelemetryRecorder.on_heartbeat
        consumed = {}
        arrivals = []

        def slow(self, shard, items):
            time.sleep(0.001)
            real_batch(self, shard, items)

        def consume(self, w, frame):
            real_consume(self, w, frame)
            consumed[w] = consumed.get(w, 0) + len(frame)

        def on_heartbeat(self, worker, counters, final):
            arrivals.append((counters["matches"], consumed.get(worker, 0)))
            return real_beat(self, worker, counters, final)

        monkeypatch.setattr(ShardWorker, "process_batch", slow)
        monkeypatch.setattr(runtime._Run, "consume", consume)
        monkeypatch.setattr(TelemetryRecorder, "on_heartbeat", on_heartbeat)
        result = try_process_run(
            ParallelJoinRunner(
                JoinConfig(threshold=0.6, batch_size=16), workers=2,
                heartbeat_interval=0.002,
            ),
            fuzz_records(seed=4208),
        )
        assert len(arrivals) == result.telemetry_samples() >= 8
        assert all(matches == seen for matches, seen in arrivals), arrivals
        assert any(0 < matches < result.results for matches, _ in arrivals)

    def test_a_count_only_run_samples_the_rows_found(self, monkeypatch):
        """``collect=False``: no row crosses the pipe, yet each sample's
        ``matches`` is the rows found so far — live mid-run — and the
        final sample's is ``result.results``; ``bytes_out`` stays 0."""
        import time

        from repro.parallel.worker import ShardWorker

        real = ShardWorker.process_batch

        def slow(self, shard, items):
            time.sleep(0.001)
            real(self, shard, items)

        monkeypatch.setattr(ShardWorker, "process_batch", slow)
        result = try_process_run(
            ParallelJoinRunner(
                JoinConfig(threshold=0.6, batch_size=16), workers=1,
                heartbeat_interval=0.002,
            ),
            fuzz_records(seed=4209),
            collect=False,
        )
        assert result.matches is None
        assert telemetry_smoke(result.telemetry) == []
        samples = [r for r in result.telemetry if r.get("kind") == "sample"]
        assert len(samples) >= 4 and samples[-1]["final"]
        assert samples[-1]["matches"] == result.results == (
            result.events["results"]
        ) == result.telemetry[-1]["results"] > 0
        assert any(0 < r["matches"] < result.results for r in samples[:-1])
        assert all(r["bytes_out"] == 0 for r in samples)

    def test_telemetry_composes_with_spans(self):
        config = JoinConfig(threshold=0.6)
        records = fuzz_records(seed=4203)
        serial = run_serial(config, records)
        result = try_process_run(
            ParallelJoinRunner(
                config.replace(batch_size=64), workers=2,
                spans_sample=1, heartbeat_interval=0.001,
            ),
            records,
        )
        assert_equal_observables(serial, result, "spans+telemetry")
        assert result.span_rows
        # With spans on, samples carry the per-phase decomposition.
        samples = [r for r in result.telemetry if r.get("kind") == "sample"]
        assert any(sum(row["phase_s"].values()) > 0 for row in samples)


class TestRunnerSurface:
    def test_invalid_interval_rejected(self):
        for interval in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="heartbeat_interval"):
                ParallelJoinRunner(JoinConfig(), heartbeat_interval=interval)

    def test_interval_or_out_path_implies_telemetry(self, tmp_path):
        assert ParallelJoinRunner(JoinConfig()).telemetry is False
        runner = ParallelJoinRunner(JoinConfig(), heartbeat_interval=5.0)
        assert runner.telemetry is True
        assert runner.heartbeat_interval == 5.0
        runner = ParallelJoinRunner(
            JoinConfig(), telemetry_out=str(tmp_path / "t.jsonl"),
        )
        assert runner.telemetry is True
        assert runner.heartbeat_interval == DEFAULT_HEARTBEAT_INTERVAL

    def test_telemetry_accessors(self):
        records = fuzz_records(seed=4204, n=120)
        off = try_process_run(
            ParallelJoinRunner(JoinConfig(threshold=0.6), workers=2), records
        )
        assert off.telemetry is None
        assert off.telemetry_samples() == 0
        on = try_process_run(
            ParallelJoinRunner(
                JoinConfig(threshold=0.6), workers=2,
                heartbeat_interval=DEFAULT_HEARTBEAT_INTERVAL,
            ),
            records,
        )
        doc = on.telemetry
        assert doc[0]["kind"] == "header"
        assert doc[-1]["kind"] == "final"
        assert on.telemetry_samples() == sum(
            1 for row in doc if row.get("kind") == "sample"
        )

    def test_jsonl_artefact_round_trips(self, tmp_path):
        path = tmp_path / "run.telemetry.jsonl"
        records = fuzz_records(seed=4205, n=200)
        result = try_process_run(
            ParallelJoinRunner(
                JoinConfig(threshold=0.6), workers=2,
                telemetry_out=str(path), heartbeat_interval=0.001,
            ),
            records,
        )
        rows = load_telemetry_jsonl(str(path))
        assert validate_telemetry_lines(rows) == []
        assert telemetry_smoke(rows) == []
        # The file is the same document the result carries in memory.
        assert rows == result.telemetry
        header, body = split_telemetry(rows)
        assert header["schema"] == TELEMETRY_SCHEMA_VERSION
        assert header["workers"] == 2
        assert body[-1]["kind"] == "final"
        assert body[-1]["records"] == len(records)

    def test_worker_summary_carries_heartbeat_stats(self):
        records = fuzz_records(seed=4206, n=120)
        result = try_process_run(
            ParallelJoinRunner(
                JoinConfig(threshold=0.6), workers=2,
                heartbeat_interval=DEFAULT_HEARTBEAT_INTERVAL,
            ),
            records,
        )
        for stats in result.worker_stats:
            assert stats["heartbeats"] >= 1

    def test_uptime_counts_from_the_worker_start(self, monkeypatch):
        """``uptime_s`` counts from the worker's start — engine
        construction included, here slowed by 50 ms — and the summary's
        ``lifetime_s`` is its final sample's ``uptime_s`` (which the
        artefact keeps to the microsecond)."""
        import time

        from repro.parallel import worker as worker_mod

        real_build = worker_mod.build_shard_engine

        def slow_build(*args, **kwargs):
            time.sleep(0.05)
            return real_build(*args, **kwargs)

        # Forked workers inherit the patch.
        monkeypatch.setattr(worker_mod, "build_shard_engine", slow_build)
        result = try_process_run(
            ParallelJoinRunner(
                JoinConfig(threshold=0.6), workers=2, start_method="fork",
                heartbeat_interval=DEFAULT_HEARTBEAT_INTERVAL,
            ),
            fuzz_records(seed=4209, n=60),
        )
        finals = {
            row["worker"]: row for row in result.telemetry
            if row.get("kind") == "sample" and row["final"]
        }
        for stats in result.worker_stats:
            assert stats["lifetime_s"] >= 0.05
            assert finals[stats["worker"]]["uptime_s"] == round(
                stats["lifetime_s"], 6
            )


class TestRecorder:
    def _sample(self, **overrides):
        """One worker's counters, as a heartbeat frame carries them."""
        sample = {
            "uptime_s": 1.0, "batches": 2, "records": 100,
            "matches": 3, "live_postings": 500, "busy_s": 0.5,
            "bytes_out": 256, "rss_bytes": 1 << 20,
            "phase_s": {name: 0.0 for name in WORKER_PHASES},
        }
        sample.update(overrides)
        return sample

    def _recorder(self, **kwargs):
        import time
        defaults = dict(
            workers=2, shards=8, interval=0.25, base=time.monotonic(),
        )
        defaults.update(kwargs)
        return TelemetryRecorder(**defaults)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            self._recorder(interval=0.0)

    def test_sample_rows_timestamped_and_ordered(self):
        recorder = self._recorder()
        row = recorder.on_heartbeat(1, self._sample(), final=False)
        assert row["kind"] == "sample"
        assert (row["worker"], row["seq"], row["final"]) == (1, 0, False)
        assert row["t"] >= 0.0
        assert recorder.sample_count() == 1
        recorder.finalize(wall_s=1.0, records=100, results=3)
        doc = recorder.document()
        assert [r["kind"] for r in doc] == ["header", "sample", "final"]
        assert validate_telemetry_lines(doc) == []

    def test_finalize_idempotent(self):
        recorder = self._recorder()
        first = recorder.finalize(1.0, 10, 1)
        second = recorder.finalize(99.0, 99, 99)
        assert first is second
        assert sum(1 for r in recorder.rows if r["kind"] == "final") == 1

    def test_skew_snapshot_needs_two_samples_per_worker(self):
        recorder = self._recorder(workers=2)
        recorder.on_heartbeat(
            0, self._sample(busy_s=0.1, uptime_s=10.0), final=False)
        recorder.on_heartbeat(
            1, self._sample(busy_s=9.0, uptime_s=10.0), final=False)
        # One sample each: the snapshot detector must stay quiet.
        assert not [r for r in recorder.rows if r["kind"] == "health"]
        recorder.on_heartbeat(
            0, self._sample(busy_s=0.2, uptime_s=10.0), final=False)
        recorder.on_heartbeat(
            1, self._sample(busy_s=18.0, uptime_s=10.0), final=False)
        events = [r for r in recorder.rows if r["kind"] == "health"]
        assert any(e["detector"] == "load_skew" for e in events)


class TestValidation:
    def _document(self):
        import time
        recorder = TelemetryRecorder(
            workers=1, shards=8, interval=0.25, base=time.monotonic(),
        )
        sample = TestRecorder()._sample()
        recorder.on_heartbeat(0, sample, final=False)
        recorder.on_heartbeat(0, dict(sample, records=200), final=True)
        recorder.finalize(1.0, 200, 3)
        return recorder.document()

    def test_valid_document_passes(self):
        assert validate_telemetry_lines(self._document()) == []
        assert telemetry_smoke(self._document()) == []

    def test_empty_and_headerless_rejected(self):
        assert validate_telemetry_lines([]) == ["empty telemetry file"]
        errors = validate_telemetry_lines([{"kind": "sample"}])
        assert any("not a header" in e for e in errors)

    def test_unsupported_schema_flagged(self):
        doc = self._document()
        doc[0] = dict(doc[0], schema=99)
        assert any(
            "unsupported telemetry schema" in e
            for e in validate_telemetry_lines(doc)
        )

    def test_schema_1_file_is_refused(self, tmp_path, capsys):
        """Schema 1 (the separate heartbeat pipe) is no longer read:
        both gates and ``repro telemetry`` name the schema."""
        from repro.cli import main

        document = self._document()
        document[0] = dict(document[0], schema=1)
        assert "unsupported telemetry schema 1" in validate_telemetry_lines(
            document
        )
        assert telemetry_smoke(document)
        path = tmp_path / "schema1.telemetry.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in document))
        assert main(["telemetry", str(path)]) == 2
        assert "unsupported telemetry schema 1" in capsys.readouterr().err

    def test_seq_regression_flagged(self):
        doc = self._document()
        doc[2] = dict(doc[2], seq=0)  # second sample repeats seq 0
        assert any("seq" in e for e in validate_telemetry_lines(doc))

    def test_decreasing_counter_flagged(self):
        doc = self._document()
        doc[2] = dict(doc[2], records=50)
        assert any(
            "'records' decreased" in e for e in validate_telemetry_lines(doc)
        )

    def test_final_must_be_last_and_unique(self):
        doc = self._document()
        reordered = [doc[0], doc[-1]] + doc[1:-1]
        assert any(
            "final row is not last" in e
            for e in validate_telemetry_lines(reordered)
        )
        doubled = doc + [doc[-1]]
        assert any(
            "final rows" in e for e in validate_telemetry_lines(doubled)
        )

    def test_smoke_requires_sample_from_every_worker(self):
        doc = self._document()
        doc[0] = dict(doc[0], workers=2)
        assert any(
            "no heartbeat sample from worker 1" in f
            for f in telemetry_smoke(doc)
        )

    def test_smoke_requires_one_final_sample_last_per_worker(self):
        """A finished worker's run-end summary is its one ``final``
        sample, and nothing of that worker's follows it."""
        doc = self._document()
        unflagged = doc[:2] + [dict(doc[2], final=False)] + doc[3:]
        assert "worker 0 has 0 final samples (expected 1)" in telemetry_smoke(
            unflagged
        )
        doubled = doc[:1] + [dict(doc[1], final=True)] + doc[2:]
        assert "worker 0 has 2 final samples (expected 1)" in telemetry_smoke(
            doubled
        )
        early = doc[:1] + [dict(doc[1], final=True), dict(doc[2], final=False)]
        early += doc[3:]
        assert "worker 0's final sample is not its last" in telemetry_smoke(
            early
        )
        # A failed run: a worker that never finished sends no summary.
        failed = unflagged[:-1] + [dict(doc[-1], error="boom")]
        assert telemetry_smoke(failed) == ["the run failed: boom"]

    def test_smoke_checks_final_sample_count(self):
        doc = self._document()
        doc[-1] = dict(doc[-1], samples=7)
        assert any("7 samples" in f for f in telemetry_smoke(doc))

    def test_corrupt_jsonl_pointed_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "header"}\n{nope\n')
        with pytest.raises(ValueError, match=r"t\.jsonl:2: corrupt"):
            load_telemetry_jsonl(str(path))


class TestAnalysis:
    def _rows(self):
        base = dict(TestRecorder()._sample(), worker=0, final=False)
        return [
            dict(base, kind="sample", t=0.1, uptime_s=0.1, seq=1, records=100),
            dict(base, kind="sample", t=0.2, uptime_s=0.2, seq=2, records=300),
            # Read late by a starved driver: the rate is the worker's.
            dict(base, kind="sample", t=0.9, uptime_s=0.3, seq=3, records=600),
        ]

    def test_worker_series_and_rates(self):
        rows = self._rows()
        series = worker_series(rows)
        assert list(series) == [0]
        per_second = rates(series[0], "records")
        assert per_second == [pytest.approx(2000.0), pytest.approx(3000.0)]

    def test_summary_digest(self):
        import time
        recorder = TelemetryRecorder(
            workers=1, shards=8, interval=0.25, base=time.monotonic() - 1.0,
        )
        sample = TestRecorder()._sample()
        recorder.on_heartbeat(0, sample, final=False)
        recorder.on_heartbeat(
            0, dict(sample, uptime_s=1.25, records=400, matches=9), final=True
        )
        recorder.finalize(2.0, 400, 9)
        summary = telemetry_summary(recorder.document())
        assert summary["executor"] == "process"
        entry = summary["workers"]["0"]
        assert entry["samples"] == 2
        assert entry["records"] == 400
        assert entry["matches"] == 9
        assert entry["peak_records_per_s"] == 1200.0  # 300 in 0.25 s
        assert summary["final"]["wall_s"] == 2.0

    def test_sparkline_shapes(self):
        assert sparkline([]) == " " * 16
        assert sparkline([0.0, 0.0], width=4) == "  ▁▁"
        line = sparkline([1, 2, 4, 8], width=4)
        assert len(line) == 4
        assert line[-1] == "█"
        assert len(sparkline(list(range(100)), width=8)) == 8

    def test_view_renders_all_sections(self):
        view = TelemetryView()
        assert "waiting for telemetry header" in view.render()
        view.feed({
            "kind": "header", "workers": 1, "shards": 8,
            "executor": "inline", "interval": 0.25,
        })
        for row in self._rows():
            view.feed(row)
        view.feed({
            "kind": "health", "severity": "warning",
            "detector": "load_skew", "time": 0.3, "message": "m",
        })
        view.feed({
            "kind": "final", "wall_s": 0.4, "records": 600,
            "results": 3, "samples": 3,
        })
        frame = view.render()
        assert "worker 0" in frame
        assert "cluster" in frame
        assert "load_skew" in frame
        assert "final" in frame and "samples 3" in frame

    def test_view_history_is_bounded(self):
        view = TelemetryView(history=4)
        view.feed({
            "kind": "header", "workers": 1, "shards": 8,
            "executor": "inline", "interval": 0.25,
        })
        base = dict(TestRecorder()._sample(), worker=0, final=False)
        for seq in range(1, 20):
            view.feed(dict(
                base, kind="sample", t=seq * 0.1, uptime_s=seq * 0.1,
                seq=seq, records=seq * 100,
            ))
        assert len(view.samples[0]) == 4
        assert len(view._rates[0]) == 4
