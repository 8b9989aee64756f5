"""Wall-clock span pipeline: recorder, artefact, analyzer.

Three layers under test, mirroring the pipeline's structure:

* the building blocks — the batch-scoped rows of the one
  :class:`EventLog` and the JSONL artefact round-trip with pointed
  errors;
* the analyzer on a committed fixture whose numbers are small enough
  to check by hand (``tests/data/spans_fixture.jsonl``);
* live runs — span *structure* (phase/shard/batch multisets) must be a
  pure function of the shard plan, identical across worker counts and
  deterministically thinned by ``--spans-sample``; recording spans must
  not perturb the bit-identical observables contract; and a run's
  spans document must pass its own smoke gate.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import JoinConfig
from repro.obs.eventlog import RECORD_SCOPE, EventLog, log_rows
from repro.obs.exporters import metrics_to_json
from repro.obs.health import HealthThresholds
from repro.obs.rectrace import TRACE_EVENTS
from repro.obs.spans import (
    DRIVER,
    PHASE_ID,
    PHASES,
    SPANS_SCHEMA_VERSION,
    critical_path,
    load_spans_jsonl,
    phase_totals,
    smoke_check,
    split_rows,
    validate_span_lines,
    waterfall,
)
from repro.parallel import ParallelJoinRunner, run_serial
from repro.parallel.merge import worker_health, worker_metrics
from repro.parallel.planner import plan_shards
from repro.parallel.worker import ShardWorker

from tests.test_parallel_differential import (
    assert_equal_observables,
    fuzz_records,
    try_process_run,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "spans_fixture.jsonl")

#: Phases whose span structure is shard/batch-attributed and therefore
#: deterministic across worker counts (route is per-frame, and the
#: driver's window spans are per-run — both trivially stable in count
#: but not shard-keyed). A ship is keyed like its batch, and which
#: batches leave rows is a function of the plan and the batch size.
STRUCTURAL_PHASES = ("probe", "insert", "meter_flush", "pipe_write")


def structure(result):
    """Multiset of (phase, shard, batch) for shard-attributed spans."""
    rows = result.spans_document()[1:]
    return sorted(
        (row["phase"], row["shard"], row["batch"])
        for row in rows
        if row["phase"] in STRUCTURAL_PHASES
    )


class TestSpanRecorder:
    """The one :class:`EventLog`, through its batch-scoped rows (the
    record-scoped view is ``test_rectrace.TestTraceRecorder``)."""

    def test_rejects_bad_capacity_and_sample(self):
        with pytest.raises(ValueError, match="capacity"):
            EventLog(capacity=0)
        with pytest.raises(ValueError, match="spans_sample"):
            EventLog(spans_sample=-1)

    def test_record_and_rows_rebased(self):
        log = EventLog(spans_sample=1, capacity=4, measure=False)
        log.record(PHASE_ID["probe"], 10.5, 10.75, shard=3, key=2)
        assert len(log) == 1
        spans, events = log_rows(log.columns(), base=10.0, worker=4)
        assert events == []
        assert spans == [{
            "kind": "span", "phase": "probe", "worker": 4,
            "shard": 3, "batch": 2, "start": 0.5, "end": 0.75,
        }]

    def test_grows_past_preallocated_capacity(self):
        log = EventLog(spans_sample=1, capacity=2, measure=False)
        for i in range(9):
            log.record(PHASE_ID["insert"], float(i), float(i) + 0.5, shard=i)
        assert len(log) == 9
        assert log.capacity >= 9
        phases, shards, batches, starts, ends = log.columns()
        assert list(shards) == list(range(9))
        assert starts[8] == 8.0 and ends[8] == 8.5

    def test_keep_is_every_nth_batch_index(self):
        log = EventLog(spans_sample=3, measure=False)
        assert [log.keep(i) for i in range(7)] == [
            True, False, False, True, False, False, True,
        ]
        # Stride 0 is "spans off": a trace-only log keeps no batch.
        assert not EventLog(trace_sample=4, measure=False).keep(0)

    def test_overhead_budget_is_count_times_cost(self):
        log = EventLog(spans_sample=1, capacity=8)
        assert log.record_cost_s > 0
        for _ in range(5):
            log.record(0, 0.0, 1.0)
        # The budget both artefact headers report is rows-per-scope x
        # this cost (checked end to end in TestLiveSpans below).
        assert log.counts() == (5, 0)

    def test_measure_false_skips_calibration(self):
        assert EventLog(measure=False).record_cost_s == 0.0

    def test_calibration_ignores_a_stalled_burst(self, monkeypatch):
        """A worker descheduled once during calibration (7.4 ms lost at
        its 150th stamp, 0.3 us per stamp otherwise) must still read
        0.3 us, within the same 512-stamp budget: one burst averaged
        over all of them reads 14.8 us."""
        from repro.obs import eventlog

        stamps = 0
        record = EventLog.record

        def counting_record(self, *args):
            nonlocal stamps
            stamps += 1
            record(self, *args)

        class StallingClock:
            @staticmethod
            def perf_counter():
                return stamps * 0.3e-6 + (7.4e-3 if stamps >= 150 else 0.0)

        monkeypatch.setattr(EventLog, "record", counting_record)
        monkeypatch.setattr(eventlog, "time", StallingClock)
        assert eventlog.measure_record_cost() == pytest.approx(0.3e-6)
        assert stamps == 512
        assert (StallingClock.perf_counter() / stamps) == pytest.approx(
            14.8e-6, rel=0.01
        )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(
        st.none(),
        st.tuples(
            st.sampled_from(
                list(range(len(PHASES)))
                + [RECORD_SCOPE | i for i in range(len(TRACE_EVENTS))]
            ),
            st.floats(0, 1e6, allow_nan=False),
            st.floats(0, 10, allow_nan=False),
        ),
    ), max_size=80))
    def test_phase_seconds_cursor_equals_a_from_scratch_sum(self, steps):
        """``phase_seconds`` keeps running totals and a cursor; under
        any interleaving of ``record`` (a tuple) and ``phase_seconds``
        (``None``) every call is float-equal to summing the whole log
        from row zero, spans only, past a capacity doubling."""
        log = EventLog(spans_sample=1, trace_sample=1, capacity=4, measure=False)
        for step in [*steps, None]:
            if step is not None:
                stage, start, width = step
                log.record(stage, start, start + width)
                continue
            expected = [0.0] * len(PHASES)
            for stage, _shard, _key, start, end in zip(*log.columns()):
                if stage < RECORD_SCOPE:
                    expected[stage] += end - start
            assert log.phase_seconds() == expected


class TestSpansArtefact:
    def test_fixture_is_schema_valid(self):
        assert validate_span_lines(load_spans_jsonl(FIXTURE)) == []

    def test_corrupt_line_error_is_pointed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        lines = open(FIXTURE).read().splitlines()
        lines[3] = lines[3][:-5]  # chop mid-object
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:4: corrupt span line"):
            load_spans_jsonl(str(path))

    def test_validation_failures_are_specific(self):
        rows = load_spans_jsonl(FIXTURE)
        header = dict(rows[0])
        del header["wall_s"]
        header["schema"] = 99
        bad_span = dict(rows[1])
        bad_span["phase"] = "warp"
        bad_span["start"], bad_span["end"] = 2.0, 1.0
        errors = validate_span_lines([header, bad_span])
        assert any("unsupported spans schema" in e for e in errors)
        assert any("missing field 'wall_s'" in e for e in errors)
        assert any("unknown phase 'warp'" in e for e in errors)
        assert any("ends before it starts" in e for e in errors)

    def test_missing_header_raises(self):
        rows = load_spans_jsonl(FIXTURE)
        with pytest.raises(ValueError, match="no header"):
            split_rows(rows[1:])
        errors = validate_span_lines(rows[1:])
        assert any("not a header" in e for e in errors)

    def test_empty_dump_is_invalid(self):
        assert validate_span_lines([]) == ["empty spans file"]


class TestAnalyzerOnFixture:
    """The committed fixture's numbers are small enough to hand-check:
    driver windows 0.02 + 0.075 + 0.005 tile the 0.1s wall exactly, and
    worker 1 dominates the drain window (0.056s busy)."""

    @pytest.fixture
    def rows(self):
        return load_spans_jsonl(FIXTURE)

    def test_phase_totals(self, rows):
        totals = phase_totals(rows)
        assert totals["wall_s"] == 0.1
        assert totals["driver_covered_s"] == 0.1
        assert totals["driver_coverage"] == 1.0
        # Every actor's phases, recorded or not; no worker shipped
        # rows, so no worker reports ``pipe_write``.
        assert totals["driver"] == {
            "setup": 0.02, "drain": 0.075, "merge": 0.005,
        }
        assert totals["workers"] == {
            "0": {"route": 0.0, "probe": 0.034, "insert": 0.01,
                  "meter_flush": 0.001},
            "1": {"route": 0.0, "probe": 0.045, "insert": 0.01,
                  "meter_flush": 0.001},
        }

    def test_critical_path(self, rows):
        path = critical_path(rows)
        assert [stage["stage"] for stage in path] == ["setup", "drain", "merge"]
        assert [stage["critical"] for stage in path] == [
            "driver", "worker 1", "driver",
        ]
        drain = path[1]
        assert drain["seconds"] == 0.075
        assert drain["busy_s"] == 0.056
        assert drain["utilisation"] == 0.7467
        # Window durations reproduce the covered wall time.
        assert sum(stage["seconds"] for stage in path) == pytest.approx(0.1)

    def test_waterfall_renders_wall_axis(self, rows):
        art = waterfall(rows, width=40)
        assert "wall time" in art
        for phase in ("setup", "drain", "merge", "probe[1]"):
            assert phase in art

    def test_smoke_check_passes(self, rows):
        assert smoke_check(rows) == []

    def test_smoke_check_catches_overbudget_and_gaps(self, rows):
        inflated = [dict(row) for row in rows]
        inflated[0]["wall_s"] = 0.01
        failures = smoke_check(inflated)
        assert any("exceed wall time" in f for f in failures)
        gappy = [row for row in rows if row.get("phase") != "merge"]
        assert any("no span covers phase 'merge'" in f for f in smoke_check(gappy))


class TestLiveSpans:
    """Spans recorded by real runs: deterministic structure, preserved
    observables, honest headers."""

    @pytest.fixture(scope="class")
    def records(self):
        return fuzz_records(seed=7, n=200)

    def run(self, records, workers, spans_sample=1):
        runner = ParallelJoinRunner(
            config=JoinConfig(threshold=0.6, batch_size=32),
            workers=workers,
            spans_sample=spans_sample,
        )
        return try_process_run(runner, records)

    def test_disabled_by_default(self, records):
        result = try_process_run(
            ParallelJoinRunner(JoinConfig(threshold=0.6), workers=2), records
        )
        with pytest.raises(ValueError, match="recorded no spans"):
            result.spans_document()

    def test_rejects_bad_sample(self):
        for stride in (-1, -3):
            with pytest.raises(ValueError, match="spans_sample"):
                ParallelJoinRunner(JoinConfig(), spans_sample=stride)

    def test_structure_identical_across_worker_counts(self, records):
        baseline = structure(self.run(records, workers=1))
        assert baseline, "run recorded no structural spans"
        for workers in (2, 3):
            assert structure(self.run(records, workers=workers)) == baseline

    def test_sampling_thins_by_batch_index(self, records):
        full = structure(self.run(records, workers=2))
        sampled = structure(self.run(records, workers=2, spans_sample=2))
        expected = [
            (phase, shard, batch) for phase, shard, batch in full if batch % 2 == 0
        ]
        assert sampled == expected
        header = self.run(records, workers=2, spans_sample=2).spans_document()[0]
        assert header["sample"] == 2

    def test_spans_do_not_perturb_observables(self, records):
        config = JoinConfig(threshold=0.6)
        serial = run_serial(config, records)
        for workers in (1, 3):
            result = self.run(records, workers=workers)
            assert_equal_observables(serial, result, f"spans/workers={workers}")

    def test_header_budget_and_smoke(self, records):
        result = self.run(records, workers=2)
        document = result.spans_document()
        header = document[0]
        assert header["schema"] == SPANS_SCHEMA_VERSION
        assert header["executor"] == "process"
        assert header["workers"] == 2
        overhead = header["overhead"]
        assert overhead["driver"]["count"] > 0
        assert overhead["driver"]["estimated_s"] == pytest.approx(
            overhead["driver"]["count"] * overhead["driver"]["record_cost_s"],
            rel=1e-3,  # the header rounds both figures
        )
        assert set(overhead["workers"]) == {"0", "1"}
        assert smoke_check(document) == []
        totals = result.phase_totals()
        assert 0.95 <= totals["driver_coverage"] <= 1.02

    def test_process_executor_spans(self, records):
        result = self.run(records, workers=2)
        document = result.spans_document()
        assert document[0]["executor"] == "process"
        assert "transport" not in document[0]
        assert smoke_check(document) == []
        # No record wire: the driver goes from setup straight to drain,
        # and a worker's time is its own walk, the batches and shipping
        # the rows of every batch that produced any.
        phases = {row["phase"] for row in document[1:]}
        assert phases == {
            "setup", "drain", "merge",
            "route", "probe", "insert", "meter_flush", "pipe_write",
        }
        driver = sorted(
            (row["start"], row["phase"]) for row in document[1:]
            if row["worker"] == DRIVER
        )
        assert [phase for _, phase in driver] == ["setup", "drain", "merge"]
        for stats in result.worker_stats:
            assert stats["lifetime_s"] > 0
            assert stats["bytes_out"] > 0
        self.check_ship_spans(document, "pipe_write")

    @staticmethod
    def check_ship_spans(document, ship):
        """A ship is one worker row keyed like the batch it follows,
        attributed per worker, and outside every ``route`` span."""
        rows = document[1:]
        ships = [row for row in rows if row["phase"] == ship]
        flushes = {
            (row["worker"], row["shard"], row["batch"]): row["end"]
            for row in rows if row["phase"] == "meter_flush"
        }
        assert ships and len(ships) == len(
            {(row["shard"], row["batch"]) for row in ships}
        )
        for row in ships:
            assert row["worker"] != DRIVER
            key = (row["worker"], row["shard"], row["batch"])
            assert flushes[key] <= row["start"] <= row["end"]
            for route in rows:
                if route["phase"] == "route" and route["worker"] == row["worker"]:
                    assert (
                        route["end"] <= row["start"] or row["end"] <= route["start"]
                    )
        totals = phase_totals(document)
        for worker, entry in totals["workers"].items():
            assert entry[ship] == pytest.approx(
                sum(
                    row["end"] - row["start"] for row in ships
                    if str(row["worker"]) == worker
                ),
                abs=1e-5,
            )

    def test_smoke_check_places_ship_spans(self, records):
        document = self.run(records, workers=2).spans_document()
        assert smoke_check(document) == []
        ship = next(
            i for i, row in enumerate(document) if row.get("phase") == "pipe_write"
        )
        on_driver = [dict(row) for row in document]
        on_driver[ship]["worker"] = DRIVER
        assert any(
            "driver recorded 'pipe_write'" in f for f in smoke_check(on_driver)
        )
        wrong_id = [dict(row) for row in document]
        wrong_id[ship]["phase"] = "shm_write"
        assert any(
            "unknown phase 'shm_write'" in f for f in smoke_check(wrong_id)
        )

    def test_inline_ship_spans_are_structural(self, records):
        """On the worker's own loop, with a recording ``ship`` hook: one
        ``pipe_write`` row per batch that left rows, keyed ``(shard,
        batch)`` like that batch, in ship order — and none for a batch
        that left no rows."""
        config = JoinConfig(threshold=0.6, batch_size=32)
        plan = plan_shards(config, [record.tokens for record in records])
        worker = ShardWorker(
            config, plan.shards_of_worker(0, 1), plan.num_shards,
            spans_sample=1,
        )
        real_batch = worker.process_batch
        batches, shipped = [], []

        def batch(shard, items):
            real_batch(shard, items)
            batches.append((shard, sum(s == shard for s, _ in batches)))

        def ship(table):
            assert len(table)
            shipped.append(batches[-1])
            return 0

        worker.process_batch = batch
        worker.run(records, plan, ship=ship)
        spans, _ = log_rows(worker.log.columns())
        assert shipped and [
            (row["shard"], row["batch"]) for row in spans
            if row["phase"] == "pipe_write"
        ] == shipped
        assert {
            (row["shard"], row["batch"]) for row in spans
            if row["phase"] == "meter_flush"
        } == set(batches)

    def test_reused_runner_describes_only_its_own_run(self, records):
        """Run state lives on the run, not the runner: a second run on
        a different stream returns documents equal in shape to a fresh
        runner's on that stream."""
        def shape(result):
            spans = result.spans_document()
            trace = result.rectrace_document()
            keep = ("workers", "shards", "batches", "sample", "records",
                    "traced", "events")
            return (
                structure(result), len(spans), len(trace),
                {k: spans[0][k] for k in keep if k in spans[0]},
                {k: trace[0][k] for k in keep if k in trace[0]},
                sorted((r["rid"], r["event"], r["shard"]) for r in trace[1:]),
            )

        def runner():
            return ParallelJoinRunner(
                JoinConfig(threshold=0.6, batch_size=32), workers=2,
                spans_sample=1, trace_sample=4,
            )

        other = fuzz_records(seed=8, n=90)
        reused = runner()
        first = shape(try_process_run(reused, records))
        second = shape(try_process_run(reused, other))
        assert first == shape(try_process_run(runner(), records))
        assert second == shape(try_process_run(runner(), other))
        assert first != second

    def test_write_spans_round_trips(self, records, tmp_path):
        result = self.run(records, workers=2)
        path = tmp_path / "spans.jsonl"
        lines = result.write_spans(str(path))
        rows = load_spans_jsonl(str(path))
        assert len(rows) == lines
        assert validate_span_lines(rows) == []
        assert phase_totals(rows)["driver_coverage"] == result.phase_totals()[
            "driver_coverage"
        ]


class TestParallelHealthDetectors:
    def test_thresholds_exported(self):
        snapshot = HealthThresholds().as_dict()
        assert {"skew_warning", "skew_critical"} <= set(snapshot)
        # The detectors of the deleted record wire and heartbeat pipe
        # left no thresholds behind.
        assert not any(
            "backpressure" in key or "starvation" in key for key in snapshot
        )

    def test_worker_health_reads_summary_telemetry(self):
        records = fuzz_records(seed=11, n=120)
        result = ParallelJoinRunner(
            JoinConfig(threshold=0.6, batch_size=32), workers=2, spans_sample=1
        ).run(records)
        # Forge a straggler in the summary telemetry: the post-hoc
        # load-skew detector reads each worker's busy seconds.
        result.worker_stats[0]["busy_s"] = 100.0
        result.worker_stats[1]["busy_s"] = 1.0
        (event,) = [
            event for event in worker_health(result).events
            if event.detector == "load_skew"
        ]
        assert (event.task, event.severity) == (0, "warning")


class TestWorkerMetrics:
    def test_registry_gauges(self):
        records = fuzz_records(seed=13, n=150)
        result = ParallelJoinRunner(
            JoinConfig(threshold=0.6, batch_size=32), workers=2
        ).run(records)
        registry = result.metrics_registry()
        dump = json.loads(json.dumps(metrics_to_json(registry)))
        names = set(dump["metrics"])
        assert {
            "run_wall_seconds", "run_workers", "worker_busy_seconds",
            "worker_idle_seconds", "worker_bytes_out",
            "worker_lifetime_seconds", "worker_peak_rss_bytes",
            "worker_heartbeats",
        } <= names
        assert not names & {
            "worker_blocked_seconds", "worker_bytes_in",
            "worker_heartbeats_dropped",
        }
        assert dump["metrics"]["run_workers"]["series"][0]["value"] == 2
        per_worker = dump["metrics"]["worker_busy_seconds"]["series"]
        assert {str(row["labels"]["task"]) for row in per_worker} == {"0", "1"}
