"""Distributed record tracing: recorder, worker log trip, determinism,
differential.

The tentpole contract of the record-tracing PR: tracing is
monitoring-plane only. Every observable — match rows, operation and
event totals, signal peaks, fingerprints — is bit-identical with
tracing off, on, and at any sampling stride, on both executors. On
top of that, the traced rid set and each record's event structure are
pure functions of the shard plan: identical across worker counts and
batch sizes.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.core.config import JoinConfig
from repro.obs.artefact import artefact_family
from repro.obs.chrome import rectrace_to_chrome, spans_to_chrome, validate_chrome
from repro.obs.eventlog import RECORD_SCOPE, EventLog, log_rows
from repro.obs.rectrace import (
    RECTRACE_SCHEMA_VERSION,
    DEFAULT_TRACE_SAMPLE,
    EVENT_ID,
    TRACE_EVENTS,
    TRACE_STAGES,
    latency_digest,
    latency_metrics,
    load_rectrace_jsonl,
    record_trees,
    rectrace_smoke,
    slowest_records,
    split_rectrace,
    stage_durations,
    validate_rectrace_lines,
)
from repro.obs.registry import ObsRegistry
from repro.obs.spans import (
    PHASE_ID,
    PHASES,
    SPANS_SCHEMA_VERSION,
    load_spans_jsonl,
    smoke_check,
    validate_span_lines,
)
from repro.parallel import ParallelJoinRunner, run_serial

from tests.test_parallel_differential import (
    assert_equal_observables,
    fuzz_records,
    try_process_run,
)
from tests.test_spans import FIXTURE as SPANS_FIXTURE, structure

RECTRACE_FIXTURE = os.path.join(
    os.path.dirname(__file__), "data", "rectrace_fixture.jsonl"
)


def _event(name):
    return RECORD_SCOPE | EVENT_ID[name]


class TestWorkerLogReachesTheDriver:
    """A worker's event log rides its run-end summary as pickled
    columns — no frame of its own — and reaches the driver whole."""

    def test_both_scopes_and_wide_rids_survive_the_trip(self):
        records = [
            replace(record, rid=2 ** 40 + record.rid)
            for record in fuzz_records(seed=4311, n=200)
        ]
        result = try_process_run(
            ParallelJoinRunner(
                JoinConfig(threshold=0.6, batch_size=32), workers=2,
                spans_sample=1, trace_sample=4,
            ),
            records,
        )
        for header, rows in (
            (result.span_header, result.span_rows),
            (result.trace_header, result.trace_rows),
        ):
            # Every worker's rows arrived, as many as its summary counted.
            for w, entry in header["overhead"]["workers"].items():
                count = sum(1 for row in rows if row["worker"] == int(w))
                assert count == entry["count"] > 0
        traced = {row["rid"] for row in result.trace_rows}
        assert traced == {r.rid for r in records if r.rid % 4 == 0}
        assert min(traced) >= 2 ** 32
        assert rectrace_smoke(result.rectrace_document()) == []


class TestTraceRecorder:
    """The one :class:`EventLog`, through its record-scoped rows (the
    batch-scoped view is ``test_spans.TestSpanRecorder``)."""

    def test_selected_is_pure_stride(self):
        log = EventLog(trace_sample=4, measure=False)
        assert [rid for rid in range(13) if log.selected(rid)] == [0, 4, 8, 12]
        # Stride 0 is "tracing off": a spans-only log traces no rid.
        assert not EventLog(spans_sample=1, measure=False).selected(0)

    def test_sample_one_selects_everything(self):
        log = EventLog(trace_sample=1, measure=False)
        assert all(log.selected(rid) for rid in range(10))

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError, match="trace_sample"):
            EventLog(trace_sample=-1)
        with pytest.raises(ValueError, match="capacity"):
            EventLog(trace_sample=4, capacity=0)

    def test_record_grows_past_capacity(self):
        """Growth keeps the i64 key column whole: rids past 32 bits."""
        log = EventLog(trace_sample=1, capacity=2, measure=False)
        for i in range(5):
            log.record(_event("probe"), float(i), float(i) + 0.5, 1, 2 ** 40 + i)
        assert len(log) == 5
        stages, shards, rids, starts, ends = log.columns()
        assert list(rids) == [2 ** 40 + i for i in range(5)]
        assert list(ends) == [0.5, 1.5, 2.5, 3.5, 4.5]

    def test_rows_rebase_and_label(self):
        log = EventLog(trace_sample=1, measure=False)
        log.record(_event("match_emit"), 10.0, 10.5, 2, 3)
        spans, events = log_rows(log.columns(), base=10.0, worker=1)
        assert spans == []
        assert events == [{
            "kind": "event", "event": "match_emit", "rid": 3, "worker": 1,
            "shard": 2, "start": 0.0, "end": 0.5,
        }]

    def test_overhead_estimate_scales_with_count(self):
        log = EventLog(spans_sample=1, trace_sample=1)
        assert log.record_cost_s > 0
        assert log.counts() == (0, 0)
        log.record(_event("probe"), 0.0, 0.1, 0, 0)
        log.record(PHASE_ID["probe"], 0.0, 0.1, 0, 0)
        log.record(_event("insert"), 0.1, 0.2, 0, 0)
        assert log.counts() == (1, 2)


def _trace_signature(doc):
    """Per-rid multiset of (event, shard) — the cross-config invariant.

    Timings and worker ids legitimately vary; which events a record
    incurs on which shards must not.
    """
    signature = {}
    for rid, tree in record_trees(doc).items():
        signature[rid] = sorted((row["event"], row["shard"]) for row in tree)
    return signature


class TestSamplingDeterminism:
    """Traced set and event structure across workers and batch sizes."""

    CONFIG = JoinConfig(threshold=0.6)

    def _doc(self, records, workers, batch_size, sample=8, collect=True):
        runner = ParallelJoinRunner(
            self.CONFIG.replace(batch_size=batch_size), workers=workers,
            trace_sample=sample,
        )
        return try_process_run(runner, records, collect).rectrace_document()

    def test_traced_rids_identical_across_workers(self):
        records = fuzz_records(seed=11, n=240)
        expected = {rid for rid in range(240) if rid % 8 == 0}
        for workers in (1, 2, 4):
            doc = self._doc(records, workers, batch_size=32)
            assert set(record_trees(doc)) == expected, f"workers={workers}"

    def test_event_structure_identical_across_workers(self):
        records = fuzz_records(seed=12, n=240)
        reference = _trace_signature(self._doc(records, 1, batch_size=32))
        for workers in (2, 4):
            signature = _trace_signature(self._doc(records, workers, 32))
            assert signature == reference, f"workers={workers}"
        # A count-only run stamps the same events, match_emit included.
        counted = self._doc(records, 2, 32, collect=False)
        assert _trace_signature(counted) == reference, "count-only"

    def test_event_structure_identical_across_batch_sizes(self):
        records = fuzz_records(seed=13, n=240)
        reference = _trace_signature(self._doc(records, 2, batch_size=1))
        for batch_size in (7, 64):
            signature = _trace_signature(self._doc(records, 2, batch_size))
            assert signature == reference, f"batch_size={batch_size}"

    def test_every_traced_record_has_full_pipeline(self):
        records = fuzz_records(seed=14, n=120)
        doc = self._doc(records, 2, batch_size=16, sample=4)
        for rid, tree in record_trees(doc).items():
            events = {row["event"] for row in tree}
            assert "probe" in events or "insert" in events, rid
            # Stamped where the work happens, never by the driver.
            assert all(row["worker"] >= 0 for row in tree), rid
            assert events <= {"probe", "insert", "match_emit"}, rid


class TestTracingDifferential:
    """Observables bit-identical with tracing on/off, >= 2 worker
    counts, >= 2 sampling strides."""

    def test_inline_grid_on_off_any_stride(self):
        """The on/off grid on worker processes (the name is the
        in-process executor's it was written for)."""
        config = JoinConfig(threshold=0.6)
        records = fuzz_records(seed=21, n=300)
        serial = run_serial(config, records)
        for workers in (1, 2, 4):
            for sample in (1, 5, DEFAULT_TRACE_SAMPLE, 0):
                runner = ParallelJoinRunner(
                    config, workers=workers, trace_sample=sample
                )
                assert_equal_observables(
                    serial, try_process_run(runner, records),
                    f"w={workers} sample={sample}",
                )

    def test_process_on_off_differential(self):
        config = JoinConfig(threshold=0.6)
        records = fuzz_records(seed=22, n=250)
        serial = run_serial(config, records)
        for workers in (1, 2):
            for sample in (4, DEFAULT_TRACE_SAMPLE):
                result = try_process_run(
                    ParallelJoinRunner(
                        config, workers=workers, trace_sample=sample
                    ),
                    records,
                )
                assert_equal_observables(
                    serial, result, f"process w={workers} sample={sample}"
                )
                assert result.trace_header["traced"] == sum(
                    1 for rid in range(250) if rid % sample == 0
                )

    def test_tracing_composes_with_spans_and_telemetry(self):
        config = JoinConfig(threshold=0.6)
        records = fuzz_records(seed=23, n=200)
        serial = run_serial(config, records)
        result = try_process_run(
            ParallelJoinRunner(
                config, workers=2, spans_sample=1, trace_sample=4,
                heartbeat_interval=0.25,
            ),
            records,
        )
        assert_equal_observables(serial, result, "trace+spans+telemetry")
        assert result.span_header is not None
        assert result.telemetry is not None
        assert rectrace_smoke(result.rectrace_document()) == []

    @pytest.mark.parametrize("trace_sample", [1, 4])
    @pytest.mark.parametrize("spans_sample", [1, 3])
    def test_sampled_spans_with_tracing_grid(self, spans_sample, trace_sample):
        """Span-sampled *and* traced batches next to batches that are
        only traced and (3-record batches, stride 4) batches that are
        neither: observables equal serial, and span structure and each
        rid's trace events are the same at 1 and 2 workers."""
        config = JoinConfig(threshold=0.6, num_workers=4)
        records = fuzz_records(seed=24, n=260)
        serial = run_serial(config, records)
        seen = {}
        for workers in (1, 2):
            label = f"w={workers} spans/{spans_sample} trace/{trace_sample}"
            runner = ParallelJoinRunner(
                config.replace(batch_size=3), workers=workers,
                spans_sample=spans_sample, trace_sample=trace_sample,
            )
            result = try_process_run(runner, records)
            assert_equal_observables(serial, result, label)
            seen[label] = (
                structure(result),
                _trace_signature(result.rectrace_document()),
            )
        spans, events = next(iter(seen.values()))
        assert set(events) == {r for r in range(260) if r % trace_sample == 0}
        assert spans and all(batch % spans_sample == 0 for _, _, batch in spans)
        for label, got in seen.items():
            assert got == (spans, events), label

    def test_invalid_trace_sample_rejected(self):
        for stride in (-1, -16):
            with pytest.raises(ValueError, match="trace_sample"):
                ParallelJoinRunner(JoinConfig(), trace_sample=stride)


class TestRectraceArtefact:
    def _result(self, workers=2, sample=4, n=160, seed=31):
        runner = ParallelJoinRunner(
            JoinConfig(threshold=0.6), workers=workers, trace_sample=sample
        )
        return try_process_run(runner, fuzz_records(seed=seed, n=n))

    def test_jsonl_round_trip(self, tmp_path):
        result = self._result()
        path = tmp_path / "run.rectrace.jsonl"
        lines = result.write_rectrace(str(path))
        rows = load_rectrace_jsonl(str(path))
        assert len(rows) == lines
        assert validate_rectrace_lines(rows) == []
        assert rectrace_smoke(rows) == []
        assert rows == result.rectrace_document()

    def test_header_shape(self):
        result = self._result(sample=4, n=160)
        header, events = split_rectrace(result.rectrace_document())
        assert header["artefact"] == "rectrace"
        assert header["sample"] == 4
        assert header["records"] == 160
        assert header["traced"] == 40
        assert header["events"] == len(events)
        assert set(header["stages"]) <= set(TRACE_STAGES)
        # The log's self-measured cost, in the spans header's shape:
        # per actor, its events x its calibrated per-stamp cost.
        overhead = header["overhead"]
        assert set(overhead["workers"]) == {"0", "1"}
        actors = {"-1": overhead["driver"], **overhead["workers"]}
        for worker, entry in actors.items():
            assert entry["count"] == sum(
                1 for row in events if str(row["worker"]) == worker
            )
            assert entry["record_cost_s"] > 0
            assert entry["estimated_s"] == pytest.approx(
                entry["count"] * entry["record_cost_s"], abs=1e-9
            )

    def test_uninstrumented_run_builds_no_log(self, monkeypatch):
        """Spans and tracing both off: no calibration burst is paid and
        no columns are allocated, on the driver or in any worker."""
        def forbidden(*args, **kwargs):
            raise AssertionError("an uninstrumented run touched the event log")

        monkeypatch.setattr("repro.obs.eventlog.EventLog.__init__", forbidden)
        # Forked workers inherit the patch; one that built a log would
        # fail the run.
        runner = ParallelJoinRunner(
            JoinConfig(threshold=0.6), workers=2, start_method="fork",
            heartbeat_interval=0.25,
        )
        result = try_process_run(runner, fuzz_records(seed=33, n=60))
        assert result.span_header is None and result.trace_header is None
        assert result.telemetry_samples() >= 2

    def test_corrupt_line_pointed_error(self, tmp_path):
        result = self._result(n=80)
        path = tmp_path / "bad.jsonl"
        result.write_rectrace(str(path))
        text = path.read_text().splitlines()
        text[1] = text[1][:-10]
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match="corrupt trace line"):
            load_rectrace_jsonl(str(path))

    def test_validate_flags_off_stride_rid(self):
        rows = self._result(sample=4, n=80).rectrace_document()
        rows.append(dict(rows[1], rid=3))
        errors = validate_rectrace_lines(rows)
        assert any("sample" in error for error in errors)

    def test_untraced_run_raises(self):
        """A zero stride — the default — is tracing off."""
        result = try_process_run(
            ParallelJoinRunner(
                JoinConfig(threshold=0.6), workers=2, trace_sample=0
            ),
            fuzz_records(seed=32, n=60),
        )
        assert result.trace_header is None and result.trace_rows is None
        with pytest.raises(ValueError, match="traced no records"):
            result.rectrace_document()
        with pytest.raises(ValueError, match="traced no records"):
            result.latency_digest()


class TestCommittedFixtures:
    """The two JSONL artefacts are the compatibility surface of the
    one event log: hand-written files in today's vocabulary, each
    reading like a 2-worker process run (``rectrace_fixture.jsonl``:
    40 records, ``batch_size=8``, ``trace_sample=8``). Both must keep
    loading, validating, smoke-passing, Chrome-exporting and sniffing
    as their own family, and what the one log writes for the same run
    shape must validate under the same schema constants."""

    FAMILIES = {
        "spans": (
            SPANS_FIXTURE, load_spans_jsonl, validate_span_lines,
            smoke_check, spans_to_chrome,
        ),
        "rectrace": (
            RECTRACE_FIXTURE, load_rectrace_jsonl, validate_rectrace_lines,
            rectrace_smoke, rectrace_to_chrome,
        ),
    }

    @pytest.mark.parametrize("family", FAMILIES)
    def test_fixture_still_reads(self, family):
        path, load, validate, smoke, to_chrome = self.FAMILIES[family]
        rows = load(path)
        assert validate(rows) == []
        assert smoke(rows) == []
        assert validate_chrome(to_chrome(rows)) == []
        assert artefact_family(rows) == family

    def test_schema_constants_unchanged(self):
        assert SPANS_SCHEMA_VERSION == RECTRACE_SCHEMA_VERSION == 1
        assert PHASES == (
            "setup", "pipe_write", "drain", "merge",
            "probe", "insert", "meter_flush", "route",
        )
        # Ids never leave a run (files carry names), so only the order
        # matters: a record's tree breaks ties probe → insert →
        # match_emit.
        assert TRACE_EVENTS == (
            "probe", "insert", "match_emit",
            "emit", "queue", "dispatch", "join", "sink",
        )
        assert TRACE_STAGES == TRACE_EVENTS + ("e2e",)

    def test_new_artefacts_match_the_fixtures_shape(self):
        result = try_process_run(
            ParallelJoinRunner(
                JoinConfig(threshold=0.6, num_workers=2, batch_size=8),
                workers=2, spans_sample=1, trace_sample=8,
            ),
            fuzz_records(seed=31, n=40),
        )
        for family, document in (
            ("spans", result.spans_document()),
            ("rectrace", result.rectrace_document()),
        ):
            path, load, validate, smoke, _ = self.FAMILIES[family]
            assert validate(document) == []
            assert smoke(document) == []
            old = load(path)
            # Header keys only grow; row keys are frozen.
            assert set(old[0]) <= set(document[0]), family
            assert set(old[1]) == set(document[1]), family
        # Same corpus, same plan: the fixture's event structure exactly.
        assert _trace_signature(result.rectrace_document()) == (
            _trace_signature(load_rectrace_jsonl(RECTRACE_FIXTURE))
        )


class TestLatencyAnalysis:
    def _doc(self):
        runner = ParallelJoinRunner(
            JoinConfig(threshold=0.6), workers=2, trace_sample=4,
        )
        return try_process_run(
            runner, fuzz_records(seed=41, n=160)
        ).rectrace_document()

    def test_digest_has_quantiles_per_stage(self):
        digest = latency_digest(self._doc())
        assert "e2e" in digest and "probe" in digest
        for entry in digest.values():
            assert entry["count"] >= 1
            assert 0 <= entry["p50_s"] <= entry["p95_s"] <= entry["p99_s"]

    def test_record_wire_events_are_refused(self):
        """Records no longer travel driver → worker in batches, so no
        digest has a ``pipe`` stage, and a file carrying one of that
        wire's events is refused, naming it."""
        digest = latency_digest(self._doc())
        assert set(digest) <= set(TRACE_STAGES) and "pipe" not in digest
        fixture = load_rectrace_jsonl(RECTRACE_FIXTURE)
        for event in ("feed", "encode", "pipe_write", "decode"):
            rows = fixture + [dict(fixture[1], event=event)]
            for check in (validate_rectrace_lines, rectrace_smoke):
                assert any(
                    f"unknown event {event!r}" in error
                    for error in check(rows)
                ), (event, check)

    def test_e2e_bounds_every_stage_mean(self):
        _, events = split_rectrace(self._doc())
        durations = stage_durations(events)
        e2e = max(durations["e2e"])
        for stage in TRACE_EVENTS:
            for sample in durations.get(stage, ()):
                assert sample <= e2e + 1e-9

    def test_digest_and_export_agree_on_a_long_stage(self):
        """A stage of more than 4 096 events: the header digest and the
        exported histogram reduce through one reservoir, so their
        quantiles are equal."""
        events = [
            {"kind": "event", "event": "probe", "rid": rid, "shard": 0,
             "worker": 0, "start": rid * 1e-3,
             "end": rid * 1e-3 + ((rid * 7919) % 6007) * 1e-7}
            for rid in range(6000)
        ]
        digest = latency_digest(events)
        registry = ObsRegistry()
        latency_metrics(events, registry)
        exported = {
            labels["stage"]: histogram
            for labels, histogram in registry.series(
                "rectrace_stage_latency_seconds"
            )
        }
        assert set(exported) == set(digest) == {"probe", "e2e"}
        for stage, entry in digest.items():
            histogram = exported[stage]
            assert entry["count"] == histogram.count == 6000
            for q in (50, 95, 99):
                assert entry[f"p{q}_s"] == round(histogram.quantile(q / 100), 9)

    def test_metrics_fold(self):
        registry = ObsRegistry()
        _, events = split_rectrace(self._doc())
        latency_metrics(events, registry)
        families = [f.name for f in registry.families()]
        assert "rectrace_stage_latency_seconds" in families

    def test_result_metrics_registry_carries_latency(self):
        result = try_process_run(
            ParallelJoinRunner(
                JoinConfig(threshold=0.6), workers=2, trace_sample=4,
            ),
            fuzz_records(seed=42, n=120),
        )
        families = [f.name for f in result.metrics_registry().families()]
        assert "rectrace_stage_latency_seconds" in families
        digest = result.latency_digest()
        assert digest == latency_digest(result.trace_rows)

    def test_slowest_records_sorted_and_bounded(self):
        doc = self._doc()
        slow = slowest_records(doc, top=3)
        assert len(slow) == 3
        assert slow[0]["e2e_s"] >= slow[1]["e2e_s"] >= slow[2]["e2e_s"]
        for entry in slow:
            assert entry["rid"] % 4 == 0
            assert entry["stages"]
