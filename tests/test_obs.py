"""The observability layer: registry, exporters, record tracing on the
simulator, timelines, and the guarantee that every experiment headline
is recomputable from the exported metrics alone."""

import json

import pytest

from repro.bench.harness import (
    run_methods,
    standard_configs,
    verify_instrumented_headlines,
)
from repro.bench.report import headline_from_metrics
from repro.core.config import JoinConfig
from repro.core.join import DistributedStreamJoin
from repro.datasets import synthetic_aol, synthetic_tweet
from repro.obs import EventLog, RunObserver, TimelineRecorder
from repro.obs.baseline import compare_fingerprints, fingerprint_from_metrics
from repro.obs.chrome import rectrace_to_chrome, validate_chrome
from repro.obs.eventlog import RECORD_SCOPE, log_rows
from repro.obs.exporters import (
    escape_label_value,
    load_metrics_json,
    metric_series,
    metrics_to_json,
    metrics_to_prometheus,
    prometheus_name,
    write_metrics,
)
from repro.obs.rectrace import (
    EVENT_ID,
    load_rectrace_jsonl,
    record_trees,
    rectrace_smoke,
    stage_durations,
    validate_rectrace_lines,
)
from repro.obs.registry import ObsRegistry
from repro.records import Record
from repro.storm.cluster import _trace_key


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class TestObsRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = ObsRegistry()
        reg.counter("msgs", component="a").inc()
        reg.counter("msgs", component="a").inc(4)
        reg.gauge("busy", component="a").set(2.5)
        hist = reg.histogram("lat")
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        assert reg.value("msgs", component="a") == 5
        assert reg.value("busy", component="a") == 2.5
        assert hist.count == 4 and hist.sum == 10.0
        assert hist.min == 1.0 and hist.max == 4.0
        assert hist.quantile(0.5) == 3.0

    def test_const_labels_stamped_on_every_series(self):
        reg = ObsRegistry(method="LEN", corpus="AOL")
        reg.counter("msgs", component="join").inc()
        ((labels, _metric),) = reg.series("msgs")
        assert labels == {"method": "LEN", "corpus": "AOL", "component": "join"}

    def test_same_name_different_labels_are_distinct_series(self):
        reg = ObsRegistry()
        reg.counter("c", task=0).inc(1)
        reg.counter("c", task=1).inc(2)
        assert reg.value("c", task=0) == 1
        assert reg.value("c", task=1) == 2
        assert len(reg.series("c")) == 2

    def test_kind_conflict_rejected(self):
        reg = ObsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_counter_rejects_negative(self):
        reg = ObsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_missing_series_reads_zero(self):
        reg = ObsRegistry()
        assert reg.value("nothing", anywhere="x") == 0.0
        assert reg.series("nothing") == []

    def test_families_sorted_by_name(self):
        reg = ObsRegistry()
        reg.counter("zeta")
        reg.gauge("alpha")
        assert [f.name for f in reg.families()] == ["alpha", "zeta"]


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
class TestExporters:
    @pytest.fixture
    def registry(self):
        reg = ObsRegistry(method="LEN")
        reg.counter("candidates", component="join", task=0).inc(7)
        reg.gauge("task_busy_seconds", component="join", task=0).set(0.125)
        hist = reg.histogram("latency_seconds")
        for value in (0.1, 0.2, 0.3):
            hist.observe(value)
        return reg

    def test_json_layout(self, registry):
        dump = metrics_to_json(registry)
        assert dump["schema"] == 1
        assert dump["labels"] == {"method": "LEN"}
        assert dump["metrics"]["candidates"]["kind"] == "counter"
        ((row),) = dump["metrics"]["candidates"]["series"]
        assert row["value"] == 7
        ((lat),) = dump["metrics"]["latency_seconds"]["series"]
        assert lat["count"] == 3 and lat["p50"] == 0.2

    def test_json_is_serialisable_and_deterministic(self, registry):
        a = json.dumps(metrics_to_json(registry), sort_keys=True)
        b = json.dumps(metrics_to_json(registry), sort_keys=True)
        assert a == b

    def test_non_finite_values_survive_json(self):
        reg = ObsRegistry()
        reg.gauge("run_capacity_throughput").set(float("inf"))
        dump = json.loads(json.dumps(metrics_to_json(reg)))
        ((row),) = dump["metrics"]["run_capacity_throughput"]["series"]
        assert float(row["value"]) == float("inf")

    def test_prometheus_format(self, registry):
        text = metrics_to_prometheus(registry)
        assert "# TYPE candidates counter" in text
        assert 'candidates{component="join",method="LEN",task="0"} 7' in text
        assert "# TYPE latency_seconds summary" in text
        assert "latency_seconds_count" in text
        assert text.endswith("\n")

    def test_prometheus_name_sanitisation(self):
        assert prometheus_name("op:posting_scan") == "op_posting_scan"
        assert prometheus_name("msgs/rec") == "msgs_rec"
        assert prometheus_name("9lives").startswith("_")

    def test_write_and_load_round_trip(self, registry, tmp_path):
        base = str(tmp_path / "run.metrics")
        json_path, prom_path = write_metrics(registry, base)
        dump = load_metrics_json(json_path)
        assert metric_series(dump, "candidates")[0]["value"] == 7
        assert "# TYPE" in open(prom_path).read()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nope": 1}')
        with pytest.raises(ValueError):
            load_metrics_json(str(path))


# ---------------------------------------------------------------------------
# Record tracing on the simulator: primitives
# ---------------------------------------------------------------------------
#: A simulated record's hops, in pipeline order.
PIPELINE = ("emit", "dispatch", "join", "sink")


def _order_errors(rows):
    """Each record's pipeline stages in order: a stage's rows start no
    earlier than the previous stage's first row ends."""
    errors = []
    for rid, tree in record_trees(rows).items():
        ready = None
        for stage in PIPELINE:
            stage_rows = [row for row in tree if row["event"] == stage]
            if not stage_rows:
                continue
            first = min(row["start"] for row in stage_rows)
            if ready is not None and first < ready:
                errors.append(f"rid {rid}: {stage} starts at {first} < {ready}")
            ready = min(row["end"] for row in stage_rows)
    return errors


def _simulated_trace(trace_sample=1, records=200, workers=3, seed=5, **config):
    observer = RunObserver.create(trace_sample=trace_sample)
    config = JoinConfig(threshold=0.8, num_workers=workers, **config)
    report = DistributedStreamJoin(config).run(
        synthetic_aol(records, seed=seed), observer=observer
    )
    return observer, report


def _event(event, rid, start, end, worker=-1, shard=-1):
    return {"kind": "event", "event": event, "rid": rid, "worker": worker,
            "shard": shard, "start": start, "end": end}


class TestTracing:
    def test_sampler_is_deterministic_stride(self):
        log = EventLog(trace_sample=10, measure=False)
        sampled = [rid for rid in range(100) if log.selected(rid)]
        assert sampled == list(range(0, 100, 10))
        with pytest.raises(ValueError):
            RunObserver.create(trace_sample=-1)

    def test_default_trace_key(self):
        record = Record(rid=42, tokens=(1, 2, 3), timestamp=0.5)
        assert _trace_key("records", (record,)) == 42
        assert _trace_key("work", ("b", record)) == 42
        assert _trace_key("results", (7, 2, 0.5, None)) == 7
        assert _trace_key("wm", (0, 99)) is None

    def test_span_derived_fields(self):
        """A waited hop is a ``queue`` row (delivery → start) plus its
        service row; ``e2e`` spans the first to the last stamp."""
        log = EventLog(trace_sample=1, measure=False)
        log.record(RECORD_SCOPE | EVENT_ID["emit"], 1.0, 1.0, -1, 0)
        log.record(RECORD_SCOPE | EVENT_ID["queue"], 1.0, 1.5, 2, 0)
        log.record(RECORD_SCOPE | EVENT_ID["join"], 1.5, 2.25, 2, 0)
        _, events = log_rows(log.columns(), worker=2)
        durations = stage_durations(events)
        assert durations["queue"] == [0.5]
        assert durations["join"] == [0.75]
        assert durations["e2e"] == [1.25]

    def test_validate_span_catches_breakage(self):
        observer, _ = _simulated_trace(records=40)
        document = observer.trace
        good = document[1]
        assert validate_rectrace_lines(document) == []
        for bad in (
            {**good, "end": good["start"] - 1.0},          # ends before start
            {k: v for k, v in good.items() if k != "rid"},  # missing field
            {**good, "shard": "zero"},                      # wrong type
            {**good, "event": "hop"},                       # unknown event
        ):
            assert validate_rectrace_lines([document[0], bad]) != []

    def test_jsonl_round_trip_and_validation(self, tmp_path):
        observer, _ = _simulated_trace(records=60)
        path = str(tmp_path / "t.jsonl")
        assert observer.write_trace(path) == len(observer.trace)
        rows = load_rectrace_jsonl(path)
        assert rows == observer.trace
        assert rows[0]["executor"] == "simulated"
        assert "overhead" not in rows[0]
        assert validate_rectrace_lines(rows) == []
        assert rectrace_smoke(rows) == []

    def test_validation_flags_backwards_trace(self):
        rows = [
            _event("emit", 0, 1.0, 1.0),
            _event("dispatch", 0, 1.1, 1.2),
            _event("join", 0, 0.5, 0.6, 0, 0),  # before its dispatch
        ]
        assert any("join starts" in e for e in _order_errors(rows))

    def test_empty_trace_is_invalid(self):
        assert validate_rectrace_lines([]) == ["empty rectrace file"]
        observer, _ = _simulated_trace(records=40)
        header = dict(observer.trace[0], traced=0, events=0)
        assert any(
            "no records were traced" in e for e in rectrace_smoke([header])
        )

    def test_chrome_export_of_a_simulated_trace(self):
        observer, _ = _simulated_trace(records=60)
        payload = rectrace_to_chrome(observer.trace)
        assert validate_chrome(payload) == []
        assert payload["traceEvents"]


# ---------------------------------------------------------------------------
# Timeline
# ---------------------------------------------------------------------------
class TestTimeline:
    def test_adjacent_intervals_merge(self):
        recorder = TimelineRecorder()
        recorder.record("join", 0, 0.0, 1.0)
        recorder.record("join", 0, 1.0, 2.0)   # back-to-back: merges
        recorder.record("join", 0, 3.0, 4.0)   # gap: new interval
        assert recorder.intervals("join", 0) == [(0.0, 2.0), (3.0, 4.0)]
        assert recorder.busy_seconds("join", 0) == 3.0
        assert recorder.horizon == 4.0

    def test_rejects_negative_interval(self):
        recorder = TimelineRecorder()
        with pytest.raises(ValueError):
            recorder.record("join", 0, 2.0, 1.0)

    def test_utilisation_buckets(self):
        recorder = TimelineRecorder()
        recorder.record("join", 0, 0.0, 1.0)
        recorder.record("join", 1, 3.0, 4.0)
        # Horizon 4.0, 4 buckets: task 0 busy in bucket 0, task 1 in 3.
        assert recorder.utilisation("join", 0, 4) == [1.0, 0.0, 0.0, 0.0]
        assert recorder.utilisation("join", 1, 4) == [0.0, 0.0, 0.0, 1.0]

    def test_render_contains_every_task_row(self):
        recorder = TimelineRecorder()
        recorder.record("join", 0, 0.0, 1.0)
        recorder.record("sink", 0, 0.5, 0.6)
        art = recorder.render(width=20)
        assert "join[0]" in art and "sink[0]" in art
        assert recorder.render("nope") == "(no timeline data)"

    def test_as_dict_is_json_serialisable(self):
        recorder = TimelineRecorder()
        recorder.record("join", 0, 0.0, 1.0)
        digest = json.loads(json.dumps(recorder.as_dict(buckets=8)))
        assert digest["tasks"][0]["component"] == "join"
        assert len(digest["tasks"][0]["utilisation"]) == 8


# ---------------------------------------------------------------------------
# End-to-end: observer on a real topology run
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_run():
    observer = RunObserver.create(trace_sample=1, timeline=True)
    config = JoinConfig(threshold=0.8, num_workers=4, collect_pairs=True)
    stream = synthetic_aol(400, seed=11)
    report = DistributedStreamJoin(config).run(stream, observer=observer)
    router, _ = DistributedStreamJoin(config).plan(stream)
    decisions = {record.rid: router.route(record) for record in stream}
    return observer, report, decisions


def _shards(tree, event):
    return {row["shard"] for row in tree if row["event"] == event}


class TestObservedRun:
    def test_spans_cover_every_hop(self, traced_run):
        observer, report, _ = traced_run
        trees = record_trees(observer.trace)
        assert len(trees) == report.cluster.records
        for tree in trees.values():
            events = {row["event"] for row in tree}
            assert {"emit", "dispatch", "join", "probe", "insert"} <= events
        # A result tuple reaches the sink for each record whose probe
        # matched — and only for those.
        probing = {later for later, _earlier, _sim in report.pairs}
        assert {rid for rid, tree in trees.items() if _shards(tree, "sink")} == probing

    def test_trace_is_schema_valid_and_monotone(self, traced_run, tmp_path):
        observer, _, _ = traced_run
        path = str(tmp_path / "run.jsonl")
        observer.write_trace(path)
        rows = load_rectrace_jsonl(path)
        assert validate_rectrace_lines(rows) == []
        assert _order_errors(rows) == []

    def test_join_hops_have_probe_child_spans_with_counts(self, traced_run):
        """One ``probe`` row per shard the record probes and one
        ``insert`` per shard that indexes it, each inside its hop's
        ``join`` window."""
        observer, _, decisions = traced_run
        for rid, tree in record_trees(observer.trace).items():
            assert _shards(tree, "probe") == set(decisions[rid].probe_tasks)
            assert _shards(tree, "insert") == set(decisions[rid].index_tasks)
            hops = {row["shard"]: row for row in tree if row["event"] == "join"}
            for row in tree:
                if row["event"] in ("probe", "insert"):
                    hop = hops[row["shard"]]
                    assert hop["start"] <= row["start"] <= row["end"] <= hop["end"]

    def test_join_shards_equal_router_targets(self, traced_run):
        observer, report, decisions = traced_run
        fanout = 0
        for rid, tree in record_trees(observer.trace).items():
            targets = set(decisions[rid].probe_tasks) | set(decisions[rid].index_tasks)
            assert _shards(tree, "join") == targets
            fanout += len(targets)
        assert fanout == report.cluster.counter("routing_fanout")

    def test_timeline_matches_task_busy_seconds(self, traced_run):
        # Merged-interval sums regroup the same float additions, so the
        # match is to rounding error, not bit-exact.
        observer, report, _ = traced_run
        per_task = report.cluster.per_task_busy
        for component, busies in per_task.items():
            for index, busy in enumerate(busies):
                assert observer.timeline.busy_seconds(component, index) == pytest.approx(
                    busy, rel=1e-9
                )

    def test_tracing_is_deterministic(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            observer, _ = _simulated_trace(trace_sample=3)
            paths.append(tmp_path / f"{name}.jsonl")
            observer.write_trace(str(paths[-1]))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_sampling_stride_reduces_spans(self):
        sampled = _simulated_trace(trace_sample=10, workers=2)[0].trace
        assert len(sampled) < len(_simulated_trace(workers=2)[0].trace) / 5
        assert all(row["rid"] % 10 == 0 for row in sampled[1:])

    def test_tracing_leaves_reports_and_metrics_unchanged(self):
        traced, plain = (
            DistributedStreamJoin(JoinConfig(threshold=0.8, num_workers=3)).run(
                synthetic_aol(200, seed=5), observer=observer
            )
            for observer in (RunObserver.create(trace_sample=1), None)
        )
        assert traced.summary() == plain.summary()
        verdict = compare_fingerprints(
            fingerprint_from_metrics(metrics_to_json(plain.obs)),
            fingerprint_from_metrics(metrics_to_json(traced.obs)),
        )
        assert verdict["status"] == "ok" and verdict["checks"] > 0

    def test_latency_histogram_matches_report_quantiles(self, traced_run):
        _, report, _ = traced_run
        ((_, hist),) = report.obs.series("latency_seconds")
        assert hist.quantile(0.95) == report.cluster.latency_p95
        assert hist.quantile(0.50) == report.cluster.latency_p50


# ---------------------------------------------------------------------------
# Headline recomputation — the acceptance invariant
# ---------------------------------------------------------------------------
class TestHeadlinesFromMetrics:
    def test_every_method_recomputes_exactly(self):
        stream = synthetic_tweet(400, seed=3)
        configs = standard_configs(num_workers=4)
        reports = run_methods(stream, configs)
        for label, report in reports.items():
            recomputed = verify_instrumented_headlines(report)
            assert recomputed["throughput"] == report.throughput, label
            assert recomputed["load_balance"] == report.load_balance, label

    def test_dump_is_identical_across_report_builds(self, monkeypatch):
        """Counters are published at report time and nowhere else:
        building the report a second time from the same registry
        re-publishes every series to the same value."""
        import repro.storm.cluster as cluster
        from repro.storm.metrics import build_report

        calls = []

        def capture(registry, **kwargs):
            calls.append((registry, kwargs))
            return build_report(registry, **kwargs)

        monkeypatch.setattr(cluster, "build_report", capture)
        config = JoinConfig(threshold=0.8, num_workers=4)
        report = DistributedStreamJoin(config).run(synthetic_aol(300, seed=9))
        first = metrics_to_json(report.obs)
        ((registry, kwargs),) = calls
        again = build_report(registry, **kwargs)
        assert metrics_to_json(again.obs) == first
        assert first["metrics"]["candidates"]["series"]
        assert first["metrics"]["op:posting_scan"]["series"]

    def test_multi_dispatcher_run_recomputes_exactly(self):
        config = JoinConfig(threshold=0.8, num_workers=4, dispatcher_parallelism=3)
        report = DistributedStreamJoin(config).run(synthetic_aol(300, seed=9))
        verify_instrumented_headlines(report)

    def test_recompute_survives_json_round_trip(self, tmp_path):
        config = JoinConfig(threshold=0.8, num_workers=4)
        report = DistributedStreamJoin(config).run(synthetic_aol(300, seed=9))
        json_path, _ = write_metrics(report.obs, str(tmp_path / "m"))
        headlines = headline_from_metrics(load_metrics_json(json_path))
        assert headlines["throughput"] == report.throughput
        assert headlines["messages_per_record"] == report.messages_per_record
        assert headlines["bytes_per_record"] == report.bytes_per_record
        assert headlines["load_balance"] == report.load_balance

    def test_cli_trace_command_prints_hops_and_writes_artifacts(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        trace_path = tmp_path / "run.trace.jsonl"
        metrics_base = tmp_path / "run.metrics"
        assert main([
            "trace", "--corpus", "AOL", "--records", "120", "--seed", "6",
            "--workers", "3", "--timeline",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_base),
        ]) == 0
        out = capsys.readouterr().out
        for stage in ("emit", "dispatch", "join", "sink", "e2e"):
            assert stage in out
        assert "executor=simulated" in out and "recorder overhead: n/a" in out
        assert "slowest" in out and "timeline" in out
        rows = load_rectrace_jsonl(str(trace_path))
        assert rectrace_smoke(rows) == []
        load_metrics_json(str(metrics_base) + ".json")
        # The written artefact is what `repro trace FILE` analyzes.
        assert main(["trace", str(trace_path), "--smoke"]) == 0
        assert "executor=simulated" in capsys.readouterr().out

    def test_cli_rejects_non_positive_stride_when_tracing(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", "--corpus", "AOL", "--records", "20",
                     "--trace-sample", "0"]) == 2
        assert "--trace-sample must be >= 1" in capsys.readouterr().err
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b c\nx y z\n")
        assert main(["join", str(corpus), "--trace-out",
                     str(tmp_path / "t.jsonl"), "--trace-sample", "-2"]) == 2
        assert "--trace-sample must be >= 1" in capsys.readouterr().err
        assert main(["bench", "--records", "20", "--trace-sample", "0"]) == 2
        assert "--trace-sample must be >= 1" in capsys.readouterr().err

    def test_cli_trace_smoke_gate(self, capsys):
        from repro.cli import main

        assert main(["trace", "--smoke", "--seed", "17"]) == 0
        assert "smoke ok" in capsys.readouterr().out

    def test_cli_join_flags_write_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "c.txt"
        corpus.write_text("a b c\na b c d\nx y z\na b c\n")
        assert main([
            "join", str(corpus), "--threshold", "0.7", "--workers", "2",
            "--trace-sample", "1",
            "--trace-out", str(tmp_path / "j.trace.jsonl"),
            "--metrics-out", str(tmp_path / "j.metrics"),
        ]) == 0
        rows = load_rectrace_jsonl(str(tmp_path / "j.trace.jsonl"))
        assert rectrace_smoke(rows) == []
        assert rows[0]["records"] == 4 and rows[0]["traced"] == 4
        assert (tmp_path / "j.metrics.json").exists()
        assert (tmp_path / "j.metrics.prom").exists()

    def test_cli_bench_writes_per_method_metrics(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "bench", "--corpus", "AOL", "--records", "200", "--workers", "2",
            "--dispatchers", "1",
            "--metrics-out", str(tmp_path / "b.metrics"),
            "--summary-out", str(tmp_path / "BENCH_summary.json"),
        ]) == 0
        assert (tmp_path / "BENCH_summary.json").exists()
        dumps = sorted(p.name for p in tmp_path.glob("b.*.metrics.json"))
        assert len(dumps) >= 5  # one per method
        # Each dump recomputes its own headline from its own labels.
        for path in tmp_path.glob("b.*.metrics.json"):
            dump = load_metrics_json(str(path))
            headlines = headline_from_metrics(dump)
            assert headlines["records"] == 200

    def test_method_and_corpus_labels_on_series(self):
        config = JoinConfig(threshold=0.8, num_workers=2, use_bundles=True,
                            distribution="length", partitioning="load_aware")
        stream = synthetic_aol(150, seed=1)
        report = DistributedStreamJoin(config).run(stream)
        ((labels, _),) = report.obs.series("run_records")
        assert labels["method"] == config.method_label
        assert labels["corpus"] == stream.name


# ---------------------------------------------------------------------------
# Prometheus label escaping
# ---------------------------------------------------------------------------
class TestPrometheusEscaping:
    def test_backslash_quote_and_newline(self):
        assert escape_label_value("plain") == "plain"
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value('say "hi"') == 'say \\"hi\\"'
        assert escape_label_value("line\nbreak") == "line\\nbreak"

    def test_backslash_escaped_before_quote(self):
        # Order matters: escaping the quote first would double-escape
        # the backslash the quote escape itself introduces.
        assert escape_label_value('\\"') == '\\\\\\"'

    def test_non_strings_coerced(self):
        assert escape_label_value(3) == "3"

    def test_dump_round_trips_hostile_label_values(self):
        reg = ObsRegistry(corpus='we"ird\\co\nrp')
        reg.counter("msgs", component="join").inc()
        text = metrics_to_prometheus(reg)
        assert 'corpus="we\\"ird\\\\co\\nrp"' in text
        # Every sample line still has balanced (unescaped) quotes.
        for line in text.splitlines():
            if not line.startswith("#"):
                bare = line.replace("\\\\", "").replace('\\"', "")
                assert bare.count('"') % 2 == 0


# ---------------------------------------------------------------------------
# trace --smoke failure paths
# ---------------------------------------------------------------------------
def _fake_trace_writer(lines):
    def write_trace(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
        return len(lines)
    return write_trace


class TestSmokeFailurePaths:
    """``trace --smoke`` must exit non-zero with a pointed message when
    the record trace is corrupt, truncated, or time-inconsistent."""

    HEADER = json.dumps({
        "kind": "header", "artefact": "rectrace", "schema": 1,
        "wall_s": 1.0, "executor": "simulated", "workers": 2, "shards": 2,
        "sample": 1, "records": 60, "traced": 0, "events": 0, "stages": {},
    })

    def _smoke(self, monkeypatch, capsys, lines):
        from repro.cli import main

        monkeypatch.setattr(
            RunObserver, "write_trace", _fake_trace_writer(lines))
        code = main(["trace", "--smoke", "--records", "60", "--seed", "3"])
        return code, capsys.readouterr().err

    def test_corrupt_json_line(self, monkeypatch, capsys):
        code, err = self._smoke(
            monkeypatch, capsys, [self.HEADER, '{"kind": "event", trunca'])
        assert code == 1
        assert "smoke FAIL" in err
        assert "corrupt trace line" in err

    def test_header_only_trace(self, monkeypatch, capsys):
        code, err = self._smoke(monkeypatch, capsys, [self.HEADER])
        assert code == 1
        assert "no records were traced" in err

    def test_empty_trace_file(self, monkeypatch, capsys):
        code, err = self._smoke(monkeypatch, capsys, [])
        assert code == 1
        assert "empty rectrace file" in err

    def test_non_monotone_trace_flagged(self, monkeypatch, capsys):
        event = json.dumps(_event("join", 0, 0.6, 0.5, 0, 0))
        code, err = self._smoke(monkeypatch, capsys, [self.HEADER, event])
        assert code == 1
        assert "ends before it starts" in err

    def test_span_schema_violation_flagged(self, monkeypatch, capsys):
        bad = json.dumps({**_event("join", 0, 0.5, 0.6), "shard": "zero"})
        code, err = self._smoke(monkeypatch, capsys, [self.HEADER, bad])
        assert code == 1
        assert "field 'shard' not an int" in err

    def test_healthy_smoke_still_passes(self, capsys):
        from repro.cli import main

        assert main(["trace", "--smoke", "--records", "60", "--seed", "3"]) == 0
        assert "smoke ok" in capsys.readouterr().out
