"""Online health detectors: hook points, determinism, artefacts."""

import pytest

from repro.bench.harness import standard_configs
from repro.core.join import DistributedStreamJoin
from repro.datasets import synthetic_aol
from repro.obs import (
    HealthMonitor,
    HealthThresholds,
    RunObserver,
    load_health_jsonl,
    validate_health_lines,
)
from repro.obs.health import HEALTH_SCHEMA_VERSION
from repro.obs.registry import ObsRegistry


class TestQueueGrowth:
    def test_silent_below_threshold(self):
        monitor = HealthMonitor()
        monitor.on_queue_depth("join", 0, 0.1, 63)
        assert monitor.events == []

    def test_warning_then_doubling_escalation(self):
        monitor = HealthMonitor()
        monitor.on_queue_depth("join", 0, 0.2, 64)    # warning at threshold
        monitor.on_queue_depth("join", 0, 0.3, 100)   # below 128: suppressed
        monitor.on_queue_depth("join", 0, 0.4, 128)   # doubled: fires again
        monitor.on_queue_depth("join", 0, 0.5, 512)   # crosses critical
        assert [e.severity for e in monitor.events] == [
            "warning", "warning", "critical"]
        assert all(e.detector == "queue_growth" for e in monitor.events)
        assert monitor.events[0].value == 64.0
        assert monitor.events[0].threshold == 64.0
        assert monitor.events[0].time == 0.2

    def test_tasks_tracked_independently(self):
        monitor = HealthMonitor()
        monitor.on_queue_depth("join", 0, 0.1, 64)
        monitor.on_queue_depth("join", 1, 0.2, 64)
        assert len(monitor.events) == 2
        assert {e.task for e in monitor.events} == {0, 1}

    def test_custom_thresholds(self):
        monitor = HealthMonitor(HealthThresholds(queue_warning=4, queue_critical=8))
        monitor.on_queue_depth("join", 0, 0.1, 5)
        monitor.on_queue_depth("join", 0, 0.2, 10)
        assert [e.severity for e in monitor.events] == ["warning", "critical"]


class TestRoutingFanout:
    def test_critical_once_per_task(self):
        monitor = HealthMonitor()
        monitor.on_signal("dispatch", 0, 0.1, "routing_fanout_fraction", 1.0)
        monitor.on_signal("dispatch", 0, 0.2, "routing_fanout_fraction", 1.0)
        assert len(monitor.events) == 1
        event = monitor.events[0]
        assert (event.severity, event.detector) == ("critical", "routing_fanout")

    def test_average_warning_at_finalize(self):
        monitor = HealthMonitor()
        for _ in range(10):
            monitor.on_signal("dispatch", 0, 0.1, "routing_fanout_fraction", 0.6)
        assert monitor.events == []  # per-record fractions below critical
        monitor.finalize({}, ObsRegistry(), 1.0)
        assert [e.severity for e in monitor.events] == ["warning"]
        assert monitor.events[0].value == pytest.approx(0.6)

    def test_low_average_stays_silent(self):
        monitor = HealthMonitor()
        monitor.on_signal("dispatch", 0, 0.1, "routing_fanout_fraction", 0.25)
        monitor.finalize({}, ObsRegistry(), 1.0)
        assert monitor.events == []


class TestExpirationLag:
    def test_first_crossing_per_severity(self):
        monitor = HealthMonitor()
        signal = "window_expiration_lag_fraction"
        monitor.on_signal("join", 1, 0.1, signal, 0.6)   # warning
        monitor.on_signal("join", 1, 0.2, signal, 0.7)   # suppressed
        monitor.on_signal("join", 1, 0.3, signal, 2.5)   # critical
        monitor.on_signal("join", 1, 0.4, signal, 3.0)   # suppressed
        assert [e.severity for e in monitor.events] == ["warning", "critical"]
        assert all(e.detector == "expiration_lag" for e in monitor.events)

    def test_jumps_straight_to_critical(self):
        monitor = HealthMonitor()
        monitor.on_signal(
            "join", 0, 0.1, "window_expiration_lag_fraction", 10.0)
        assert [e.severity for e in monitor.events] == ["critical"]

    def test_unknown_signal_ignored(self):
        monitor = HealthMonitor()
        monitor.on_signal("join", 0, 0.1, "some_future_signal", 1e9)
        assert monitor.events == []


class TestOnlineLoadSkew:
    """The telemetry-fed ``on_busy_snapshot`` detector: same thresholds
    as finalize's end-of-run pass (1.5 warning / 3.0 critical), but
    one-shot per component so a straggler is flagged mid-run."""

    def test_balanced_snapshot_is_silent(self):
        monitor = HealthMonitor()
        monitor.on_busy_snapshot("pworker", 0.5, [1.0, 1.0, 1.0, 1.0])
        assert monitor.events == []

    def test_single_worker_and_zero_busy_skipped(self):
        monitor = HealthMonitor()
        monitor.on_busy_snapshot("pworker", 0.5, [9.0])
        monitor.on_busy_snapshot("pworker", 0.5, [0.0, 0.0])
        assert monitor.events == []

    def test_warning_with_straggler_index(self):
        monitor = HealthMonitor()
        monitor.on_busy_snapshot("pworker", 0.5, [1.0, 1.0, 1.0, 5.0])
        (event,) = monitor.events
        assert (event.severity, event.detector) == ("warning", "load_skew")
        assert event.task == 3
        assert event.value == pytest.approx(2.5)
        assert event.time == 0.5

    def test_escalates_once_per_level(self):
        monitor = HealthMonitor()
        monitor.on_busy_snapshot("pworker", 0.1, [1.0, 2.0])           # 1.33
        monitor.on_busy_snapshot("pworker", 0.2, [1.0, 3.0])           # 1.5: warning
        monitor.on_busy_snapshot("pworker", 0.3, [1.0, 4.0])           # suppressed
        monitor.on_busy_snapshot("pworker", 0.4, [0.1, 0.1, 0.1, 10])  # 3.88: critical
        monitor.on_busy_snapshot("pworker", 0.5, [0.1, 0.1, 0.1, 20])  # suppressed
        assert [e.severity for e in monitor.events] == ["warning", "critical"]

    def test_online_then_finalize_reports_both(self):
        # The end-of-run detector has no leveling state shared with the
        # online one: a skewed run reports once online and once at
        # finalize (post-hoc, over final busy totals).
        monitor = HealthMonitor()
        monitor.on_busy_snapshot("pworker", 0.5, [1.0, 5.0])
        monitor.finalize({"pworker": [1.0, 5.0]}, ObsRegistry(), 1.0)
        assert [e.detector for e in monitor.events] == [
            "load_skew", "load_skew"]

    def test_one_ladder_keeps_both_message_texts(self):
        """Online and run-end skew share one warning/critical ladder;
        only an online warning says less."""
        monitor = HealthMonitor()
        monitor.on_busy_snapshot("pworker", 0.5, [1.0, 1.0, 1.0, 3.0])
        monitor.on_busy_snapshot("pworker", 0.6, [0.1, 0.1, 0.1, 10.0])
        monitor.finalize({"pworker": [1.0, 1.0, 1.0, 3.0]}, ObsRegistry(), 1.0)
        warning = "pworker[3] carries 2.00x the average busy time of its component"
        bound = ": straggler / load skew bounds throughput"
        assert [(e.severity, e.message) for e in monitor.events] == [
            ("warning", warning),
            ("critical", "pworker[3] carries 3.88x the average busy time "
                         "of its component" + bound),
            ("warning", warning + bound),
        ]


class TestLoadSkew:
    def test_warning_and_critical_with_straggler_index(self):
        monitor = HealthMonitor()
        monitor.finalize({"join": [1.0, 1.0, 1.0, 5.0]}, ObsRegistry(), 2.0)
        (event,) = monitor.events
        assert (event.severity, event.detector) == ("warning", "load_skew")
        assert event.task == 3
        assert event.value == pytest.approx(2.5)

        monitor = HealthMonitor()
        monitor.finalize({"join": [0.1, 0.1, 0.1, 10.0]}, ObsRegistry(), 2.0)
        (event,) = monitor.events
        assert event.severity == "critical"

    def test_single_task_components_skipped(self):
        monitor = HealthMonitor()
        monitor.finalize({"sink": [9.0], "join": [1.0, 1.1]}, ObsRegistry(), 2.0)
        assert monitor.events == []

    def test_finalize_idempotent_and_publishes_gauges(self):
        monitor = HealthMonitor()
        obs = ObsRegistry()
        monitor.finalize({"join": [1.0, 4.0]}, obs, 2.0)
        monitor.finalize({"join": [1.0, 4.0]}, obs, 3.0)
        assert len(monitor.events) == 1
        values = {
            labels["severity"]: gauge.value
            for labels, gauge in obs.series("health_events")
        }
        assert values == {"info": 0, "warning": 1, "critical": 0}


class TestMonitorReading:
    def test_counts_and_worst_severity(self):
        monitor = HealthMonitor()
        assert monitor.counts() == {}
        monitor.on_queue_depth("join", 0, 0.1, 64)
        monitor.on_queue_depth("join", 0, 0.2, 600)
        assert monitor.counts() == {"warning": 1, "critical": 1}

    def test_render_mentions_every_event(self):
        monitor = HealthMonitor()
        assert monitor.render() == "(no health events)"
        monitor.on_queue_depth("join", 2, 0.5, 70)
        text = monitor.render()
        assert "queue_growth" in text and "join[2]" in text
        assert "1 warning" in text


class TestIntegration:
    def test_broadcast_run_flags_fanout_blowup(self):
        config = standard_configs(num_workers=4, include=["BRD"])["BRD"]
        observer = RunObserver.create(health=True)
        DistributedStreamJoin(config).run(
            synthetic_aol(200, seed=5), observer=observer)
        detectors = {e.detector for e in observer.health.events}
        assert "routing_fanout" in detectors
        assert observer.health.counts().get("critical", 0) >= 1

    @pytest.mark.parametrize("method", ["LEN", "PRE", "BRD"])
    def test_one_worker_run_raises_no_fanout_event(self, method):
        """A record sent to the only join task is not replicated."""
        config = standard_configs(num_workers=1, include=[method])[method]
        observer = RunObserver.create(health=True)
        DistributedStreamJoin(config).run(
            synthetic_aol(200, seed=5), observer=observer)
        detectors = {e.detector for e in observer.health.events}
        assert "routing_fanout" not in detectors

    def test_small_window_flags_expiration_lag(self):
        config = standard_configs(
            num_workers=4, window_seconds=0.5, include=["LEN"])["LEN"]
        observer = RunObserver.create(health=True)
        DistributedStreamJoin(config).run(
            synthetic_aol(400, seed=7, rate=1.0), observer=observer)
        detectors = {e.detector for e in observer.health.events}
        assert "expiration_lag" in detectors

    def test_uniform_partition_flags_load_skew(self):
        config = standard_configs(num_workers=8, include=["LEN-U"])["LEN-U"]
        observer = RunObserver.create(health=True)
        DistributedStreamJoin(config).run(
            synthetic_aol(600, seed=7), observer=observer)
        detectors = {e.detector for e in observer.health.events}
        assert "load_skew" in detectors

    def test_same_seed_dumps_byte_identical(self, tmp_path):
        paths = []
        for run in range(2):
            config = standard_configs(num_workers=4, include=["BRD"])["BRD"]
            observer = RunObserver.create(health=True)
            DistributedStreamJoin(config).run(
                synthetic_aol(200, seed=5), observer=observer)
            path = tmp_path / f"health{run}.jsonl"
            observer.write_health(str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        rows = load_health_jsonl(str(paths[0]))
        assert validate_health_lines(rows) == []
        assert rows[0]["schema"] == HEALTH_SCHEMA_VERSION
        assert "thresholds" in rows[0]

    def test_observer_without_health_refuses_write(self, tmp_path):
        observer = RunObserver.create()
        with pytest.raises(ValueError, match="no health monitor"):
            observer.write_health(str(tmp_path / "h.jsonl"))

    def test_cli_join_health_out(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "c.txt"
        corpus.write_text("a b c\na b c d\nx y z\na b c\n" * 10)
        health_path = tmp_path / "run.health.jsonl"
        assert main([
            "join", str(corpus), "--workers", "2",
            "--distribution", "broadcast",
            "--health-out", str(health_path),
        ]) == 0
        assert "health:" in capsys.readouterr().out
        assert validate_health_lines(load_health_jsonl(str(health_path))) == []


class TestDumpValidation:
    def test_corrupt_line_pointed_error(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"kind": "header", "schema": 1}\n{oops\n')
        with pytest.raises(ValueError, match=r"h\.jsonl:2: corrupt health line"):
            load_health_jsonl(str(path))

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"kind": "header", "schema": 1}\n[1, 2]\n')
        with pytest.raises(ValueError, match="not an object"):
            load_health_jsonl(str(path))

    def test_validate_flags_schema_problems(self):
        assert validate_health_lines([]) == ["empty health file"]
        assert validate_health_lines([{"kind": "event"}]) == [
            "first line is not a header"]
        errors = validate_health_lines([
            {"kind": "header", "schema": 99},
            {"kind": "event", "time": 0.0, "severity": "fatal",
             "detector": "x", "component": "join", "task": 0,
             "value": 1.0, "threshold": 1.0, "message": "m"},
            {"kind": "event", "time": "later", "severity": "warning",
             "detector": "x", "component": "join", "task": 0,
             "value": 1.0, "threshold": 1.0, "message": "m"},
        ])
        assert any("unsupported health schema" in e for e in errors)
        assert any("unknown severity 'fatal'" in e for e in errors)
        assert any("'time' not numeric" in e for e in errors)
