"""Bench harness: method suites, metering and reporting."""

import json
import os
import re

import pytest

from repro.bench.harness import run_methods, standard_configs
from repro.bench.report import format_series, format_table
from repro.core.metering import WorkMeter
from repro.datasets import synthetic_aol

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestStandardConfigs:
    def test_full_suite(self):
        suite = standard_configs(num_workers=4, threshold=0.75)
        assert set(suite) == {"BRD", "PRE", "LEN-U", "LEN", "LEN+BUN"}
        for label, config in suite.items():
            assert config.method_label == label
            assert config.num_workers == 4
            assert config.threshold == 0.75

    def test_include_filter(self):
        suite = standard_configs(include=["LEN", "PRE"])
        assert set(suite) == {"LEN", "PRE"}

    def test_unknown_include_rejected(self):
        with pytest.raises(ValueError, match="unknown method labels"):
            standard_configs(include=["LEN", "XXX"])

    def test_overrides_propagate(self):
        suite = standard_configs(collect_pairs=True, batch_size=42)
        assert all(c.collect_pairs and c.batch_size == 42 for c in suite.values())

    def test_bundle_threshold_tracks_join_threshold(self):
        suite = standard_configs(threshold=0.95)
        assert suite["LEN+BUN"].bundle_threshold == 0.95


class TestRunners:
    def test_run_methods_same_results_everywhere(self):
        stream = synthetic_aol(300, seed=5)
        reports = run_methods(stream, standard_configs(num_workers=3))
        results = {label: r.results for label, r in reports.items()}
        assert len(set(results.values())) == 1, results


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "bb": "x"}, {"a": 22, "bb": None}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4
        assert "-" in lines[3]  # None rendered as dash

    def test_format_table_column_selection_and_title(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"], title="T")
        assert text.startswith("T\n")
        assert "a" not in text.splitlines()[1]

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_series(self):
        text = format_series("k", [1, 2], {"LEN": [10.0, 20.0], "PRE": [5.0, 6.0]})
        lines = text.splitlines()
        assert lines[0].split() == ["k", "LEN", "PRE"]
        assert lines[2].split() == ["1", "10", "5"]


class TestWorkMeter:
    def test_counts_without_context(self):
        meter = WorkMeter()
        meter.charge("posting_scan", 3)
        meter.charge("posting_scan")
        meter.event("candidates", 2)
        assert meter.operation("posting_scan") == 4
        assert meter.count("candidates") == 2
        assert meter.operation("unknown") == 0

    def test_snapshot_merges(self):
        meter = WorkMeter()
        meter.charge("x", 1)
        meter.event("y", 2)
        assert meter.snapshot() == {"x": 1, "y": 2}

    def test_forwards_to_context(self):
        class FakeCtx:
            def __init__(self):
                self.charged = []
                self.counted = []

            def charge(self, op, n):
                self.charged.append((op, n))

            def add_counter(self, name, n):
                self.counted.append((name, n))

        ctx = FakeCtx()
        meter = WorkMeter(ctx)
        meter.charge("a", 2)
        meter.event("b", 3)
        assert ctx.charged == [("a", 2)]
        assert ctx.counted == [("b", 3)]


def _load_report(name):
    with open(os.path.join(REPO_ROOT, name), encoding="utf-8") as handle:
        return json.load(handle)


def _walk(node, path=""):
    """``(dotted path, value)`` of every node under ``node``."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _walk(value, f"{path}.{key}" if path else key)


class TestCommittedReports:
    """ROADMAP aim 3: no committed artefact contains a failing gate and
    no document quotes a bench path the committed JSON does not hold."""

    @pytest.mark.parametrize("report", ["BENCH_summary.json"])
    def test_no_failing_gate(self, report):
        failing = [
            path for path, value in _walk(_load_report(report))
            if path.endswith("meets_target") and value is False
        ]
        assert not failing, f"{report} fails its own gates: {failing}"

    @pytest.mark.parametrize("document", ["README.md", "DESIGN.md"])
    def test_no_dangling_bench_path(self, document):
        present = {
            path for path, _ in _walk(_load_report("BENCH_summary.json"))
        }
        with open(os.path.join(REPO_ROOT, document), encoding="utf-8") as handle:
            quoted = set(re.findall(r"`(methods\.[\w.+-]+)`", handle.read()))
        dangling = sorted(quoted - present)
        assert not dangling, (
            f"{document} quotes paths BENCH_summary.json lacks: {dangling}"
        )
