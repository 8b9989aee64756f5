"""Checks on the benchmark itself, at ``--scale 0.05``.

Not tier-1 (``pyproject.toml`` collects ``tests/`` only); run with
``python -m pytest benchmarks/e2e/test_e2e_bench.py``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

#: Per-layer counts that must repeat bit for bit on the same seed.
EXACT = {
    "datasets.tokens", "planner.tasks", "planner.fanout_mean",
    "planner.shard_skew", "codec.batches", "codec.record_bytes",
    "codec.match_bytes", "shm.bytes", "core.candidates",
    "core.posting_scans", "core.token_compares", "core.verifications",
    "core.results", "core.final_postings", "core.verify_hit_ratio",
    "similarity.verify_token_compares", "merge.rows", "sketch.recall",
    "storm.sim_messages", "trace.spans",
}


def _run(out: Path, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "0.05",
         "--repeats", "2", "--seed", "11", "--out", str(out), *extra],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = [line.split() for line in done.stdout.splitlines()]
    return {
        "lines": [line for line in lines if line and line[0] in WORKLOADS],
        "result": json.loads((out / "result.json").read_text()),
        "out": out,
    }


@pytest.fixture(scope="module")
def full(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("full"))


@pytest.fixture(scope="module")
def traced_again(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("again"), "--trace", "1")


def test_printed_names_are_the_specs(full):
    extras = {"ops_attempted", "ops_failed", "error_rate"}
    for workload in WORKLOADS:
        printed = {line[1] for line in full["lines"] if line[0] == workload}
        assert printed - extras == END_TO_END | PER_LAYER
    for line in full["lines"]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", line[1])
        assert line[2] != "null", line


def test_no_operation_failed(full):
    for workload, result in full["result"]["workloads"].items():
        assert result["ops_failed"] == 0, result["failures"]
        assert result["ops_attempted"] >= 3 + 3 + 2 * 2


def test_spans_nest(full):
    out = full["out"]
    for workload in WORKLOADS:
        spans = [
            json.loads(line)
            for line in (out / f"trace-{workload}.jsonl").read_text().splitlines()
        ]
        by_id = {span["id"]: span for span in spans}
        assert len(by_id) == len(spans)
        children = {}
        for span in spans:
            assert span["workload"] == workload
            assert span["start"] <= span["end"]
            if span["parent"] == -1:
                continue
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
            children.setdefault(parent["id"], []).append(span)
        (pipeline,) = [s for s in spans if s["name"] == "replay.pipeline"]

        def self_time(span) -> float:
            inner = children.get(span["id"], [])
            return span["end"] - span["start"] - sum(
                s["end"] - s["start"] for s in inner
            )

        def subtree(span):
            for child in children.get(span["id"], []):
                yield child
                yield from subtree(child)

        below = sum(self_time(span) for span in subtree(pipeline))
        assert below <= pipeline["end"] - pipeline["start"] + 1e-9


def test_replay_is_run_serial(full):
    # run.py counts a replay whose rows or meter totals differ from
    # run_serial's as a failed operation, by name.
    for result in full["result"]["workloads"].values():
        assert not [f for f in result["failures"] if "replay" in f]
        layer = result["per_layer"]
        assert layer["merge.rows"]["value"] == layer["core.results"]["value"]
        assert layer["replay.coverage"]["value"] >= 0.95


def test_exact_counters_repeat(full, traced_again):
    assert EXACT <= PER_LAYER
    for workload in WORKLOADS:
        first = full["result"]["workloads"][workload]["per_layer"]
        second = traced_again["result"]["workloads"][workload]["per_layer"]
        for name in sorted(EXACT):
            assert first[name]["value"] == second[name]["value"], name
