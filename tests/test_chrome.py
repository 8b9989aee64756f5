"""Chrome trace-event export: both artefact families → valid JSON.

The committed spans fixture and a live record trace must round-trip
to trace-event documents Perfetto can load: every event carries
``ph``/``ts``/``pid``/``tid``, complete events carry ``dur``, flow
events carry ``id``, and the actor → track mapping is stable.
"""

import json
import os

import pytest

from repro.core.config import JoinConfig
from repro.obs.chrome import (
    CHROME_PID,
    chrome_document,
    rectrace_to_chrome,
    spans_to_chrome,
    validate_chrome,
    write_chrome,
)
from repro.obs.spans import load_spans_jsonl
from repro.parallel import ParallelJoinRunner

from tests.test_parallel_differential import fuzz_records, try_process_run

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "spans_fixture.jsonl")


def _assert_trace_event_json(payload):
    assert validate_chrome(payload) == []
    text = json.dumps(payload)
    reloaded = json.loads(text)
    events = reloaded["traceEvents"]
    assert events
    for event in events:
        for key in ("ph", "ts", "pid", "tid"):
            assert key in event, event
        assert event["pid"] == CHROME_PID
        assert event["ts"] >= 0
    return events


class TestSpansExport:
    def test_fixture_round_trips(self):
        rows = load_spans_jsonl(FIXTURE)
        events = _assert_trace_event_json(spans_to_chrome(rows))
        complete = [e for e in events if e["ph"] == "X"]
        spans = [row for row in rows if row.get("kind") == "span"]
        assert len(complete) == len(spans)
        for event in complete:
            assert "dur" in event and event["dur"] >= 0
            assert event["name"] in {row["phase"] for row in spans}

    def test_driver_lands_on_tid_zero(self):
        rows = load_spans_jsonl(FIXTURE)
        events = spans_to_chrome(rows)["traceEvents"]
        driver_spans = [row for row in rows
                        if row.get("kind") == "span" and row["worker"] == -1]
        tid0 = [e for e in events if e["ph"] == "X" and e["tid"] == 0]
        assert len(tid0) == len(driver_spans)
        names = {e["args"]["name"]: e["tid"]
                 for e in events if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names["driver"] == 0

    def test_microsecond_conversion(self):
        rows = load_spans_jsonl(FIXTURE)
        spans = [row for row in rows if row.get("kind") == "span"]
        events = [e for e in spans_to_chrome(rows)["traceEvents"]
                  if e["ph"] == "X"]
        first = min(spans, key=lambda r: r["start"])
        matching = min(events, key=lambda e: e["ts"])
        assert matching["ts"] == pytest.approx(first["start"] * 1e6, abs=1e-3)


class TestRectraceExport:
    @pytest.fixture(scope="class")
    def doc(self):
        runner = ParallelJoinRunner(
            JoinConfig(threshold=0.6), workers=2, trace_sample=4,
        )
        return try_process_run(
            runner, fuzz_records(seed=51, n=160)
        ).rectrace_document()

    def test_round_trips(self, doc):
        events = _assert_trace_event_json(rectrace_to_chrome(doc))
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(doc) - 1  # header line excluded

    def test_flow_events_stitch_each_rid(self, doc):
        events = rectrace_to_chrome(doc)["traceEvents"]
        flows = [e for e in events if e["ph"] in ("s", "t", "f")]
        assert flows
        by_rid = {}
        for event in flows:
            by_rid.setdefault(event["id"], []).append(event["ph"])
        for rid, phases in by_rid.items():
            assert rid % 4 == 0
            assert phases[0] == "s" and phases[-1] == "f", rid
        finishes = [e for e in flows if e["ph"] == "f"]
        assert all(e.get("bp") == "e" for e in finishes)

    def test_flows_optional(self, doc):
        events = rectrace_to_chrome(doc, flows=False)["traceEvents"]
        assert not [e for e in events if e["ph"] in ("s", "t", "f")]

    def test_write_and_reload(self, doc, tmp_path):
        path = tmp_path / "trace.chrome.json"
        count = write_chrome(str(path), rectrace_to_chrome(doc))
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == count
        assert payload["displayTimeUnit"] == "ms"


class TestValidateChrome:
    def test_accepts_minimal_document(self):
        payload = chrome_document(
            [{"ph": "i", "ts": 0, "pid": 1, "tid": 0, "name": "mark"}]
        )
        assert validate_chrome(payload) == []

    def test_flags_missing_keys(self):
        payload = chrome_document([{"ph": "X", "ts": 1.0}])
        errors = validate_chrome(payload)
        assert any("pid" in e for e in errors)
        assert any("dur" in e for e in errors)

    def test_flags_flow_without_id(self):
        payload = chrome_document([{"ph": "s", "ts": 0, "pid": 1, "tid": 0}])
        assert any("id" in e for e in validate_chrome(payload))

    def test_flags_negative_ts(self):
        payload = chrome_document(
            [{"ph": "i", "ts": -5, "pid": 1, "tid": 0}]
        )
        assert any("negative" in e for e in validate_chrome(payload))

    def test_write_refuses_invalid(self, tmp_path):
        with pytest.raises(ValueError, match="invalid chrome trace"):
            write_chrome(
                str(tmp_path / "x.json"), chrome_document([{"ph": "X"}])
            )
