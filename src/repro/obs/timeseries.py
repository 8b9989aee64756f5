"""Rolling in-flight telemetry: the driver side of worker heartbeats.

Spans (:mod:`repro.obs.spans`) explain a parallel run *after* it ends;
this module makes one observable *while* it runs. Workers write
``TAG_HEARTBEAT`` frames — a pickled counter dict — on their result
pipe at batch boundaries (:mod:`repro.parallel.worker`), and their
run-end summary opens with the same counters; the driver hands each
to a :class:`TelemetryRecorder` (the summary as the worker's final
sample), which

* stamps the sample: arrival time (seconds since run start — one
  driver clock, so samples from different workers are comparable),
  the worker whose pipe it came on, its sequence number on that pipe
  and whether it is final,
* keeps the rolling per-worker and cluster-wide time series,
* feeds the :class:`~repro.obs.health.HealthMonitor`'s load-skew
  detector *online* from the cross-worker busy snapshot, so a
  straggler surfaces mid-run instead of post-hoc, and
* appends a durable JSONL artefact (``--telemetry-out``), flushed per
  line so ``python -m repro top FILE`` can tail a run in progress.

The artefact mirrors the spans/health dumps: one header line, then
``sample`` / ``health`` rows in arrival order, closed by a single
``final`` row — also when the run fails, with an ``error`` field.
:func:`validate_telemetry_lines` checks the schema and the per-worker
invariants (strictly increasing ``seq``, monotonic counters);
:func:`telemetry_smoke` is the CI gate behind ``python -m repro
telemetry --smoke``.

Telemetry is monitoring-plane only: nothing here touches engines,
meters or match rows, and the differential tests assert that every
observable stays bit-identical with telemetry on, off, or at any
sampling interval.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs.artefact import (
    check_fields,
    load_jsonl_objects,
    split_document,
)
from repro.obs.health import HealthMonitor

TELEMETRY_SCHEMA_VERSION = 2

#: Default worker sampling interval in seconds (`--heartbeat-interval`).
DEFAULT_HEARTBEAT_INTERVAL = 0.25

#: Required fields of a worker sample row and their types.
SAMPLE_SCHEMA: Dict[str, type] = {
    "kind": str,          # "sample"
    "t": float,           # seconds since run start (driver arrival clock)
    "worker": int,
    "seq": int,           # per-worker, strictly increasing, gap-free
    "final": bool,        # from the worker's run-end summary
    # The fields above are the driver's stamps; those below are the
    # worker's counters.
    "uptime_s": float,    # worker-side seconds since its start
    "batches": int,       # rolling counters: monotone non-decreasing
    "records": int,
    "matches": int,
    "live_postings": int,
    "busy_s": float,
    "bytes_out": int,
    "rss_bytes": int,
    "phase_s": dict,      # per worker phase busy seconds (spans on only)
}

#: What a worker sends: every sample field after the driver's stamps.
COUNTERS = tuple(SAMPLE_SCHEMA)[5:]

#: Rolling counters that must never decrease across a worker's samples.
_MONOTONE_COUNTERS = ("batches", "records", "matches", "busy_s", "bytes_out")


class TelemetryRecorder:
    """Aggregates heartbeat samples into time series + online health.

    The runtime constructs one per telemetry-enabled run and calls
    :meth:`on_heartbeat` for every sample (unpickled from a worker's
    pipe: each heartbeat, then the summary) and :meth:`finalize` once
    after the merge, or when the run fails. All hooks are O(1) dict
    work plus one JSON line when a sink path is configured — nothing
    here may slow the data plane measurably.
    """

    def __init__(
        self,
        workers: int,
        shards: int,
        interval: float,
        base: float,
        out_path: Optional[str] = None,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.workers = workers
        self.shards = shards
        self.interval = interval
        self.base = base
        self.monitor = HealthMonitor()
        self.header: Dict[str, object] = {
            "kind": "header",
            "schema": TELEMETRY_SCHEMA_VERSION,
            "interval": interval,
            "workers": workers,
            "shards": shards,
            # Only worker processes send heartbeats.
            "executor": "process",
            "thresholds": self.monitor.thresholds.as_dict(),
        }
        #: Every non-header row in arrival order (samples, health
        #: events, the final row).
        self.rows: List[Dict[str, object]] = []
        #: worker id -> that worker's sample rows in arrival order.
        self.by_worker: Dict[int, List[Dict[str, object]]] = {}
        self._health_cursor = 0
        self._final_written = False
        self._out = None
        self.out_path = out_path
        if out_path is not None:
            self._out = open(out_path, "w", encoding="utf-8")
            self._write_line(self.header)

    # -- ingestion -----------------------------------------------------------
    def on_heartbeat(
        self, worker: int, counters: Dict[str, object], final: bool
    ) -> Dict[str, object]:
        """Worker ``worker``'s :data:`COUNTERS` → one stamped sample row.

        ``counters`` is a dict the worker built
        (:meth:`~repro.parallel.worker.ShardWorker.counters`): a
        heartbeat's whole body, or its run-end summary, which is the
        ``final`` sample. ``seq`` is the samples already read from that
        worker; arrival is stamped against the driver's monotonic clock
        rebased to the run start.
        """
        t = max(0.0, time.monotonic() - self.base)
        series = self.by_worker.setdefault(worker, [])
        row = {
            "kind": "sample", "t": round(t, 6), "worker": worker,
            "seq": len(series), "final": final,
            **{key: counters[key] for key in COUNTERS},
        }
        # Seconds to the microsecond, like ``t``.
        row["uptime_s"] = round(row["uptime_s"], 6)
        row["busy_s"] = round(row["busy_s"], 6)
        row["phase_s"] = {
            name: round(value, 6) for name, value in row["phase_s"].items()
        }
        series.append(row)
        self.rows.append(row)
        self._write_line(row)
        self._feed_health(t)
        return row

    def _feed_health(self, t: float) -> None:
        # Load skew: the cross-worker busy snapshot, once every worker
        # has reported at least twice (a single early sample per worker
        # says nothing about sustained imbalance).
        if len(self.by_worker) == self.workers and all(
            len(rows) >= 2 for rows in self.by_worker.values()
        ):
            busy = [
                self.by_worker[w][-1]["busy_s"]
                for w in sorted(self.by_worker)
            ]
            # The component name worker_health's timeline uses too.
            self.monitor.on_busy_snapshot("pworker", t, busy)
        self._drain_health_events()

    def _drain_health_events(self) -> None:
        """Append any health events the last hook call emitted."""
        events = self.monitor.events
        while self._health_cursor < len(events):
            event = events[self._health_cursor]
            self._health_cursor += 1
            row = dict(event.as_dict())
            row["kind"] = "health"
            self.rows.append(row)
            self._write_line(row)

    def finalize(
        self, wall_s: float, records: int, results: int,
        error: Optional[str] = None,
    ) -> Dict[str, object]:
        """Write the closing row and release the sink (idempotent).
        A failed run passes its ``error``, which the row carries."""
        if self._final_written:
            return self.rows[-1]
        self._final_written = True
        row = {
            "kind": "final",
            "t": round(max(0.0, time.monotonic() - self.base), 6),
            "wall_s": round(wall_s, 9),
            "records": records,
            "results": results,
            "samples": self.sample_count(),
        }
        if error is not None:
            row["error"] = error
        self.rows.append(row)
        self._write_line(row)
        if self._out is not None:
            self._out.close()
            self._out = None
        return row

    def _write_line(self, row: Dict[str, object]) -> None:
        if self._out is None:
            return
        self._out.write(json.dumps(row, sort_keys=True) + "\n")
        self._out.flush()  # live tailing: every row lands immediately

    # -- reading -------------------------------------------------------------
    def document(self) -> List[Dict[str, object]]:
        """The full artefact (header first), as the loader returns it."""
        return [self.header] + list(self.rows)

    def sample_count(self) -> int:
        return sum(len(rows) for rows in self.by_worker.values())


# -- the JSONL artefact ------------------------------------------------------

def load_telemetry_jsonl(path: str) -> List[Dict[str, object]]:
    """All lines of a telemetry dump as dicts (pointed errors)."""
    return load_jsonl_objects(path, "telemetry")


def validate_telemetry_lines(rows: Iterable[Dict[str, object]]) -> List[str]:
    """Schema errors of a whole telemetry dump (empty list = valid)."""
    errors: List[str] = []
    rows = list(rows)
    if not rows:
        return ["empty telemetry file"]
    header = rows[0]
    if header.get("kind") != "header":
        errors.append("first line is not a header")
    else:
        if header.get("schema") != TELEMETRY_SCHEMA_VERSION:
            errors.append(
                f"unsupported telemetry schema {header.get('schema')!r}"
            )
        for key in ("interval", "workers", "shards", "executor", "thresholds"):
            if key not in header:
                errors.append(f"header: missing field {key!r}")
        interval = header.get("interval")
        if isinstance(interval, (int, float)) and interval <= 0:
            errors.append(f"header: interval is not positive ({interval})")
    last_by_worker: Dict[int, Dict[str, object]] = {}
    finals = 0
    for index, row in enumerate(rows[1:]):
        kind = row.get("kind")
        if kind == "final":
            finals += 1
            if index != len(rows) - 2:
                errors.append(f"line {index + 2}: final row is not last")
            continue
        if kind == "health":
            continue
        if kind != "sample":
            errors.append(f"line {index + 2}: unknown kind {kind!r}")
            continue
        errors.extend(
            f"sample {index}: {error}" for error in check_fields(row, SAMPLE_SCHEMA)
        )
        worker = row.get("worker")
        previous = last_by_worker.get(worker)
        if previous is not None:
            if row.get("seq", 0) <= previous.get("seq", 0):
                errors.append(
                    f"sample {index}: worker {worker} seq "
                    f"{row.get('seq')} not after {previous.get('seq')}"
                )
            for key in _MONOTONE_COUNTERS:
                if (
                    isinstance(row.get(key), (int, float))
                    and isinstance(previous.get(key), (int, float))
                    and row[key] < previous[key]
                ):
                    errors.append(
                        f"sample {index}: worker {worker} counter "
                        f"{key!r} decreased ({previous[key]} -> {row[key]})"
                    )
        if isinstance(worker, int):
            last_by_worker[worker] = row
    if finals > 1:
        errors.append(f"{finals} final rows (expected at most 1)")
    return errors


def split_telemetry(rows: Sequence[Dict[str, object]]):
    """(header, body rows) of a loaded dump; raises without a header."""
    return split_document(rows, "telemetry")


def telemetry_smoke(rows: Sequence[Dict[str, object]]) -> List[str]:
    """The ``repro telemetry --smoke`` gate: schema-valid, properly
    closed by a run that did not fail, at least one sample from every
    worker, and exactly one ``final`` sample — its last — from every
    worker that finished (its run-end summary, so the coverage holds
    at any interval). Returns failure strings (empty = pass)."""
    failures = validate_telemetry_lines(rows)
    if failures:
        return failures
    header, body = split_telemetry(rows)
    final = next((row for row in body if row.get("kind") == "final"), None)
    if final is None:
        failures.append("no final row: the run did not close its telemetry")
        return failures
    failed = bool(final.get("error"))
    if failed:
        failures.append(f"the run failed: {final['error']}")
    if final.get("wall_s", 0) <= 0:
        failures.append(f"final wall_s is not positive: {final.get('wall_s')}")
    series = worker_series(body)
    for worker in range(int(header.get("workers", 0))):
        if worker not in series:
            failures.append(f"no heartbeat sample from worker {worker}")
    for worker, worker_rows in sorted(series.items()):
        finals = sum(1 for row in worker_rows if row["final"])
        if finals > 1 or not (finals or failed):
            failures.append(
                f"worker {worker} has {finals} final samples (expected 1)"
            )
        elif finals and not worker_rows[-1]["final"]:
            failures.append(f"worker {worker}'s final sample is not its last")
    samples = final.get("samples", 0)
    actual = sum(1 for row in body if row.get("kind") == "sample")
    if samples != actual:
        failures.append(
            f"final row counts {samples} samples, file has {actual}"
        )
    return failures


# -- analysis ----------------------------------------------------------------

def worker_series(
    rows: Sequence[Dict[str, object]],
) -> Dict[int, List[Dict[str, object]]]:
    """Per-worker sample rows in arrival order."""
    series: Dict[int, List[Dict[str, object]]] = {}
    for row in rows:
        if row.get("kind") == "sample":
            series.setdefault(row["worker"], []).append(row)
    return series


def rates(samples: Sequence[Dict[str, object]], key: str) -> List[float]:
    """Per-interval first derivative of a rolling counter (units/s),
    over the worker's own clock (``uptime_s``): arrival stamps bunch up
    whenever busy workers leave the driver little CPU to read them."""
    out: List[float] = []
    for prev, cur in zip(samples, samples[1:]):
        dt = cur["uptime_s"] - prev["uptime_s"]
        if dt <= 0:
            continue
        out.append(max(0.0, (cur[key] - prev[key]) / dt))
    return out


def telemetry_summary(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Post-hoc digest behind ``repro telemetry`` (and ``--json``)."""
    header, body = split_telemetry(rows)
    final = next((row for row in body if row.get("kind") == "final"), None)
    series = worker_series(body)
    health = [row for row in body if row.get("kind") == "health"]
    workers = {}
    for worker in sorted(series):
        samples = series[worker]
        last = samples[-1]
        record_rates = rates(samples, "records")
        workers[str(worker)] = {
            "samples": len(samples),
            "records": last["records"],
            "batches": last["batches"],
            "matches": last["matches"],
            "busy_s": last["busy_s"],
            "live_postings": last["live_postings"],
            "rss_bytes": last["rss_bytes"],
            "peak_records_per_s": round(max(record_rates), 3)
            if record_rates
            else 0.0,
            "phase_s": dict(last.get("phase_s", {})),
        }
    severities: Dict[str, int] = {}
    for row in health:
        severity = str(row.get("severity"))
        severities[severity] = severities.get(severity, 0) + 1
    return {
        "interval": header.get("interval"),
        "executor": header.get("executor"),
        "workers": workers,
        "health_events": severities,
        "final": final,
    }


# -- the live view (``repro top``) -------------------------------------------

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 16) -> str:
    """Unicode sparkline of the last ``width`` values (ASCII-safe
    fallback is the caller's concern; every modern terminal has these)."""
    if not values:
        return " " * width
    tail = list(values)[-width:]
    peak = max(tail)
    if peak <= 0:
        return ("▁" * len(tail)).rjust(width)
    chars = [
        _SPARK_BLOCKS[
            min(len(_SPARK_BLOCKS) - 1, int(value / peak * (len(_SPARK_BLOCKS) - 1)))
        ]
        for value in tail
    ]
    return "".join(chars).rjust(width)


def _fmt_count(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.1f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k"
    return f"{value:.0f}"


def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{value:.0f}B"
        value /= 1024
    return f"{value:.1f}GiB"


class TelemetryView:
    """Incremental renderer behind ``python -m repro top``.

    Feed it telemetry rows as they arrive (from a tailed file or an
    in-process recorder); :meth:`render` produces one plain-text frame
    — per-worker throughput sparklines, phase mix, health flags — with
    no curses dependency, so the CLI just repaints with an ANSI clear.
    """

    def __init__(self, history: int = 32):
        self.history = history
        self.header: Optional[Dict[str, object]] = None
        self.samples: Dict[int, List[Dict[str, object]]] = {}
        self.health: List[Dict[str, object]] = []
        self.final: Optional[Dict[str, object]] = None
        self._rates: Dict[int, List[float]] = {}

    def feed(self, row: Dict[str, object]) -> None:
        kind = row.get("kind")
        if kind == "header":
            self.header = row
        elif kind == "sample":
            worker = row["worker"]
            samples = self.samples.setdefault(worker, [])
            if samples:
                prev = samples[-1]
                dt = row["uptime_s"] - prev["uptime_s"]
                if dt > 0:
                    self._rates.setdefault(worker, []).append(
                        max(0.0, (row["records"] - prev["records"]) / dt)
                    )
            samples.append(row)
            if len(samples) > self.history:
                del samples[: len(samples) - self.history]
            rate_tail = self._rates.get(worker)
            if rate_tail and len(rate_tail) > self.history:
                del rate_tail[: len(rate_tail) - self.history]
        elif kind == "health":
            self.health.append(row)
        elif kind == "final":
            self.final = row

    def _phase_mix(self, sample: Dict[str, object]) -> str:
        phase_s = sample.get("phase_s") or {}
        busy = sum(phase_s.values())
        if busy > 0:
            top = sorted(phase_s.items(), key=lambda kv: -kv[1])[:2]
            return " ".join(
                f"{name} {value / busy:.0%}" for name, value in top if value > 0
            )
        lifetime = sample["uptime_s"]
        if lifetime > 0:
            return f"busy {sample['busy_s'] / lifetime:.0%}"
        return "(warming up)"

    def render(self) -> str:
        lines: List[str] = []
        if self.header is not None:
            interval = self.header.get("interval")
            lines.append(
                f"repro top — {self.header.get('workers')} workers, "
                f"{self.header.get('shards')} shards, "
                f"executor={self.header.get('executor')}, "
                f"interval {interval}s"
            )
        else:
            lines.append("repro top — waiting for telemetry header...")
        for worker in sorted(self.samples):
            samples = self.samples[worker]
            last = samples[-1]
            rate_tail = self._rates.get(worker, [])
            rate = rate_tail[-1] if rate_tail else 0.0
            lines.append(
                f"worker {worker:<2} {sparkline(rate_tail)} "
                f"{_fmt_count(rate):>7} rec/s  "
                f"rec {_fmt_count(last['records']):>7}  "
                f"match {_fmt_count(last['matches']):>7}  "
                f"post {_fmt_count(last['live_postings']):>7}  "
                f"rss {_fmt_bytes(last['rss_bytes']):>9}  "
                f"{self._phase_mix(last)}"
            )
        if not self.samples:
            lines.append("(no worker samples yet)")
        totals = {
            key: sum(rows[-1][key] for rows in self.samples.values())
            for key in ("records", "matches")
        }
        cluster_rate = sum(
            tail[-1] for tail in self._rates.values() if tail
        )
        lines.append(
            f"cluster   {_fmt_count(cluster_rate):>7} rec/s  "
            f"records {_fmt_count(totals['records'])}  "
            f"matches {_fmt_count(totals['matches'])}"
        )
        if self.health:
            counts: Dict[str, int] = {}
            for row in self.health:
                severity = str(row.get("severity"))
                counts[severity] = counts.get(severity, 0) + 1
            flags = ", ".join(
                f"{count} {severity}" for severity, count in sorted(counts.items())
            )
            latest = self.health[-1]
            lines.append(
                f"health    {flags} — latest: {latest.get('detector')} "
                f"({latest.get('severity')})"
            )
        else:
            lines.append("health    ok")
        if self.final is not None:
            lines.append(
                f"final     wall {self.final.get('wall_s'):.3f}s  "
                f"records {_fmt_count(self.final.get('records', 0))}  "
                f"results {_fmt_count(self.final.get('results', 0))}  "
                f"samples {self.final.get('samples')}"
            )
            error = self.final.get("error")
            if error:
                lines.append(f"failed    {error.splitlines()[0]}")
        return "\n".join(lines)
