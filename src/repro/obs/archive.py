"""Persistent run archive: a SQLite-backed flight recorder.

Fingerprints, spans, record traces, telemetry and health events each
describe one run. The archive gives the system longitudinal memory:
every ``repro join`` / ``repro bench`` invocation appends one compact,
normalized summary of itself to ``.repro/archive.db`` (opt out with
``--no-archive``; relocate or disable with the ``REPRO_ARCHIVE``
environment variable — an empty value disables), and ``repro
history`` queries the result.

Schema (``PRAGMA user_version`` = :data:`ARCHIVE_SCHEMA_VERSION`):

``runs``
    One row per invocation: when, which command, the join config
    snapshot (JSON), a sha256 digest of the input records, the run
    shape (method/workers/shards/batch/executor),
    outcome (records/results/wall/peak RSS) and provenance (git sha +
    dirty flag, host, platform, python, cpu count).
``observables``
    Every number the run produced, one ``(kind, name, value)`` row
    each: the fingerprint's ``exact`` counter totals (with their
    series counts — bit-identical round-trip of
    :func:`repro.parallel.merge.parallel_fingerprint` /
    :func:`repro.obs.baseline.fingerprint_from_metrics`) and
    ``banded`` gauges, engine ``signal`` peaks, per-run ``worker``
    telemetry aggregates, record-trace ``stage`` digests
    (``stage:<stage>:<count|mean_s|p50_s|p95_s|p99_s>``) and span
    profiler ``span`` totals (``span:<actor>:<phase>``). Values are
    SQLite ``REAL`` — IEEE doubles — so floats round-trip exactly.
``health_events``
    Detector firings (severity, time, component, message).

A new database is created at the current version. A file at any other
version is refused instead of guessed at: an older one with an
:class:`ArchiveError`, and a *newer* one with
:class:`FutureSchemaError` (the CLI maps both to exit 2). Nothing
writes an older version any more, so there is no upgrade path to keep.

``check`` (see :meth:`RunArchive.check`) is the longitudinal
regression gate: the newest run is compared against the rolling
median of its last K *comparable* predecessors (same command, method,
workers, shards, batch, records, threshold, seed,
config snapshot and input digest), with :mod:`repro.obs.baseline`
semantics — exact policy on deterministic counters, direction-aware
tolerance bands on float metrics (a change exactly at the tolerance
passes). Unlike the hand-committed fingerprint files behind
``repro diff``, the baseline here is *self-updating*: every archived
run becomes part of the median the next run is judged against.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import sqlite3
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.baseline import (
    FINGERPRINT_SCHEMA_VERSION,
    check_tolerance,
    file_outcome,
    metric_policy,
    verdict_lines,
)

ARCHIVE_SCHEMA_VERSION = 5

#: Default location, relative to the working directory (gitignored).
DEFAULT_ARCHIVE_PATH = os.path.join(".repro", "archive.db")

#: Environment override: a path relocates the archive, an empty value
#: disables auto-capture entirely (the test suite sets it empty so
#: CLI tests never write into the developer's working tree).
ARCHIVE_ENV = "REPRO_ARCHIVE"

#: Run columns that define comparability for ``check``/``trend``:
#: two runs are comparable iff all of these match (NULL-safe).
COMPARABLE_COLUMNS = (
    "command", "method", "workers", "shards", "batch_size",
    "records", "threshold", "seed", "config_json", "input_digest",
)

#: The fields of one record-trace stage digest.
STAGE_FIELDS = ("count", "mean_s", "p50_s", "p95_s", "p99_s")


class ArchiveError(ValueError):
    """The archive could not be opened, read or written."""


class FutureSchemaError(ArchiveError):
    """The database was written by a newer schema than this code
    knows; refusing to touch it beats silently corrupting it."""


def default_archive_path() -> Optional[str]:
    """Where auto-capture writes, or ``None`` when disabled.

    ``REPRO_ARCHIVE`` set to a path relocates the archive; set but
    empty disables it; unset falls back to ``.repro/archive.db``.
    """
    value = os.environ.get(ARCHIVE_ENV)
    if value is not None:
        return value or None
    return DEFAULT_ARCHIVE_PATH


_PROVENANCE_CACHE: Optional[Dict[str, object]] = None


def provenance() -> Dict[str, object]:
    """Host + toolchain + git identity of the current invocation.

    Git fields are ``None`` outside a repository (or without a git
    binary) — archiving must work in a bare deployment. The lookup is
    cached per process: the two git subprocesses cost more than the
    SQLite insert they annotate.
    """
    global _PROVENANCE_CACHE
    if _PROVENANCE_CACHE is not None:
        return dict(_PROVENANCE_CACHE)
    info: Dict[str, object] = {
        "host": platform.node(),
        "platform": sys.platform,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "git_sha": None,
        "git_dirty": None,
    }
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
        if sha.returncode == 0:
            info["git_sha"] = sha.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain"],
                capture_output=True, text=True, timeout=5,
            )
            if status.returncode == 0:
                info["git_dirty"] = 1 if status.stdout.strip() else 0
    except (OSError, subprocess.SubprocessError):
        pass
    _PROVENANCE_CACHE = dict(info)
    return info


def stream_digest(records: Iterable) -> str:
    """sha256 over each record's ``(rid, timestamp, tokens)``: runs
    are only comparable if they joined the same input."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr((record.rid, record.timestamp, record.tokens)).encode())
    return digest.hexdigest()


# -- schema ------------------------------------------------------------------
#: The one schema: a new database is created with it, and a file at any
#: other version is refused. ``runs.source`` only ever holds ``"live"``;
#: dropping it would be a version bump that refuses every archive.
_CREATE = """
    CREATE TABLE runs (
        id INTEGER PRIMARY KEY,
        created_utc REAL NOT NULL,
        command TEXT NOT NULL,
        source TEXT NOT NULL,
        argv TEXT,
        method TEXT,
        workers INTEGER,
        shards INTEGER,
        batch_size INTEGER,
        executor TEXT,
        records INTEGER,
        results INTEGER,
        threshold REAL,
        seed INTEGER,
        wall_s REAL,
        peak_rss_bytes INTEGER,
        config_json TEXT,
        labels_json TEXT,
        git_sha TEXT,
        git_dirty INTEGER,
        host TEXT,
        platform TEXT,
        python TEXT,
        cpus INTEGER,
        input_digest TEXT
    );
    CREATE TABLE observables (
        run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
        kind TEXT NOT NULL,
        name TEXT NOT NULL,
        value REAL NOT NULL,
        series INTEGER,
        PRIMARY KEY (run_id, kind, name)
    );
    CREATE TABLE health_events (
        run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
        time_s REAL,
        severity TEXT,
        detector TEXT,
        component TEXT,
        task INTEGER,
        value REAL,
        threshold REAL,
        message TEXT
    );
    CREATE INDEX idx_runs_shape
        ON runs (command, method, workers, shards, records);
"""

def linear_slope(values: Sequence[float]) -> float:
    """Least-squares slope of ``values`` against their index (per-run
    drift for ``trend``; 0 for fewer than two points)."""
    n = len(values)
    if n < 2:
        return 0.0
    mean_x = (n - 1) / 2.0
    mean_y = sum(values) / n
    cov = sum((i - mean_x) * (v - mean_y) for i, v in enumerate(values))
    var = sum((i - mean_x) ** 2 for i in range(n))
    return cov / var if var else 0.0


def _stage_observables(digest: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    return {
        f"stage:{stage}:{field}": float(entry[field])
        for stage, entry in digest.items() for field in STAGE_FIELDS
    }


def _span_observables(totals: Dict[str, object]) -> Dict[str, float]:
    values = {
        f"span:driver:{phase}": float(seconds)
        for phase, seconds in totals.get("driver", {}).items()  # type: ignore[union-attr]
    }
    for worker, phases in totals.get("workers", {}).items():  # type: ignore[union-attr]
        for phase, seconds in phases.items():
            values[f"span:worker:{worker}:{phase}"] = float(seconds)
    return values


class RunArchive:
    """One open archive database. Context-manager friendly::

        with RunArchive(path) as archive:
            archive.record_parallel_run(result, argv=argv)
    """

    def __init__(self, path: str, create: bool = True):
        if not create and not os.path.exists(path):
            raise ArchiveError(
                f"no archive at {path} (runs are archived automatically by "
                f"`repro join`/`repro bench`; point --db or "
                f"{ARCHIVE_ENV} at an existing database)"
            )
        directory = os.path.dirname(path)
        if create and directory:
            os.makedirs(directory, exist_ok=True)
        self.path = path
        self.conn = sqlite3.connect(path)
        self.conn.row_factory = sqlite3.Row
        try:
            self._check_schema()
        except sqlite3.DatabaseError as error:
            self.conn.close()
            raise ArchiveError(f"{path}: not an archive database ({error})") from error

    def _check_schema(self) -> None:
        version = self.conn.execute("PRAGMA user_version").fetchone()[0]
        if version > ARCHIVE_SCHEMA_VERSION:
            raise FutureSchemaError(
                f"{self.path}: archive schema v{version} is newer than this "
                f"build understands (v{ARCHIVE_SCHEMA_VERSION}); upgrade "
                f"repro or point --db at an older archive"
            )
        if version == ARCHIVE_SCHEMA_VERSION:
            return
        if self.conn.execute("SELECT COUNT(*) FROM sqlite_master").fetchone()[0]:
            raise ArchiveError(
                f"{self.path}: archive schema v{version} predates "
                f"v{ARCHIVE_SCHEMA_VERSION}, the one this build reads; move "
                f"the file aside to start a fresh archive"
            )
        self.conn.executescript(
            f"BEGIN;{_CREATE}"
            f"PRAGMA user_version = {ARCHIVE_SCHEMA_VERSION};COMMIT;"
        )

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "RunArchive":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writers -------------------------------------------------------------
    def _insert_observables(
        self, run_id: int, kind: str,
        values: Dict[str, float], series: Optional[Dict[str, int]] = None,
    ) -> None:
        self.conn.executemany(
            "INSERT OR REPLACE INTO observables "
            "(run_id, kind, name, value, series) VALUES (?, ?, ?, ?, ?)",
            [
                (run_id, kind, name, float(value),
                 None if series is None else series.get(name))
                for name, value in sorted(values.items())
            ],
        )

    def _write_run(
        self, config, fingerprint: Dict[str, object],
        run: Dict[str, object], argv: Optional[Sequence[str]],
        observables: Optional[Dict[str, Dict[str, float]]] = None,
        health: Iterable[Dict[str, object]] = (),
    ) -> int:
        """The one writer behind both runtimes. Stores one ``runs`` row
        (``run``'s columns plus the config snapshot, argv and
        provenance), the fingerprint's ``exact`` and ``banded``
        observables, any further ``observables`` by kind, and the
        health events, then commits. Returns the run id."""
        row = dict(
            provenance(), **run,
            created_utc=time.time(),
            source="live",
            argv=json.dumps(list(argv), ensure_ascii=False) if argv else None,
            method=config.method_label,
            threshold=config.threshold,
            config_json=json.dumps(dataclasses.asdict(config), sort_keys=True),
            labels_json=json.dumps(fingerprint["labels"], sort_keys=True),
        )
        columns = sorted(row)
        run_id = int(self.conn.execute(
            f"INSERT INTO runs ({', '.join(columns)}) "
            f"VALUES ({', '.join('?' * len(columns))})",
            [row[column] for column in columns],
        ).lastrowid)
        exact: Dict[str, Dict[str, float]] = fingerprint.get("exact", {})  # type: ignore[assignment]
        self._insert_observables(
            run_id, "exact",
            {name: entry["total"] for name, entry in exact.items()},
            series={name: int(entry["series"]) for name, entry in exact.items()},
        )
        self._insert_observables(
            run_id, "banded", dict(fingerprint.get("banded", {})),  # type: ignore[arg-type]
        )
        for kind, values in (observables or {}).items():
            self._insert_observables(run_id, kind, values)
        self.conn.executemany(
            "INSERT INTO health_events "
            "(run_id, time_s, severity, detector, component, task, value, "
            "threshold, message) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (run_id, event.get("time"), event.get("severity"),
                 event.get("detector"), event.get("component"),
                 event.get("task"), event.get("value"),
                 event.get("threshold"), event.get("message"))
                for event in health
            ],
        )
        self.conn.commit()
        return run_id

    def record_parallel_run(
        self, result, command: str = "join",
        argv: Optional[Sequence[str]] = None,
        seed: Optional[int] = None,
        input_digest: Optional[str] = None,
    ) -> int:
        """Archive one multi-core run: shape + config + fingerprint +
        whatever instrumentation the run carried (latency digest when
        traced, span totals when profiled, telemetry aggregates,
        health events). ``input_digest`` is :func:`stream_digest` of
        the joined records. Returns the run id."""
        from repro.parallel.worker import peak_rss_bytes

        fingerprint = result.fingerprint()
        peaks = [
            int(stats.get("peak_rss_bytes", 0) or 0)
            for stats in result.worker_stats
        ]
        aggregates: Dict[str, float] = {
            "worker_busy_s": 0.0, "worker_batches": 0.0,
            "worker_bytes_out": 0.0, "worker_heartbeats": 0.0,
        }
        for stats in result.worker_stats:
            aggregates["worker_busy_s"] += stats.get("busy_s", 0.0) or 0.0
            aggregates["worker_batches"] += stats.get("batches", 0) or 0
            aggregates["worker_bytes_out"] += stats.get("bytes_out", 0) or 0
            aggregates["worker_heartbeats"] += stats.get("heartbeats", 0) or 0
        if result.telemetry is not None:
            aggregates["telemetry_samples"] = float(result.telemetry_samples())
        observables = {"signal": dict(result.signals), "worker": aggregates}
        if result.trace_rows is not None:
            observables["stage"] = _stage_observables(result.latency_digest())
        if result.span_rows is not None:
            observables["span"] = _span_observables(result.phase_totals())
        return self._write_run(result.config, fingerprint, {
            "command": command,
            "workers": result.workers,
            "shards": result.num_shards,
            "batch_size": result.batch_size,
            "executor": result.executor,
            "records": result.records,
            "results": result.results,
            "seed": seed,
            "wall_s": result.wall_s,
            "peak_rss_bytes": max(peaks + [peak_rss_bytes()]),
            "input_digest": input_digest,
        }, argv, observables,
            (event.as_dict() for event in result.health().events))

    def record_cluster_run(
        self, report, config, wall_s: Optional[float] = None,
        command: str = "join", argv: Optional[Sequence[str]] = None,
        seed: Optional[int] = None, input_digest: Optional[str] = None,
    ) -> int:
        """Archive one simulated-cluster run (``repro join`` without
        ``--parallel``, or one method of a ``repro bench`` suite) via
        its metrics-dump fingerprint. ``report`` is the run's
        :class:`~repro.core.join.JoinRunReport`.

        A bench suite runs all its methods in one process, whose peak
        RSS belongs to none of them, so a ``command="bench"`` row stores
        no ``peak_rss_bytes``."""
        from repro.obs.baseline import fingerprint_from_metrics
        from repro.obs.exporters import metrics_to_json
        from repro.parallel.worker import peak_rss_bytes

        cluster = report.cluster
        fingerprint = fingerprint_from_metrics(metrics_to_json(report.obs))
        return self._write_run(config, fingerprint, {
            "command": command,
            "workers": config.num_workers,
            "executor": "simulated",
            "records": cluster.records,
            "results": cluster.results,
            "seed": seed,
            "wall_s": (
                wall_s if wall_s is not None else cluster.wall_clock_seconds
            ),
            "peak_rss_bytes": None if command == "bench" else peak_rss_bytes(),
            "input_digest": input_digest,
        }, argv)

    # -- readers -------------------------------------------------------------
    def list_runs(
        self, command: Optional[str] = None, method: Optional[str] = None,
        workers: Optional[int] = None, limit: Optional[int] = 20,
    ) -> List[Dict[str, object]]:
        """Newest-first run rows, optionally filtered."""
        clauses, params = [], []  # type: List[str], List[object]
        for column, value in (
            ("command", command), ("method", method), ("workers", workers),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        sql = f"SELECT * FROM runs {where} ORDER BY id DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        return [dict(row) for row in self.conn.execute(sql, params)]

    def latest_run_id(self) -> Optional[int]:
        row = self.conn.execute("SELECT MAX(id) FROM runs").fetchone()
        return row[0] if row and row[0] is not None else None

    def run_row(self, run_id: int) -> Dict[str, object]:
        row = self.conn.execute(
            "SELECT * FROM runs WHERE id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise ArchiveError(f"{self.path}: no run {run_id}")
        return dict(row)

    def run_summary(self, run_id: int) -> Dict[str, object]:
        """Everything archived about one run: observables by kind, with
        the ``stage`` and ``span`` rows regrouped per stage and actor."""
        observables: Dict[str, Dict[str, float]] = {}
        series: Dict[str, int] = {}
        stages: Dict[str, Dict[str, float]] = {}
        span_totals: Dict[str, Dict[str, float]] = {}
        for row in self.conn.execute(
            "SELECT kind, name, value, series FROM observables "
            "WHERE run_id = ? ORDER BY kind, name", (run_id,)
        ):
            kind, name, value = row["kind"], row["name"], row["value"]
            if kind in ("stage", "span"):
                # the stage or actor (``worker:<n>``) may hold colons;
                # the field or phase after the last one does not
                owner, field = name.split(":", 1)[1].rsplit(":", 1)
                if kind == "stage":
                    stages.setdefault(owner, {})[field] = (
                        int(value) if field == "count" else value
                    )
                else:
                    span_totals.setdefault(owner, {})[field] = value
                continue
            observables.setdefault(kind, {})[name] = value
            if row["series"] is not None:
                series[name] = row["series"]
        return {
            "run": self.run_row(run_id),
            "observables": observables,
            "exact_series": series,
            "stages": stages,
            "span_totals": span_totals,
            "health": [
                dict(row)
                for row in self.conn.execute(
                    "SELECT time_s, severity, detector, component, task, "
                    "value, threshold, message FROM health_events "
                    "WHERE run_id = ? ORDER BY time_s", (run_id,)
                )
            ],
        }

    def fingerprint(self, run_id: int) -> Dict[str, object]:
        """The run's fingerprint, reconstructed bit-identically from
        the observables table (``repro diff``-comparable)."""
        run = self.run_row(run_id)
        exact: Dict[str, Dict[str, float]] = {}
        banded: Dict[str, float] = {}
        for row in self.conn.execute(
            "SELECT kind, name, value, series FROM observables "
            "WHERE run_id = ? AND kind IN ('exact', 'banded') "
            "ORDER BY name", (run_id,)
        ):
            if row["kind"] == "exact":
                exact[row["name"]] = {
                    "total": row["value"],
                    "series": row["series"] if row["series"] is not None else 1,
                }
            else:
                banded[row["name"]] = row["value"]
        labels = json.loads(run["labels_json"]) if run["labels_json"] else {}
        return {
            "schema": FINGERPRINT_SCHEMA_VERSION,
            "labels": labels,
            "exact": exact,
            "banded": banded,
        }

    def metric_value(self, run_id: int, metric: str) -> Optional[float]:
        """Resolve one metric for one run, or ``None`` when absent.

        Resolution order: run columns (plus derived ``throughput``),
        then the run's observable of that name (``op:posting_scan``,
        ``stage:e2e:p95_s``, ...).
        """
        run = self.run_row(run_id)
        if metric == "throughput":
            if run["wall_s"] and run["records"]:
                return run["records"] / run["wall_s"]
            # No wall time: fall through to a stored observable.
        elif metric in ("wall_s", "records", "results", "peak_rss_bytes",
                      "workers", "shards", "batch_size", "threshold"):
            value = run[metric]
            return float(value) if value is not None else None
        row = self.conn.execute(
            "SELECT value FROM observables WHERE run_id = ? AND name = ? "
            "ORDER BY CASE kind WHEN 'exact' THEN 0 WHEN 'banded' THEN 1 "
            "WHEN 'signal' THEN 2 ELSE 3 END LIMIT 1",
            (run_id, metric),
        ).fetchone()
        return row[0] if row is not None else None

    def comparable_ids(self, run_id: int, last: Optional[int] = None) -> List[int]:
        """Prior runs with the same shape key, newest first."""
        run = self.run_row(run_id)
        clauses = ["id < ?"]
        params: List[object] = [run_id]
        for column in COMPARABLE_COLUMNS:
            clauses.append(f"{column} IS ?")
            params.append(run[column])
        sql = (
            f"SELECT id FROM runs WHERE {' AND '.join(clauses)} "
            f"ORDER BY id DESC"
        )
        if last is not None:
            sql += " LIMIT ?"
            params.append(last)
        return [row["id"] for row in self.conn.execute(sql, params)]

    def metric_series(
        self, metric: str, command: Optional[str] = None,
        method: Optional[str] = None, workers: Optional[int] = None,
        last: Optional[int] = None,
    ) -> List[Tuple[int, float]]:
        """``(run_id, value)`` pairs in run order (oldest first) for
        every filtered run where the metric resolves."""
        runs = self.list_runs(
            command=command, method=method, workers=workers, limit=None,
        )
        points: List[Tuple[int, float]] = []
        for run in reversed(runs):  # oldest first
            value = self.metric_value(int(run["id"]), metric)
            if value is not None:
                points.append((int(run["id"]), value))
        if last is not None:
            points = points[-last:]
        return points

    # -- the self-updating regression gate -----------------------------------
    def check(
        self, run_id: Optional[int] = None,
        metrics: Optional[Sequence[str]] = None,
        last: int = 3, tolerance: float = 0.1,
    ) -> Dict[str, object]:
        """Gate the newest (or given) run against the rolling median
        of its last ``last`` comparable predecessors.

        Verdict mirrors :func:`repro.obs.baseline.compare_fingerprints`
        (``status``/``checks``/``failures``/``improvements``) plus a
        ``skipped`` list and a ``"skip"`` status when fewer than
        ``last`` comparable runs exist — a cold archive must not fail
        CI. Exact metrics fail on any drift from the median; banded
        metrics are direction-aware and a relative change exactly at
        ``tolerance`` passes; a negative or NaN one raises ``ValueError``.
        """
        check_tolerance("tolerance", tolerance)
        if run_id is None:
            run_id = self.latest_run_id()
        baseline_ids = [] if run_id is None else self.comparable_ids(run_id, last)
        # with no --metric, the gate is the run's exact observables
        exact_names = (
            [] if run_id is None else list(self.fingerprint(run_id)["exact"])
        )
        chosen = list(metrics or exact_names)
        skipped: List[str] = []
        verdict: Dict[str, object] = {
            "status": "skip", "run": run_id, "baseline_runs": baseline_ids,
            "checks": 0, "tolerance": tolerance,
            "failures": [], "improvements": [], "skipped": skipped,
        }
        if run_id is None:
            skipped.append("archive is empty (nothing to check)")
        elif len(baseline_ids) < last:
            skipped.append(
                f"only {len(baseline_ids)} comparable prior run(s) "
                f"(need {last}); not gating a cold archive"
            )
        elif not chosen:
            skipped.append(f"run {run_id} has no checkable metrics")
        if skipped:
            return verdict
        context = f" vs the rolling median of runs {baseline_ids}"
        for metric in chosen:
            current = self.metric_value(run_id, metric)
            history = [
                value for value in (
                    self.metric_value(rid, metric) for rid in baseline_ids
                ) if value is not None
            ]
            if current is None or len(history) < last:
                skipped.append(
                    f"metric {metric!r}: missing from "
                    + ("the current run" if current is None
                       else "some comparable runs")
                )
                continue
            verdict["checks"] += 1  # type: ignore[operator]
            file_outcome(
                verdict, metric, metric_policy(metric, exact_names),
                float(statistics.median(history)), current, tolerance,
                context, baseline_runs=baseline_ids,
            )
        verdict["status"] = "regression" if verdict["failures"] else "ok"
        return verdict


def render_check(verdict: Dict[str, object]) -> str:
    """Plain-text ``check`` verdict (the JSON form is canonical)."""
    lines: List[str] = []
    for message in verdict.get("skipped", []):  # type: ignore[union-attr]
        lines.append(f"skip {message}")
    lines.extend(verdict_lines(verdict))
    baseline_ids = verdict.get("baseline_runs") or []
    against = (
        f"vs median of runs {baseline_ids}" if baseline_ids else "no baseline"
    )
    lines.append(
        f"check: {verdict['status']} (run {verdict['run']}, "
        f"{verdict['checks']} checks, "
        f"{len(verdict['failures'])} failures, {against}, "
        f"tolerance {verdict['tolerance']:g})"
    )
    return "\n".join(lines)
