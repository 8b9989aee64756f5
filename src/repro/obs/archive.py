"""Persistent run archive: a SQLite-backed flight recorder.

Nine PRs of instrumentation made a *single* run deeply observable —
fingerprints, spans, record traces, live telemetry, health events —
but every artefact was a loose one-shot file, so "did this change make
probe slower than three PRs ago?" meant manual archaeology. The
archive gives the system longitudinal memory: every ``repro join`` /
``repro bench`` invocation appends one compact, normalized summary of
itself to ``.repro/archive.db`` (opt out with ``--no-archive``;
relocate or disable with the ``REPRO_ARCHIVE`` environment variable —
an empty value disables), and ``repro history`` queries the result.

Schema (``PRAGMA user_version`` = :data:`ARCHIVE_SCHEMA_VERSION`):

``runs``
    One row per invocation: when, which command, the join config
    snapshot (JSON), the run shape (method/mode/workers/shards/
    batch/transport/executor), outcome (records/results/wall/peak
    RSS) and provenance (git sha + dirty flag, host, platform,
    python, cpu count).
``observables``
    The run's fingerprint, exploded: ``exact`` counter totals (with
    their series counts — bit-identical round-trip of
    :func:`repro.parallel.merge.parallel_fingerprint` /
    :func:`repro.obs.baseline.fingerprint_from_metrics`), ``banded``
    float gauges, engine ``signal`` peaks and per-run ``worker``
    telemetry aggregates. Values are SQLite ``REAL`` — IEEE doubles —
    so floats round-trip exactly.
``stage_latency``
    Per-stage count/mean/p50/p95/p99 from the record-trace digest.
``span_totals``
    Per-actor seconds by phase from the span profiler.
``health_events``
    Detector firings (severity, time, component, message).
``bench_sections``
    Wall-clock bench payloads flattened to dotted numeric leaves
    (``headline.probe_speedup``, ``corpora.AOL.posting_scans``,
    ``sketch.frontier.headline.speedup``, ...); booleans store as
    0/1 so correctness flags stay queryable.

Migrations are forward-only and versioned: opening an older database
upgrades it in place; opening a *newer* one raises
:class:`FutureSchemaError` (the CLI maps it to exit 2) instead of
guessing.

``check`` (see :meth:`RunArchive.check`) is the longitudinal
regression gate: the newest run is compared against the rolling
median of its last K *comparable* predecessors (same command, method,
mode, workers, shards, batch, transport, records, threshold and
seed), with :mod:`repro.obs.baseline` semantics — exact policy on
deterministic counters, direction-aware tolerance bands on float
metrics (a change exactly at the tolerance passes). Unlike the
hand-committed fingerprint files behind ``repro diff``, the baseline
here is *self-updating*: every archived run becomes part of the
median the next run is judged against.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import sqlite3
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.artefact import TRANSPORT, artefact_family, load_jsonl_objects
from repro.obs.baseline import (
    BANDED_GAUGES,
    FINGERPRINT_SCHEMA_VERSION,
    judge,
    verdict_lines,
)

ARCHIVE_SCHEMA_VERSION = 2

#: Default location, relative to the working directory (gitignored).
DEFAULT_ARCHIVE_PATH = os.path.join(".repro", "archive.db")

#: Environment override: a path relocates the archive, an empty value
#: disables auto-capture entirely (the test suite sets it empty so
#: CLI tests never write into the developer's working tree).
ARCHIVE_ENV = "REPRO_ARCHIVE"

#: Run columns that define comparability for ``check``/``trend``:
#: two runs are comparable iff all of these match (NULL-safe).
COMPARABLE_COLUMNS = (
    "command", "method", "mode", "workers", "shards", "batch_size",
    "transport", "records", "threshold", "seed",
)

#: Dotted-path leaves of bench sections that are deterministic given
#: config + seed, and therefore held under the exact policy by
#: default. Timing leaves (``*_s``, speedups, overhead fractions) and
#: anything sampled on a wall clock (telemetry sample counts) are
#: deliberately absent — timings are reported, never gated.
EXACT_LEAVES = frozenset({
    "records", "results", "posting_scans", "candidate_admits",
    "result_emits", "traced", "pairs",
    "matches_equal", "operations_equal", "events_equal",
    "live_postings_equal",
})

#: Metric-name suffixes where larger is better (everything else that
#: is not exact defaults to lower-is-better: wall times, latencies,
#: RSS, overhead fractions).
_HIGHER_BETTER_SUFFIXES = (
    "speedup", "throughput", "recall", "precision", "efficiency",
    "per_s",
)

_RUN_COLUMNS = (
    "id", "created_utc", "command", "source", "argv", "method", "mode",
    "workers", "shards", "batch_size", "transport", "executor",
    "records", "results", "threshold", "seed", "wall_s",
    "peak_rss_bytes", "config_json", "labels_json", "git_sha",
    "git_dirty", "host", "platform", "python", "cpus",
)


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


def provenance(cwd: Optional[str] = None) -> Dict[str, object]:
    """Host + toolchain + git identity of the current invocation.

    Git fields are ``None`` outside a repository (or without a git
    binary) — archiving must work in a bare deployment. The default
    (cwd-relative) lookup is cached per process: the two git
    subprocesses cost more than the SQLite insert they annotate.
    """
    global _PROVENANCE_CACHE
    if cwd is None and _PROVENANCE_CACHE is not None:
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
            cwd=cwd, capture_output=True, text=True, timeout=5,
        )
        if sha.returncode == 0:
            info["git_sha"] = sha.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain"],
                cwd=cwd, capture_output=True, text=True, timeout=5,
            )
            if status.returncode == 0:
                info["git_dirty"] = 1 if status.stdout.strip() else 0
    except (OSError, subprocess.SubprocessError):
        pass
    if cwd is None:
        _PROVENANCE_CACHE = dict(info)
    return info


# -- schema migrations -------------------------------------------------------
def _migrate_v1(conn: sqlite3.Connection) -> None:
    """Core tables. ``IF NOT EXISTS`` throughout so a v0 database —
    tables created by hand or by a pre-versioning build, user_version
    still 0 — forward-migrates without tripping over itself."""
    conn.executescript("""
        CREATE TABLE IF NOT EXISTS runs (
            id INTEGER PRIMARY KEY,
            created_utc REAL NOT NULL,
            command TEXT NOT NULL,
            source TEXT NOT NULL,
            argv TEXT,
            method TEXT,
            mode TEXT,
            workers INTEGER,
            shards INTEGER,
            batch_size INTEGER,
            transport TEXT,
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
            cpus INTEGER
        );
        CREATE TABLE IF NOT EXISTS observables (
            run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
            kind TEXT NOT NULL,
            name TEXT NOT NULL,
            value REAL NOT NULL,
            series INTEGER,
            PRIMARY KEY (run_id, kind, name)
        );
        CREATE TABLE IF NOT EXISTS stage_latency (
            run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
            stage TEXT NOT NULL,
            count INTEGER NOT NULL,
            mean_s REAL NOT NULL,
            p50_s REAL NOT NULL,
            p95_s REAL NOT NULL,
            p99_s REAL NOT NULL,
            PRIMARY KEY (run_id, stage)
        );
        CREATE TABLE IF NOT EXISTS span_totals (
            run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
            actor TEXT NOT NULL,
            phase TEXT NOT NULL,
            seconds REAL NOT NULL,
            PRIMARY KEY (run_id, actor, phase)
        );
        CREATE TABLE IF NOT EXISTS health_events (
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
    """)


def _migrate_v2(conn: sqlite3.Connection) -> None:
    """Bench sections (flattened wall-clock payloads) + the shape
    index the comparability queries scan."""
    conn.executescript("""
        CREATE TABLE IF NOT EXISTS bench_sections (
            run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
            path TEXT NOT NULL,
            value REAL NOT NULL,
            PRIMARY KEY (run_id, path)
        );
        CREATE INDEX IF NOT EXISTS idx_runs_shape
            ON runs (command, method, mode, workers, shards, records);
    """)


_MIGRATIONS = {1: _migrate_v1, 2: _migrate_v2}


def _flatten_numeric(
    value: object, prefix: str = "", out: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """Numeric leaves of a nested JSON payload as a dotted-path map.

    Booleans become 0/1 (correctness flags stay queryable); strings
    and nulls are dropped; list elements are indexed by position.
    """
    if out is None:
        out = {}
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten_numeric(value[key], f"{prefix}{key}.", out)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _flatten_numeric(item, f"{prefix}{index}.", out)
    elif isinstance(value, bool):
        out[prefix[:-1]] = 1.0 if value else 0.0
    elif isinstance(value, (int, float)):
        out[prefix[:-1]] = float(value)
    return out


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


def metric_policy(metric: str, exact_names: Iterable[str] = ()) -> str:
    """``"exact"``, ``"higher_better"`` or ``"lower_better"``.

    A metric stored as an exact observable (or whose dotted leaf is a
    deterministic counter) is exact; the known headline gauges keep
    their :data:`~repro.obs.baseline.BANDED_GAUGES` direction; names
    that read like rates/speedups are higher-better; everything else —
    wall times, latencies, RSS — is lower-better.
    """
    if metric in exact_names or metric.startswith("op:"):
        return "exact"
    leaf = metric.rsplit(".", 1)[-1]
    if leaf in EXACT_LEAVES:
        return "exact"
    if metric in BANDED_GAUGES:
        return BANDED_GAUGES[metric]
    if any(leaf.endswith(suffix) for suffix in _HIGHER_BETTER_SUFFIXES):
        return "higher_better"
    return "lower_better"


class RunArchive:
    """One open archive database. Context-manager friendly::

        with RunArchive.open() as archive:
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
            self._migrate()
        except sqlite3.DatabaseError as error:
            self.conn.close()
            raise ArchiveError(f"{path}: not an archive database ({error})") from error

    @classmethod
    def open(cls, path: Optional[str] = None, create: bool = True) -> "RunArchive":
        resolved = path or default_archive_path()
        if not resolved:
            raise ArchiveError(
                f"archiving is disabled ({ARCHIVE_ENV} is set empty)"
            )
        return cls(resolved, create=create)

    def _migrate(self) -> None:
        version = self.conn.execute("PRAGMA user_version").fetchone()[0]
        if version > ARCHIVE_SCHEMA_VERSION:
            raise FutureSchemaError(
                f"{self.path}: archive schema v{version} is newer than this "
                f"build understands (v{ARCHIVE_SCHEMA_VERSION}); upgrade "
                f"repro or point --db at an older archive"
            )
        for target in range(version + 1, ARCHIVE_SCHEMA_VERSION + 1):
            _MIGRATIONS[target](self.conn)
            self.conn.execute(f"PRAGMA user_version = {target}")
        self.conn.commit()

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "RunArchive":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writers -------------------------------------------------------------
    def _insert_run(self, row: Dict[str, object]) -> int:
        full = {column: None for column in _RUN_COLUMNS if column != "id"}
        full.update(provenance())
        full["created_utc"] = time.time()
        full.update(row)
        columns = sorted(full)
        cursor = self.conn.execute(
            f"INSERT INTO runs ({', '.join(columns)}) "
            f"VALUES ({', '.join('?' * len(columns))})",
            [full[column] for column in columns],
        )
        return int(cursor.lastrowid)

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

    def _insert_fingerprint(self, run_id: int, fingerprint: Dict[str, object]) -> None:
        exact: Dict[str, Dict[str, float]] = fingerprint.get("exact", {})  # type: ignore[assignment]
        self._insert_observables(
            run_id, "exact",
            {name: entry["total"] for name, entry in exact.items()},
            series={name: int(entry["series"]) for name, entry in exact.items()},
        )
        self._insert_observables(
            run_id, "banded", dict(fingerprint.get("banded", {})),  # type: ignore[arg-type]
        )

    def _insert_stage_latency(
        self, run_id: int, digest: Dict[str, Dict[str, float]]
    ) -> None:
        self.conn.executemany(
            "INSERT OR REPLACE INTO stage_latency "
            "(run_id, stage, count, mean_s, p50_s, p95_s, p99_s) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            [
                (run_id, stage, int(entry["count"]), entry["mean_s"],
                 entry["p50_s"], entry["p95_s"], entry["p99_s"])
                for stage, entry in sorted(digest.items())
            ],
        )

    def _insert_span_totals(self, run_id: int, totals: Dict[str, object]) -> None:
        rows: List[Tuple[int, str, str, float]] = []
        for phase, seconds in totals.get("driver", {}).items():  # type: ignore[union-attr]
            rows.append((run_id, "driver", phase, float(seconds)))
        for worker, phases in totals.get("workers", {}).items():  # type: ignore[union-attr]
            for phase, seconds in phases.items():
                rows.append((run_id, f"worker:{worker}", phase, float(seconds)))
        self.conn.executemany(
            "INSERT OR REPLACE INTO span_totals (run_id, actor, phase, seconds) "
            "VALUES (?, ?, ?, ?)", rows,
        )

    def _insert_health_events(
        self, run_id: int, events: Iterable[Dict[str, object]]
    ) -> None:
        self.conn.executemany(
            "INSERT INTO health_events "
            "(run_id, time_s, severity, detector, component, task, value, "
            "threshold, message) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (run_id, event.get("time"), event.get("severity"),
                 event.get("detector"), event.get("component"),
                 event.get("task"), event.get("value"),
                 event.get("threshold"), event.get("message"))
                for event in events
            ],
        )

    def record_parallel_run(
        self, result, command: str = "join",
        argv: Optional[Sequence[str]] = None,
        source: str = "live", seed: Optional[int] = None,
    ) -> int:
        """Archive one multi-core run: shape + config + fingerprint +
        whatever instrumentation the run carried (latency digest when
        traced, span totals when profiled, telemetry aggregates,
        health events). Returns the run id."""
        from repro.parallel.worker import peak_rss_bytes

        fingerprint = result.fingerprint()
        peaks = [
            int(stats.get("peak_rss_bytes", 0) or 0)
            for stats in result.worker_stats
        ]
        run_id = self._insert_run({
            "command": command,
            "source": source,
            "argv": json.dumps(list(argv), ensure_ascii=False) if argv else None,
            "method": result.config.method_label,
            "mode": result.config.mode,
            "workers": result.workers,
            "shards": result.num_shards,
            "batch_size": result.batch_size,
            "transport": TRANSPORT,
            "executor": result.executor,
            "records": result.records,
            "results": result.results,
            "threshold": result.config.threshold,
            "seed": seed,
            "wall_s": result.wall_s,
            "peak_rss_bytes": max(peaks + [peak_rss_bytes()]),
            "config_json": json.dumps(
                dataclasses.asdict(result.config), sort_keys=True
            ),
            "labels_json": json.dumps(fingerprint["labels"], sort_keys=True),
        })
        self._insert_fingerprint(run_id, fingerprint)
        self._insert_observables(run_id, "signal", dict(result.signals))
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
        self._insert_observables(run_id, "worker", aggregates)
        if result.trace_rows is not None:
            self._insert_stage_latency(run_id, result.latency_digest())
        if result.span_rows is not None:
            self._insert_span_totals(run_id, result.phase_totals())
        self._insert_health_events(
            run_id, (event.as_dict() for event in result.health().events)
        )
        self.conn.commit()
        return run_id

    def record_cluster_run(
        self, report, config, wall_s: Optional[float] = None,
        command: str = "join", argv: Optional[Sequence[str]] = None,
        source: str = "live", seed: Optional[int] = None,
    ) -> int:
        """Archive one simulated-cluster run (``repro join`` without
        ``--parallel``, or one method of a ``repro bench`` suite) via
        its metrics-dump fingerprint."""
        from repro.obs.baseline import fingerprint_from_metrics
        from repro.obs.exporters import metrics_to_json
        from repro.parallel.worker import peak_rss_bytes

        # ``report`` is a JoinRunReport (``.cluster`` holds the digest)
        # or a bare ClusterReport — bench hands the former, harness
        # internals the latter.
        cluster = getattr(report, "cluster", report)
        fingerprint = fingerprint_from_metrics(metrics_to_json(report.obs))
        run_id = self._insert_run({
            "command": command,
            "source": source,
            "argv": json.dumps(list(argv), ensure_ascii=False) if argv else None,
            "method": config.method_label,
            "mode": config.mode,
            "workers": config.num_workers,
            "shards": None,
            "batch_size": None,
            "transport": None,
            "executor": "simulated",
            "records": cluster.records,
            "results": cluster.results,
            "threshold": config.threshold,
            "seed": seed,
            "wall_s": (
                wall_s if wall_s is not None else cluster.wall_clock_seconds
            ),
            "peak_rss_bytes": peak_rss_bytes(),
            "config_json": json.dumps(dataclasses.asdict(config), sort_keys=True),
            "labels_json": json.dumps(fingerprint["labels"], sort_keys=True),
        })
        self._insert_fingerprint(run_id, fingerprint)
        self.conn.commit()
        return run_id

    def record_wallclock_payload(
        self, payload: Dict[str, object],
        command: str = "bench-wallclock",
        argv: Optional[Sequence[str]] = None, source: str = "live",
    ) -> int:
        """Archive a wall-clock suite payload (live run or ingested
        ``BENCH_wallclock.json``) as dotted bench-section leaves."""
        corpora: Dict[str, Dict[str, object]] = payload.get("corpora", {})  # type: ignore[assignment]
        headline: Dict[str, object] = payload.get("headline", {})  # type: ignore[assignment]
        anchor = corpora.get(str(headline.get("corpus")), {})
        run_id = self._insert_run({
            "command": command,
            "source": source,
            "argv": json.dumps(list(argv), ensure_ascii=False) if argv else None,
            "method": "WALLCLOCK",
            "records": anchor.get("records"),
            "results": anchor.get("results"),
            "threshold": payload.get("threshold"),
            "seed": payload.get("seed"),
        })
        self._insert_bench_sections(run_id, _flatten_numeric(payload))
        self.conn.commit()
        return run_id

    def _insert_bench_sections(
        self, run_id: int, leaves: Dict[str, float]
    ) -> None:
        self.conn.executemany(
            "INSERT OR REPLACE INTO bench_sections (run_id, path, value) "
            "VALUES (?, ?, ?)",
            [(run_id, path, value) for path, value in sorted(leaves.items())],
        )

    def record_summary_payload(
        self, payload: Dict[str, object],
        argv: Optional[Sequence[str]] = None, source: str = "ingest:summary",
    ) -> List[int]:
        """Archive a ``BENCH_summary.json`` (one run per method; the
        per-method table rows become banded observables)."""
        methods: Dict[str, Dict[str, float]] = payload.get("methods", {})  # type: ignore[assignment]
        run_ids: List[int] = []
        for label in sorted(methods):
            row = methods[label]
            run_id = self._insert_run({
                "command": "bench",
                "source": source,
                "argv": json.dumps(list(argv), ensure_ascii=False) if argv else None,
                "method": label,
                "mode": "approx" if label == "SKT" else "exact",
                "workers": payload.get("workers"),
                "records": row.get("records", payload.get("records")),
                "results": row.get("results"),
                "threshold": payload.get("threshold"),
                "seed": payload.get("seed"),
                "executor": "simulated",
            })
            banded = {
                name: float(value)
                for name, value in row.items()
                if name not in ("records", "results")
                and isinstance(value, (int, float))
            }
            self._insert_observables(run_id, "banded", banded)
            exact = {
                "run_records": float(row.get("records", 0)),
                "run_results": float(row.get("results", 0)),
            }
            self._insert_observables(
                run_id, "exact", exact, series={name: 1 for name in exact}
            )
            run_ids.append(run_id)
        self.conn.commit()
        return run_ids

    # -- ingestion from artefact files ---------------------------------------
    def ingest_path(
        self, path: str, argv: Optional[Sequence[str]] = None
    ) -> List[Tuple[int, str]]:
        """Back-fill from an existing artefact file: a spans /
        telemetry / rectrace JSONL dump, a ``BENCH_wallclock.json`` or
        a ``BENCH_summary.json``. Returns ``(run_id, family)`` pairs;
        raises :class:`ArchiveError` for unrecognized files."""
        if path.endswith(".json"):
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict):
                raise ArchiveError(f"{path}: not an ingestable artefact")
            if payload.get("schema") == "repro/wallclock/v1":
                run_id = self.record_wallclock_payload(
                    payload, argv=argv, source="ingest:wallclock"
                )
                return [(run_id, "wallclock")]
            if isinstance(payload.get("methods"), dict) and "corpus" in payload:
                return [
                    (run_id, "summary")
                    for run_id in self.record_summary_payload(payload, argv=argv)
                ]
            raise ArchiveError(
                f"{path}: not an ingestable JSON artefact (expected a "
                f"BENCH_wallclock.json or BENCH_summary.json payload)"
            )
        rows = load_jsonl_objects(path, "artefact")
        family = artefact_family(rows)
        if family == "rectrace" and rows[0].get("executor") == "simulated":
            raise ArchiveError(
                f"{path}: a simulated-cluster record trace is not archived "
                f"— its stage latencies are simulated seconds and must never "
                f"become the median a wall-clock run is judged against (a "
                f"simulated join is archived when it runs; ingest a `join "
                f"--parallel --trace-out` artefact instead)"
            )
        if family == "rectrace":
            return [(self._ingest_rectrace(rows, argv), "rectrace")]
        if family == "spans":
            return [(self._ingest_spans(rows, argv), "spans")]
        if family == "telemetry":
            return [(self._ingest_telemetry(rows, argv), "telemetry")]
        raise ArchiveError(
            f"{path}: unrecognized artefact family (expected a rectrace, "
            f"spans or telemetry JSONL dump)"
        )

    def _shape_from_header(self, header: Dict[str, object]) -> Dict[str, object]:
        return {
            "workers": header.get("workers"),
            "shards": header.get("shards"),
            "executor": header.get("executor"),
            "transport": header.get("transport"),
            "records": header.get("records"),
            "wall_s": header.get("wall_s"),
        }

    def _ingest_rectrace(
        self, rows: List[Dict[str, object]], argv: Optional[Sequence[str]]
    ) -> int:
        from repro.obs.rectrace import split_rectrace

        header, _events = split_rectrace(rows)
        run_id = self._insert_run({
            "command": "join", "source": "ingest:rectrace",
            "argv": json.dumps(list(argv), ensure_ascii=False) if argv else None,
            **self._shape_from_header(header),
        })
        stages: Dict[str, Dict[str, float]] = header.get("stages", {})  # type: ignore[assignment]
        if stages:
            self._insert_stage_latency(run_id, stages)
        self._insert_observables(run_id, "worker", {
            "traced_records": float(header.get("traced", 0) or 0),
            "trace_events": float(header.get("events", 0) or 0),
        })
        self.conn.commit()
        return run_id

    def _ingest_spans(
        self, rows: List[Dict[str, object]], argv: Optional[Sequence[str]]
    ) -> int:
        from repro.obs.spans import phase_totals, split_rows

        header, _spans = split_rows(rows)
        run_id = self._insert_run({
            "command": "join", "source": "ingest:spans",
            "argv": json.dumps(list(argv), ensure_ascii=False) if argv else None,
            **self._shape_from_header(header),
        })
        self._insert_span_totals(run_id, phase_totals(rows))
        self.conn.commit()
        return run_id

    def _ingest_telemetry(
        self, rows: List[Dict[str, object]], argv: Optional[Sequence[str]]
    ) -> int:
        from repro.obs.timeseries import split_telemetry, telemetry_summary

        header, body = split_telemetry(rows)
        summary = telemetry_summary(rows)
        final = summary.get("final") or {}
        shape = self._shape_from_header(header)
        shape["wall_s"] = final.get("wall_s", shape.get("wall_s"))
        run_id = self._insert_run({
            "command": "join", "source": "ingest:telemetry",
            "argv": json.dumps(list(argv), ensure_ascii=False) if argv else None,
            **shape,
        })
        aggregates: Dict[str, float] = {
            "worker_busy_s": 0.0, "telemetry_samples": 0.0,
        }
        for entry in summary.get("workers", {}).values():
            aggregates["worker_busy_s"] += entry.get("busy_s", 0.0) or 0.0
            aggregates["telemetry_samples"] += entry.get("samples", 0) or 0
        self._insert_observables(run_id, "worker", aggregates)
        self._insert_health_events(
            run_id,
            (row for row in body if row.get("kind") == "health"),
        )
        self.conn.commit()
        return run_id

    # -- readers -------------------------------------------------------------
    def list_runs(
        self, command: Optional[str] = None, method: Optional[str] = None,
        mode: Optional[str] = None, workers: Optional[int] = None,
        limit: Optional[int] = 20,
    ) -> List[Dict[str, object]]:
        """Newest-first run rows, optionally filtered."""
        clauses, params = [], []  # type: List[str], List[object]
        for column, value in (
            ("command", command), ("method", method),
            ("mode", mode), ("workers", workers),
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
        """Everything archived about one run, grouped by table."""
        summary: Dict[str, object] = {"run": self.run_row(run_id)}
        observables: Dict[str, Dict[str, float]] = {}
        series: Dict[str, int] = {}
        for row in self.conn.execute(
            "SELECT kind, name, value, series FROM observables "
            "WHERE run_id = ? ORDER BY kind, name", (run_id,)
        ):
            observables.setdefault(row["kind"], {})[row["name"]] = row["value"]
            if row["series"] is not None:
                series[row["name"]] = row["series"]
        summary["observables"] = observables
        summary["exact_series"] = series
        summary["stages"] = {
            row["stage"]: {
                "count": row["count"], "mean_s": row["mean_s"],
                "p50_s": row["p50_s"], "p95_s": row["p95_s"],
                "p99_s": row["p99_s"],
            }
            for row in self.conn.execute(
                "SELECT * FROM stage_latency WHERE run_id = ? ORDER BY stage",
                (run_id,),
            )
        }
        span_totals: Dict[str, Dict[str, float]] = {}
        for row in self.conn.execute(
            "SELECT actor, phase, seconds FROM span_totals "
            "WHERE run_id = ? ORDER BY actor, phase", (run_id,)
        ):
            span_totals.setdefault(row["actor"], {})[row["phase"]] = row["seconds"]
        summary["span_totals"] = span_totals
        summary["health"] = [
            dict(row)
            for row in self.conn.execute(
                "SELECT time_s, severity, detector, component, task, value, "
                "threshold, message FROM health_events WHERE run_id = ? "
                "ORDER BY time_s", (run_id,)
            )
        ]
        summary["bench"] = {
            row["path"]: row["value"]
            for row in self.conn.execute(
                "SELECT path, value FROM bench_sections WHERE run_id = ? "
                "ORDER BY path", (run_id,)
            )
        }
        return summary

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
        ``stage:<stage>:<field>`` latency digests, fingerprint/signal/
        worker observables by name, then dotted bench-section paths
        (bare leaves match ``headline.<leaf>`` first, then a unique
        ``*.<leaf>`` suffix).
        """
        run = self.run_row(run_id)
        if metric == "throughput":
            if run["wall_s"] and run["records"]:
                return run["records"] / run["wall_s"]
            # No wall time (ingested summaries): fall through to the
            # stored observable of the same name.
        elif metric in ("wall_s", "records", "results", "peak_rss_bytes",
                      "workers", "shards", "batch_size", "threshold"):
            value = run[metric]
            return float(value) if value is not None else None
        if metric.startswith("stage:"):
            parts = metric.split(":")
            if len(parts) != 3 or parts[2] not in (
                "count", "mean_s", "p50_s", "p95_s", "p99_s"
            ):
                raise ArchiveError(
                    f"bad stage metric {metric!r} (expected "
                    f"stage:<stage>:<count|mean_s|p50_s|p95_s|p99_s>)"
                )
            row = self.conn.execute(
                f"SELECT {parts[2]} FROM stage_latency "
                f"WHERE run_id = ? AND stage = ?", (run_id, parts[1]),
            ).fetchone()
            return float(row[0]) if row else None
        row = self.conn.execute(
            "SELECT value FROM observables WHERE run_id = ? AND name = ? "
            "ORDER BY CASE kind WHEN 'exact' THEN 0 WHEN 'banded' THEN 1 "
            "WHEN 'signal' THEN 2 ELSE 3 END LIMIT 1",
            (run_id, metric),
        ).fetchone()
        if row is not None:
            return row[0]
        row = self.conn.execute(
            "SELECT value FROM bench_sections WHERE run_id = ? AND path = ?",
            (run_id, metric),
        ).fetchone()
        if row is not None:
            return row[0]
        if "." not in metric:
            row = self.conn.execute(
                "SELECT value FROM bench_sections WHERE run_id = ? AND path = ?",
                (run_id, f"headline.{metric}"),
            ).fetchone()
            if row is not None:
                return row[0]
            matches = self.conn.execute(
                "SELECT path, value FROM bench_sections "
                "WHERE run_id = ? AND path LIKE ? ORDER BY path",
                (run_id, f"%.{metric}"),
            ).fetchall()
            if len(matches) == 1:
                return matches[0]["value"]
            if len(matches) > 1:
                paths = ", ".join(row["path"] for row in matches[:6])
                raise ArchiveError(
                    f"metric {metric!r} is ambiguous in run {run_id}: "
                    f"matches {paths}"
                )
        return None

    def exact_names(self, run_id: int) -> List[str]:
        return [
            row["name"]
            for row in self.conn.execute(
                "SELECT name FROM observables WHERE run_id = ? AND "
                "kind = 'exact' ORDER BY name", (run_id,)
            )
        ]

    def default_check_metrics(self, run_id: int) -> List[str]:
        """What ``check`` gates when no ``--metric`` is given: every
        exact fingerprint counter for join/bench runs, every
        deterministic bench-section leaf for wall-clock runs."""
        names = self.exact_names(run_id)
        if names:
            return names
        return [
            row["path"]
            for row in self.conn.execute(
                "SELECT path FROM bench_sections WHERE run_id = ? "
                "ORDER BY path", (run_id,)
            )
            if row["path"].rsplit(".", 1)[-1] in EXACT_LEAVES
        ]

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
        method: Optional[str] = None, mode: Optional[str] = None,
        workers: Optional[int] = None, last: Optional[int] = None,
    ) -> List[Tuple[int, float]]:
        """``(run_id, value)`` pairs in run order (oldest first) for
        every filtered run where the metric resolves."""
        runs = self.list_runs(
            command=command, method=method, mode=mode, workers=workers,
            limit=None,
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
        ``tolerance`` passes.
        """
        if run_id is None:
            run_id = self.latest_run_id()
            if run_id is None:
                return {
                    "status": "skip", "run": None, "baseline_runs": [],
                    "checks": 0, "tolerance": tolerance, "failures": [],
                    "improvements": [],
                    "skipped": ["archive is empty (nothing to check)"],
                }
        baseline_ids = self.comparable_ids(run_id, last)
        verdict: Dict[str, object] = {
            "status": "ok", "run": run_id, "baseline_runs": baseline_ids,
            "checks": 0, "tolerance": tolerance,
            "failures": [], "improvements": [], "skipped": [],
        }
        if len(baseline_ids) < last:
            verdict["status"] = "skip"
            verdict["skipped"].append(  # type: ignore[union-attr]
                f"only {len(baseline_ids)} comparable prior run(s) "
                f"(need {last}); not gating a cold archive"
            )
            return verdict
        chosen = list(metrics) if metrics else self.default_check_metrics(run_id)
        if not chosen:
            verdict["status"] = "skip"
            verdict["skipped"].append(  # type: ignore[union-attr]
                f"run {run_id} has no checkable metrics"
            )
            return verdict
        exact_names = set(self.exact_names(run_id))
        checks = 0
        for metric in chosen:
            current = self.metric_value(run_id, metric)
            history = [
                value
                for rid in baseline_ids
                for value in [self.metric_value(rid, metric)]
                if value is not None
            ]
            if current is None or len(history) < last:
                verdict["skipped"].append(  # type: ignore[union-attr]
                    f"metric {metric!r}: missing from "
                    + ("the current run" if current is None
                       else "some comparable runs")
                )
                continue
            checks += 1
            baseline = float(statistics.median(history))
            policy = metric_policy(metric, exact_names)
            judged = judge(policy, baseline, current, tolerance)
            if judged is None:
                continue
            outcome, rel = judged
            entry = {
                "metric": metric,
                "policy": "exact" if policy == "exact" else "banded",
                "baseline": baseline, "current": current,
                "baseline_runs": baseline_ids,
            }
            if policy == "exact":
                entry["message"] = (
                    f"exact metric {metric!r} drifted from the rolling "
                    f"median of runs {baseline_ids}: "
                    f"{baseline:g} -> {current:g}"
                )
                verdict["failures"].append(entry)  # type: ignore[union-attr]
                continue
            entry["relative_change"] = rel
            if outcome == "failure":
                entry["message"] = (
                    f"banded metric {metric!r} regressed {abs(rel):.3%} "
                    f"vs the rolling median (tolerance {tolerance:g}): "
                    f"{baseline:g} -> {current:g}"
                )
                verdict["failures"].append(entry)  # type: ignore[union-attr]
            else:
                entry["message"] = (
                    f"banded metric {metric!r} improved {abs(rel):.3%}: "
                    f"{baseline:g} -> {current:g}"
                )
                verdict["improvements"].append(entry)  # type: ignore[union-attr]
        verdict["checks"] = checks
        if verdict["failures"]:
            verdict["status"] = "regression"
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
