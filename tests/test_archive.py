"""The persistent run archive: the one schema and the refusal of every
other, round-trip fidelity of live capture, the rolling-median
regression gate and the ``repro history`` CLI."""

import dataclasses
import json
import os
import sqlite3

import pytest

from repro.cli import main
from repro.core.config import JoinConfig
from repro.datasets.corpora import synthetic_aol
from repro.obs.archive import (
    ARCHIVE_SCHEMA_VERSION,
    ArchiveError,
    FutureSchemaError,
    RunArchive,
    default_archive_path,
    linear_slope,
)
from repro.obs.baseline import metric_policy
from repro.obs.rectrace import DEFAULT_TRACE_SAMPLE
from repro.parallel.runtime import ParallelJoinRunner, run_serial


@pytest.fixture
def records():
    return list(synthetic_aol(200, seed=11))


@pytest.fixture
def config():
    return JoinConfig(threshold=0.7)


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "archive.db")


def _record_serial(archive, config, records, **kwargs):
    return archive.record_parallel_run(
        run_serial(config, records), **kwargs
    )


class TestMigrations:
    def test_fresh_database_is_current_version(self, db):
        with RunArchive(db) as archive:
            version = archive.conn.execute("PRAGMA user_version").fetchone()[0]
            assert version == ARCHIVE_SCHEMA_VERSION
            tables = {
                row[0]
                for row in archive.conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
        # one numeric table: every number is an observables row
        assert tables == {"runs", "observables", "health_events"}

    @staticmethod
    def _stamped(tmp_path, version):
        """A file with a table and ``version`` stamped, nothing else."""
        db = str(tmp_path / f"v{version}.db")
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE runs (id INTEGER PRIMARY KEY)")
        conn.execute(f"PRAGMA user_version = {version}")
        conn.commit()
        conn.close()
        return db

    @staticmethod
    def _assert_refused(db, capsys, version):
        with open(db, "rb") as handle:
            before = handle.read()
        with pytest.raises(
            ArchiveError, match=f"schema v{version} predates v5"
        ):
            RunArchive(db)
        assert main(["history", "list", "--db", db]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("history: ")
        assert f"v{version}" in lines[0] and "move the file aside" in lines[0]
        with open(db, "rb") as handle:
            assert handle.read() == before  # refused, never touched

    @staticmethod
    def _legacy_archive(db, config, records, version):
        """A v4 (or v3) archive holding one real run: the shape index
        covers a ``mode`` column, each stored config carries the
        approximate tier's keys, and v3 also has a ``transport``
        column."""
        with RunArchive(db) as archive:
            archive.record_parallel_run(run_serial(config, records))
        legacy = json.dumps(
            dict(dataclasses.asdict(config), mode="exact", perms=64, bands=8),
            sort_keys=True,
        )
        transport = (
            "ALTER TABLE runs ADD COLUMN transport TEXT;"
            "UPDATE runs SET transport = 'pipe';" if version == 3 else ""
        )
        conn = sqlite3.connect(db)
        conn.executescript(f"""
            DROP INDEX idx_runs_shape;
            ALTER TABLE runs ADD COLUMN mode TEXT;
            UPDATE runs SET mode = 'exact', config_json = '{legacy}';
            CREATE INDEX idx_runs_shape
                ON runs (command, method, mode, workers, shards, records);
            {transport}
            PRAGMA user_version = {version};
        """)
        conn.close()

    def test_v0_database_is_refused(self, tmp_path, capsys):
        # A pre-versioning file has tables but no stamp: there is no
        # upgrade path, so a pointed refusal instead of a guess.
        self._assert_refused(self._stamped(tmp_path, 0), capsys, 0)

    def test_v2_database_is_refused(self, tmp_path, capsys):
        # v1 and v2 are refused alike; so is every version but v5.
        for version in (1, 2):
            self._assert_refused(self._stamped(tmp_path, version), capsys, version)

    def test_v3_database_is_refused(self, db, config, records, capsys):
        # Nothing writes v3 any more, and its runs are not comparable
        # with a new one: refused, not upgraded.
        self._legacy_archive(db, config, records, 3)
        self._assert_refused(db, capsys, 3)

    def test_v4_database_is_refused(self, db, config, records, capsys):
        self._legacy_archive(db, config, records, 4)
        self._assert_refused(db, capsys, 4)

    def test_future_schema_is_refused(self, db, capsys):
        conn = sqlite3.connect(db)
        conn.execute(f"PRAGMA user_version = {ARCHIVE_SCHEMA_VERSION + 7}")
        conn.commit()
        conn.close()
        with pytest.raises(FutureSchemaError):
            RunArchive(db)
        assert main(["history", "list", "--db", db]) == 2
        err = capsys.readouterr().err
        assert "newer than this build" in err

    def test_non_archive_file_is_refused(self, tmp_path, capsys):
        path = tmp_path / "not-a-db"
        path.write_text("definitely not sqlite")
        with pytest.raises(ArchiveError):
            RunArchive(str(path))
        assert main(["history", "list", "--db", str(path)]) == 2

    def test_missing_database_is_pointed_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.db")
        assert main(["history", "list", "--db", missing]) == 2
        assert "no archive at" in capsys.readouterr().err


class TestRoundTrip:
    def test_fingerprint_bit_identical(self, db, config, records):
        result = run_serial(config, records)
        with RunArchive(db) as archive:
            run_id = archive.record_parallel_run(result)
            assert archive.fingerprint(run_id) == result.fingerprint()

    def test_config_snapshot_round_trips(self, db, config, records):
        import dataclasses

        with RunArchive(db) as archive:
            run_id = _record_serial(archive, config, records)
            stored = json.loads(archive.run_row(run_id)["config_json"])
        # includes the infinite default window, via JSON's Infinity
        assert stored == dataclasses.asdict(config)

    def test_stage_latency_round_trips_exactly(self, db, config, records):
        result = ParallelJoinRunner(
            config, workers=1, trace_sample=DEFAULT_TRACE_SAMPLE
        ).run(records)
        digest = result.latency_digest()
        assert "e2e" in digest
        with RunArchive(db) as archive:
            run_id = archive.record_parallel_run(result)
            stored = archive.run_summary(run_id)["stages"]
        assert set(stored) == set(digest)
        for stage, entry in digest.items():
            for field in ("count", "mean_s", "p50_s", "p95_s", "p99_s"):
                assert stored[stage][field] == entry[field], (stage, field)

    def test_live_capture_carries_spans_stages_and_telemetry(
        self, db, config, records
    ):
        """A run with every instrument on stores its span totals, its
        record-trace digest and its telemetry sample count as they are
        in memory."""
        result = ParallelJoinRunner(
            config, workers=2, spans_sample=1,
            trace_sample=DEFAULT_TRACE_SAMPLE, heartbeat_interval=0.25,
        ).run(records)
        totals = result.phase_totals()
        spans = {
            f"span:driver:{phase}": seconds
            for phase, seconds in totals["driver"].items()
        }
        for worker, phases in totals["workers"].items():
            for phase, seconds in phases.items():
                spans[f"span:worker:{worker}:{phase}"] = seconds
        stages = {
            f"stage:{stage}:{field}": entry[field]
            for stage, entry in result.latency_digest().items()
            for field in ("count", "mean_s", "p50_s", "p95_s", "p99_s")
        }
        with RunArchive(db) as archive:
            run_id = archive.record_parallel_run(result)
            stored = {
                kind: {
                    row["name"]: row["value"] for row in archive.conn.execute(
                        "SELECT name, value FROM observables "
                        "WHERE run_id = ? AND kind = ?", (run_id, kind)
                    )
                }
                for kind in ("span", "stage", "worker")
            }
            assert archive.run_row(run_id)["source"] == "live"
        assert spans and any(":worker:" in name for name in spans)
        assert stored["span"] == spans
        assert "stage:e2e:p95_s" in stages
        assert stored["stage"] == stages
        assert result.telemetry_samples() > 0
        assert stored["worker"]["telemetry_samples"] == result.telemetry_samples()

    def test_provenance_recorded(self, db, config, records):
        with RunArchive(db) as archive:
            run = archive.run_row(_record_serial(archive, config, records))
        assert run["python"] and run["host"]
        assert run["cpus"] >= 1
        # the test suite runs inside the repo, so git identity resolves
        assert run["git_sha"] is None or len(run["git_sha"]) == 40


class TestCheck:
    def _seed(self, archive, config, records, n=3):
        result = run_serial(config, records)
        return [
            archive.record_parallel_run(result) for _ in range(n)
        ], result

    def test_replay_passes(self, db, config, records):
        with RunArchive(db) as archive:
            _, result = self._seed(archive, config, records)
            current = archive.record_parallel_run(result)
            verdict = archive.check(current, last=3)
        assert verdict["status"] == "ok"
        assert verdict["checks"] > 0 and not verdict["failures"]

    def test_exact_drift_regresses(self, db, config, records):
        with RunArchive(db) as archive:
            _, result = self._seed(archive, config, records)
            current = archive.record_parallel_run(result)
            archive.conn.execute(
                "UPDATE observables SET value = value + 1 "
                "WHERE run_id = ? AND name = 'run_results'", (current,)
            )
            archive.conn.commit()
            verdict = archive.check(current, last=3)
        assert verdict["status"] == "regression"
        assert any(
            f["metric"] == "run_results" and f["policy"] == "exact"
            for f in verdict["failures"]
        )

    def test_too_few_comparable_runs_skip(self, db, config, records):
        with RunArchive(db) as archive:
            self._seed(archive, config, records, n=3)
            verdict = archive.check(last=3)
        assert verdict["status"] == "skip"
        assert "2 comparable prior" in verdict["skipped"][0]

    def test_different_shape_is_not_comparable(self, db, config, records):
        with RunArchive(db) as archive:
            self._seed(archive, config, records, n=3)
            other = archive.record_parallel_run(
                run_serial(JoinConfig(threshold=0.9), records)
            )
            verdict = archive.check(other, last=3)
        assert verdict["status"] == "skip"

    def _banded_fixture(self, archive, config, records, walls):
        """Runs whose wall_s is pinned to the given values; returns
        the last run's id."""
        ids, _ = self._seed(archive, config, records, n=len(walls))
        for run_id, wall in zip(ids, walls):
            archive.conn.execute(
                "UPDATE runs SET wall_s = ? WHERE id = ?", (wall, run_id)
            )
        archive.conn.commit()
        return ids[-1]

    def test_exactly_at_tolerance_passes(self, db, config, records):
        with RunArchive(db) as archive:
            current = self._banded_fixture(
                archive, config, records, [100.0, 100.0, 100.0, 110.0]
            )
            verdict = archive.check(
                current, metrics=["wall_s"], last=3, tolerance=0.1
            )
            assert verdict["status"] == "ok", verdict
            # one hair past the band fails (wall_s is lower-better)
            archive.conn.execute(
                "UPDATE runs SET wall_s = 110.001 WHERE id = ?", (current,)
            )
            archive.conn.commit()
            verdict = archive.check(
                current, metrics=["wall_s"], last=3, tolerance=0.1
            )
        assert verdict["status"] == "regression"

    def test_direction_aware_improvement(self, db, config, records):
        with RunArchive(db) as archive:
            current = self._banded_fixture(
                archive, config, records, [100.0, 100.0, 100.0, 50.0]
            )
            verdict = archive.check(
                current, metrics=["wall_s"], last=3, tolerance=0.1
            )
        assert verdict["status"] == "ok"
        assert verdict["improvements"]

    def test_missing_metric_skips_not_fails(self, db, config, records):
        with RunArchive(db) as archive:
            _, result = self._seed(archive, config, records)
            current = archive.record_parallel_run(result)
            verdict = archive.check(
                current, metrics=["stage:e2e:p95_s"], last=3
            )
        assert verdict["status"] == "ok"
        assert verdict["checks"] == 0 and verdict["skipped"]


class TestPolicyHelpers:
    def test_metric_policy(self):
        assert metric_policy("run_results", {"run_results"}) == "exact"
        assert metric_policy("op:posting_scan") == "exact"
        assert metric_policy("records") == "exact"
        assert metric_policy("results") == "exact"
        assert metric_policy("probe_speedup") == "higher_better"
        assert metric_policy("run_capacity_throughput") == "higher_better"
        assert metric_policy("run_makespan_seconds") == "lower_better"
        assert metric_policy("wall_s") == "lower_better"
        assert metric_policy("stage:e2e:p95_s") == "lower_better"

    def test_linear_slope(self):
        assert linear_slope([1.0, 2.0, 3.0]) == pytest.approx(1.0)
        assert linear_slope([5.0, 5.0, 5.0]) == 0.0
        assert linear_slope([3.0]) == 0.0
        assert linear_slope([4.0, 2.0]) == pytest.approx(-2.0)

    def test_default_archive_path_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_ARCHIVE", raising=False)
        assert default_archive_path() == os.path.join(".repro", "archive.db")
        monkeypatch.setenv("REPRO_ARCHIVE", "/elsewhere/a.db")
        assert default_archive_path() == "/elsewhere/a.db"
        monkeypatch.setenv("REPRO_ARCHIVE", "")
        assert default_archive_path() is None


class TestHistoryCli:
    @pytest.fixture
    def corpus_file(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(
            "alpha beta gamma\nalpha beta gamma delta\nomega psi chi\n"
            "alpha beta gamma\nomega psi chi rho\n" * 4
        )
        return path

    @pytest.fixture
    def env_db(self, tmp_path, monkeypatch):
        db = str(tmp_path / "env-archive.db")
        monkeypatch.setenv("REPRO_ARCHIVE", db)
        return db

    def test_join_autocapture_and_roundtrip(
        self, corpus_file, env_db, capsys
    ):
        assert main(["join", str(corpus_file), "--parallel", "--workers", "2",
                     "--shards", "8",
                     "--threshold", "0.7", "--trace-sample", "4"]) == 0
        out = capsys.readouterr().out
        assert f"archive: run 1 -> {env_db}" in out
        # the archived fingerprint is bit-identical to the live one
        # (the library default is JoinConfig's 8 shards)
        from repro.datasets.loader import load_token_file

        stream, _ = load_token_file(str(corpus_file))
        result = ParallelJoinRunner(
            JoinConfig(threshold=0.7), workers=2
        ).run(stream)
        with RunArchive(env_db, create=False) as archive:
            assert archive.fingerprint(1) == result.fingerprint()
            stages = archive.run_summary(1)["stages"]
        assert "e2e" in stages  # --trace-sample archived the digest

        assert main(["history", "show", "last"]) == 0
        shown = capsys.readouterr().out
        assert "run 1: join method=" in shown
        assert "(live)" not in shown
        assert "threshold=0.7" in shown
        assert "mode=" not in shown
        assert main(["history", "list"]) == 0
        listed = capsys.readouterr().out
        assert "mode" not in listed
        assert "source" not in listed and "live" not in listed
        assert main(["history", "list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert "transport" not in rows[0] and "mode" not in rows[0]

    def test_no_archive_flag_suppresses_capture(
        self, corpus_file, env_db, capsys
    ):
        assert main(["join", str(corpus_file), "--threshold", "0.7",
                     "--no-archive"]) == 0
        assert "archive:" not in capsys.readouterr().out
        assert not os.path.exists(env_db)

    def test_empty_env_disables_capture(
        self, corpus_file, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_ARCHIVE", "")
        assert main(["join", str(corpus_file), "--threshold", "0.7"]) == 0
        assert "archive:" not in capsys.readouterr().out

    def test_capture_failure_never_fails_the_run(
        self, corpus_file, tmp_path, monkeypatch, capsys
    ):
        bad = tmp_path / "not-a-db"
        bad.write_text("garbage")
        monkeypatch.setenv("REPRO_ARCHIVE", str(bad))
        assert main(["join", str(corpus_file), "--threshold", "0.7"]) == 0
        assert "archive: capture skipped" in capsys.readouterr().err

    def test_check_and_compare_flow(self, corpus_file, env_db, capsys):
        argv = ["join", str(corpus_file), "--parallel", "--workers", "2",
                "--threshold", "0.7"]
        for _ in range(3):
            assert main(argv) == 0
        capsys.readouterr()
        # replay: comparable, exact counters identical -> exit 0
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["history", "check", "--last", "3"]) == 0
        assert "check: ok" in capsys.readouterr().out
        # compare two runs under the diff policy
        assert main(["history", "compare", "1", "last"]) == 0
        assert "comparing run 1" in capsys.readouterr().out
        # synthetic regression -> check exits 1
        with RunArchive(env_db) as archive:
            archive.conn.execute(
                "UPDATE observables SET value = value + 5 "
                "WHERE run_id = 4 AND name = 'run_results'"
            )
            archive.conn.commit()
        assert main(["history", "check", "4", "--last", "3"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "run_results" in out
        # ...and compare against the unmodified baseline also fails
        assert main(["history", "compare", "1", "4"]) == 1

    def test_check_cold_archive_exits_zero(self, corpus_file, env_db, capsys):
        assert main(["join", str(corpus_file), "--threshold", "0.7"]) == 0
        capsys.readouterr()
        assert main(["history", "check", "--last", "3"]) == 0
        assert "check: skip" in capsys.readouterr().out

    def test_trend_sparkline_and_json(self, corpus_file, env_db, capsys):
        for _ in range(3):
            assert main(["join", str(corpus_file), "--threshold", "0.7"]) == 0
        capsys.readouterr()
        assert main(["history", "trend", "--metric", "run_results"]) == 0
        out = capsys.readouterr().out
        assert "run_results" in out and "slope=" in out
        assert main(["history", "trend", "--metric", "run_results",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["points"]) == 3
        assert data["slope"] == 0.0
        values = {point["value"] for point in data["points"]}
        assert len(values) == 1  # deterministic replay

    def test_bench_rows_store_no_peak_rss(
        self, corpus_file, env_db, tmp_path, capsys
    ):
        """A bench suite runs its five methods in one process, so no
        method owns the process peak: its rows store NULL, and only the
        simulated join (one method per process) carries a trend."""
        assert main(["bench", "--corpus", "AOL", "--records", "150",
                     "--workers", "2", "--dispatchers", "1",
                     "--seed", "20200420",
                     "--summary-out", str(tmp_path / "summary.json")]) == 0
        assert main(["join", str(corpus_file), "--threshold", "0.7"]) == 0
        capsys.readouterr()
        with RunArchive(env_db, create=False) as archive:
            rows = archive.list_runs(limit=None)
        assert [row["command"] for row in rows] == ["join"] + ["bench"] * 5
        assert rows[0]["peak_rss_bytes"] > 0
        assert all(row["peak_rss_bytes"] is None for row in rows[1:])
        assert main(["history", "trend", "--metric", "peak_rss_bytes",
                     "--command", "bench"]) == 0
        assert "no archived runs carry metric 'peak_rss_bytes'" in (
            capsys.readouterr().out
        )
        assert main(["history", "trend", "--metric", "peak_rss_bytes",
                     "--command", "join", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["points"]) == 1

    def test_ingest_is_not_a_command(self, corpus_file, env_db, capsys):
        # Only live runs are archived: no back-fill from artefact files.
        assert main(["join", str(corpus_file), "--threshold", "0.7"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["history", "ingest", str(corpus_file)])
        assert exit_info.value.code == 2
        assert "invalid choice: 'ingest'" in capsys.readouterr().err

    def test_compare_two_join_runs(self, corpus_file, env_db, capsys):
        argv = ["join", str(corpus_file), "--parallel", "--workers", "1",
                "--threshold", "0.7"]
        assert main(argv) == 0 and main(argv) == 0
        capsys.readouterr()
        assert main(["history", "compare", "1", "2", "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["status"] == "ok" and verdict["checks"] > 0
        with RunArchive(env_db) as archive:
            archive.conn.execute(
                "UPDATE observables SET value = value + 1 WHERE run_id = 2 "
                "AND name = 'op:posting_scan'"
            )
            archive.conn.commit()
        assert main(["history", "compare", "1", "2", "--json"]) == 1
        failed = {
            f["metric"]
            for f in json.loads(capsys.readouterr().out)["failures"]
        }
        assert failed == {"op:posting_scan"}

    @pytest.mark.parametrize("argv,named", [
        (["compare", "1", "2", "--rel-tol", "nan"], "rel_tol"),
        (["compare", "1", "2", "--rel-tol", "-1"], "rel_tol"),
        (["check", "--last", "1", "--tolerance", "nan"], "tolerance"),
    ])
    def test_bad_tolerance_exits_2_with_one_line(
        self, argv, named, corpus_file, env_db, capsys
    ):
        """A tolerance must be >= 0 and not NaN, which would pass every
        banded metric unremarked; ``inf`` stays legal."""
        for _ in range(2):
            assert main(["join", str(corpus_file), "--threshold", "0.7"]) == 0
        capsys.readouterr()
        assert main(["history", *argv]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("history: ")
        assert named in lines[0], captured.err
        flag = "--rel-tol" if argv[0] == "compare" else "--tolerance"
        assert main(["history", *argv[:-2], flag, "inf"]) == 0

    @pytest.mark.parametrize("argv,named", [
        (["list", "--limit", "0"], "--limit"),
        (["list", "--limit", "-1"], "--limit"),
        (["trend", "--metric", "wall_s", "--last", "0"], "--last"),
        (["check", "--last", "0"], "--last"),
    ])
    def test_bad_count_exits_2_with_one_line(
        self, argv, named, corpus_file, env_db, capsys
    ):
        """A run count below 1 is refused, not read as "no runs" or, by
        SQLite's ``LIMIT -1``, as "every run"."""
        assert main(["join", str(corpus_file), "--threshold", "0.7"]) == 0
        capsys.readouterr()
        assert main(["history", *argv]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("history: ")
        assert named in lines[0]

    def test_check_skips_other_configs_and_inputs(
        self, tmp_path, env_db, capsys
    ):
        """Comparable means the same config snapshot and the same input
        records, not only the same shape: a different window or arrival
        rate, or a different corpus, is a skip — not a regression."""
        corpus, other = str(tmp_path / "tw.txt"), str(tmp_path / "tw7.txt")
        for path, seed in ((corpus, "20200420"), (other, "7")):
            assert main(["generate", path, "--corpus", "TWEET",
                         "--records", "400", "--seed", seed]) == 0
        join = ["join", "--parallel", "--workers", "1", "--threshold", "0.8"]
        for argv in ([corpus], [corpus, "--window", "2", "--rate", "100"],
                     [other]):
            assert main(join[:1] + argv + join[1:]) == 0
            capsys.readouterr()
            assert main(["history", "check", "--last", "1", "--json"]) == 0
            verdict = json.loads(capsys.readouterr().out)
            assert verdict["status"] == "skip", verdict
        # the same command on the same input is still gated
        assert main(join[:1] + [other] + join[1:]) == 0
        capsys.readouterr()
        assert main(["history", "check", "--last", "1", "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["status"] == "ok" and verdict["checks"] > 0

    def test_history_rejects_bad_run_id(self, env_db, corpus_file, capsys):
        assert main(["join", str(corpus_file), "--threshold", "0.7"]) == 0
        capsys.readouterr()
        assert main(["history", "show", "99"]) == 2
        assert "no run 99" in capsys.readouterr().err
        assert main(["history", "show", "banana"]) == 2
        assert "bad run id" in capsys.readouterr().err
