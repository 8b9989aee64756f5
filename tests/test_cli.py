"""CLI round-trips: generate → stats → join → bench."""

import json
import os
import sys

import pytest

from repro.cli import main


class TestGenerateAndStats:
    def test_generate_then_stats(self, tmp_path, capsys):
        out = tmp_path / "corpus.txt"
        assert main(["generate", str(out), "--corpus", "AOL",
                     "--records", "50", "--seed", "3"]) == 0
        assert "wrote 50 records" in capsys.readouterr().out
        assert main(["stats", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "50" in captured and "dataset" in captured

    @pytest.mark.parametrize("flags,repeats,in_window", [
        ([], "3", None),
        # --rate 1 puts records 1 s apart: the copies at lines 4 and 6
        # repeat lines 1 and 4 at gaps of 3 s and 2 s, the line-5 copy
        # repeats line 3 at 2 s.
        (["--window", "2.5", "--rate", "1"], "3", "66.7"),
        (["--window", "10", "--rate", "1"], "3", "100"),
        (["--window", "1", "--rate", "1"], "3", "0"),
    ], ids=["unbounded", "some-in-window", "all-in-window", "none-in-window"])
    def test_stats_counts_repeats(self, tmp_path, capsys, flags, repeats,
                                  in_window):
        """A repeat is a record with an earlier record's exact token set
        (token order and duplicates inside a line do not matter);
        with a window, the share of repeats whose latest earlier copy
        is still inside it."""
        corpus = tmp_path / "repeats.txt"
        corpus.write_text("a b c\nb c d\nx y\nc b a\nx y\na a b c\n")
        assert main(["stats", str(corpus), *flags]) == 0
        header, _, row = capsys.readouterr().out.splitlines()
        values = dict(zip(header.split(), row.split()))
        assert values["records"] == "6"
        assert values["repeats"] == repeats
        assert values.get("in_window_pct") == in_window

    def test_duplicate_rate_flag(self, tmp_path, capsys):
        out = tmp_path / "dups.txt"
        assert main(["generate", str(out), "--records", "40",
                     "--duplicate-rate", "0.9"]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 40
        assert len(set(lines)) < 40  # duplicates present


class TestJoin:
    @pytest.fixture
    def corpus_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            "alpha beta gamma\nalpha beta gamma delta\nomega psi chi\n"
            "alpha beta gamma\n"
        )
        return path

    def test_join_summary(self, corpus_file, capsys):
        assert main(["join", str(corpus_file), "--threshold", "0.7",
                     "--workers", "3"]) == 0
        out = capsys.readouterr().out
        assert "method" in out and "throughput" in out

    def test_join_pairs_output(self, corpus_file, capsys):
        assert main(["join", str(corpus_file), "--threshold", "0.7",
                     "--workers", "2", "--pairs"]) == 0
        out = capsys.readouterr().out
        # records 0, 1, 3 are mutually similar: pairs (0,1),(0,3),(1,3)
        pair_lines = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(pair_lines) == 3
        assert any(line.startswith("1.0000") for line in pair_lines)

    def test_join_max_records(self, corpus_file, capsys):
        assert main(["join", str(corpus_file), "--max-records", "2",
                     "--threshold", "0.7", "--pairs"]) == 0
        out = capsys.readouterr().out
        pair_lines = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(pair_lines) == 1

    def test_join_with_bundles_and_window(self, corpus_file, capsys):
        assert main(["join", str(corpus_file), "--bundles",
                     "--window", "10", "--dispatchers", "2"]) == 0

    def test_join_expiry_eager_matches_lazy(self, corpus_file, capsys):
        def pairs(expiry):
            assert main(["join", str(corpus_file), "--threshold", "0.7",
                         "--window", "10", "--expiry", expiry,
                         "--pairs"]) == 0
            out = capsys.readouterr().out
            return sorted(l for l in out.splitlines()
                          if l and l[0].isdigit())
        assert pairs("eager") == pairs("lazy")

    def test_join_rejects_unknown_expiry(self, corpus_file):
        with pytest.raises(SystemExit):
            main(["join", str(corpus_file), "--expiry", "never"])


class TestJoinParallel:
    @pytest.fixture
    def corpus_file(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(
            "alpha beta gamma\nalpha beta gamma delta\nomega psi chi\n"
            "alpha beta gamma\nomega psi chi rho\n"
        )
        return path

    def test_parallel_join_summary(self, corpus_file, capsys):
        assert main(["join", str(corpus_file), "--parallel",
                     "--workers", "2", "--threshold", "0.7"]) == 0
        out = capsys.readouterr().out
        assert "workers" in out and "shards" in out

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="fork is Linux's method"
    )
    def test_parallel_join_summary_names_the_start_method(
        self, corpus_file, capsys
    ):
        """The runner pins ``fork`` where the platform has it, whatever
        the interpreter's default (forkserver on Linux from 3.14)."""
        assert main(["join", str(corpus_file), "--parallel",
                     "--workers", "2", "--threshold", "0.7"]) == 0
        header, _rule, row = capsys.readouterr().out.splitlines()[:3]
        assert dict(zip(header.split(), row.split()))["start"] == "fork"

    def test_parallel_pairs_match_simulated(self, corpus_file, capsys):
        def pair_lines(extra):
            assert main(["join", str(corpus_file), "--threshold", "0.7",
                         "--pairs"] + extra) == 0
            out = capsys.readouterr().out
            return sorted(l for l in out.splitlines()
                          if l and l[0].isdigit())
        assert pair_lines(["--parallel", "--workers", "2"]) == pair_lines([])

    def test_pair_lines_identical_on_duplicate_heavy_corpus(
        self, tmp_path, capsys
    ):
        """Byte for byte, unsorted: the simulated run prints ties in the
        parallel path's canonical order, whatever order its engines emit
        exact duplicates in."""
        corpus = tmp_path / "dups.txt"
        assert main(["generate", str(corpus), "--corpus", "AOL",
                     "--duplicate-rate", "0.3", "--records", "400",
                     "--seed", "7"]) == 0
        capsys.readouterr()

        def pair_lines(extra):
            assert main(["join", str(corpus), "--pairs"] + extra) == 0
            out = capsys.readouterr().out
            return [l for l in out.splitlines() if l and l[0].isdigit()]
        simulated = pair_lines([])
        assert sum(l.startswith("1.0000") for l in simulated) > 50
        for workers in ("1", "2"):
            assert pair_lines(["--parallel", "--workers", workers]) == simulated

    def test_parallel_holds_no_result_unless_pairs_ask(
        self, corpus_file, tmp_path, capsys
    ):
        """Without ``--pairs`` the frames go to a discarding sink: same
        fingerprint (``run_results`` included) and same summary count as
        the collecting ``--pairs`` run, which prints that many lines."""
        seen = {}
        for label, extra in (("discard", []), ("collect", ["--pairs"])):
            path = tmp_path / f"{label}.json"
            assert main(["join", str(corpus_file), "--parallel",
                         "--workers", "2", "--threshold", "0.7",
                         "--fingerprint-out", str(path)] + extra) == 0
            out = capsys.readouterr().out.splitlines()
            pairs = [l for l in out if l and l[0].isdigit()]
            seen[label] = json.loads(path.read_text()), len(pairs)
        (discard, no_lines), (collect, lines) = seen["discard"], seen["collect"]
        assert discard == collect and no_lines == 0
        assert lines == collect["exact"]["run_results"]["total"] > 0

    def test_a_worker_fault_is_one_line(self, corpus_file, monkeypatch,
                                        capsys):
        """A stream the workers cannot walk (its arrival process goes
        backwards) fails the parallel join with exit 1 and one
        ``join:`` line naming the worker and the fault, no traceback."""
        import repro.cli.join as join
        from repro.streams.stream import RecordStream
        from tests.test_parallel_unit import BackwardsAt

        load = join.load_token_file

        def backwards(path, **kwargs):
            stream, dictionary = load(path, **kwargs)
            return RecordStream(stream.corpus, BackwardsAt(3)), dictionary

        monkeypatch.setattr(join, "load_token_file", backwards)
        assert main(["join", str(corpus_file), "--parallel", "--workers", "2",
                     "--threshold", "0.7", "--no-archive"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert err.startswith("join: worker ") and "went backwards" in err, err

    def test_a_non_canonical_corpus_is_one_line(self, corpus_file,
                                                monkeypatch, capsys):
        """A corpus tuple out of order is refused where the stream is
        built, before any worker starts: one ``join:`` line with
        ``Record(...)``'s own error, and the input-error exit 2."""
        import repro.cli.join as join
        from repro.streams.stream import RecordStream

        load = join.load_token_file

        def unordered(path, **kwargs):
            stream, dictionary = load(path, **kwargs)
            corpus = stream.corpus
            corpus[3] = (5, 3)
            return RecordStream(corpus), dictionary

        monkeypatch.setattr(join, "load_token_file", unordered)
        assert main(["join", str(corpus_file), "--parallel", "--workers", "2",
                     "--threshold", "0.7", "--no-archive"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "join: Record 3: tokens must be strictly ascending (canonical "
            "form), got (5, 3)\n"
        ), err

    @pytest.mark.parametrize("extra", [[], ["--parallel"]],
                             ids=["simulated", "parallel"])
    def test_pairs_into_a_closed_pipe_exit_141_quietly(self, tmp_path, extra):
        """``repro join --pairs | head -1``: the reader closes after the
        first line, and the join stops like a filter killed by SIGPIPE
        (exit 141) with no traceback. 300 copies of one record make
        44 850 pairs, far more than a pipe buffer holds."""
        import subprocess
        import sys
        from pathlib import Path

        import repro

        corpus = tmp_path / "dup.txt"
        corpus.write_text("alpha beta gamma\n" * 300)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "join", str(corpus), "--pairs",
             "--no-archive", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 141, stderr
        assert "Traceback" not in stderr and stderr == "", stderr

    def test_parallel_fingerprint_stable_across_workers(
        self, corpus_file, tmp_path, capsys
    ):
        """Observables are a function of the shard count, and shards
        default to workers: the proof pins ``--shards``."""
        fps = []
        for workers in ("1", "3"):
            path = tmp_path / f"fp{workers}.json"
            assert main(["join", str(corpus_file), "--parallel",
                         "--workers", workers, "--shards", "8",
                         "--threshold", "0.7",
                         "--fingerprint-out", str(path)]) == 0
            fps.append(json.loads(path.read_text()))
        assert fps[0] == fps[1]
        capsys.readouterr()

    def test_diff_refuses_fingerprints_at_different_default_shards(
        self, corpus_file, tmp_path, capsys
    ):
        paths = []
        for workers in ("1", "3"):
            paths.append(str(tmp_path / f"fp{workers}.json"))
            assert main(["join", str(corpus_file), "--parallel",
                         "--workers", workers, "--threshold", "0.7",
                         "--fingerprint-out", paths[-1]]) == 0
        capsys.readouterr()
        assert main(["diff", *paths]) == 1
        assert ("run label 'shards' differs: these runs are not comparable"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_shards_default_to_workers(self, corpus_file, capsys, workers):
        def shards(extra):
            assert main(["join", str(corpus_file), "--parallel", "--workers",
                         str(workers), "--threshold", "0.7"] + extra) == 0
            header, _rule, row = capsys.readouterr().out.splitlines()[:3]
            return int(dict(zip(header.split(), row.split()))["shards"])
        assert shards([]) == workers
        assert shards(["--shards", "2"]) == 2

    def test_one_worker_length_run_reports_no_routing_fanout(
        self, corpus_file, tmp_path, capsys
    ):
        """A record sent to the only task is not replicated; a 4-shard
        broadcast still is."""
        def detectors(extra):
            health = tmp_path / "health.jsonl"
            assert main(["join", str(corpus_file), "--parallel",
                         "--threshold", "0.7",
                         "--health-out", str(health)] + extra) == 0
            capsys.readouterr()
            rows = [json.loads(line) for line in health.read_text().splitlines()]
            return [(row["detector"], row["severity"])
                    for row in rows if row["kind"] == "event"]
        assert not [d for d in detectors(["--workers", "1"])
                    if d[0] == "routing_fanout"]
        assert ("routing_fanout", "critical") in detectors(
            ["--workers", "2", "--shards", "4",
             "--distribution", "broadcast"])

    def test_parallel_health_out(self, corpus_file, tmp_path, capsys):
        health = tmp_path / "health.jsonl"
        assert main(["join", str(corpus_file), "--parallel",
                     "--distribution", "broadcast",
                     "--health-out", str(health)]) == 0
        assert health.exists()
        out = capsys.readouterr().out
        assert "health:" in out

    @pytest.mark.parametrize("flags", [
        [],
        ["--window", "0.05"],
        ["--distribution", "prefix"],
    ], ids=["unbounded", "windowed", "prefix"])
    def test_default_shard_pairs_equal_the_single_engine(
        self, tmp_path, capsys, flags
    ):
        """Shards follow ``--workers`` by default; the pair set does not."""
        from repro.core.local_join import StreamingSetJoin
        from repro.datasets.loader import load_token_file
        from repro.similarity.functions import get_similarity
        from repro.streams.window import SlidingWindow

        corpus = tmp_path / "tweets.txt"
        assert main(["generate", str(corpus), "--corpus", "TWEET",
                     "--records", "300", "--seed", "5",
                     "--duplicate-rate", "0.3"]) == 0
        capsys.readouterr()
        window = float(flags[1]) if flags[:1] == ["--window"] else float("inf")
        stream, _dictionary = load_token_file(str(corpus))
        engine = StreamingSetJoin(
            get_similarity("jaccard", 0.6), window=SlidingWindow(window)
        )
        single = set()
        for record in stream:
            single.update(
                (m.partner.rid, record.rid) for m in engine.probe(record)
            )
            engine.insert(record)
        assert single
        for workers in ("1", "2", "3"):
            assert main(["join", str(corpus), "--parallel", "--workers",
                         workers, "--threshold", "0.6", "--pairs"] + flags) == 0
            lines = [line.split("\t")
                     for line in capsys.readouterr().out.splitlines()]
            pairs = [(int(line[1]), int(line[2]))
                     for line in lines if len(line) == 3]
            assert len(pairs) == len(set(pairs))
            assert set(pairs) == single, workers

    def test_rejects_bad_workers(self, corpus_file, capsys):
        assert main(["join", str(corpus_file), "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_rejects_bad_batch_size(self, corpus_file, capsys):
        assert main(["join", str(corpus_file), "--parallel",
                     "--batch-size", "0"]) == 2
        assert "batch_size" in capsys.readouterr().err
        assert main(["join", str(corpus_file), "--parallel",
                     "--batch-size", "99999999"]) == 2
        assert "absurd" in capsys.readouterr().err

    def test_rejects_bad_shards(self, corpus_file, capsys):
        assert main(["join", str(corpus_file), "--parallel",
                     "--shards", "-1"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_rejects_bundles(self, corpus_file, capsys):
        assert main(["join", str(corpus_file), "--parallel",
                     "--bundles"]) == 2
        assert "--bundles" in capsys.readouterr().err

    def test_trace_out_writes_rectrace_artefact(self, corpus_file, tmp_path,
                                                capsys):
        from repro.obs.rectrace import (
            load_rectrace_jsonl, rectrace_smoke)

        path = tmp_path / "run.rectrace.jsonl"
        assert main(["join", str(corpus_file), "--parallel",
                     "--workers", "2", "--threshold", "0.7",
                     "--trace-sample", "1",
                     "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "records" in out
        rows = load_rectrace_jsonl(str(path))
        assert rectrace_smoke(rows) == []
        assert rows[0]["sample"] == 1

    def test_trace_sample_applies_without_parallel(self, corpus_file,
                                                   tmp_path, capsys):
        from repro.obs.rectrace import load_rectrace_jsonl, rectrace_smoke

        path = tmp_path / "sim.rectrace.jsonl"
        assert main(["join", str(corpus_file), "--threshold", "0.7",
                     "--trace-sample", "2", "--trace-out", str(path)]) == 0
        assert "sample 2" in capsys.readouterr().out
        rows = load_rectrace_jsonl(str(path))
        assert rectrace_smoke(rows) == []
        assert rows[0]["executor"] == "simulated" and rows[0]["sample"] == 2

    def test_rejects_bad_trace_sample(self, corpus_file, capsys):
        assert main(["join", str(corpus_file), "--parallel",
                     "--trace-sample", "0"]) == 2
        assert "--trace-sample" in capsys.readouterr().err

    def test_rejects_spans_out_without_parallel(self, corpus_file, tmp_path,
                                                capsys):
        assert main(["join", str(corpus_file),
                     "--spans-out", str(tmp_path / "s.jsonl")]) == 2
        assert "--spans-out requires --parallel" in capsys.readouterr().err

    def test_rejects_bad_spans_sample(self, corpus_file, capsys):
        assert main(["join", str(corpus_file), "--parallel",
                     "--spans-sample", "0"]) == 2
        assert "--spans-sample" in capsys.readouterr().err

    def test_rejects_telemetry_out_without_parallel(self, corpus_file,
                                                    tmp_path, capsys):
        assert main(["join", str(corpus_file),
                     "--telemetry-out", str(tmp_path / "t.jsonl")]) == 2
        assert "--telemetry-out requires --parallel" in capsys.readouterr().err

    def test_rejects_heartbeat_interval_without_parallel(self, corpus_file,
                                                         capsys):
        assert main(["join", str(corpus_file),
                     "--heartbeat-interval", "0.5"]) == 2
        assert "--heartbeat-interval requires --parallel" in (
            capsys.readouterr().err)

    def test_rejects_bad_heartbeat_interval(self, corpus_file, capsys):
        for bad in ("0", "-1", "nan", "inf"):
            assert main(["join", str(corpus_file), "--parallel",
                         "--heartbeat-interval", bad]) == 2
            assert "--heartbeat-interval" in capsys.readouterr().err

    def test_transport_flag_is_gone(self, corpus_file, capsys):
        """Results have one wire: there is no ``--transport`` to pick."""
        with pytest.raises(SystemExit) as exit_info:
            main(["join", str(corpus_file), "--parallel",
                  "--transport", "pipe"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --transport" in capsys.readouterr().err

    def test_telemetry_out_writes_artefact(self, corpus_file, tmp_path,
                                           capsys):
        from repro.obs.timeseries import (
            load_telemetry_jsonl, telemetry_smoke)

        path = tmp_path / "run.telemetry.jsonl"
        assert main(["join", str(corpus_file), "--parallel",
                     "--workers", "2", "--threshold", "0.7",
                     "--telemetry-out", str(path),
                     "--heartbeat-interval", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out and "samples" in out
        assert telemetry_smoke(load_telemetry_jsonl(str(path))) == []

    def test_metrics_out_works_in_parallel_mode(self, corpus_file, tmp_path,
                                                capsys):
        metrics = tmp_path / "metrics.json"
        assert main(["join", str(corpus_file), "--parallel",
                     "--workers", "2", "--threshold", "0.7",
                     "--metrics-out", str(metrics)]) == 0
        payload = json.loads(metrics.read_text())
        assert "run_wall_seconds" in payload["metrics"]
        assert "worker_busy_seconds" in payload["metrics"]
        capsys.readouterr()

    def test_spans_out_writes_artefact(self, corpus_file, tmp_path, capsys):
        spans = tmp_path / "spans.jsonl"
        assert main(["join", str(corpus_file), "--parallel",
                     "--workers", "2", "--threshold", "0.7",
                     "--spans-out", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out and "driver coverage" in out
        lines = spans.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header" and header["workers"] == 2


class TestSpansCommand:
    FIXTURE = os.path.join(
        os.path.dirname(__file__), "data", "spans_fixture.jsonl"
    )

    @pytest.fixture
    def spans_file(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text(
            "alpha beta gamma\nalpha beta gamma delta\nomega psi chi\n"
            "alpha beta gamma\nomega psi chi rho\n"
        )
        path = tmp_path / "spans.jsonl"
        assert main(["join", str(corpus), "--parallel", "--workers", "2",
                     "--threshold", "0.7", "--spans-out", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_analyze_fixture(self, capsys):
        assert main(["spans", self.FIXTURE]) == 0
        out = capsys.readouterr().out
        assert "driver phases" in out
        assert "critical path" in out
        assert "recorder overhead" in out
        assert "wall time" in out  # the waterfall axis
        assert "worker 1" in out   # the drain-window straggler

    def test_json_output(self, capsys):
        assert main(["spans", self.FIXTURE, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["phase_totals"]["driver_coverage"] == 1.0
        stages = [s["stage"] for s in payload["critical_path"]]
        assert stages == ["setup", "drain", "merge"]

    def test_smoke_on_fixture(self, capsys):
        assert main(["spans", self.FIXTURE, "--smoke"]) == 0
        assert "spans smoke ok" in capsys.readouterr().out

    def test_smoke_on_live_run(self, spans_file, capsys):
        assert main(["spans", str(spans_file), "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "spans smoke ok" in out and "driver coverage" in out
        assert main(["spans", str(spans_file)]) == 0
        assert "critical path" in capsys.readouterr().out

    def test_smoke_fails_on_gappy_file(self, tmp_path, capsys):
        lines = [l for l in open(self.FIXTURE).read().splitlines()
                 if '"merge"' not in l]
        bad = tmp_path / "gappy.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["spans", str(bad), "--smoke"]) == 1
        assert "no span covers phase 'merge'" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["spans", str(tmp_path / "nope.jsonl")]) == 2
        assert "spans:" in capsys.readouterr().err

    def test_corrupt_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "header"\n')
        assert main(["spans", str(bad)]) == 2
        assert "corrupt span line" in capsys.readouterr().err

    def test_record_wire_phase_is_refused(self, tmp_path, capsys):
        lines = open(self.FIXTURE).read().splitlines()
        feed = json.loads(lines[1])
        feed.update(phase="feed", start=0.02, end=0.05)
        bad = tmp_path / "wire.jsonl"
        bad.write_text("\n".join(lines + [json.dumps(feed)]) + "\n")
        assert main(["spans", str(bad)]) == 2
        assert "unknown phase 'feed'" in capsys.readouterr().err

    def test_rejects_narrow_width(self, capsys):
        assert main(["spans", self.FIXTURE, "--width", "5"]) == 2
        assert "--width" in capsys.readouterr().err

    def test_chrome_export_round_trips(self, tmp_path, capsys):
        out_path = tmp_path / "spans.chrome.json"
        assert main(["spans", self.FIXTURE, "--chrome", str(out_path)]) == 0
        assert "chrome:" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        events = payload["traceEvents"]
        assert events
        for event in events:
            for key in ("ph", "ts", "pid", "tid"):
                assert key in event
        assert any(e["ph"] == "X" for e in events)
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "driver" in names


class TestTelemetryCommands:
    @pytest.fixture
    def telemetry_file(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text(
            "alpha beta gamma\nalpha beta gamma delta\nomega psi chi\n"
            "alpha beta gamma\nomega psi chi rho\n" * 20
        )
        path = tmp_path / "run.telemetry.jsonl"
        assert main(["join", str(corpus), "--parallel", "--workers", "2",
                     "--threshold", "0.7", "--telemetry-out", str(path),
                     "--heartbeat-interval", "0.01"]) == 0
        capsys.readouterr()
        return path

    def test_smoke_gate_passes(self, telemetry_file, capsys):
        assert main(["telemetry", str(telemetry_file), "--smoke"]) == 0
        assert "telemetry smoke ok" in capsys.readouterr().out

    def test_human_digest(self, telemetry_file, capsys):
        assert main(["telemetry", str(telemetry_file)]) == 0
        out = capsys.readouterr().out
        assert "per-worker telemetry" in out
        assert "health events" in out
        assert "samples" in out

    def test_json_digest(self, telemetry_file, capsys):
        assert main(["telemetry", str(telemetry_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["workers"]) == {"0", "1"}
        assert payload["final"]["kind"] == "final"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["telemetry", str(tmp_path / "nope.jsonl")]) == 2
        assert "telemetry:" in capsys.readouterr().err

    def test_corrupt_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "header"\n')
        assert main(["telemetry", str(bad)]) == 2
        assert "corrupt telemetry line" in capsys.readouterr().err

    def test_smoke_fails_on_unclosed_file(self, telemetry_file, tmp_path,
                                          capsys):
        lines = telemetry_file.read_text().splitlines()
        truncated = tmp_path / "unclosed.jsonl"
        truncated.write_text(
            "\n".join(l for l in lines if '"final"' not in l) + "\n"
        )
        assert main(["telemetry", str(truncated), "--smoke"]) == 1
        assert "telemetry smoke FAIL" in capsys.readouterr().err

    def test_top_once_renders_frame(self, telemetry_file, capsys):
        assert main(["top", str(telemetry_file), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "worker 0" in out and "worker 1" in out
        assert "cluster" in out
        assert "final" in out

    def test_top_follow_stops_at_final_row(self, telemetry_file, capsys):
        # Non-TTY stdout: plain frames, loop exits on the final row.
        assert main(["top", str(telemetry_file),
                     "--refresh", "0.01"]) == 0
        assert "final" in capsys.readouterr().out

    def test_top_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "nope.jsonl"), "--once"]) == 2
        assert "top:" in capsys.readouterr().err

    def test_top_rejects_bad_refresh_and_duration(self, telemetry_file,
                                                  capsys):
        assert main(["top", str(telemetry_file), "--refresh", "0"]) == 2
        assert "--refresh" in capsys.readouterr().err
        assert main(["top", str(telemetry_file), "--duration", "-1"]) == 2
        assert "--duration" in capsys.readouterr().err


class TestBench:
    def test_bench_prints_method_table(self, capsys, tmp_path):
        summary = tmp_path / "BENCH_summary.json"
        assert main(["bench", "--corpus", "AOL", "--records", "300",
                     "--workers", "2", "--dispatchers", "1",
                     "--summary-out", str(summary)]) == 0
        out = capsys.readouterr().out
        for label in ("BRD", "PRE", "LEN-U", "LEN", "LEN+BUN"):
            assert label in out
        payload = json.loads(summary.read_text())
        assert set(payload["methods"]) == {"BRD", "PRE", "LEN-U", "LEN", "LEN+BUN"}
        for row in payload["methods"].values():
            assert row["throughput"] > 0
            assert row["records"] == 300
        assert payload["seed"] == 0

    def test_bench_vocabulary_override(self, capsys, tmp_path):
        assert main(["bench", "--corpus", "TWEET", "--records", "200",
                     "--workers", "2", "--dispatchers", "1",
                     "--vocabulary", "100",
                     "--summary-out", str(tmp_path / "s.json")]) == 0


class TestTrace:
    def test_trace_expiry_eager_runs(self, capsys):
        assert main(["trace", "--records", "60", "--workers", "2",
                     "--expiry", "eager"]) == 0
        out = capsys.readouterr().out
        assert "per-stage latency" in out

    def test_json_keeps_stdout_one_document(self, capsys):
        assert main(["trace", "--records", "60", "--workers", "2",
                     "--trace-sample", "4", "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["header"]["executor"] == "simulated"
        assert payload["header"]["sample"] == 4
        assert "e2e" in payload["stages"] and payload["slowest"]
        assert "timeline" in captured.err

    # Every other artefact family, and a JSONL header no reader knows
    # (a tuple trace from before the simulator wrote record traces):
    # exit 2, naming what reads it or saying it is no record trace,
    # instead of a simulated join over the JSON text.
    OTHER_ARTEFACTS = {
        "telemetry": ({"kind": "header", "schema": 2, "interval": 0.25,
                       "workers": 2}, "repro telemetry"),
        "health": ({"kind": "header", "schema": 1,
                    "thresholds": {"queue_warning": 64}}, "--health-out"),
        "tuple_trace": ({"kind": "header", "schema": 1, "sampler": "stride",
                         "stride": 1}, "not a record trace"),
    }

    @pytest.mark.parametrize("family", sorted(OTHER_ARTEFACTS))
    def test_other_artefact_is_a_pointed_error(self, family, tmp_path, capsys):
        header, reader = self.OTHER_ARTEFACTS[family]
        path = tmp_path / "artefact.jsonl"
        path.write_text(json.dumps(header) + "\n")
        assert main(["trace", str(path)]) == 2
        captured = capsys.readouterr()
        assert reader in captured.err
        assert "throughput" not in captured.out

    def test_spans_fixture_is_a_pointed_error(self, capsys):
        fixture = os.path.join(
            os.path.dirname(__file__), "data", "spans_fixture.jsonl"
        )
        for extra in ([], ["--smoke"]):
            assert main(["trace", fixture, *extra]) == 2
            captured = capsys.readouterr()
            assert "repro spans" in captured.err
            assert "throughput" not in captured.out


#: Artefact family -> (a committed fixture of it, or the header of a
#: file of it; the words naming its reader).
ARTEFACT_FAMILIES = {
    "spans": ("spans_fixture.jsonl", "`repro spans`"),
    "rectrace": ("rectrace_fixture.jsonl", "`repro trace`"),
    "telemetry": ({"kind": "header", "schema": 2, "interval": 0.25,
                   "workers": 2, "shards": 2, "executor": "process",
                   "thresholds": {}}, "`repro telemetry`"),
    "health": ({"kind": "header", "schema": 1,
                "thresholds": {"queue_warning": 64}}, "--health-out"),
}
#: Artefact reader -> (its argv, the one family it reads).
ARTEFACT_READERS = {
    "trace": (["trace"], "rectrace"),
    "spans": (["spans"], "spans"),
    "telemetry": (["telemetry"], "telemetry"),
    "top": (["top", "--once"], "telemetry"),
}


class TestWrongArtefactFamily:
    """Every artefact reader refuses another family's file in one line
    naming what reads it — not a frame of no samples, nor one error per
    row."""

    @pytest.mark.parametrize("reader,family", [
        (reader, family)
        for reader, (_, reads) in sorted(ARTEFACT_READERS.items())
        for family in sorted(ARTEFACT_FAMILIES) if family != reads
    ])
    def test_refused_in_one_line(self, reader, family, tmp_path, capsys):
        source, names = ARTEFACT_FAMILIES[family]
        if isinstance(source, dict):
            path = tmp_path / f"{family}.jsonl"
            path.write_text(json.dumps(source) + "\n")
        else:
            path = os.path.join(os.path.dirname(__file__), "data", source)
        argv, _ = ARTEFACT_READERS[reader]
        assert main([argv[0], str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(f"{reader}: ") and names in lines[0]
        assert captured.out == ""


class TestTraceRectraceCommand:
    @pytest.fixture
    def rectrace_file(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text(
            "alpha beta gamma\nalpha beta gamma delta\nomega psi chi\n"
            "alpha beta gamma\nomega psi chi rho\n"
        )
        path = tmp_path / "run.rectrace.jsonl"
        assert main(["join", str(corpus), "--parallel", "--workers", "2",
                     "--threshold", "0.7", "--trace-sample", "1",
                     "--trace-out", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_analyze(self, rectrace_file, capsys):
        assert main(["trace", str(rectrace_file)]) == 0
        out = capsys.readouterr().out
        assert "per-stage latency" in out
        assert "slowest" in out
        assert "e2e" in out
        assert "recorder overhead: ~" in out and "% of wall" in out

    def test_analyze_file_written_before_the_overhead_block(self, capsys):
        fixture = os.path.join(
            os.path.dirname(__file__), "data", "rectrace_fixture.jsonl"
        )
        assert main(["trace", fixture]) == 0
        assert "recorder overhead: n/a" in capsys.readouterr().out

    def test_record_wire_event_is_refused(self, tmp_path, capsys):
        fixture = os.path.join(
            os.path.dirname(__file__), "data", "rectrace_fixture.jsonl"
        )
        lines = open(fixture).read().splitlines()
        decode = dict(json.loads(lines[1]), event="decode")
        bad = tmp_path / "wire.rectrace.jsonl"
        bad.write_text("\n".join(lines + [json.dumps(decode)]) + "\n")
        assert main(["trace", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "unknown event 'decode'" in captured.err
        assert "per-stage latency" not in captured.out

    def test_smoke(self, rectrace_file, capsys):
        assert main(["trace", str(rectrace_file), "--smoke"]) == 0
        assert "trace smoke ok" in capsys.readouterr().out

    def test_json_output(self, rectrace_file, capsys):
        assert main(["trace", str(rectrace_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["header"]["artefact"] == "rectrace"
        assert "e2e" in payload["stages"]
        for entry in payload["stages"].values():
            for key in ("count", "mean_s", "p50_s", "p95_s", "p99_s"):
                assert key in entry
        assert payload["slowest"]

    def test_chrome_export(self, rectrace_file, tmp_path, capsys):
        out_path = tmp_path / "rect.chrome.json"
        assert main(["trace", str(rectrace_file),
                     "--chrome", str(out_path)]) == 0
        assert "chrome:" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        events = payload["traceEvents"]
        for event in events:
            for key in ("ph", "ts", "pid", "tid"):
                assert key in event
        # The record's hop across the process boundary: flow events
        # keyed by rid.
        assert any(e["ph"] == "s" for e in events)
        assert any(e["ph"] == "f" for e in events)

    def test_smoke_fails_on_truncated_file(self, rectrace_file, tmp_path,
                                           capsys):
        lines = [l for l in rectrace_file.read_text().splitlines()
                 if '"event": "insert"' not in l]
        bad = tmp_path / "noinsert.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["trace", str(bad), "--smoke"]) == 1
        assert "insert" in capsys.readouterr().err

    def test_chrome_export_on_simulated_run(self, tmp_path, capsys):
        from repro.obs.chrome import validate_chrome

        corpus = tmp_path / "c.txt"
        corpus.write_text("alpha beta\nalpha beta gamma\nalpha beta\n")
        out_path = tmp_path / "x.json"
        assert main(["trace", str(corpus), "--threshold", "0.6",
                     "--trace-sample", "1", "--chrome", str(out_path)]) == 0
        assert "chrome:" in capsys.readouterr().out
        assert validate_chrome(json.loads(out_path.read_text())) == []


#: A committed fingerprint: a real ``repro diff`` input.
BASELINE_FINGERPRINT = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "baselines",
    "aol-3000-v800-w4-d4-s20200420.json",
)


class TestBadFlagValues:
    """A bad flag value is one pointed stderr line and exit 2 — never a
    traceback, and never a silently clamped run."""

    @pytest.mark.parametrize("argv,named", [
        (["join", "F", "--threshold", "1.5"], "threshold"),
        (["join", "F", "--threshold", "0"], "threshold"),
        (["join", "F", "--threshold", "1.5", "--parallel"], "threshold"),
        (["join", "F", "--threshold", "0", "--parallel"], "threshold"),
        (["trace", "F", "--threshold", "2"], "threshold"),
        (["trace", "--smoke", "--threshold", "2"], "threshold"),
        (["bench", "--threshold", "0"], "threshold"),
        (["join", "F", "--rate", "0"], "rate"),
        (["join", "F", "--rate", "-5"], "rate"),
        (["join", "F", "--rate", "0", "--parallel"], "rate"),
        (["trace", "F", "--rate", "0"], "rate"),
        (["join", "F", "--max-records", "0"], "max_records"),
        (["join", "F", "--max-records", "-3"], "max_records"),
        (["stats", "F", "--max-records", "-1"], "max_records"),
        # NaN passes a ``<= 0`` test; it is refused like 0.
        (["join", "F", "--rate", "nan"], "rate"),
        (["join", "F", "--rate", "nan", "--parallel"], "rate"),
        (["trace", "F", "--rate", "nan"], "rate"),
        (["join", "F", "--window", "nan"], "window"),
        (["join", "F", "--window", "nan", "--parallel"], "window"),
        (["generate", "F", "--records", "-5"], "records"),
        (["generate", "F", "--duplicate-rate", "2"], "duplicate_rate"),
        (["generate", "F", "--duplicate-rate", "-1"], "duplicate_rate"),
        (["explain", "LEN", "PRE", "--records", "0"], "records"),
        # Waits must be finite: NaN and inf crashed ``time.sleep`` or
        # never stopped.
        (["top", "F", "--refresh", "nan"], "--refresh"),
        (["top", "F", "--refresh", "inf"], "--refresh"),
        (["top", "F", "--duration", "nan", "--once"], "--duration"),
        (["top", "F", "--duration", "inf", "--once"], "--duration"),
        # A corpus size is refused by its builder, not a traceback.
        (["bench", "--records", "-3"], "records"),
        (["bench", "--vocabulary", "-5"], "vocabulary"),
        # A tolerance must be >= 0 and not NaN (inf is legal): a
        # fingerprint diffed with itself is no "improvement".
        (["diff", "FP", "FP", "--rel-tol", "nan"], "rel_tol"),
        (["diff", "FP", "FP", "--rel-tol", "-1"], "rel_tol"),
        (["stats", "F", "--window", "0"], "window"),
        (["stats", "F", "--window", "nan"], "window"),
        (["stats", "F", "--rate", "0"], "rate"),
        # 0 is a vocabulary size to refuse, not the corpus default.
        (["bench", "--vocabulary", "0"], "vocabulary"),
        # An empty stream is refused, not benchmarked into zeros.
        (["bench", "--records", "0"], "records"),
    ])
    def test_exits_2_with_one_line(self, argv, named, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("alpha beta gamma\nalpha beta gamma delta\n")
        paths = {"F": str(corpus), "FP": BASELINE_FINGERPRINT}
        argv = [paths.get(arg, arg) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and named in lines[0], captured.err
        assert lines[0].startswith(f"{argv[0]}: ")
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("argv", [
        ["join", "MISSING"],
        ["join", "MISSING", "--parallel", "--workers", "1"],
        ["join", "DIR"],
        ["stats", "MISSING"],
        ["trace", "MISSING"],
        ["generate", "NO_DIR"],
    ], ids=["join", "join-parallel", "join-dir", "stats", "trace",
            "generate"])
    def test_unreadable_input_exits_2_with_one_line(
        self, argv, tmp_path, capsys
    ):
        paths = {
            "MISSING": str(tmp_path / "missing.txt"),
            "DIR": str(tmp_path),
            "NO_DIR": str(tmp_path / "no-such-dir" / "x.txt"),
        }
        argv = [paths.get(arg, arg) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(f"{argv[0]}: ")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_corpus(self):
        with pytest.raises(SystemExit):
            main(["bench", "--corpus", "WIKI"])


class TestDiffCli:
    """`repro diff` against written fingerprints, text and --json."""

    @pytest.fixture
    def fingerprints(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text(
            "alpha beta gamma\nalpha beta gamma delta\nomega psi chi\n"
            "alpha beta gamma\nomega psi chi rho\n" * 3
        )
        paths = []
        for name in ("base.json", "curr.json"):
            out = tmp_path / name
            assert main(["join", str(corpus), "--threshold", "0.7",
                         "--fingerprint-out", str(out)]) == 0
            paths.append(out)
        return paths

    def test_replay_is_ok(self, fingerprints, capsys):
        base, curr = fingerprints
        capsys.readouterr()
        assert main(["diff", str(base), str(curr)]) == 0
        assert "diff: ok" in capsys.readouterr().out

    def test_json_verdict_shape(self, fingerprints, capsys):
        base, curr = fingerprints
        capsys.readouterr()
        assert main(["diff", str(base), str(curr), "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["status"] == "ok"
        assert verdict["failures"] == []
        assert verdict["checks"] > 0

    def test_exact_drift_fails_with_json(self, fingerprints, capsys):
        base, curr = fingerprints
        data = json.loads(curr.read_text())
        data["exact"]["run_results"]["total"] += 1
        curr.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["diff", str(base), str(curr), "--json"]) == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["status"] == "regression"
        assert any(f["metric"] == "run_results" and f["policy"] == "exact"
                   for f in verdict["failures"])

    @pytest.mark.parametrize("records", [0, 5])
    @pytest.mark.parametrize("extra", [[], ["--parallel"]],
                             ids=["simulated", "parallel"])
    def test_fingerprints_are_strict_json(self, tmp_path, capsys, records,
                                          extra):
        """No ``Infinity``/``NaN`` in a written fingerprint — not even
        for a run with no records, which reports 0 records/s."""
        lines = ["alpha beta gamma", "alpha beta gamma delta",
                 "omega psi chi", "alpha beta gamma", "omega psi chi rho"]
        corpus = tmp_path / "c.txt"
        corpus.write_text("".join(f"{line}\n" for line in lines[:records]))
        out = tmp_path / "fp.json"
        assert main(["join", str(corpus), "--threshold", "0.7",
                     "--fingerprint-out", str(out)] + extra) == 0
        capsys.readouterr()

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")
        fingerprint = json.loads(out.read_text(), parse_constant=reject)
        assert fingerprint["exact"]["run_records"]["total"] == records

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["diff", missing, missing]) == 2
        assert "diff:" in capsys.readouterr().err


class TestExplainCli:
    def test_json_attribution_shape(self, capsys):
        assert main(["explain", "BRD", "LEN", "--records", "300",
                     "--seed", "5", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["method_a"] == "BRD"
        assert result["method_b"] == "LEN"
        assert result["records"] == 300
        assert set(result["categories"])
        total = sum(c["throughput_contribution"]
                    for c in result["categories"].values())
        assert total == pytest.approx(result["gap"], rel=1e-6)

    def test_text_rendering(self, capsys):
        assert main(["explain", "BRD", "LEN", "--records", "300",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "n=300" in out and "BRD" in out

    def test_same_method_rejected(self, capsys):
        assert main(["explain", "LEN", "LEN"]) == 2
        assert "must differ" in capsys.readouterr().err


def _command_modules():
    """Every command the parser knows, from the parser itself."""
    import argparse

    from repro.cli import build_parser

    commands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return sorted(commands.choices)


def _python(code, *argv):
    """Run ``code`` in a fresh interpreter on this checkout's source."""
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    env["REPRO_ARCHIVE"] = ""
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True,
        text=True, timeout=120,
    )


class TestOneModulePerCommand:
    """``repro.cli`` holds the parser; each command is its own module,
    imported only when that command runs."""

    def test_parallel_join_loads_only_the_join(self, tmp_path):
        """``repro join --parallel --no-archive`` imports the parser, the
        shared helpers and the join: no other command's module, not the
        method suites, not the archive's SQLite."""
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b c\na b c d\nx y z\n" * 20)
        done = _python(
            "import sys\n"
            "from repro.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(' '.join(sorted(sys.modules)))\n"
            "sys.exit(code)\n",
            "join", str(corpus), "--parallel", "--workers", "1",
            "--no-archive",
        )
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.splitlines()[-1].split())
        cli = {name for name in loaded if name.startswith("repro.cli")}
        assert cli == {"repro.cli", "repro.cli.common", "repro.cli.join"}
        assert "repro.bench.harness" not in loaded
        assert "sqlite3" not in loaded

    def test_every_command_module_imports_on_its_own(self):
        """Each module runs its command through ``run(args)``, and
        imports in a fresh interpreter with nothing else loaded first."""
        import importlib
        import pkgutil

        import repro.cli

        commands = _command_modules()
        modules = sorted(
            info.name for info in pkgutil.iter_modules(repro.cli.__path__)
        )
        assert modules == sorted(commands + ["common", "readers"])
        for name in modules:
            done = _python(f"import repro.cli.{name}")
            assert done.returncode == 0, (name, done.stderr)
        for name in commands:
            assert callable(importlib.import_module(f"repro.cli.{name}").run)

    @pytest.mark.parametrize("argv", [
        [command] for command in _command_modules()
    ] + [
        ["history", sub] for sub in ("list", "show", "compare", "trend",
                                     "check")
    ], ids=" ".join)
    def test_every_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as done:
            main([*argv, "--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: repro {argv[0]}")
