"""Run fingerprints and the `repro diff` regression gate."""

import copy
import json
import os

import pytest

from repro.bench.harness import standard_configs
from repro.core.join import DistributedStreamJoin
from repro.datasets import synthetic_aol
from repro.obs.baseline import (
    FINGERPRINT_SCHEMA_VERSION,
    bench_fingerprint,
    compare_fingerprints,
    fingerprint_from_metrics,
    load_fingerprint,
    write_fingerprint,
)
from repro.obs.exporters import metrics_to_json
from repro.storm.costmodel import CostModel

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_dump(cost=None, records=300, seed=20200420):
    config = standard_configs(num_workers=4, include=["LEN"])["LEN"]
    report = DistributedStreamJoin(config, cost=cost).run(
        synthetic_aol(records, seed=seed))
    return metrics_to_json(report.obs)


@pytest.fixture(scope="module")
def base_dump():
    return _run_dump()


@pytest.fixture(scope="module")
def rerun_dump():
    return _run_dump()


@pytest.fixture(scope="module")
def slow_dump():
    # E13-style seeded regression: one cost-model price inflated 4x.
    return _run_dump(cost=CostModel().scaled(posting_scan=16.0))


class TestFingerprint:
    def test_structure(self, base_dump):
        fp = fingerprint_from_metrics(base_dump)
        assert fp["schema"] == FINGERPRINT_SCHEMA_VERSION
        assert fp["labels"]["method"] == "LEN"
        assert fp["exact"]["op:posting_scan"]["total"] > 0
        assert fp["exact"]["op:posting_scan"]["series"] == 4
        assert fp["exact"]["run_records"]["total"] == 300
        assert fp["banded"]["run_capacity_throughput"] > 0
        assert fp["banded"]["component_busy_seconds:join"] > 0
        assert fp["banded"]["max_task_busy_seconds"] > 0

    def test_same_seed_reruns_diff_clean(self, base_dump, rerun_dump):
        verdict = compare_fingerprints(
            fingerprint_from_metrics(base_dump),
            fingerprint_from_metrics(rerun_dump))
        assert verdict["status"] == "ok"
        assert verdict["failures"] == []
        assert verdict["improvements"] == []
        assert verdict["checks"] > 20

    def test_seeded_regression_flagged_with_named_metric(
            self, base_dump, slow_dump):
        verdict = compare_fingerprints(
            fingerprint_from_metrics(base_dump),
            fingerprint_from_metrics(slow_dump))
        assert verdict["status"] == "regression"
        failed = {entry["metric"] for entry in verdict["failures"]}
        assert "component_busy_seconds:join" in failed
        for entry in verdict["failures"]:
            assert "regressed" in entry["message"]
            assert entry["policy"] == "banded"
        # operation counts are untouched by a price change
        assert not any(m.startswith("op:") for m in failed)

    def test_improvement_beyond_band_passes(self, base_dump, slow_dump):
        # Swapping sides: the "current" run is faster than the baseline.
        verdict = compare_fingerprints(
            fingerprint_from_metrics(slow_dump),
            fingerprint_from_metrics(base_dump))
        assert verdict["status"] == "ok"
        improved = {entry["metric"] for entry in verdict["improvements"]}
        assert "component_busy_seconds:join" in improved

    def test_exact_counter_drift_flagged(self, base_dump):
        baseline = fingerprint_from_metrics(base_dump)
        tampered = copy.deepcopy(baseline)
        tampered["exact"]["op:posting_scan"]["total"] += 1
        verdict = compare_fingerprints(baseline, tampered)
        assert verdict["status"] == "regression"
        (failure,) = [
            f for f in verdict["failures"] if f["metric"] == "op:posting_scan"]
        assert "drifted" in failure["message"]

    def test_metric_appearing_or_disappearing_flagged(self, base_dump):
        baseline = fingerprint_from_metrics(base_dump)
        tampered = copy.deepcopy(baseline)
        del tampered["exact"]["op:posting_scan"]
        tampered["banded"]["brand_new_metric"] = 1.0
        verdict = compare_fingerprints(baseline, tampered)
        messages = [f["message"] for f in verdict["failures"]]
        assert any("disappeared" in m for m in messages)
        assert any("appeared" in m for m in messages)

    def test_label_mismatch_flagged(self, base_dump):
        baseline = fingerprint_from_metrics(base_dump)
        tampered = copy.deepcopy(baseline)
        tampered["labels"]["method"] = "PRE"
        verdict = compare_fingerprints(baseline, tampered)
        assert any(
            f["metric"] == "label:method" for f in verdict["failures"])

    def test_rel_tol_widens_the_band(self, base_dump, slow_dump):
        verdict = compare_fingerprints(
            fingerprint_from_metrics(base_dump),
            fingerprint_from_metrics(slow_dump),
            rel_tol=10.0)
        assert verdict["status"] == "ok"


class TestBenchFingerprint:
    """A suite compares as one fingerprint: the bench config is its
    labels and each method's metric ``m`` is named ``<method>/m``."""

    def test_suite_compare_merges_method_verdicts(self, base_dump, slow_dump):
        config = {"corpus": "AOL", "records": 300}
        baseline = bench_fingerprint({"LEN": base_dump}, config=config)
        same = bench_fingerprint({"LEN": base_dump}, config=config)
        slow = bench_fingerprint({"LEN": slow_dump}, config=config)
        assert compare_fingerprints(baseline, same)["status"] == "ok"
        verdict = compare_fingerprints(baseline, slow)
        assert verdict["status"] == "regression"
        failed = {f["metric"] for f in verdict["failures"]}
        assert "LEN/component_busy_seconds:join" in failed
        assert all(metric.startswith("LEN/") for metric in failed)

    def test_missing_method_and_config_drift_flagged(self, base_dump):
        baseline = bench_fingerprint({"LEN": base_dump}, config={"records": 300})
        other = bench_fingerprint({}, config={"records": 999})
        verdict = compare_fingerprints(baseline, other)
        failures = {f["metric"]: f for f in verdict["failures"]}
        # the missing method's metrics disappear under its name
        assert "disappeared" in failures["LEN/op:posting_scan"]["message"]
        assert "disappeared" in failures["LEN/run_capacity_throughput"]["message"]
        assert failures["label:records"]["baseline"] == 300

    def test_one_counter_drift_names_the_method(self, base_dump):
        two = {"LEN": base_dump, "PRE": base_dump}
        baseline = bench_fingerprint(two, config={"records": 300})
        drifted = copy.deepcopy(baseline)
        drifted["methods"]["LEN"]["exact"]["op:posting_scan"]["total"] += 1
        verdict = compare_fingerprints(baseline, drifted)
        assert verdict["status"] == "regression"
        (failure,) = verdict["failures"]
        assert failure["metric"] == "LEN/op:posting_scan"
        assert failure["policy"] == "exact"
        assert "'LEN/op:posting_scan' drifted" in failure["message"]

    def test_committed_suite_directions(self):
        # every banded name in the committed suite baseline keeps the
        # direction it was gated in before suites were flattened:
        # throughputs higher-better, everything else lower-better
        from repro.obs.baseline import metric_policy

        suite = load_fingerprint(os.path.join(
            REPO_ROOT, "benchmarks", "baselines",
            "aol-3000-v800-w4-d4-s20200420.json",
        ))
        names = {
            name
            for fingerprint in suite["methods"].values()
            for name in fingerprint["banded"]
        }
        assert len(names) == 9
        for name in names:
            expected = (
                "higher_better" if name.endswith("_throughput")
                else "lower_better"
            )
            assert metric_policy(name) == expected, name
            assert metric_policy(f"LEN/{name}") == expected, name

    def test_suite_vs_single_rejected(self, base_dump):
        suite = bench_fingerprint({"LEN": base_dump})
        single = fingerprint_from_metrics(base_dump)
        with pytest.raises(ValueError, match="suite baseline"):
            compare_fingerprints(suite, single)
        with pytest.raises(ValueError, match="suite baseline"):
            compare_fingerprints(single, suite)


class TestFiles:
    def test_round_trip(self, base_dump, tmp_path):
        fingerprint = fingerprint_from_metrics(base_dump)
        path = str(tmp_path / "fp.json")
        write_fingerprint(path, fingerprint)
        assert load_fingerprint(path) == fingerprint

    def test_load_accepts_raw_metrics_dump(self, base_dump, tmp_path):
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(base_dump))
        assert load_fingerprint(str(path)) == fingerprint_from_metrics(base_dump)

    def test_load_rejects_junk(self, tmp_path):
        bad_schema = tmp_path / "bad.json"
        bad_schema.write_text('{"schema": 99, "exact": {}, "banded": {}}')
        with pytest.raises(ValueError, match="unsupported fingerprint schema"):
            load_fingerprint(str(bad_schema))
        not_fp = tmp_path / "not.json"
        not_fp.write_text('{"schema": 1}')
        with pytest.raises(ValueError, match="not a fingerprint"):
            load_fingerprint(str(not_fp))
        array = tmp_path / "arr.json"
        array.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="JSON object"):
            load_fingerprint(str(array))


class TestDiffCli:
    def test_clean_diff_exits_zero(self, base_dump, rerun_dump, tmp_path, capsys):
        from repro.cli import main

        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_fingerprint(a, fingerprint_from_metrics(base_dump))
        write_fingerprint(b, fingerprint_from_metrics(rerun_dump))
        assert main(["diff", a, b]) == 0
        assert "diff: ok" in capsys.readouterr().out

    def test_regression_exits_nonzero_naming_metrics(
            self, base_dump, slow_dump, tmp_path, capsys):
        from repro.cli import main

        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_fingerprint(a, fingerprint_from_metrics(base_dump))
        write_fingerprint(b, fingerprint_from_metrics(slow_dump))
        assert main(["diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "component_busy_seconds:join" in out

    def test_json_verdict_is_machine_readable(
            self, base_dump, slow_dump, tmp_path, capsys):
        from repro.cli import main

        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_fingerprint(a, fingerprint_from_metrics(base_dump))
        write_fingerprint(b, fingerprint_from_metrics(slow_dump))
        assert main(["diff", a, b, "--json"]) == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["status"] == "regression"
        assert verdict["failures"]

    def test_unreadable_input_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        garbage = tmp_path / "g.json"
        garbage.write_text("{[not json")
        assert main(["diff", str(garbage), str(garbage)]) == 2
        assert "diff:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        from repro.cli import main

        assert main(["diff", str(tmp_path / "nope.json"),
                     str(tmp_path / "nope.json")]) == 2


class TestBenchBaselineCli:
    def test_write_then_check_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        baseline = str(tmp_path / "baseline.json")
        common = ["bench", "--corpus", "AOL", "--records", "150",
                  "--workers", "2", "--dispatchers", "1",
                  "--seed", "20200420",
                  "--summary-out", str(tmp_path / "s.json")]
        current = str(tmp_path / "current.json")
        assert main(common + ["--write-baseline", baseline]) == 0
        assert main(common + ["--write-baseline", current]) == 0
        assert main(["diff", baseline, current]) == 0
        assert "diff: ok" in capsys.readouterr().out
        stored = load_fingerprint(baseline)
        assert set(stored["methods"]) == {
            "BRD", "PRE", "LEN-U", "LEN", "LEN+BUN"}
        assert stored["config"]["seed"] == 20200420

    def test_check_against_wrong_config_fails(self, tmp_path, capsys):
        from repro.cli import main

        baseline = str(tmp_path / "baseline.json")
        args = ["bench", "--corpus", "AOL", "--workers", "2",
                "--dispatchers", "1", "--seed", "20200420",
                "--summary-out", str(tmp_path / "s.json")]
        current = str(tmp_path / "current.json")
        assert main(args + ["--records", "150",
                            "--write-baseline", baseline]) == 0
        assert main(args + ["--records", "160",
                            "--write-baseline", current]) == 0
        assert main(["diff", baseline, current]) == 1
        assert "FAIL" in capsys.readouterr().out
