"""Integration: the full distributed topology vs the brute-force oracle,
across every scheme, partitioning, similarity function and window."""

import math

import pytest

from repro.core.config import JoinConfig
from repro.core.join import DistributedStreamJoin
from repro.core.reference import naive_join
from repro.datasets import synthetic_aol, synthetic_dblp, synthetic_tweet
from repro.similarity.functions import get_similarity
from repro.streams.window import SlidingWindow


def pairs_of(report):
    assert report.pairs is not None
    keys = [tuple(sorted((a, b))) for a, b, _ in report.pairs]
    assert len(keys) == len(set(keys)), "duplicate pairs emitted"
    return set(keys)


def run(stream, **config_kwargs):
    config = JoinConfig(collect_pairs=True, **config_kwargs)
    return DistributedStreamJoin(config).run(stream)


STREAMS = {
    "aol": lambda: synthetic_aol(500, seed=21),
    "tweet": lambda: synthetic_tweet(400, seed=21, duplicate_rate=0.3),
    "dblp": lambda: synthetic_dblp(400, seed=21),
}


class TestSchemesMatchOracle:
    @pytest.mark.parametrize("stream_name", list(STREAMS))
    @pytest.mark.parametrize(
        "scheme",
        [
            dict(distribution="length", partitioning="load_aware"),
            dict(distribution="length", partitioning="uniform"),
            dict(distribution="length", partitioning="quantile"),
            dict(distribution="length", use_bundles=True),
            dict(distribution="length", use_bundles=True, batch_verification=False),
            dict(distribution="prefix"),
            dict(distribution="broadcast"),
        ],
        ids=lambda s: "-".join(f"{k}={v}" for k, v in s.items()),
    )
    def test_exact_results(self, stream_name, scheme):
        stream = STREAMS[stream_name]()
        report = run(stream, threshold=0.8, num_workers=5, **scheme)
        oracle = set(naive_join(stream.records(), get_similarity("jaccard", 0.8)))
        assert pairs_of(report) == oracle
        assert report.results == len(oracle)

    @pytest.mark.parametrize("similarity,threshold", [
        ("jaccard", 0.7),
        ("cosine", 0.8),
        ("dice", 0.8),
        ("overlap", 4),
    ])
    def test_similarity_functions_end_to_end(self, similarity, threshold):
        stream = synthetic_tweet(300, seed=8)
        kwargs = {}
        if similarity == "overlap":
            kwargs["use_bundles"] = False
        report = run(
            stream,
            similarity=similarity,
            threshold=threshold,
            num_workers=4,
            **kwargs,
        )
        func = get_similarity(similarity, threshold)
        oracle = set(naive_join(stream.records(), func))
        assert pairs_of(report) == oracle

    @pytest.mark.parametrize("distribution", ["length", "prefix", "broadcast"])
    def test_windowed_runs_match_windowed_oracle(self, distribution):
        stream = synthetic_tweet(400, seed=13, duplicate_rate=0.3)
        window = 0.15  # at rate 1000/s: 150 records
        report = run(
            stream,
            threshold=0.75,
            num_workers=4,
            distribution=distribution,
            window_seconds=window,
        )
        func = get_similarity("jaccard", 0.75)
        oracle = set(naive_join(stream.records(), func, SlidingWindow(window)))
        assert pairs_of(report) == oracle

    def test_single_worker_degenerate(self):
        stream = synthetic_aol(300, seed=2)
        report = run(stream, threshold=0.8, num_workers=1)
        oracle = set(naive_join(stream.records(), get_similarity("jaccard", 0.8)))
        assert pairs_of(report) == oracle

    def test_many_workers_small_stream(self):
        stream = synthetic_aol(200, seed=2)
        report = run(stream, threshold=0.8, num_workers=16)
        oracle = set(naive_join(stream.records(), get_similarity("jaccard", 0.8)))
        assert pairs_of(report) == oracle


class TestReportContents:
    def test_report_metrics_populated(self):
        stream = synthetic_tweet(400, seed=4)
        report = run(stream, threshold=0.8, num_workers=4)
        assert report.method == "LEN"
        assert report.throughput > 0
        assert report.messages_per_record > 1  # at least source + probe
        assert report.bytes_per_record > 0
        assert report.load_balance >= 1.0
        assert report.cluster.latency_p95 >= report.cluster.latency_p50 >= 0
        assert report.candidates >= report.results
        summary = report.summary()
        assert summary["method"] == "LEN" and summary["results"] == report.results

    def test_partition_present_only_for_length_scheme(self):
        stream = synthetic_aol(200, seed=3)
        assert run(stream, distribution="length", num_workers=3).partition is not None
        assert run(stream, distribution="prefix", num_workers=3).partition is None

    def test_pairs_not_collected_by_default(self):
        stream = synthetic_aol(200, seed=3)
        report = DistributedStreamJoin(JoinConfig(num_workers=3)).run(stream)
        assert report.pairs is None
        assert report.results >= 0

    def test_determinism_of_full_runs(self):
        stream = synthetic_tweet(300, seed=6)
        a = run(stream, threshold=0.8, num_workers=4)
        b = run(stream, threshold=0.8, num_workers=4)
        assert pairs_of(a) == pairs_of(b)
        assert a.cluster.makespan == b.cluster.makespan
        assert a.cluster.messages == b.cluster.messages

    def test_prefix_replication_visible_in_messages(self):
        """PRE must ship more copies than LEN on long-record data."""
        from repro.datasets import synthetic_enron

        stream = synthetic_enron(300, seed=5)
        pre = run(stream, distribution="prefix", threshold=0.8, num_workers=8)
        length = run(stream, distribution="length", threshold=0.8, num_workers=8)
        assert pre.messages_per_record > length.messages_per_record
        assert pairs_of(pre) == pairs_of(length)


class TestConfigValidation:
    def test_rejects_unknown_values(self):
        with pytest.raises(ValueError, match="similarity"):
            JoinConfig(similarity="hamming")
        with pytest.raises(ValueError, match="distribution"):
            JoinConfig(distribution="token")
        with pytest.raises(ValueError, match="partitioning"):
            JoinConfig(partitioning="hash")
        with pytest.raises(ValueError, match="num_workers"):
            JoinConfig(num_workers=0)
        with pytest.raises(ValueError, match="window_seconds"):
            JoinConfig(window_seconds=0)
        with pytest.raises(ValueError, match="window_seconds"):
            JoinConfig(window_seconds=float("nan"))
        for threshold in (0, 1.5):
            with pytest.raises(ValueError, match="threshold must be in"):
                JoinConfig(threshold=threshold)
        with pytest.raises(ValueError, match="positive integer"):
            JoinConfig(similarity="overlap", threshold=0.8)

    def test_bundles_require_length_scheme(self):
        with pytest.raises(ValueError, match="bundles require"):
            JoinConfig(distribution="prefix", use_bundles=True)

    def test_method_labels(self):
        assert JoinConfig(distribution="prefix").method_label == "PRE"
        assert JoinConfig(distribution="broadcast").method_label == "BRD"
        assert JoinConfig(partitioning="uniform").method_label == "LEN-U"
        assert JoinConfig(partitioning="quantile").method_label == "LEN-Q"
        assert JoinConfig().method_label == "LEN"
        assert JoinConfig(use_bundles=True).method_label == "LEN+BUN"
        assert (
            JoinConfig(use_bundles=True, batch_verification=False).method_label
            == "LEN+BUN/ind"
        )

    def test_replace(self):
        base = JoinConfig(threshold=0.8)
        changed = base.replace(threshold=0.9, num_workers=2)
        assert changed.threshold == 0.9 and changed.num_workers == 2
        assert base.threshold == 0.8
