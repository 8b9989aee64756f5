"""Cross-cutting integration properties tying the layers together."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import JoinConfig
from repro.core.join import DistributedStreamJoin
from repro.core.local_join import StreamingSetJoin
from repro.core.reference import naive_join
from repro.datasets import synthetic_tweet
from repro.parallel import run_serial
from repro.records import Record
from repro.similarity.functions import Jaccard, get_similarity
from repro.streams.arrival import ConstantRate
from repro.streams.stream import RecordStream
from repro.streams.window import SlidingWindow


def match_pairs(result):
    """The order-independent pair set of a run's match rows."""
    return {(a, b) if a < b else (b, a) for _ts, a, b, *_ in result.matches}


def canonical(values):
    return tuple(sorted(set(values)))


corpora = st.lists(
    st.lists(st.integers(0, 25), min_size=0, max_size=10).map(canonical),
    max_size=60,
)


class TestOfflineEqualsStreaming:
    """The brute-force oracle and the streaming engine compute the same
    join (on an unbounded window) — no index against an index, one
    answer."""

    @given(corpus=corpora, threshold=st.sampled_from([0.5, 0.7, 0.9]))
    @settings(max_examples=60, deadline=None)
    def test_same_pairs(self, corpus, threshold):
        func = Jaccard(threshold)
        records = [Record(i, tokens, float(i)) for i, tokens in enumerate(corpus)]
        expected = set(naive_join(records, func))

        engine = StreamingSetJoin(func)
        streaming = set()
        for record in records:
            if not record.tokens:
                continue
            for match in engine.probe_and_insert(record):
                a, b = sorted((record.rid, match.partner.rid))
                streaming.add((a, b))
        assert expected == streaming


class TestSchemesAgreePairwise:
    """All distribution schemes compute identical result sets on the
    same stream — pinned directly (not just through the oracle)."""

    @given(
        corpus=corpora,
        threshold=st.sampled_from([0.6, 0.8]),
        workers=st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_pairwise_identical(self, corpus, threshold, workers):
        stream = RecordStream(corpus, ConstantRate(100.0))
        results = {}
        for distribution in ("length", "prefix", "broadcast"):
            config = JoinConfig(
                threshold=threshold,
                num_workers=workers,
                distribution=distribution,
                collect_pairs=True,
            )
            report = DistributedStreamJoin(config).run(stream)
            results[distribution] = {
                tuple(sorted((a, b))) for a, b, _ in report.pairs
            }
        assert results["length"] == results["prefix"] == results["broadcast"]


class TestParallelDispatchInvariance:
    """Dispatcher parallelism is an execution detail: results, result
    counts and per-method candidate totals must not depend on it."""

    @pytest.mark.parametrize("distribution", ["length", "prefix"])
    def test_results_invariant_in_d(self, distribution):
        stream = synthetic_tweet(600, seed=31, duplicate_rate=0.3)
        reference = None
        for d in (1, 2, 5):
            config = JoinConfig(
                threshold=0.8,
                num_workers=4,
                distribution=distribution,
                dispatcher_parallelism=d,
                collect_pairs=True,
            )
            report = DistributedStreamJoin(config).run(stream)
            pairs = {tuple(sorted((a, b))) for a, b, _ in report.pairs}
            if reference is None:
                reference = pairs
            assert pairs == reference

    def test_watermark_interval_invariant(self):
        stream = synthetic_tweet(500, seed=32)
        reference = None
        for interval in (1, 7, 64):
            config = JoinConfig(
                threshold=0.8,
                num_workers=4,
                dispatcher_parallelism=3,
                watermark_interval=interval,
                collect_pairs=True,
            )
            report = DistributedStreamJoin(config).run(stream)
            pairs = {tuple(sorted((a, b))) for a, b, _ in report.pairs}
            if reference is None:
                reference = pairs
            assert pairs == reference


class TestSimilarityContainment:
    """cos >= dice >= jaccard pointwise ⇒ result containment at equal θ,
    end to end through the distributed system."""

    def test_containment(self):
        stream = synthetic_tweet(400, seed=33, duplicate_rate=0.3)
        sets = {}
        for name in ("jaccard", "dice", "cosine"):
            config = JoinConfig(
                similarity=name, threshold=0.8, num_workers=3, collect_pairs=True
            )
            report = DistributedStreamJoin(config).run(stream)
            sets[name] = {tuple(sorted((a, b))) for a, b, _ in report.pairs}
        assert sets["jaccard"] <= sets["dice"] <= sets["cosine"]


class TestThresholdMonotonicity:
    """Raising θ can only shrink the result set."""

    @given(corpus=corpora)
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, corpus):
        records = [
            Record(i, tokens, float(i)) for i, tokens in enumerate(corpus)
        ]
        previous = None
        for threshold in (0.9, 0.7, 0.5):
            current = set(naive_join(records, Jaccard(threshold)))
            if previous is not None:
                assert previous <= current
            previous = current


class TestLateArrivals:
    """ROADMAP 6(i): a late arrival can be silently lost. ``s`` opens
    a 10 s window, ``q`` (t=20) expires it, then ``r`` arrives late at
    t=5 — inside ``s``'s window, Jaccard 9/11 with it — and only
    ``naive_join`` reports (0, 2): the single engine misses it under
    both expiry modes, and the sharded runs' answer depends on scheme ×
    shards (prefix at 2 shards with lazy expiry reports it)."""

    RECORDS = [
        Record(0, tuple(range(1, 11)), 0.0),
        Record(1, (1,) + tuple(range(100, 109)), 20.0),
        Record(2, tuple(range(1, 10)) + (11,), 5.0),
    ]

    @pytest.mark.xfail(strict=True, reason="ROADMAP 6(i)")
    def test_every_cell_equals_naive_join(self):
        func = Jaccard(0.8)
        expected = set(naive_join(self.RECORDS, func, SlidingWindow(10.0)))
        assert expected == {(0, 2)}
        got = {}
        for expiry in ("lazy", "eager"):
            engine = StreamingSetJoin(
                func, window=SlidingWindow(10.0), expiry=expiry
            )
            got[("single", 1, expiry)] = {
                tuple(sorted((record.rid, match.partner.rid)))
                for record in self.RECORDS
                for match in engine.probe_and_insert(record)
            }
            for scheme in ("length", "prefix", "broadcast"):
                for shards in (1, 2, 4):
                    config = JoinConfig(
                        threshold=0.8, window_seconds=10.0, expiry=expiry,
                        distribution=scheme, num_workers=shards,
                        collect_pairs=True,
                    )
                    got[(scheme, shards, expiry)] = match_pairs(
                        run_serial(config, self.RECORDS)
                    )
        wrong = {cell: pairs for cell, pairs in got.items() if pairs != expected}
        assert wrong == {}
