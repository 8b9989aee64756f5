"""Two-stream (R–S) join: the per-worker engine under the cross-source
filter, stream merging and the distributed round trip."""

import random

import pytest

from repro.core.config import JoinConfig
from repro.core.metering import WorkMeter
from repro.core.shard_engine import build_shard_engine
from repro.core.two_stream import (
    LEFT,
    RIGHT,
    DistributedTwoStreamJoin,
    cross_source_filter,
    merge_streams,
)
from repro.records import Record
from repro.similarity.functions import Jaccard
from repro.streams.arrival import ConstantRate
from repro.streams.stream import RecordStream
from repro.streams.window import SlidingWindow


def random_corpus(rng, n, universe=30, max_len=10):
    return [
        tuple(sorted({rng.randrange(universe) for _ in range(rng.randint(1, max_len))}))
        for _ in range(n)
    ]


def brute_cross(left_records, right_records, func, window=None):
    window = window if window is not None else SlidingWindow()
    results = {}
    for r in left_records:
        for s in right_records:
            if not r.tokens or not s.tokens or not window.qualifies(r, s):
                continue
            similarity = func.similarity(r.tokens, s.tokens)
            if similarity >= func.threshold - 1e-12:
                results[(r.rid, s.rid)] = similarity
    return results


def cross_engine(threshold):
    """The engine an R–S join runs on one shard: the ordinary engine,
    one index over both streams, with the cross-source pair filter."""
    config = JoinConfig(threshold=threshold, cross_source_only=True)
    return build_shard_engine(config, Jaccard(threshold), 0, 1, WorkMeter())


class TestLocalEngine:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_cross_oracle(self, seed):
        rng = random.Random(seed)
        func = Jaccard(0.6)
        left = [
            Record(i, tokens, timestamp=i * 2.0, source=LEFT)
            for i, tokens in enumerate(random_corpus(rng, 70))
        ]
        right = [
            Record(1000 + i, tokens, timestamp=i * 2.0 + 1.0, source=RIGHT)
            for i, tokens in enumerate(random_corpus(rng, 70))
        ]
        interleaved = sorted(left + right, key=lambda r: r.timestamp)

        engine = cross_engine(0.6)
        found = {}
        for record in interleaved:
            for match in engine.probe_and_insert(record):
                l, r = (
                    (record, match.partner)
                    if record.source == LEFT
                    else (match.partner, record)
                )
                key = (l.rid, r.rid)
                assert key not in found, "cross pair reported twice"
                found[key] = match.similarity
        oracle = brute_cross(left, right, func)
        assert set(found) == set(oracle)

    def test_same_stream_pairs_never_reported(self):
        engine = cross_engine(0.5)
        assert engine.probe_and_insert(Record(0, (1, 2, 3), 0.0, LEFT)) == []
        assert engine.probe_and_insert(Record(1, (1, 2, 3), 1.0, LEFT)) == []
        matches = engine.probe_and_insert(Record(2, (1, 2, 3), 2.0, RIGHT))
        assert sorted(m.partner.rid for m in matches) == [0, 1]


class TestMergeStreams:
    def test_merge_preserves_order_and_provenance(self):
        left = RecordStream([(1, 2), (3, 4)], ConstantRate(1.0), name="L")
        right = RecordStream([(5, 6)], ConstantRate(2.0), name="R")
        merged, provenance = merge_streams(left, right)
        records = merged.records()
        timestamps = [r.timestamp for r in records]
        assert timestamps == sorted(timestamps)
        assert [r.rid for r in records] == [0, 1, 2]
        assert sorted(provenance.values()) == [("L", 0), ("L", 1), ("R", 0)]
        sides = {provenance[r.rid][0] for r in records}
        assert sides == {"L", "R"}
        for r in records:
            assert r.source == provenance[r.rid][0]

    def test_cross_source_filter(self):
        a = Record(0, (1,), 0.0, source="L")
        b = Record(1, (1,), 1.0, source="R")
        c = Record(2, (1,), 2.0, source="L")
        assert cross_source_filter(a, b)
        assert not cross_source_filter(a, c)


class TestDistributed:
    @pytest.mark.parametrize("distribution", ["length", "prefix", "broadcast"])
    @pytest.mark.parametrize("dispatchers", [1, 3])
    def test_matches_cross_oracle(self, distribution, dispatchers):
        rng = random.Random(9)
        func = Jaccard(0.6)
        left = RecordStream(random_corpus(rng, 120), ConstantRate(10.0), name="L")
        right = RecordStream(random_corpus(rng, 100), ConstantRate(9.0), name="R")
        config = JoinConfig(
            threshold=0.6,
            num_workers=4,
            distribution=distribution,
            collect_pairs=True,
            dispatcher_parallelism=dispatchers,
        )
        report, pairs = DistributedTwoStreamJoin(config).run(left, right)
        got = {((sa, ra), (sb, rb)) for (sa, ra), (sb, rb), _ in pairs}
        assert len(got) == len(pairs), "duplicate cross pairs"

        oracle = brute_cross(
            [r for r in left.records()],
            [Record(r.rid, r.tokens, r.timestamp, "R") for r in right.records()],
            func,
        )
        expected = {(("L", a), ("R", b)) for (a, b) in oracle}
        assert got == expected
        assert report.results == len(expected)

    def test_config_forced_cross_only(self):
        join = DistributedTwoStreamJoin(JoinConfig(num_workers=2))
        assert join.config.cross_source_only

    def test_cross_only_with_bundles_rejected(self):
        with pytest.raises(ValueError, match="cross_source_only"):
            JoinConfig(use_bundles=True, cross_source_only=True)
