"""Tests for length statistics, the cost estimator and partitioners."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.cost import JoinCostEstimator
from repro.partition.length_partition import (
    LengthPartition,
    load_aware_partition,
    optimal_partition_dp,
    quantile_partition,
    uniform_partition,
)
from repro.partition.stats import LengthHistogram
from repro.similarity.functions import Jaccard


def make_estimator(lengths, threshold=0.8, vocab=1000):
    histogram = LengthHistogram.from_lengths(lengths)
    return JoinCostEstimator(histogram, Jaccard(threshold), vocabulary_size=vocab)


class TestLengthHistogram:
    def test_counts(self):
        h = LengthHistogram.from_lengths([3, 3, 5, 9])
        assert h.count(3) == 2
        assert h.count(4) == 0
        assert h.total == 4
        assert (h.min_length, h.max_length) == (3, 9)

    def test_count_range(self):
        h = LengthHistogram.from_lengths([1, 2, 2, 5, 9])
        assert h.count_range(1, 2) == 3
        assert h.count_range(3, 4) == 0
        assert h.count_range(5, 9) == 2
        assert h.count_range(9, 5) == 0
        assert h.count_range(1, 100) == 5

    def test_observe_after_query(self):
        h = LengthHistogram.from_lengths([2])
        assert h.count_range(1, 5) == 1
        h.observe(4, count=3)
        assert h.count_range(1, 5) == 4  # prefix sums rebuilt

    def test_dense(self):
        h = LengthHistogram.from_lengths([1, 3, 3])
        assert h.as_dense() == [1, 0, 2]

    def test_validation(self):
        h = LengthHistogram()
        with pytest.raises(ValueError):
            h.observe(0)
        with pytest.raises(ValueError):
            h.observe(2, count=-1)

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_range_queries_match_bruteforce(self, lengths):
        h = LengthHistogram.from_lengths(lengths)
        for lo in (1, 5, 17):
            for hi in (3, 20, 40):
                expected = sum(1 for l in lengths if lo <= l <= hi)
                assert h.count_range(lo, hi) == expected


class TestLengthPartition:
    def test_owner_lookup(self):
        p = LengthPartition(((1, 3), (4, 10), (11, 20)))
        assert p.owner_of(1) == 0
        assert p.owner_of(3) == 0
        assert p.owner_of(4) == 1
        assert p.owner_of(20) == 2
        # clamping outside the covered span
        assert p.owner_of(0) == 0
        assert p.owner_of(999) == 2

    def test_owners_of_range(self):
        p = LengthPartition(((1, 3), (4, 10), (11, 20)))
        assert p.owners_of_range(2, 5) == (0, 1)
        assert p.owners_of_range(4, 4) == (1,)
        assert p.owners_of_range(0, 999) == (0, 1, 2)
        assert p.owners_of_range(5, 4) == ()

    def test_validation(self):
        with pytest.raises(ValueError, match="contiguous"):
            LengthPartition(((1, 3), (5, 9)))  # gap
        with pytest.raises(ValueError, match="contiguous"):
            LengthPartition(((1, 3), (3, 9)))  # overlap
        with pytest.raises(ValueError, match="empty range"):
            LengthPartition(((3, 1),))
        with pytest.raises(ValueError):
            LengthPartition(())


class TestUniformAndQuantile:
    def test_uniform_covers_domain(self):
        p = uniform_partition(1, 20, 4)
        assert p.num_workers == 4
        assert p.ranges[0][0] == 1
        assert p.ranges[-1][1] == 20
        total = sum(hi - lo + 1 for lo, hi in p.ranges)
        assert total == 20

    def test_uniform_small_domain(self):
        p = uniform_partition(5, 6, 8)
        assert p.num_workers == 2  # cannot split 2 lengths 8 ways

    def test_quantile_balances_counts(self):
        lengths = [1] * 90 + [2] * 5 + [3] * 5
        h = LengthHistogram.from_lengths(lengths)
        p = quantile_partition(h, 2)
        # the heavy length must sit alone in the first part
        assert p.ranges[0] == (1, 1)

    def test_quantile_covers_domain(self):
        h = LengthHistogram.from_lengths([2, 5, 5, 9, 14])
        p = quantile_partition(h, 3)
        assert p.ranges[0][0] == 2
        assert p.ranges[-1][1] == 14


class TestCostEstimator:
    def test_zero_outside_domain(self):
        est = make_estimator([5, 5, 8])
        assert est.cost(9, 20) == 0.0
        assert est.cost(4, 3) == 0.0

    def test_monotone_in_right_endpoint(self):
        est = make_estimator(list(range(1, 40)) * 3)
        costs = [est.cost(1, b) for b in range(1, 40)]
        assert costs == sorted(costs)

    def test_monotone_in_left_extension(self):
        est = make_estimator(list(range(1, 40)) * 3)
        assert est.cost(5, 30) <= est.cost(4, 30) + 1e-9

    def test_total_cost_upper_bounds_parts(self):
        est = make_estimator([3, 3, 7, 9, 9, 9, 20, 21])
        assert est.cost(1, 10) <= est.total_cost() + 1e-9

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            JoinCostEstimator(LengthHistogram(), Jaccard(0.8))

    def test_probe_sources_contiguity(self):
        est = make_estimator(list(range(1, 30)))
        low, high = est._probe_sources(10, 12)
        # Jaccard 0.8: probes reach [10,12] iff ceil(.8 l) <= 12 and
        # floor(l/.8) >= 10 — i.e. l in [8, 15].
        assert (low, high) == (8, 15)


class TestLoadAwarePartition:
    def test_covers_domain_and_k_parts(self):
        est = make_estimator([2] * 50 + [3] * 5 + list(range(4, 30)))
        p = load_aware_partition(est, 4)
        assert p.num_workers == 4
        assert p.ranges[0][0] == 1
        assert p.ranges[-1][1] == est.max_length

    def test_never_worse_than_uniform(self):
        lengths = [2] * 200 + [10] * 20 + list(range(20, 40)) * 2
        est = make_estimator(lengths)
        aware = load_aware_partition(est, 4)
        uniform = uniform_partition(1, est.max_length, 4)
        max_aware = max(est.cost(lo, hi) for lo, hi in aware.ranges)
        max_uniform = max(est.cost(lo, hi) for lo, hi in uniform.ranges)
        assert max_aware <= max_uniform + 1e-6

    def test_matches_exact_dp_bottleneck(self):
        """Binary search + greedy must achieve the DP-optimal bottleneck."""
        lengths = [1] * 30 + [2] * 5 + [3] * 40 + [5] * 10 + [8] * 3 + [13] * 7
        est = make_estimator(lengths, threshold=0.7, vocab=50)
        for k in (1, 2, 3, 5):
            p = load_aware_partition(est, k)
            achieved = max(est.cost(lo, hi) for lo, hi in p.ranges)
            optimal = optimal_partition_dp(est, k)
            assert achieved <= optimal * (1 + 1e-4)

    def test_single_worker(self):
        est = make_estimator([3, 5, 9])
        p = load_aware_partition(est, 1)
        assert p.ranges == ((1, 9),)

    @given(
        sample=st.lists(
            st.lists(st.integers(0, 60), max_size=30, unique=True).map(
                lambda tokens: tuple(sorted(tokens))
            ),
            max_size=80,
        ),
        threshold=st.sampled_from([0.5, 0.8, 0.95]),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_shard_plan_builds_no_cost_model(self, sample, threshold):
        """At one shard the planner returns what load_aware_partition
        would — one range from length 1 to the longest sampled record —
        without building the estimator it would search."""
        from unittest import mock

        from repro.core.config import JoinConfig
        from repro.routing import plan

        func = Jaccard(threshold)
        config = JoinConfig(threshold=threshold, num_workers=1)
        with mock.patch.object(plan, "JoinCostEstimator",
                               side_effect=AssertionError("built")):
            router, partition = plan.plan_routing(config, func, sample)
        lengths = [len(tokens) for tokens in sample if tokens] or [1]
        vocabulary = {token for tokens in sample for token in tokens}
        estimator = JoinCostEstimator(
            LengthHistogram.from_lengths(lengths), func,
            vocabulary_size=max(1, len(vocabulary)),
        )
        assert partition == load_aware_partition(estimator, 1)
        assert router.num_workers == 1

    def test_k_larger_than_domain(self):
        est = make_estimator([1, 2, 3])
        p = load_aware_partition(est, 10)
        assert p.num_workers == 3  # one length each

    @given(
        lengths=st.lists(st.integers(1, 25), min_size=1, max_size=150),
        k=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_always_valid(self, lengths, k):
        est = make_estimator(lengths)
        p = load_aware_partition(est, k)
        # contiguous cover of [1, max_length]
        assert p.ranges[0][0] == 1
        assert p.ranges[-1][1] == est.max_length
        for (_, hi), (lo, _) in zip(p.ranges, p.ranges[1:]):
            assert lo == hi + 1
        assert p.num_workers <= k
