"""Batch verification exactness and prefix-scheme deduplication."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bundle import Bundle, BundleMember
from repro.core.reference import PrefixDedupFilter, min_common_prefix_token
from repro.core.metering import WorkMeter
from repro.core.verify import (
    batch_verify_members,
    diff_against,
    individually_verify_members,
)
from repro.records import Record
from repro.routing.prefix_router import token_owner
from repro.similarity.functions import Jaccard
from repro.streams.window import SlidingWindow


def canonical(values):
    return tuple(sorted(set(values)))


token_sets = st.lists(st.integers(0, 35), min_size=1, max_size=15).map(canonical)


def build_bundle(rep, member_token_sets, start_time=0.0):
    bundle = Bundle(bid=0, rep=rep)
    for i, tokens in enumerate(member_token_sets):
        dplus, dminus, _, _ = diff_against(rep, tokens)
        bundle.add(
            BundleMember(
                Record(rid=i, tokens=tokens, timestamp=start_time + i), dplus, dminus
            )
        )
    return bundle


class TestBatchVerification:
    @given(
        probe=token_sets,
        rep=token_sets,
        members=st.lists(token_sets, min_size=1, max_size=6),
        threshold=st.sampled_from([0.5, 0.7, 0.85]),
    )
    @settings(max_examples=200, deadline=None)
    def test_batch_equals_individual(self, probe, rep, members, threshold):
        """Diff-corrected overlaps must equal direct merges, member by
        member (bundle_threshold=0 disables the triangle prefilter so
        arbitrary member sets are fair game)."""
        func = Jaccard(threshold)
        window = SlidingWindow()
        bundle = build_bundle(rep, members)
        record = Record(rid=99, tokens=probe, timestamp=100.0)
        lo, hi = func.length_bounds(len(probe))
        got_batch = batch_verify_members(
            record, bundle, func, window, WorkMeter(), lo, hi
        )
        got_individual = individually_verify_members(
            record, bundle, func, window, WorkMeter(), lo, hi
        )
        as_set = lambda results: {
            (m.partner.rid, m.overlap, round(m.similarity, 9)) for m in results
        }
        assert as_set(got_batch) == as_set(got_individual)

    def test_window_excludes_dead_members(self):
        func = Jaccard(0.5)
        window = SlidingWindow(5.0)
        bundle = build_bundle((1, 2, 3), [(1, 2, 3), (1, 2, 3)], start_time=0.0)
        probe = Record(rid=9, tokens=(1, 2, 3), timestamp=5.5)
        results = batch_verify_members(
            probe, bundle, func, window, WorkMeter(), 1, 10
        )
        # member 0 at t=0 is dead at t=5.5; member 1 at t=1 is alive
        assert [m.partner.rid for m in results] == [1]

    def test_triangle_prefilter_never_loses_results(self):
        """With the prefilter active (β high), results must still match
        the individual verifier whenever members satisfy the bundle
        invariant sim(member, rep) >= β — the invariant the index
        actually maintains."""
        func = Jaccard(0.8)
        beta = 0.9
        window = SlidingWindow()
        rep = tuple(range(20))
        # members within β of the rep
        members = [rep, tuple(range(1, 20)), tuple(sorted(set(rep) - {3} | {50}))]
        members = [
            m
            for m in members
            if func.similarity_from_overlap(
                len(rep), len(m), len(set(rep) & set(m))
            )
            >= beta
        ]
        assert members
        bundle = build_bundle(rep, members)
        probe = Record(rid=77, tokens=tuple(range(2, 20)), timestamp=100.0)
        lo, hi = func.length_bounds(probe.size)
        with_filter = batch_verify_members(
            probe, bundle, func, window, WorkMeter(), lo, hi, bundle_threshold=beta
        )
        without = individually_verify_members(
            probe, bundle, func, window, WorkMeter(), lo, hi
        )
        assert {m.partner.rid for m in with_filter} == {m.partner.rid for m in without}

    def test_prefilter_prunes_distant_bundles_cheaply(self):
        func = Jaccard(0.8)
        window = SlidingWindow()
        rep = tuple(range(100, 120))
        bundle = build_bundle(rep, [rep, rep, rep])
        probe = Record(rid=5, tokens=tuple(range(20)), timestamp=10.0)
        meter = WorkMeter()
        results = batch_verify_members(
            probe, bundle, func, window, meter, 1, 1000, bundle_threshold=0.9
        )
        assert results == []
        assert meter.count("bundle_prefilter_prunes") == 1
        # early termination: far fewer comparisons than the full merge
        assert meter.operation("token_compare") < 20


class TestDedup:
    def test_min_common_prefix_token(self):
        func = Jaccard(0.5)
        r = Record(0, (1, 3, 5, 7, 9, 11), 0.0)
        s = Record(1, (2, 3, 5, 8, 10, 12), 1.0)
        token, comparisons = min_common_prefix_token(r, s, func)
        assert token == 3
        assert comparisons >= 1

    def test_no_common_prefix_token(self):
        func = Jaccard(0.9)  # prefix length 1 for size-6 records
        r = Record(0, (1, 3, 5, 7, 9, 11), 0.0)
        s = Record(1, (2, 3, 5, 8, 10, 12), 1.0)
        token, _ = min_common_prefix_token(r, s, func)
        assert token is None

    @pytest.mark.parametrize("num_workers", [1, 2, 4, 7])
    def test_exactly_one_worker_reports(self, num_workers):
        func = Jaccard(0.5)
        r = Record(0, (1, 2, 3, 4, 5, 6), 0.0)
        s = Record(1, (2, 3, 4, 5, 6, 7), 1.0)
        reporters = [
            w
            for w in range(num_workers)
            if PrefixDedupFilter(w, num_workers, func, WorkMeter())(r, s)
        ]
        token, _ = min_common_prefix_token(r, s, func)
        assert reporters == [token_owner(token, num_workers)]

    def test_filter_charges_meter(self):
        meter = WorkMeter()
        func = Jaccard(0.5)
        filt = PrefixDedupFilter(0, 2, func, meter)
        filt(Record(0, (1, 2, 3), 0.0), Record(1, (2, 3, 4), 1.0))
        assert meter.operation("token_compare") > 0
