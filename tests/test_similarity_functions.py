"""Unit + property tests for similarity functions and their bounds."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity.functions import (
    Cosine,
    Dice,
    Jaccard,
    Overlap,
    get_similarity,
)

FUNCS = [Jaccard, Cosine, Dice]


def canonical(values):
    return tuple(sorted(set(values)))


token_sets = st.lists(st.integers(0, 60), min_size=0, max_size=30).map(canonical)
thresholds = st.sampled_from([0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0])


class TestExactValues:
    def test_jaccard_known_values(self):
        f = Jaccard(0.5)
        assert f.similarity((1, 2, 3), (2, 3, 4)) == pytest.approx(2 / 4)
        assert f.similarity((1, 2), (1, 2)) == 1.0
        assert f.similarity((1,), (2,)) == 0.0
        assert f.similarity((), ()) == 1.0

    def test_cosine_known_values(self):
        f = Cosine(0.5)
        assert f.similarity((1, 2, 3, 4), (3, 4, 5, 6)) == pytest.approx(2 / 4)
        assert f.similarity((1, 2), ()) == 0.0
        assert f.similarity((), ()) == 1.0

    def test_dice_known_values(self):
        f = Dice(0.5)
        assert f.similarity((1, 2, 3), (2, 3, 4)) == pytest.approx(4 / 6)
        assert f.similarity((), ()) == 1.0

    def test_overlap_counts(self):
        f = Overlap(2)
        assert f.similarity((1, 2, 3), (2, 3, 4)) == 2.0
        assert f.matches((1, 2, 3), (2, 3, 4))
        assert not f.matches((1, 2, 3), (3, 4, 5))

    def test_min_overlap_jaccard_formula(self):
        f = Jaccard(0.8)
        # o/(10+10-o) >= 0.8  =>  o >= 8.888…  =>  9
        assert f.min_overlap(10, 10) == 9

    def test_length_bounds_jaccard(self):
        assert Jaccard(0.8).length_bounds(10) == (8, 12)
        assert Jaccard(0.5).length_bounds(10) == (5, 20)

    def test_prefix_length_jaccard(self):
        # probe prefix = l - ceil(θ l) + 1
        assert Jaccard(0.8).probe_prefix_length(10) == 3
        assert Jaccard(0.8).probe_prefix_length(1) == 1

    def test_prefix_length_never_exceeds_size(self):
        for f in (Jaccard(0.5), Cosine(0.5), Dice(0.5)):
            for l in range(1, 50):
                assert 1 <= f.probe_prefix_length(l) <= l


class TestValidation:
    @pytest.mark.parametrize("cls", FUNCS)
    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_rejects_bad_threshold(self, cls, bad):
        with pytest.raises(ValueError):
            cls(bad)

    def test_overlap_rejects_fractional_threshold(self):
        with pytest.raises(ValueError):
            Overlap(0.5)
        with pytest.raises(ValueError):
            Overlap(2.5)

    def test_registry(self):
        assert isinstance(get_similarity("jaccard", 0.8), Jaccard)
        assert isinstance(get_similarity("COSINE", 0.8), Cosine)
        with pytest.raises(ValueError, match="unknown similarity"):
            get_similarity("levenshtein", 0.8)

    def test_equality_and_hash(self):
        assert Jaccard(0.8) == Jaccard(0.8)
        assert Jaccard(0.8) != Jaccard(0.9)
        assert Jaccard(0.8) != Dice(0.8)
        assert len({Jaccard(0.8), Jaccard(0.8), Dice(0.8)}) == 2


class TestMemoization:
    """The bound methods are wrapped per-instance in unbounded caches."""

    MEMOIZED = ("min_overlap", "length_bounds", "probe_prefix_length",
                "index_prefix_length", "similarity_from_overlap",
                "required_row")

    @pytest.mark.parametrize("cls", FUNCS + [Overlap])
    def test_bound_methods_carry_caches(self, cls):
        f = cls(3 if cls is Overlap else 0.8)
        for name in self.MEMOIZED:
            info = getattr(f, name).cache_info()
            assert info.maxsize is None, f"{name} cache is bounded"

    def test_caches_are_per_instance(self):
        a, b = Jaccard(0.8), Jaccard(0.8)
        a.min_overlap(10, 10)
        assert a.min_overlap.cache_info().currsize == 1
        assert b.min_overlap.cache_info().currsize == 0

    def test_memoized_values_match_uncached_math(self):
        f = Jaccard(0.8)
        for lr, ls in [(5, 5), (10, 8), (12, 12), (10, 8)]:
            assert f.min_overlap(lr, ls) == Jaccard.min_overlap(f, lr, ls)
        for lr, ls, o in [(10, 10, 9), (8, 10, 8), (10, 10, 9)]:
            assert f.similarity_from_overlap(lr, ls, o) == pytest.approx(
                Jaccard.similarity_from_overlap(f, lr, ls, o)
            )
        hits = f.min_overlap.cache_info().hits
        assert hits >= 1  # the repeated (10, 8) pair hit the cache


class TestBoundExactness:
    """The filters must be safe (never prune a qualifying pair) and the
    min-overlap bound must exactly characterize the threshold."""

    @pytest.mark.parametrize("cls", FUNCS)
    @given(r=token_sets, s=token_sets, threshold=thresholds)
    @settings(max_examples=300, deadline=None)
    def test_min_overlap_characterizes_threshold(self, cls, r, s, threshold):
        if not r or not s:
            return
        func = cls(threshold)
        overlap = len(set(r) & set(s))
        qualifies = func.similarity(r, s) >= threshold - 1e-12
        assert qualifies == (overlap >= func.min_overlap(len(r), len(s)))

    @pytest.mark.parametrize("cls", FUNCS)
    @given(r=token_sets, s=token_sets, threshold=thresholds)
    @settings(max_examples=300, deadline=None)
    def test_length_filter_is_safe(self, cls, r, s, threshold):
        if not r or not s:
            return
        func = cls(threshold)
        if func.similarity(r, s) >= threshold - 1e-12:
            lo, hi = func.length_bounds(len(r))
            assert lo <= len(s) <= hi

    @pytest.mark.parametrize("cls", FUNCS)
    @given(r=token_sets, s=token_sets, threshold=thresholds)
    @settings(max_examples=300, deadline=None)
    def test_prefix_filter_is_safe(self, cls, r, s, threshold):
        """Qualifying pairs share a token inside both prefixes."""
        if not r or not s:
            return
        func = cls(threshold)
        if func.similarity(r, s) < threshold - 1e-12:
            return
        pr = func.probe_prefix_length(len(r))
        ps = func.index_prefix_length(len(s))
        assert set(r[:pr]) & set(s[:ps]), (
            f"qualifying pair shares no prefix token: {r[:pr]} vs {s[:ps]}"
        )

    @pytest.mark.parametrize("cls", FUNCS)
    @given(data=st.data(), threshold=thresholds)
    @settings(max_examples=200, deadline=None)
    def test_similarity_from_overlap_consistent(self, cls, data, threshold):
        r = data.draw(token_sets)
        s = data.draw(token_sets)
        func = cls(threshold)
        o = len(set(r) & set(s))
        assert func.similarity(r, s) == pytest.approx(
            func.similarity_from_overlap(len(r), len(s), o)
        )

    @pytest.mark.parametrize("cls", FUNCS)
    def test_min_overlap_monotone_in_partner_length(self, cls):
        """probe_prefix_length assumes min_overlap is non-decreasing in
        ls; certify it across the realistic domain."""
        for threshold in (0.5, 0.7, 0.8, 0.9, 0.95):
            func = cls(threshold)
            for lr in (1, 5, 17, 64, 200):
                values = [func.min_overlap(lr, ls) for ls in range(1, 400)]
                assert values == sorted(values)

    def test_overlap_length_bounds(self):
        f = Overlap(3)
        lo, hi = f.length_bounds(10)
        assert lo == 3
        assert hi >= 10**6  # effectively unbounded


def bound(func, lr, ls):
    """The overlap a probe of size ``lr`` requires of a partner of size
    ``ls`` as the columnar engine reads it: its row, padded past
    ``lmax`` with the unreachable ``lr + 1``."""
    _, hi = func.length_bounds(lr)
    return func.required_row(lr)[ls] if ls <= hi else lr + 1


def strict_rejects(func, lr, ls, i, j):
    """The unfiltered engine's position filter, in its loop's form."""
    required = bound(func, lr, ls)
    return j > ls - required or required > lr - i


def relaxed_rejects(func, lr, ls, i, j):
    """The token-filtered engine's position filter: ``min(i, j)``
    common tokens may precede the hit."""
    required = bound(func, lr, ls)
    return min(i, j) + 1 + min(lr - i - 1, ls - j - 1) < required


class TestRequiredRow:
    """One tuple per probe size replaces per-posting ``min_overlap``."""

    @pytest.mark.parametrize("cls", FUNCS)
    @given(lr=st.integers(1, 120), threshold=thresholds)
    @settings(max_examples=150, deadline=None)
    def test_row_is_min_overlap_inside_the_length_bounds(self, cls, lr, threshold):
        func = cls(threshold)
        lo, hi = func.length_bounds(lr)
        row = func.required_row(lr)
        assert len(row) == hi + 1
        for ls in range(hi + 1):
            if ls < lo:
                assert row[ls] == lr + 1  # no overlap reaches it
            else:
                assert row[ls] == cls.min_overlap(func, lr, ls)

    def test_overlap_row_is_constant_and_unsized(self):
        """Overlap's ``lmax`` is no bound, so no tuple could span it."""
        func = Overlap(3)
        row = func.required_row(7)
        assert row[1] == row[7] == row[10**9] == 3

    def test_each_pair_is_computed_once(self, monkeypatch):
        calls = []
        original = Jaccard.min_overlap

        def counted(self, lr, ls):
            calls.append((lr, ls))
            return original(self, lr, ls)

        monkeypatch.setattr(Jaccard, "min_overlap", counted)
        func = Jaccard(0.8)
        for lr in (5, 9, 5, 9, 12):
            func.probe_prefix_length(lr)
            func.required_row(lr)
        assert len(calls) == len(set(calls)) > 0


class TestFilterOrder:
    """The unfiltered loops test the position filter before ``seen``:
    sound because a rejected first hit means every later hit of the
    same partner is rejected too. The token-filtered loop's relaxed
    filter has no such property, so it keeps ``seen`` first."""

    @pytest.mark.parametrize("cls", FUNCS + [Overlap])
    @given(data=st.data(), lr=st.integers(1, 40), ls=st.integers(1, 60))
    @settings(max_examples=300, deadline=None)
    def test_strict_rejection_holds_for_every_later_hit(self, cls, data, lr, ls):
        func = cls(data.draw(st.integers(1, 6)) if cls is Overlap
                   else data.draw(thresholds))
        i = data.draw(st.integers(0, lr - 1))
        j = data.draw(st.integers(0, ls - 1))
        lo, hi = func.length_bounds(lr)
        if lo <= ls <= hi:
            # The reference engine's form of the same filter.
            reference = 1 + min(lr - i - 1, ls - j - 1) < bound(func, lr, ls)
            assert strict_rejects(func, lr, ls, i, j) == reference
        else:
            assert strict_rejects(func, lr, ls, i, j)  # the length filter
        if strict_rejects(func, lr, ls, i, j) and i + 1 < lr and j + 1 < ls:
            later_i = data.draw(st.integers(i + 1, lr - 1))
            later_j = data.draw(st.integers(j + 1, ls - 1))
            assert strict_rejects(func, lr, ls, later_i, later_j)

    def test_relaxed_filter_can_admit_a_later_hit(self):
        """Jaccard 0.5, two 10-token records (prefixes of 6): the first
        hit (0, 4) fails the relaxed filter, the later (5, 5) passes —
        had the loop skipped ``seen`` on rejection, it would admit the
        pair where its first hit said no."""
        func = Jaccard(0.5)
        assert func.probe_prefix_length(10) == 6
        assert bound(func, 10, 10) == 7
        assert relaxed_rejects(func, 10, 10, 0, 4)
        assert not relaxed_rejects(func, 10, 10, 5, 5)
        assert strict_rejects(func, 10, 10, 5, 5)
