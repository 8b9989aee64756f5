"""Tests for ordering, tokenizers and verification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity.ordering import TokenDictionary
from repro.similarity.tokenizers import QGramTokenizer, WordTokenizer, multiset
from repro.similarity.verification import overlap_count, verify_pair


class TestTokenDictionary:
    def test_assigns_ids_on_first_encounter(self):
        d = TokenDictionary()
        assert d.id_of("a") == 0
        assert d.id_of("b") == 1
        assert d.id_of("a") == 0
        assert len(d) == 2
        assert "a" in d and "c" not in d

    def test_canonicalize_sorts_and_dedupes(self):
        d = TokenDictionary()
        record = d.canonicalize(["x", "y", "x", "z"])
        assert record == tuple(sorted(record))
        assert len(record) == 3

    def test_decode_round_trip(self):
        d = TokenDictionary()
        record = d.canonicalize(["p", "q", "r"])
        assert set(d.decode(record)) == {"p", "q", "r"}

    def test_frequency_ranking_puts_rare_first(self):
        corpus = [["common", "rare"], ["common"], ["common", "mid"], ["mid"]]
        d = TokenDictionary.from_corpus(corpus)
        assert d.is_ranked
        assert d.id_of("rare") < d.id_of("mid") < d.id_of("common")

    def test_ranking_is_deterministic_on_ties(self):
        d1 = TokenDictionary.from_corpus([["a", "b", "c"]])
        d2 = TokenDictionary.from_corpus([["a", "b", "c"]])
        assert [d1.id_of(t) for t in "abc"] == [d2.id_of(t) for t in "abc"]

    def test_unseen_tokens_after_ranking_get_fresh_ids(self):
        d = TokenDictionary.from_corpus([["a", "b"]])
        top = len(d)
        assert d.id_of("zzz") == top
        assert d.token_of(top) == "zzz"

    @given(st.lists(st.lists(st.text(min_size=1, max_size=3), max_size=6), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_order_is_consistent(self, corpus):
        """Any record canonicalized twice yields the same array."""
        d = TokenDictionary.from_corpus(corpus)
        for record in corpus:
            assert d.canonicalize(record) == d.canonicalize(record)


class TestTokenizers:
    def test_word_tokenizer_basic(self):
        assert WordTokenizer()("Hello, World 42!") == ["hello", "world", "42"]

    def test_word_tokenizer_preserves_case_when_asked(self):
        assert WordTokenizer(lowercase=False)("AbC dEf") == ["AbC", "dEf"]
        assert WordTokenizer()("AbC") == ["abc"]

    def test_word_tokenizer_min_length(self):
        assert WordTokenizer(min_length=3)("a bb ccc dddd") == ["ccc", "dddd"]

    def test_word_tokenizer_rejects_bad_min_length(self):
        with pytest.raises(ValueError):
            WordTokenizer(min_length=0)

    def test_qgram_unpadded(self):
        assert QGramTokenizer(q=2, pad=False)("abcd") == ["ab", "bc", "cd"]

    def test_qgram_padded_count(self):
        grams = QGramTokenizer(q=3, pad=True, pad_char="#")("ab")
        assert grams == ["##a", "#ab", "ab#", "b##"]

    def test_qgram_short_input(self):
        assert QGramTokenizer(q=3, pad=False)("ab") == ["ab"]
        assert QGramTokenizer(q=3, pad=False)("") == []

    def test_qgram_validation(self):
        with pytest.raises(ValueError):
            QGramTokenizer(q=0)
        with pytest.raises(ValueError):
            QGramTokenizer(pad_char="##")

    def test_multiset_numbers_occurrences(self):
        assert multiset(["a", "b", "a", "a"]) == [
            ("a", 0),
            ("b", 0),
            ("a", 1),
            ("a", 2),
        ]

    @given(
        st.lists(st.sampled_from("abc"), max_size=12),
        st.lists(st.sampled_from("abc"), max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_multiset_models_bag_intersection(self, left, right):
        from collections import Counter

        expected = sum((Counter(left) & Counter(right)).values())
        got = len(set(multiset(left)) & set(multiset(right)))
        assert got == expected


class TestVerification:
    def test_overlap_count(self):
        assert overlap_count((1, 2, 3), (2, 3, 4)) == 2
        assert overlap_count((), (1,)) == 0
        assert overlap_count((1, 2), (1, 2)) == 2

    def test_verify_pair_exact_when_reachable(self):
        overlap, comparisons = verify_pair((1, 2, 3, 4), (2, 3, 4, 5), 3)
        assert overlap == 3
        assert comparisons > 0

    def test_verify_pair_early_terminates(self):
        r = tuple(range(0, 100, 2))  # evens
        s = tuple(range(1, 101, 2))  # odds — zero overlap
        overlap, comparisons = verify_pair(r, s, 40)
        assert overlap == -1
        # Early exit must scan far less than the full 100 steps.
        assert comparisons < 30

    def test_verify_pair_resume_positions(self):
        r, s = (1, 2, 3, 4), (1, 5, 3, 9) and (1, 3, 4, 9)
        # first common token 1 at positions (0, 0); resume after it
        overlap, _ = verify_pair(r, s, 2, start_r=1, start_s=1, known=1)
        assert overlap == 3  # {1, 3, 4}

    @given(
        st.lists(st.integers(0, 40), max_size=25).map(lambda v: tuple(sorted(set(v)))),
        st.lists(st.integers(0, 40), max_size=25).map(lambda v: tuple(sorted(set(v)))),
        st.integers(0, 20),
    )
    @settings(max_examples=300, deadline=None)
    def test_verify_pair_matches_bruteforce(self, r, s, required):
        truth = len(set(r) & set(s))
        overlap, _ = verify_pair(r, s, required)
        if truth >= required:
            assert overlap == truth
        else:
            assert overlap == -1
