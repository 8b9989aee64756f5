"""Dataset substrate: generators, corpora and the file loader."""

import os
import random
import threading
import tracemalloc

import pytest

from repro.datasets.corpora import (
    CORPUS_BUILDERS,
    synthetic_aol,
    synthetic_dblp,
    synthetic_enron,
    synthetic_tweet,
)
from repro.datasets.generators import (
    CorpusSpec,
    ZipfVocabulary,
    generate_corpus,
    lognormal_lengths,
    normal_lengths,
    poisson_lengths,
)
from repro.datasets.loader import load_token_file, save_token_file
from repro.similarity.ordering import TokenDictionary
from repro.streams.stream import RecordStream


class TestZipfVocabulary:
    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfVocabulary(0)
        with pytest.raises(ValueError):
            ZipfVocabulary(10, skew=0)

    def test_sample_range(self):
        vocab = ZipfVocabulary(100)
        rng = random.Random(0)
        ids = [vocab.sample(rng) for _ in range(1000)]
        assert all(0 <= t < 100 for t in ids)

    def test_rare_first_numbering(self):
        """High ids must be the frequent (Zipf head) tokens."""
        vocab = ZipfVocabulary(1000, skew=1.2)
        rng = random.Random(1)
        from collections import Counter

        counts = Counter(vocab.sample(rng) for _ in range(20_000))
        top_token, _ = counts.most_common(1)[0]
        assert top_token > 900  # most frequent token has a high id

    def test_sample_set_distinct_sorted(self):
        vocab = ZipfVocabulary(50)
        rng = random.Random(2)
        for count in (1, 5, 25, 50, 60):
            tokens = vocab.sample_set(rng, count)
            assert list(tokens) == sorted(set(tokens))
            assert len(tokens) == min(count, 50)


class TestLengthModels:
    def test_poisson_clipped(self):
        model = poisson_lengths(mean=2.0, lo=1, hi=5)
        rng = random.Random(3)
        values = [model(rng) for _ in range(500)]
        assert all(1 <= v <= 5 for v in values)

    def test_normal_clipped(self):
        model = normal_lengths(mean=10, stddev=3, lo=5, hi=15)
        rng = random.Random(3)
        values = [model(rng) for _ in range(500)]
        assert all(5 <= v <= 15 for v in values)
        assert 8 < sum(values) / len(values) < 12

    def test_lognormal_long_tail(self):
        model = lognormal_lengths(mu=4.4, sigma=0.55, lo=10, hi=400)
        rng = random.Random(3)
        values = [model(rng) for _ in range(2000)]
        assert all(10 <= v <= 400 for v in values)
        assert max(values) > 3 * (sum(values) / len(values))  # heavy tail


class TestGenerateCorpus:
    def spec(self, **overrides):
        defaults = dict(
            name="t",
            vocabulary_size=200,
            length_model=normal_lengths(8, 2, 3, 15),
            duplicate_rate=0.5,
            exact_duplicate_fraction=0.5,
        )
        defaults.update(overrides)
        return CorpusSpec(**defaults)

    def test_deterministic_per_seed(self):
        spec = self.spec()
        assert generate_corpus(spec, 100, seed=5) == generate_corpus(spec, 100, seed=5)
        assert generate_corpus(spec, 100, seed=5) != generate_corpus(spec, 100, seed=6)

    def test_records_canonical(self):
        for tokens in generate_corpus(self.spec(), 200, seed=1):
            assert list(tokens) == sorted(set(tokens))
            assert tokens  # never empty

    def test_duplicates_produce_exact_copies(self):
        corpus = generate_corpus(self.spec(duplicate_rate=0.8), 300, seed=2)
        assert len(set(corpus)) < len(corpus)

    def test_zero_duplicate_rate(self):
        corpus = generate_corpus(self.spec(duplicate_rate=0.0), 100, seed=2)
        assert len(corpus) == 100

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus(self.spec(), -1)


class TestCorpora:
    @pytest.mark.parametrize("name,builder", sorted(CORPUS_BUILDERS.items()))
    def test_builders_produce_named_streams(self, name, builder):
        stream = builder(200, seed=7)
        assert isinstance(stream, RecordStream)
        assert stream.name == name
        assert len(stream) == 200

    def test_length_profiles_are_distinct(self):
        aol = synthetic_aol(500, seed=1).statistics()
        tweet = synthetic_tweet(500, seed=1).statistics()
        enron = synthetic_enron(500, seed=1).statistics()
        assert aol.avg_size < tweet.avg_size < enron.avg_size
        assert enron.avg_size > 50

    def test_vocabulary_override(self):
        small = synthetic_tweet(300, seed=1, vocabulary_size=100).statistics()
        assert small.vocabulary_size <= 100

    def test_duplicate_rate_raises_result_density(self):
        from repro.core.reference import naive_join
        from repro.similarity.functions import Jaccard

        low = synthetic_tweet(300, seed=5, duplicate_rate=0.02)
        high = synthetic_tweet(300, seed=5, duplicate_rate=0.5)
        func = Jaccard(0.9)
        assert len(naive_join(high.records(), func)) > len(
            naive_join(low.records(), func)
        )


class TestLoader:
    def test_round_trip_with_dictionary(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("apple banana\nbanana cherry cherry\n\napple\n")
        stream, dictionary = load_token_file(path)
        assert len(stream) == 3  # blank line skipped
        decoded = [set(dictionary.decode(r)) for r in stream.corpus]
        assert decoded == [{"apple", "banana"}, {"banana", "cherry"}, {"apple"}]
        assert dictionary.is_ranked

    def test_max_records(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a\nb\nc\n")
        stream, _ = load_token_file(path, max_records=2)
        assert len(stream) == 2

    def test_bad_bounds_rejected_before_reading(self, tmp_path):
        missing = tmp_path / "never-read.txt"
        for cap in (0, -3):
            with pytest.raises(ValueError, match="max_records must be >= 1"):
                load_token_file(missing, max_records=cap)
        for rate in (0, -5):
            with pytest.raises(ValueError, match="rate must be positive"):
                load_token_file(missing, rate=rate)

    def test_save_then_load_preserves_sets(self, tmp_path):
        original, dictionary = load_token_file(
            self._write(tmp_path, "x y z\nz y\n"), name="orig"
        )
        out = tmp_path / "saved.txt"
        assert save_token_file(out, original, dictionary) == 2
        reloaded, d2 = load_token_file(out)
        original_sets = [set(dictionary.decode(r)) for r in original.corpus]
        reloaded_sets = [set(d2.decode(r)) for r in reloaded.corpus]
        assert original_sets == reloaded_sets

    def test_save_numeric_ids(self, tmp_path):
        stream = RecordStream([(1, 2), (3,)])
        out = tmp_path / "ids.txt"
        save_token_file(out, stream)
        assert out.read_text() == "1 2\n3\n"

    @staticmethod
    def _write(tmp_path, text):
        path = tmp_path / "in.txt"
        path.write_text(text)
        return path


def two_pass_load(path, max_records=None):
    """The oracle: hold every line's raw tokens, rank them with
    ``from_corpus``, then ``canonicalize`` each held line."""
    raw = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            tokens = line.split()
            if not tokens:
                continue
            raw.append(tokens)
            if max_records is not None and len(raw) >= max_records:
                break
    dictionary = TokenDictionary.from_corpus(raw)
    return [dictionary.canonicalize(tokens) for tokens in raw], dictionary


class TestOnePassLoader:
    """``load_token_file`` reads once and keeps ids; it must build
    exactly the corpus and dictionary the two-pass oracle builds."""

    def assert_matches_oracle(self, path, max_records=None):
        stream, dictionary = load_token_file(path, max_records=max_records)
        corpus, oracle = two_pass_load(path, max_records)
        assert stream.corpus == corpus
        assert list(dictionary._id_of.items()) == list(oracle._id_of.items())
        assert dictionary._token_of == oracle._token_of
        assert dictionary._frequency == oracle._frequency
        assert dictionary.is_ranked
        keys = [
            (dictionary._frequency[token], repr(token))
            for token in dictionary._token_of
        ]
        assert keys == sorted(keys)  # ascending frequency, repr tie-break
        return stream, dictionary

    @pytest.mark.parametrize("name,builder", sorted(CORPUS_BUILDERS.items()))
    def test_every_builder_matches_the_oracle(self, tmp_path, name, builder):
        ids = tmp_path / f"{name}.ids.txt"
        save_token_file(ids, builder(300, seed=7))
        stream, dictionary = self.assert_matches_oracle(ids)
        words = tmp_path / f"{name}.words.txt"
        save_token_file(words, stream, dictionary)
        self.assert_matches_oracle(words)
        for cut in (1, 150, 299, 300, 301):
            self.assert_matches_oracle(ids, max_records=cut)

    @pytest.mark.parametrize(
        "text",
        [
            "a b\n\n   \n\t\nb c\n\n",  # blank and whitespace-only lines
            "x x y x\ny y\nz y x z\n",  # repeats within a line
            "café naïve 東京\n東京 ß café\nß\n",  # non-ASCII
            "10 9 010 1e3 -1\n9 10 -1\n1e3 0x1 10.0\n",  # numeric-looking
            "solo token\n",
            "no trailing newline",
            "",
        ],
        ids=["blank", "repeats", "non-ascii", "numeric", "one-line",
             "no-newline", "empty"],
    )
    def test_edge_cases_match_the_oracle(self, tmp_path, text):
        path = tmp_path / "edge.txt"
        path.write_text(text, encoding="utf-8")
        stream, dictionary = self.assert_matches_oracle(path)
        if not text:
            assert len(stream) == 0 and len(dictionary) == 0

    def test_max_records_cut_before_blank_lines(self, tmp_path):
        path = tmp_path / "cut.txt"
        path.write_text("a b\nc a\n\n  \n\nd a\n")
        for cut in (1, 2, 3, 4):
            stream, _ = self.assert_matches_oracle(path, max_records=cut)
            assert len(stream) == min(cut, 3)

    def test_peak_memory_is_bounded_by_the_result(self, tmp_path):
        """One ``str`` per distinct token stays alive, not one per token
        in the file: loading ~90-token records peaks below 2.4x what the
        loaded stream and dictionary hold (holding every raw token
        until the end of the file peaks near 2.9x)."""
        path = tmp_path / "enron.txt"
        save_token_file(path, synthetic_enron(1000, seed=3))
        load_token_file(path)  # first-call allocations are not the load's
        tracemalloc.start()
        try:
            stream, dictionary = load_token_file(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(stream) == 1000 and len(dictionary) > 0
        assert peak <= 2.4 * held, f"peak {peak} vs result {held}"

    def test_line_mixing_known_and_new_tokens(self, tmp_path):
        """A line whose known tokens come before a new one: the ids
        appended before the miss are cut back, so no id is doubled."""
        path = tmp_path / "mixed.txt"
        path.write_text("a b\nb c a\nc d b e\nd a f\ng\n")
        stream, dictionary = self.assert_matches_oracle(path)
        assert [len(tokens) for tokens in stream.corpus] == [2, 3, 4, 3, 1]

    def test_peak_bytes_per_record_on_a_short_record_stream(self, tmp_path):
        """On ~2-token AOL records the per-row overhead is the load:
        one flat id list plus an array of row ends peaks near 183 B a
        record (tracemalloc); a list per row peaked near 273 B."""
        path = tmp_path / "aol.txt"
        save_token_file(path, synthetic_aol(20_000, seed=7))
        load_token_file(path)  # first-call allocations are not the load's
        tracemalloc.start()
        try:
            stream, _ = load_token_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stream) == 20_000
        assert peak / len(stream) <= 225, f"{peak / len(stream):.1f} B/record"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_reads_a_fifo_in_one_pass(self, tmp_path):
        text = "x y z\n\nz y\nw x x\n"
        regular = tmp_path / "corpus.txt"
        regular.write_text(text)
        fifo = tmp_path / "corpus.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "w") as handle:
                handle.write(text)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        stream, dictionary = load_token_file(fifo)
        writer.join(timeout=5)
        expected, oracle = load_token_file(regular)
        assert stream.corpus == expected.corpus
        assert dictionary._token_of == oracle._token_of
