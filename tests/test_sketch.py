"""What stays of the removed approximate tier: the MinHash scheme and
the unbanded sketch engine that the end-to-end benchmark's ``sketch``
layer runs against the exact engine.

* **signatures** — deterministic per seed, and unbiased: the fraction
  of agreeing lanes stays inside the analytic 4-sigma envelope, is 1
  for identical sets and near 0 for disjoint ones;
* **engine** — precision exactly 1.0 against the exact engine's pair
  set (every emitted pair is a true pair with the exact similarity),
  identical token sets always found, windowed expiry, inert empty
  records and the sketch events.
"""

import math

import pytest

from repro.core.local_join import StreamingSetJoin
from repro.records import Record
from repro.similarity.functions import get_similarity
from repro.sketch.engine import SketchStreamingSetJoin
from repro.sketch.minhash import DEFAULT_SEED, MinHashScheme
from repro.streams.window import SlidingWindow

from tests.test_parallel_differential import fuzz_records


def record(rid, tokens, timestamp=0.0):
    return Record(rid=rid, tokens=tuple(tokens), timestamp=timestamp, source="")


def exact_pairs_with_sims(records, threshold=0.6):
    """Ground truth: ``{unordered pair: similarity}`` of the exact engine."""
    engine = StreamingSetJoin(get_similarity("jaccard", threshold))
    pairs = {}
    for r in records:
        for match in engine.probe_and_insert(r):
            a, b = r.rid, match.partner.rid
            pairs[(a, b) if a < b else (b, a)] = match.similarity
    return pairs


def sketch_pairs_with_sims(records, scheme, threshold=0.6, window=None):
    engine = SketchStreamingSetJoin(
        get_similarity("jaccard", threshold), scheme=scheme, window=window
    )
    pairs = {}
    for r in records:
        for match in engine.probe(r):
            a, b = r.rid, match.partner.rid
            pairs[(a, b) if a < b else (b, a)] = match.similarity
        engine.insert(r)
    return engine, pairs


def agreement(sig_a, sig_b):
    """The fraction of agreeing lanes: MinHash's Jaccard estimate."""
    return sum(a == b for a, b in zip(sig_a, sig_b)) / len(sig_a)


class TestMinHashScheme:
    def test_deterministic_across_instances(self):
        tokens = (3, 17, 99, 254, 711)
        a = MinHashScheme(perms=32, bands=8)
        b = MinHashScheme(perms=32, bands=8)
        assert a.signature(tokens) == b.signature(tokens)
        assert a.sketch(tokens) == b.sketch(tokens)
        # A different seed is a different hash family.
        c = MinHashScheme(perms=32, bands=8, seed=DEFAULT_SEED + 1)
        assert a.signature(tokens) != c.signature(tokens)

    def test_signature_of_record_matches_tokens(self):
        scheme = MinHashScheme(perms=16, bands=4)
        r = record(0, (5, 9, 40))
        assert scheme.signature(r) == scheme.signature((5, 9, 40))
        assert len(scheme.signature(r)) == 16
        assert len(scheme.band_keys(scheme.signature(r))) == 4

    def test_unbiasedness_within_four_sigma(self):
        """|estimate - J| stays inside the 4-sigma analytic envelope for
        every seed, and the mean error over seeds shrinks like 1/sqrt(n)
        — the estimator is unbiased with variance J(1-J)/perms."""
        import random

        perms = 256
        # Random token values (contiguous integer ranges are adversarial
        # for a *linear* hash family — only approximately min-wise
        # independent, with a visible bias on arithmetic progressions).
        pool = random.Random(42).sample(range(10**6), 160)
        a = tuple(sorted(pool[:120]))   # |A ∪ B| = 160, |A ∩ B| = 80
        b = tuple(sorted(pool[40:]))    # true Jaccard = 0.5
        true_j = 0.5
        sigma = math.sqrt(true_j * (1 - true_j) / perms)
        seeds = range(10)
        errors = []
        for seed in seeds:
            scheme = MinHashScheme(perms=perms, bands=4, seed=seed)
            estimate = agreement(scheme.signature(a), scheme.signature(b))
            assert abs(estimate - true_j) <= 4 * sigma, (
                f"seed {seed}: estimate {estimate} off by > 4 sigma"
            )
            errors.append(estimate - true_j)
        mean_error = sum(errors) / len(errors)
        assert abs(mean_error) <= 4 * sigma / math.sqrt(len(errors))

    def test_estimate_extremes(self):
        scheme = MinHashScheme(perms=64, bands=8)
        a = tuple(range(50))
        assert agreement(scheme.signature(a), scheme.signature(a)) == 1.0
        disjoint = tuple(range(1000, 1050))
        assert agreement(
            scheme.signature(a), scheme.signature(disjoint)
        ) <= 0.05  # true J = 0; min-collisions are negligible mod 2^61-1

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="perms"):
            MinHashScheme(perms=0, bands=1)
        with pytest.raises(ValueError, match="bands"):
            MinHashScheme(perms=8, bands=0)
        with pytest.raises(ValueError, match="divide"):
            MinHashScheme(perms=8, bands=3)
        with pytest.raises(ValueError, match="empty"):
            MinHashScheme(perms=8, bands=2).sketch(())


class TestSketchEngine:
    THRESHOLD = 0.6

    def test_precision_one_and_recall_above_bound(self):
        records = fuzz_records(seed=7)
        exact = exact_pairs_with_sims(records, self.THRESHOLD)
        scheme = MinHashScheme(perms=64, bands=16)
        _, approx = sketch_pairs_with_sims(records, scheme, self.THRESHOLD)
        assert exact, "fuzz stream produced no ground-truth pairs"
        # Precision 1.0 with the *exact* similarity per emitted pair.
        for pair, similarity in approx.items():
            assert pair in exact, f"spurious pair {pair}"
            assert similarity == exact[pair]
        # Identical token sets share a signature, so they collide in
        # every band: every similarity-1.0 pair is found, which bounds
        # recall from below.
        identical = {pair for pair, sim in exact.items() if sim == 1.0}
        assert identical <= set(approx)

    def test_duplicate_records_match_at_similarity_one(self):
        engine = SketchStreamingSetJoin(get_similarity("jaccard", 0.9))
        engine.insert(record(0, (1, 2, 3)))
        engine.insert(record(1, (1, 2, 3), timestamp=1.0))
        matches = engine.probe(record(2, (1, 2, 3), timestamp=2.0))
        assert sorted(m.partner.rid for m in matches) == [0, 1]
        assert all(m.similarity == 1.0 and m.overlap == 3 for m in matches)

    def test_windowed_expiry_drops_old_partners(self):
        scheme = MinHashScheme(perms=16, bands=4)
        engine = SketchStreamingSetJoin(
            get_similarity("jaccard", 0.8), scheme=scheme,
            window=SlidingWindow(5.0),
        )
        engine.insert(record(0, (1, 2, 3), timestamp=0.0))
        engine.insert(record(1, (1, 2, 3), timestamp=1.0))
        assert engine.meter.count("postings_inserted") == 2 * scheme.bands
        live = engine.probe(record(2, (1, 2, 3), timestamp=4.0))
        assert sorted(m.partner.rid for m in live) == [0, 1]
        # Far-future probe: both entries are dead; the colliding scan
        # collects them (lazy front-advance) and reports nothing.
        assert engine.probe(record(3, (1, 2, 3), timestamp=100.0)) == []
        assert engine.meter.operation("posting_expire") == 2 * scheme.bands

    def test_empty_token_records_are_inert(self):
        engine = SketchStreamingSetJoin(get_similarity("jaccard", 0.8))
        engine.insert(record(0, ()))
        assert engine.probe(record(1, ())) == []
        assert engine.meter.count("postings_inserted") == 0

    def test_sketch_events_metered(self):
        records = fuzz_records(seed=17, n=120)
        engine, approx = sketch_pairs_with_sims(
            records, MinHashScheme(perms=32, bands=8), 0.6
        )
        assert approx
        meter = engine.meter
        assert meter.count("sketch_band_collisions") >= meter.count(
            "sketch_candidates_admitted"
        ) > 0
        assert meter.count("verifications") > 0
