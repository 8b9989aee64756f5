"""The approximate sketch tier: MinHash/LSH against exact ground truth.

Three layers of evidence, mirroring DESIGN §15:

* **estimator properties** — MinHash unbiasedness within the analytic
  4-sigma envelope, mergeability, incremental extension;
* **banding math** — the ``1 - (1 - s^rows)^bands`` S-curve's
  monotonicity and limits, and the one-sided recall bound;
* **engine/runtime differentials** — precision exactly 1.0 (every
  emitted pair is a true pair with the exact similarity), measured
  recall at or above the analytic lower bound, and bit-identical
  approx observables across worker counts, batch sizes and executors.
"""

import math

import pytest

from repro.bench.harness import standard_configs
from repro.cli import main
from repro.core.config import JoinConfig
from repro.core.local_join import StreamingSetJoin
from repro.core.metering import WorkMeter
from repro.parallel import ParallelJoinRunner, run_serial
from repro.records import Record
from repro.routing.band_router import BandRouter, band_owner
from repro.similarity.functions import get_similarity
from repro.sketch.analysis import (
    collision_probability,
    expected_recall,
    recall_lower_bound,
)
from repro.sketch.engine import SketchStreamingSetJoin
from repro.sketch.minhash import (
    DEFAULT_SEED,
    MinHashScheme,
    estimate_jaccard,
    merge_signatures,
)
from repro.sketch.recall import match_pairs, observables_recall
from repro.streams.window import SlidingWindow

from tests.test_parallel_differential import fuzz_records, try_process_run


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
        for match in engine.probe_and_insert(r):
            a, b = r.rid, match.partner.rid
            pairs[(a, b) if a < b else (b, a)] = match.similarity
    return engine, pairs


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
            estimate = estimate_jaccard(scheme.signature(a), scheme.signature(b))
            assert abs(estimate - true_j) <= 4 * sigma, (
                f"seed {seed}: estimate {estimate} off by > 4 sigma"
            )
            errors.append(estimate - true_j)
        mean_error = sum(errors) / len(errors)
        assert abs(mean_error) <= 4 * sigma / math.sqrt(len(errors))

    def test_estimate_extremes(self):
        scheme = MinHashScheme(perms=64, bands=8)
        a = tuple(range(50))
        assert scheme.estimate_jaccard(
            scheme.signature(a), scheme.signature(a)
        ) == 1.0
        disjoint = tuple(range(1000, 1050))
        assert estimate_jaccard(
            scheme.signature(a), scheme.signature(disjoint)
        ) <= 0.05  # true J = 0; min-collisions are negligible mod 2^61-1

    def test_merge_signatures_is_union(self):
        scheme = MinHashScheme(perms=48, bands=6)
        a, b = (1, 2, 3, 4), (3, 4, 5, 6, 7)
        union = tuple(sorted(set(a) | set(b)))
        assert merge_signatures(
            scheme.signature(a), scheme.signature(b)
        ) == scheme.signature(union)

    def test_extend_is_single_token_union(self):
        scheme = MinHashScheme(perms=48, bands=6)
        base = (10, 20, 30)
        assert scheme.extend(
            scheme.signature(base), 40
        ) == scheme.signature((10, 20, 30, 40))

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="perms"):
            MinHashScheme(perms=0, bands=1)
        with pytest.raises(ValueError, match="bands"):
            MinHashScheme(perms=8, bands=0)
        with pytest.raises(ValueError, match="divide"):
            MinHashScheme(perms=8, bands=3)
        scheme = MinHashScheme(perms=8, bands=2)
        with pytest.raises(ValueError, match="widths differ"):
            estimate_jaccard((1, 2), (1, 2, 3))
        with pytest.raises(ValueError, match="widths differ"):
            merge_signatures((1, 2), (1, 2, 3))
        with pytest.raises(ValueError, match="empty"):
            estimate_jaccard((), ())
        with pytest.raises(ValueError, match="empty"):
            scheme.sketch(())

    def test_describe(self):
        assert MinHashScheme(perms=64, bands=16).describe() == {
            "perms": 64, "bands": 16, "rows": 4, "seed": DEFAULT_SEED,
        }


class TestBandingAnalysis:
    def test_collision_probability_monotone_in_similarity(self):
        grid = [i / 20 for i in range(21)]
        probs = [collision_probability(s, rows=4, bands=8) for s in grid]
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        assert probs[0] == 0.0 and probs[-1] == 1.0

    def test_collision_probability_monotone_in_bands_and_rows(self):
        s = 0.7
        by_bands = [collision_probability(s, rows=4, bands=b) for b in (1, 2, 4, 8)]
        assert all(b > a for a, b in zip(by_bands, by_bands[1:]))
        by_rows = [collision_probability(s, rows=r, bands=8) for r in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(by_rows, by_rows[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="similarity"):
            collision_probability(1.5, 4, 8)
        with pytest.raises(ValueError, match="rows"):
            collision_probability(0.5, 0, 8)
        with pytest.raises(ValueError, match="bands"):
            collision_probability(0.5, 4, 0)

    def test_expected_recall_and_bound(self):
        sims = [0.8, 0.9, 1.0]
        expectation = expected_recall(sims, rows=4, bands=8)
        assert 0.0 < expectation <= 1.0
        bound = recall_lower_bound(sims, rows=4, bands=8)
        assert 0.0 <= bound <= expectation
        assert expected_recall([], rows=4, bands=8) == 1.0
        assert recall_lower_bound([], rows=4, bands=8) == 0.0
        # All-identical pairs collide surely; only the 1-pair slack bites.
        assert recall_lower_bound([1.0] * 100, rows=4, bands=8) == 0.99


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
        recall = len(approx) / len(exact)
        bound = recall_lower_bound(
            list(exact.values()), scheme.rows, scheme.bands
        )
        assert recall >= bound

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
        assert engine.live_postings == 2 * scheme.bands
        live = engine.probe(record(2, (1, 2, 3), timestamp=4.0))
        assert sorted(m.partner.rid for m in live) == [0, 1]
        # Far-future probe: both entries are dead; the colliding scan
        # collects them (lazy front-advance) and reports nothing.
        assert engine.probe(record(3, (1, 2, 3), timestamp=100.0)) == []
        assert engine.live_postings == 0
        assert engine.meter.operation("posting_expire") == 2 * scheme.bands

    def test_empty_token_records_are_inert(self):
        engine = SketchStreamingSetJoin(get_similarity("jaccard", 0.8))
        engine.insert(record(0, ()))
        assert engine.probe(record(1, ())) == []
        assert engine.live_postings == 0
        assert engine.meter.count("postings_inserted") == 0

    def test_batched_metering_parity(self):
        """``batched()`` buffers metering without changing semantics:
        the same probe/insert schedule run through batched blocks yields
        identical matches and identical meter totals."""
        records = fuzz_records(seed=11, n=150)
        plain = SketchStreamingSetJoin(get_similarity("jaccard", 0.6))
        chunked = SketchStreamingSetJoin(get_similarity("jaccard", 0.6))
        plain_matches = []
        for r in records:
            plain_matches.append([m.partner.rid for m in plain.probe(r)])
            plain.insert(r)
        chunked_matches = []
        for start in range(0, len(records), 32):
            with chunked.batched():
                for r in records[start:start + 32]:
                    chunked_matches.append(
                        [m.partner.rid for m in chunked.probe(r)]
                    )
                    chunked.insert(r)
        assert chunked_matches == plain_matches
        assert dict(chunked.meter.operations) == dict(plain.meter.operations)
        assert dict(chunked.meter.events) == dict(plain.meter.events)
        assert chunked.live_postings == plain.live_postings

    def test_batch_helpers(self):
        records = fuzz_records(seed=11, n=60)
        engine = SketchStreamingSetJoin(get_similarity("jaccard", 0.6))
        with engine.batched():
            for r in records:
                engine.insert(r)
            per_record = [engine.probe(r) for r in records]
        assert len(per_record) == len(records)
        # Every record was indexed, so each probe at least self-matches.
        assert all(
            any(m.partner.rid == r.rid for m in matches)
            for r, matches in zip(records, per_record)
        )

    def test_band_filter_partitions_exactly_once(self):
        """Sharded engines report every serial pair exactly once, and
        their summed observables equal the serial engine's (unbounded
        window) — the property the parallel runtime's differential
        contract rests on."""
        records = fuzz_records(seed=13, n=250)
        threshold = 0.6
        scheme = MinHashScheme(perms=32, bands=8)
        serial_engine, serial = sketch_pairs_with_sims(
            records, scheme, threshold
        )
        workers = 3
        router = BandRouter(workers, MinHashScheme(perms=32, bands=8))
        shards = [
            SketchStreamingSetJoin(
                get_similarity("jaccard", threshold),
                scheme=MinHashScheme(perms=32, bands=8),
                band_filter=(
                    lambda j, key, w=w: band_owner(j, key, workers) == w
                ),
            )
            for w in range(workers)
        ]
        reported = []
        for r in records:
            for task in router.route(r).probe_tasks:
                for match in shards[task].probe(r):
                    a, b = r.rid, match.partner.rid
                    reported.append((a, b) if a < b else (b, a))
            for task in router.route(r).index_tasks:
                shards[task].insert(r)
        assert len(reported) == len(set(reported)), "a pair was duplicated"
        assert set(reported) == set(serial)
        for name in ("index_lookup", "posting_scan", "posting_insert",
                     "candidate_admit", "result_emit"):
            assert sum(
                s.meter.operation(name) for s in shards
            ) == serial_engine.meter.operation(name), name
        for name in ("sketch_band_collisions", "sketch_candidates_admitted",
                     "candidates", "verifications", "postings_inserted"):
            assert sum(
                s.meter.count(name) for s in shards
            ) == serial_engine.meter.count(name), name
        assert sum(
            s.live_postings for s in shards
        ) == serial_engine.live_postings

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


class TestBandRouter:
    def test_routes_to_band_owners(self):
        scheme = MinHashScheme(perms=32, bands=8)
        router = BandRouter(4, scheme)
        r = record(0, (5, 9, 40, 77))
        decision = router.route(r)
        _, keys = scheme.sketch(r.tokens)
        expected = tuple(sorted({
            band_owner(j, key, 4) for j, key in enumerate(keys)
        }))
        assert decision.index_tasks == expected
        assert decision.probe_tasks == expected
        assert all(0 <= t < 4 for t in expected)
        assert 1 <= len(expected) <= 8

    def test_empty_record_routes_to_task_zero(self):
        router = BandRouter(4, MinHashScheme(perms=16, bands=4))
        decision = router.route(record(0, ()))
        assert decision.index_tasks == (0,)

    def test_owner_is_stable_and_in_range(self):
        for band in range(8):
            for key in (-5, 0, 3, 2**61, hash(("x", 1))):
                owner = band_owner(band, key, 5)
                assert owner == band_owner(band, key, 5)
                assert 0 <= owner < 5


class TestObservablesRecall:
    def test_pair_sets_passthrough(self):
        exact = {(0, 1), (0, 2), (1, 2)}
        approx = {(0, 1), (1, 2)}
        measured = observables_recall(exact, approx)
        assert measured == {
            "exact_pairs": 3, "approx_pairs": 2, "true_positives": 2,
            "missed": 1, "spurious": 0,
            "recall": 2 / 3, "precision": 1.0,
        }

    def test_match_row_iterables(self):
        rows = [(0.5, 3, 1, 2, 0.9), (0.7, 2, 4, 3, 0.8)]
        assert match_pairs(rows) == frozenset({(1, 3), (2, 4)})

    def test_empty_conventions(self):
        measured = observables_recall(set(), set())
        assert measured["recall"] == 1.0 and measured["precision"] == 1.0


APPROX_CONFIG = JoinConfig(
    mode="approx", threshold=0.6, perms=64, bands=16, num_workers=4
)


class TestDifferentialRecall:
    """The parallel runtime's sketch tier vs. exact ground truth: recall
    at or above the analytic bound, precision 1.0, and bit-identical
    approx observables across worker counts, batch sizes and executors.
    """

    @classmethod
    def setup_class(cls):
        cls.records = fuzz_records(seed=23)
        cls.exact = run_serial(
            JoinConfig(threshold=0.6, num_workers=4), cls.records
        )
        cls.approx = run_serial(APPROX_CONFIG, cls.records)
        cls.exact_sims = {}
        for row in cls.exact.matches:
            a, b = row[1], row[2]
            cls.exact_sims[(a, b) if a < b else (b, a)] = row[4]

    def assert_recall_contract(self, result):
        measured = observables_recall(self.exact, result)
        assert measured["precision"] == 1.0
        assert measured["spurious"] == 0
        bound = recall_lower_bound(
            list(self.exact_sims.values()),
            APPROX_CONFIG.perms // APPROX_CONFIG.bands,
            APPROX_CONFIG.bands,
        )
        assert measured["recall"] >= bound

    def test_serial_recall_and_precision(self):
        assert self.exact.results > 0
        self.assert_recall_contract(self.approx)

    @pytest.mark.parametrize("batch_size", [1, 64])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_inline_grid_bit_identical(self, workers, batch_size):
        """The approx tier's grid on worker processes (the name is the
        in-process executor's it was written for)."""
        runner = ParallelJoinRunner(
            APPROX_CONFIG.replace(batch_size=batch_size), workers=workers
        )
        result = try_process_run(runner, self.records)
        context = f"workers={workers}/batch={batch_size}"
        assert result.matches == self.approx.matches, context
        assert result.operations == self.approx.operations, context
        assert result.events == self.approx.events, context
        self.assert_recall_contract(result)


class TestHarnessSuite:
    def test_skt_is_opt_in(self):
        assert "SKT" not in standard_configs()
        suite = standard_configs(include=["LEN", "SKT"], num_workers=4)
        assert list(suite) == ["LEN", "SKT"]
        assert suite["SKT"].mode == "approx"
        assert suite["SKT"].method_label == "SKT"

    def test_unknown_labels_still_rejected(self):
        with pytest.raises(ValueError, match="unknown method labels"):
            standard_configs(include=["SKT", "NOPE"])


class TestJoinConfigApprox:
    def test_validation(self):
        with pytest.raises(ValueError, match="perms"):
            JoinConfig(mode="approx", perms=0)
        with pytest.raises(ValueError, match="bands"):
            JoinConfig(mode="approx", bands=0)
        with pytest.raises(ValueError, match="divide"):
            JoinConfig(mode="approx", perms=64, bands=7)
        with pytest.raises(ValueError, match="band routing"):
            JoinConfig(mode="approx", distribution="prefix")
        with pytest.raises(ValueError, match="bundles"):
            JoinConfig(mode="approx", use_bundles=True)
        with pytest.raises(ValueError, match="lazy"):
            JoinConfig(mode="approx", expiry="eager", window_seconds=5.0)
        with pytest.raises(ValueError, match="two-stream"):
            JoinConfig(mode="approx", cross_source_only=True)

    def test_method_label(self):
        assert JoinConfig(mode="approx").method_label == "SKT"


class TestSketchCLI:
    @pytest.fixture
    def corpus_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            "alpha beta gamma\nalpha beta gamma delta\nomega psi chi\n"
            "alpha beta gamma\n" * 3
        )
        return path

    def test_approx_join_runs(self, corpus_file, capsys):
        assert main(["join", str(corpus_file), "--mode", "approx",
                     "--threshold", "0.7", "--workers", "2"]) == 0
        assert "SKT" in capsys.readouterr().out

    def test_recall_floor_gate_passes(self, corpus_file, capsys):
        assert main(["join", str(corpus_file), "--mode", "approx",
                     "--threshold", "0.7", "--workers", "2",
                     "--recall-floor", "0.1"]) == 0
        assert "recall:" in capsys.readouterr().out

    def test_recall_floor_parallel_path(self, corpus_file, capsys):
        assert main(["join", str(corpus_file), "--mode", "approx",
                     "--threshold", "0.7", "--parallel",
                     "--workers", "2", "--recall-floor", "0.1"]) == 0
        assert "recall:" in capsys.readouterr().out

    def test_sketch_flags_require_approx(self, corpus_file, capsys):
        assert main(["join", str(corpus_file), "--perms", "64"]) == 2
        assert "--mode approx" in capsys.readouterr().err
        assert main(["join", str(corpus_file), "--bands", "8"]) == 2
        assert "--mode approx" in capsys.readouterr().err
        assert main(["join", str(corpus_file),
                     "--recall-floor", "0.9"]) == 2
        assert "recall 1.0 by construction" in capsys.readouterr().err

    def test_bad_sketch_parameters_exit_2(self, corpus_file, capsys):
        assert main(["join", str(corpus_file), "--mode", "approx",
                     "--perms", "0"]) == 2
        assert "perms" in capsys.readouterr().err
        assert main(["join", str(corpus_file), "--mode", "approx",
                     "--bands", "0"]) == 2
        assert "bands" in capsys.readouterr().err
        assert main(["join", str(corpus_file), "--mode", "approx",
                     "--perms", "64", "--bands", "7"]) == 2
        assert "divide" in capsys.readouterr().err

    def test_bad_recall_floor_exit_2(self, corpus_file, capsys):
        for bad in ("0", "1.5", "-0.2"):
            assert main(["join", str(corpus_file), "--mode", "approx",
                         "--recall-floor", bad]) == 2
            assert "(0, 1]" in capsys.readouterr().err

    def test_approx_rejects_bundles(self, corpus_file, capsys):
        assert main(["join", str(corpus_file), "--mode", "approx",
                     "--bundles"]) == 2
        assert "bundles" in capsys.readouterr().err

    def test_bench_sketch_flags_require_approx(self, capsys):
        assert main(["bench", "--perms", "64"]) == 2
        assert "--mode approx" in capsys.readouterr().err
        assert main(["bench", "--bands", "8"]) == 2
        assert "--mode approx" in capsys.readouterr().err

    def test_bench_approx_adds_skt_row(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--mode", "approx", "--records", "150",
                     "--workers", "2", "--summary-out", ""]) == 0
        out = capsys.readouterr().out
        assert "SKT" in out and "LEN" in out
