"""The single-node streaming join engine against the brute-force oracle."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.local_join as local_join
from repro.core.local_join import StreamingSetJoin, _Postings
from repro.core.metering import WorkMeter
from repro.core.reference import naive_join
from repro.datasets import synthetic_enron
from repro.records import Record, pair_key
from repro.similarity.functions import Cosine, Dice, Jaccard, Overlap
from repro.streams.window import SlidingWindow
from tests.test_fuzz_columnar import fuzz_stream


def make_records(corpus, spacing=1.0):
    return [
        Record(rid=i, tokens=tuple(sorted(set(tokens))), timestamp=i * spacing)
        for i, tokens in enumerate(corpus)
    ]


def run_engine(records, func, window=None):
    engine = StreamingSetJoin(func, window=window)
    found = {}
    for r in records:
        for match in engine.probe_and_insert(r):
            key = pair_key(r, match.partner)
            assert key not in found, f"pair {key} reported twice"
            found[key] = match.similarity
    return found, engine


def random_corpus(rng, n, universe, max_len, dup_rate=0.3):
    corpus = []
    for _ in range(n):
        if corpus and rng.random() < dup_rate:
            base = list(rng.choice(corpus))
            if base and rng.random() < 0.5:
                base[rng.randrange(len(base))] = rng.randrange(universe)
            corpus.append(base)
        else:
            size = rng.randint(1, max_len)
            corpus.append([rng.randrange(universe) for _ in range(size)])
    return corpus


FUNCS = [Jaccard(0.8), Jaccard(0.6), Cosine(0.8), Dice(0.75), Overlap(3)]


class TestAgainstOracle:
    @pytest.mark.parametrize("func", FUNCS, ids=lambda f: f"{f.name}-{f.threshold}")
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_unbounded_window_equivalence(self, func, seed):
        rng = random.Random(seed)
        records = make_records(random_corpus(rng, 120, universe=40, max_len=12))
        found, _ = run_engine(records, func)
        oracle = naive_join(records, func)
        assert set(found) == set(oracle)
        for key, similarity in found.items():
            assert similarity == pytest.approx(oracle[key])

    @pytest.mark.parametrize("window_seconds", [1.5, 5.0, 40.0])
    def test_windowed_equivalence(self, window_seconds):
        rng = random.Random(9)
        func = Jaccard(0.7)
        window = SlidingWindow(window_seconds)
        records = make_records(random_corpus(rng, 150, universe=30, max_len=10))
        found, _ = run_engine(records, func, window)
        oracle = naive_join(records, func, window)
        assert set(found) == set(oracle)

    def test_empty_records_never_join(self):
        func = Jaccard(0.5)
        records = [
            Record(0, (), 0.0),
            Record(1, (), 1.0),
            Record(2, (1, 2), 2.0),
        ]
        found, _ = run_engine(records, func)
        assert found == {}

    @given(
        corpus=st.lists(
            st.lists(st.integers(0, 25), min_size=0, max_size=10),
            min_size=0,
            max_size=60,
        ),
        threshold=st.sampled_from([0.5, 0.7, 0.8, 0.95]),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_equivalence(self, corpus, threshold):
        func = Jaccard(threshold)
        records = make_records(corpus)
        found, _ = run_engine(records, func)
        assert set(found) == set(naive_join(records, func))


class TestEngineMechanics:
    def test_no_self_pairs(self):
        func = Jaccard(0.5)
        records = make_records([[1, 2, 3], [1, 2, 3]])
        found, _ = run_engine(records, func)
        assert set(found) == {(0, 1)}

    def test_lazy_expiration_shrinks_index(self):
        func = Jaccard(0.9)
        window = SlidingWindow(1.0)
        engine = StreamingSetJoin(func, window=window)
        for i in range(20):
            engine.probe_and_insert(Record(i, (1, 2, 3), timestamp=float(i) * 0.1))
        postings_before = engine.live_postings
        # far-future probe with the shared token expires all postings
        engine.probe(Record(99, (1, 5, 9), timestamp=1e6))
        assert engine.live_postings < postings_before

    def test_meter_counts_work(self):
        meter = WorkMeter()
        engine = StreamingSetJoin(Jaccard(0.5), meter=meter)
        records = make_records([[1, 2, 3], [1, 2, 4], [1, 2, 3, 4]])
        for r in records:
            engine.probe_and_insert(r)
        assert meter.operation("posting_insert") > 0
        assert meter.operation("posting_scan") > 0
        assert meter.count("candidates") >= meter.count("verifications") > 0
        assert meter.count("postings_inserted") == meter.operation("posting_insert")

    def test_token_filter_restricts_index(self):
        even = StreamingSetJoin(Jaccard(0.5), token_filter=lambda t: t % 2 == 0)
        even.insert(Record(0, (1, 2, 3, 4), 0.0))
        # only even prefix tokens are posted
        assert even.live_postings <= 2

    def test_pair_filter_blocks_reporting(self):
        engine = StreamingSetJoin(Jaccard(0.5), pair_filter=lambda r, s: False)
        records = make_records([[1, 2, 3], [1, 2, 3]])
        results = []
        for r in records:
            results.extend(engine.probe_and_insert(r))
        assert results == []

    def test_zero_size_probe_returns_nothing(self):
        engine = StreamingSetJoin(Jaccard(0.5))
        engine.insert(Record(0, (1,), 0.0))
        assert engine.probe(Record(1, (), 1.0)) == []


class TestSizeSortedColumns:
    """Unbounded window: every column is in size order after every
    insert, equal sizes in arrival order, all three columns aligned."""

    @staticmethod
    def check_columns(engine, arrivals):
        """``arrivals`` maps token -> rids in the order they were posted.
        A stable sort of that by record size is what incremental
        ``bisect_right`` inserts build."""
        size_of = {}
        for token, cols in engine._index.items():
            sizes = list(cols.sizes)
            assert sizes == sorted(sizes), f"token {token}: {sizes}"
            assert cols.timestamps is None
            for size, position, rec in zip(sizes, cols.positions, cols.recs):
                assert len(rec.tokens) == size
                assert rec.tokens[position] == token
                size_of[rec.rid] = size
            assert [r.rid for r in cols.recs] == sorted(
                arrivals[token], key=size_of.__getitem__
            ), f"token {token}"

    def drive(self, engine, records, probe_every=0):
        arrivals = {}
        width = engine.func.index_prefix_length
        for n, record in enumerate(records, 1):
            engine.insert(record)
            for token in record.tokens[:width(len(record.tokens))]:
                if engine.token_filter is None or engine.token_filter(token):
                    arrivals.setdefault(token, []).append(record.rid)
            self.check_columns(engine, arrivals)
            if probe_every and n % probe_every == 0:
                engine.probe(record)
        assert engine.live_postings == sum(map(len, arrivals.values()))

    def test_smaller_record_lands_before_larger_ones(self):
        engine = StreamingSetJoin(Jaccard(0.9))  # posts first token only
        for rid, size in enumerate([3, 5, 5, 2, 5, 3, 9, 1]):
            engine.insert(Record(rid, tuple(range(7, 7 + size)), timestamp=rid))
        cols = engine._index[7]
        assert list(cols.sizes) == [1, 2, 3, 3, 5, 5, 5, 9]
        # equal sizes keep arrival order; every column moved together
        assert [r.rid for r in cols.recs] == [7, 3, 0, 5, 1, 2, 4, 6]
        assert [len(r.tokens) for r in cols.recs] == list(cols.sizes)
        assert list(cols.positions) == [0] * 8

    @pytest.mark.parametrize("probe_every", [0, 1, 7])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_sorted_after_every_insert(self, seed, probe_every):
        rng = random.Random(seed)
        records = make_records(random_corpus(rng, 200, universe=15, max_len=12))
        self.drive(StreamingSetJoin(Jaccard(0.6)), records, probe_every)

    def test_sorted_under_token_filter_and_eager_flag(self):
        rng = random.Random(3)
        records = make_records(random_corpus(rng, 200, universe=15, max_len=12))
        engine = StreamingSetJoin(
            Jaccard(0.6), token_filter=lambda t: t % 3 != 0, expiry="eager"
        )
        self.drive(engine, records, probe_every=5)

    @given(sizes=st.lists(st.integers(1, 30), min_size=0, max_size=80))
    @settings(max_examples=80, deadline=None)
    def test_property_random_size_sequences(self, sizes):
        records = [
            Record(rid, tuple(range(size)), timestamp=float(rid))
            for rid, size in enumerate(sizes)
        ]
        self.drive(StreamingSetJoin(Jaccard(0.7)), records)


class TestExactDuplicates:
    """Size-sorted layout: a record whose own probe met an indexed exact
    duplicate joins that record's group instead of posting; every meter
    stays what posting it would have charged."""

    FIRST = (1, 2, 3, 4)

    @staticmethod
    def columns(engine):
        return {
            token: ([rec.rid for rec in cols.recs], list(cols.sizes),
                    list(cols.positions), list(cols.timestamps or ()))
            for token, cols in engine._index.items()
        }

    def loaded(self, window=None):
        meter = WorkMeter()
        engine = StreamingSetJoin(Jaccard(0.5), window=window, meter=meter)
        engine.probe_and_insert(Record(0, self.FIRST, 0.0))
        engine.probe_and_insert(Record(1, (1, 2, 5, 6), 1.0))
        return engine, meter

    def test_probed_duplicate_shares_the_posting(self):
        engine, meter = self.loaded()
        width = engine.func.index_prefix_length(len(self.FIRST))
        before, live = self.columns(engine), engine.live_postings
        duplicate = Record(2, self.FIRST, 2.0)
        assert [m.partner.rid for m in engine.probe(duplicate)] == [0]
        engine.insert(duplicate)
        assert self.columns(engine) == before
        assert engine.live_postings == live + width
        assert meter.operation("posting_insert") == live + width
        # A later probe meets both through the one posting, charged as
        # two scanned postings per column and two verifications.
        scans = meter.operation("posting_scan")
        found = engine.probe(Record(3, self.FIRST, 3.0))
        assert [(m.partner.rid, m.overlap) for m in found] == [(0, 4), (2, 4)]
        assert meter.operation("posting_scan") - scans == sum(
            len(cols.recs) + engine._member_postings.get(token, 0)
            for token, cols in engine._index.items()
            if token in self.FIRST[:engine.func.probe_prefix_length(4)]
        )
        assert {rid: [r.rid for r in group]
                for rid, group in engine._groups.items()} == {0: [0, 2]}

    def test_insert_without_its_probe_posts(self):
        engine, _ = self.loaded()
        before, live = self.columns(engine), engine.live_postings
        width = engine.func.index_prefix_length(len(self.FIRST))
        engine.probe(Record(2, self.FIRST, 2.0))  # a different object
        engine.insert(Record(2, self.FIRST, 2.0))
        engine.insert(Record(3, self.FIRST, 3.0))
        after = self.columns(engine)
        for token in self.FIRST[:width]:
            assert after[token][0] == before[token][0] + [2, 3]
        assert engine.live_postings == live + 2 * width
        assert not engine._groups and not engine._member_postings

    def test_bounded_window_posts_every_duplicate(self):
        engine, _ = self.loaded(window=SlidingWindow(100.0))
        before, live = self.columns(engine), engine.live_postings
        width = engine.func.index_prefix_length(len(self.FIRST))
        for rid in (2, 3):
            engine.probe_and_insert(Record(rid, self.FIRST, float(rid)))
        after = self.columns(engine)
        for token in self.FIRST[:width]:
            assert after[token][0] == before[token][0] + [2, 3]
            assert after[token][3] == before[token][3] + [2.0, 3.0]
        assert engine.live_postings == live + 2 * width
        assert not engine._groups and not engine._member_postings


class TestTimeOrderedColumns:
    """A bounded window: columns sorted by timestamp, dead postings
    dropped as a prefix — by the probe that meets them (lazy) or by the
    heap before every operation (eager)."""

    def engine(self, seconds, expiry="lazy"):
        """θ = 0.9: records of up to 9 tokens post only their first."""
        meter = WorkMeter()
        return StreamingSetJoin(
            Jaccard(0.9), window=SlidingWindow(seconds), meter=meter,
            expiry=expiry,
        ), meter

    def test_boundary_is_alive_next_float_expires(self):
        seconds = 2.5
        engine, meter = self.engine(seconds)
        engine.insert(Record(0, (1, 2, 3), timestamp=0.0))
        found = engine.probe(Record(1, (1, 2, 3), timestamp=seconds))
        assert [m.partner.rid for m in found] == [0]
        assert meter.operation("posting_expire") == 0
        assert engine.live_postings == 1
        later = math.nextafter(seconds, math.inf)
        assert engine.probe(Record(2, (1, 2, 3), timestamp=later)) == []
        assert meter.operation("posting_expire") == 1
        assert engine.live_postings == 0

    @pytest.mark.parametrize("expiry", ["lazy", "eager"])
    def test_late_record_lands_at_its_time_position(self, expiry):
        engine, _ = self.engine(10.0, expiry)
        for rid, ts in enumerate([0.0, 1.0, 3.0, 3.0, 2.0, 3.0, 0.5]):
            engine.insert(Record(rid, (7, 8 + rid), timestamp=ts))
        cols = engine._index[7]
        assert list(cols.timestamps) == [0.0, 0.5, 1.0, 2.0, 3.0, 3.0, 3.0]
        # equal timestamps keep arrival order; every column moved together
        assert [r.rid for r in cols.recs] == [0, 6, 1, 4, 2, 3, 5]
        assert [r.timestamp for r in cols.recs] == list(cols.timestamps)
        assert list(cols.sizes) == [2] * 7
        assert list(cols.positions) == [0] * 7

    def test_dead_prefix_is_dropped_and_live_suffix_scanned(self):
        engine, meter = self.engine(2.0)
        for rid, ts in enumerate([0.0, 1.0, 0.5, 3.0, 2.5]):
            engine.insert(Record(rid, (7, 8), timestamp=ts))
        found = engine.probe(Record(9, (7, 8), timestamp=4.0))
        assert sorted(m.partner.rid for m in found) == [3, 4]
        # the list is charged whole, its three dead postings expire
        assert meter.operation("posting_scan") == 5
        assert meter.operation("posting_expire") == 3
        assert [r.rid for r in engine._index[7].recs] == [4, 3]
        assert engine.live_postings == 2
        assert meter.signals["window_expiration_lag_fraction"] == (4.0 - 0.0 - 2.0) / 2.0

    def test_fully_dead_list_removes_the_token(self):
        engine, meter = self.engine(1.0)
        for rid in range(4):
            engine.insert(Record(rid, (7, 8), timestamp=rid * 0.1))
        engine.insert(Record(4, (8, 9), timestamp=0.0))
        assert engine.probe(Record(9, (7, 9), timestamp=50.0)) == []
        # only the list the probe touched is collected
        assert 7 not in engine._index and 8 in engine._index
        assert meter.operation("posting_expire") == 4
        assert engine.live_postings == 1

    def test_late_probe_expires_nothing(self):
        engine, meter = self.engine(1.0)
        engine.insert(Record(0, (7, 8), timestamp=100.0))
        found = engine.probe(Record(1, (7, 8), timestamp=5.0))
        assert [m.partner.rid for m in found] == [0]
        assert meter.operation("posting_expire") == 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_eager_index_holds_exactly_the_live_postings(self, seed):
        """After every operation at time ``now`` the columns physically
        hold ``live_postings`` entries, in time order, none dead at
        ``now`` — nothing consumed lingers, nothing is marked dead."""
        seconds = 3.0
        engine = StreamingSetJoin(
            Jaccard(0.6), window=SlidingWindow(seconds), expiry="eager"
        )
        expired = False
        for record in fuzz_stream(seed):
            for op in (engine.probe, engine.insert):
                before = engine.live_postings
                op(record)
                if op == engine.probe and not record.tokens:
                    continue  # an empty probe returns before the index
                expired = expired or engine.live_postings < before
                held = 0
                for cols in engine._index.values():
                    timestamps = list(cols.timestamps)
                    held += len(cols.recs)
                    assert timestamps == sorted(timestamps)
                    assert record.timestamp - timestamps[0] <= seconds
                    assert len(cols.sizes) == len(cols.positions) == len(
                        timestamps
                    ) == len(cols.recs)
                    assert [r.timestamp for r in cols.recs] == timestamps
                assert held == engine.live_postings
        assert expired  # the heap cut real postings along the way


class TestPostingsLayout:
    """What a posting costs: two 32-bit integer columns and a Record
    reference (the rid is the Record's), plus a timestamp only where
    postings can expire."""

    @pytest.mark.parametrize("window", [None, SlidingWindow(5.0)])
    def test_columns(self, window):
        engine = StreamingSetJoin(Jaccard(0.6), window=window)
        rng = random.Random(5)
        for record in make_records(random_corpus(rng, 60, 20, 10)):
            engine.probe_and_insert(record)
        assert engine._index
        assert _Postings.__slots__ == ("sizes", "positions", "timestamps", "recs")
        for cols in engine._index.values():
            assert cols.sizes.typecode == cols.positions.typecode == "i"
            if window is None:
                assert cols.timestamps is None
            else:
                assert cols.timestamps.typecode == "d"

    def test_index_bytes_per_posting(self):
        """What the engine's own allocations hold per posting after
        indexing a seeded ENRON-like stream (~90-token records, the
        Records themselves excluded): 33 B at this size on CPython
        3.11, against ~60 B with a 64-bit rid column, 64-bit
        size/position columns and an empty timestamps array per
        token. The bound leaves ~25 % headroom."""
        records = list(synthetic_enron(2000, seed=11, vocabulary_size=2000))
        tracemalloc.start()
        try:
            engine = StreamingSetJoin(Jaccard(0.8))
            for record in records:
                engine.insert(record)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = sum(
            stat.size for stat in snapshot.filter_traces(
                [tracemalloc.Filter(True, local_join.__file__)]
            ).statistics("filename")
        )
        assert engine.live_postings > 30_000
        assert held / engine.live_postings <= 42


class TestExpiryModes:
    def test_rejects_unknown_expiry(self):
        with pytest.raises(ValueError, match="expiry"):
            StreamingSetJoin(Jaccard(0.5), expiry="never")

    def test_eager_evicts_on_insert_without_probing(self):
        engine = StreamingSetJoin(
            Jaccard(0.9), window=SlidingWindow(1.0), expiry="eager"
        )
        for i in range(10):
            engine.insert(Record(i, (1, 2, 3), timestamp=float(i) * 0.1))
        assert engine.live_postings > 0
        # A far-future insert alone (token-disjoint, so no probe ever
        # touches the stale postings) must still drain the whole index.
        engine.insert(Record(99, (7, 8, 9), timestamp=1e6))
        func = Jaccard(0.9)
        assert engine.live_postings == func.index_prefix_length(3)

    def test_eager_meters_expiration(self):
        meter = WorkMeter()
        engine = StreamingSetJoin(
            Jaccard(0.9), window=SlidingWindow(1.0), meter=meter,
            expiry="eager",
        )
        engine.insert(Record(0, (1, 2, 3), timestamp=0.0))
        inserted = meter.operation("posting_insert")
        engine.insert(Record(1, (4, 5, 6), timestamp=100.0))
        assert meter.operation("posting_expire") == inserted

    def test_eager_unbounded_window_never_expires(self):
        engine = StreamingSetJoin(Jaccard(0.9), expiry="eager")
        for i in range(5):
            engine.insert(Record(i, (1, 2, 3), timestamp=float(i) * 1e6))
        func = Jaccard(0.9)
        assert engine.live_postings == 5 * func.index_prefix_length(3)

    def test_eager_bounds_the_index_on_an_open_vocabulary(self):
        """What only the mode provides: every record's one posted token
        is fresh, so no later probe touches it — lazy keeps every
        posting of the stream, eager at most a window's worth."""
        seconds, spacing, func = 10.0, 1.0, Jaccard(0.9)
        records = [
            Record(rid, (rid, 1000, 1001), timestamp=rid * spacing)
            for rid in range(int(5 * seconds / spacing))
        ]
        assert func.index_prefix_length(3) == 1
        in_window = int(seconds / spacing) + 1
        engines = {
            expiry: StreamingSetJoin(
                func, window=SlidingWindow(seconds), expiry=expiry
            )
            for expiry in ("lazy", "eager")
        }
        for n, record in enumerate(records, start=1):
            for engine in engines.values():
                assert engine.probe_and_insert(record) == []
            assert engines["lazy"].live_postings == n
            assert engines["eager"].live_postings == min(n, in_window)
            assert len(engines["eager"]._index) == min(n, in_window)

    @pytest.mark.parametrize("window_seconds", [2.0, 7.5])
    def test_eager_matches_lazy_results(self, window_seconds):
        func = Jaccard(0.6)
        rng = random.Random(23)
        records = make_records(
            random_corpus(rng, 150, universe=30, max_len=8), spacing=0.5
        )
        outputs = []
        for expiry in ("lazy", "eager"):
            engine = StreamingSetJoin(
                func, window=SlidingWindow(window_seconds), expiry=expiry
            )
            outputs.append([
                sorted((m.partner.rid, m.overlap) for m in
                       engine.probe_and_insert(r))
                for r in records
            ])
        assert outputs[0] == outputs[1]


class TestFilteredModeEquivalence:
    """A union of token-filtered engines must equal one unfiltered
    engine (the prefix scheme's per-worker decomposition): each engine
    reports a pair only if it owns the pair's minimal common token."""

    @pytest.mark.parametrize("num_workers", [2, 3, 5])
    def test_union_over_token_shards(self, num_workers):
        from repro.routing.prefix_router import token_owner

        func = Jaccard(0.6)
        rng = random.Random(17)
        records = make_records(random_corpus(rng, 140, universe=35, max_len=10))
        oracle = naive_join(records, func)

        engines = []
        for w in range(num_workers):
            engines.append(
                StreamingSetJoin(
                    func,
                    token_filter=lambda t, w=w: token_owner(t, num_workers) == w,
                )
            )
        found = {}
        for r in records:
            width = func.probe_prefix_length(r.size)
            owners = {token_owner(t, num_workers) for t in r.tokens[:width]}
            for w in sorted(owners):
                for match in engines[w].probe(r):
                    key = pair_key(r, match.partner)
                    assert key not in found, f"pair {key} reported at 2 workers"
                    found[key] = match.similarity
            for w in sorted(owners):
                engines[w].insert(r)
        assert set(found) == set(oracle)
