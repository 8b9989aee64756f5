"""Tests for records, arrival processes, streams and windows."""

import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.records import Record, pair_key, trusted_record
from repro.streams.arrival import BurstyArrivals, ConstantRate, PoissonArrivals
from repro.streams.stream import RecordStream, from_records
from repro.streams.window import SlidingWindow


class TestRecord:
    def test_canonical_enforced(self):
        with pytest.raises(ValueError, match="ascending"):
            Record(rid=0, tokens=(3, 1, 2))
        with pytest.raises(ValueError, match="ascending"):
            Record(rid=0, tokens=(1, 1))  # duplicates rejected too
        message = (
            "Record 4: tokens must be strictly ascending (canonical form), "
            "got (9, 7, 5, 2)"
        )
        with pytest.raises(ValueError) as descending:
            Record(rid=4, tokens=(9, 7, 5, 2))
        assert str(descending.value) == message
        with pytest.raises(ValueError, match=r"got \(1, 2, 5, 5, 8\)"):
            Record(rid=4, tokens=(1, 2, 5, 5, 8))  # a repeat mid-record
        for tokens in ((), (7,), (0, 3, 8)):
            assert Record(rid=4, tokens=tokens).tokens == tokens

    def test_size_and_prefix(self):
        r = Record(rid=1, tokens=(2, 5, 9))
        assert r.size == 3
        assert r.prefix(2) == (2, 5)
        assert r.prefix(10) == (2, 5, 9)

    def test_pair_key_orders_ids(self):
        a = Record(rid=7, tokens=(1,))
        b = Record(rid=3, tokens=(2,))
        assert pair_key(a, b) == (3, 7) == pair_key(b, a)

    def test_records_are_hashable_and_frozen(self):
        r = Record(rid=1, tokens=(1, 2))
        assert hash(r) == hash(Record(rid=1, tokens=(1, 2)))
        with pytest.raises(Exception):
            r.rid = 2

    def test_records_are_slotted_and_still_a_frozen_dataclass(self):
        """Four slots and no ``__dict__`` — the memory a stream of short
        records is held in — and every dataclass behaviour kept."""
        r = Record(rid=3, tokens=(1, 4), timestamp=0.5, source="L")
        assert Record.__slots__ == ("rid", "tokens", "timestamp", "source")
        assert not hasattr(r, "__dict__")
        copy = pickle.loads(pickle.dumps(r))
        assert copy == r and type(copy) is Record and hash(copy) == hash(r)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.rid = 4
        assert dataclasses.replace(r, rid=4) == Record(
            rid=4, tokens=(1, 4), timestamp=0.5, source="L"
        )
        with pytest.raises(ValueError, match="ascending"):
            dataclasses.replace(r, tokens=(4, 1))


class TestArrivals:
    def test_constant_rate_spacing(self):
        it = ConstantRate(100.0).timestamps()
        times = [next(it) for _ in range(5)]
        assert times == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04])

    def test_constant_rate_no_drift(self):
        it = ConstantRate(3.0).timestamps()
        for _ in range(3_000):
            last = next(it)
        assert last == pytest.approx(2999 / 3.0)

    def test_poisson_is_deterministic_per_seed(self):
        a = [t for t, _ in zip(PoissonArrivals(10, seed=4).timestamps(), range(50))]
        b = [t for t, _ in zip(PoissonArrivals(10, seed=4).timestamps(), range(50))]
        c = [t for t, _ in zip(PoissonArrivals(10, seed=5).timestamps(), range(50))]
        assert a == b
        assert a != c

    def test_poisson_mean_rate(self):
        times = [
            t for t, _ in zip(PoissonArrivals(100, seed=1).timestamps(), range(5000))
        ]
        observed_rate = (len(times) - 1) / (times[-1] - times[0])
        assert observed_rate == pytest.approx(100, rel=0.15)

    def test_bursty_structure(self):
        arrivals = BurstyArrivals(burst_rate=100, burst_len=5, gap=1.0, seed=2)
        times = [t for t, _ in zip(arrivals.timestamps(), range(10))]
        # Within the first burst: tight spacing; across bursts: >= gap/2.
        assert times[1] - times[0] == pytest.approx(0.01)
        assert times[5] - times[4] >= 0.5

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ConstantRate(0),
            lambda: ConstantRate(-1),
            lambda: PoissonArrivals(0),
            lambda: BurstyArrivals(0, 5, 1),
            lambda: BurstyArrivals(10, 0, 1),
            lambda: BurstyArrivals(10, 5, -1),
            # NaN passes a ``<= 0`` test: it must not pass the check.
            lambda: ConstantRate(float("nan")),
            lambda: PoissonArrivals(float("nan")),
            lambda: BurstyArrivals(float("nan"), 5, 1),
        ],
    )
    def test_validation(self, factory):
        with pytest.raises(ValueError):
            factory()

    def test_monotone_timestamps_property(self):
        for arrivals in (
            ConstantRate(50),
            PoissonArrivals(50, seed=9),
            BurstyArrivals(200, 7, 0.3, seed=9),
        ):
            times = [t for t, _ in zip(arrivals.timestamps(), range(500))]
            assert all(a <= b for a, b in zip(times, times[1:]))


class TestRecordStream:
    def test_ids_and_timestamps_in_order(self):
        stream = RecordStream([(1, 2), (3,), (2, 4)], ConstantRate(10))
        records = stream.records()
        assert [r.rid for r in records] == [0, 1, 2]
        assert [r.timestamp for r in records] == pytest.approx([0.0, 0.1, 0.2])

    def test_replayable(self):
        stream = RecordStream([(1,), (2,)], ConstantRate(10))
        assert stream.records() == stream.records()

    def test_take(self):
        stream = RecordStream([(1,), (2,), (3,)], ConstantRate(10))
        assert len(stream.take(2)) == 2
        assert stream.take(2).records()[-1].tokens == (2,)

    def test_head_is_a_prefix_of_the_corpus(self):
        stream = RecordStream([(1,), (2,), (3,)])
        assert stream.head(2) == [(1,), (2,)] == stream.corpus[:2]
        assert stream.head(10) == stream.corpus

    def test_rebuilt_stream_pickles(self):
        """A ``spawn`` worker receives a published stream pickled, so
        the arrival process ``from_records`` gives it must pickle."""
        original = RecordStream([(1, 2), (3,)], PoissonArrivals(5, seed=1))
        rebuilt = from_records(original.records())
        assert pickle.loads(pickle.dumps(rebuilt)).records() == original.records()

    def test_statistics(self):
        stream = RecordStream([(1, 2, 3), (1,), (4, 5)], name="tiny")
        stats = stream.statistics()
        assert stats.num_records == 3
        assert stats.min_size == 1 and stats.max_size == 3
        assert stats.avg_size == pytest.approx(2.0)
        assert stats.vocabulary_size == 5
        assert stats.as_row()["dataset"] == "tiny"

    def test_from_records_round_trip(self):
        original = RecordStream([(1, 2), (3,)], ConstantRate(5)).records()
        rebuilt = from_records(original).records()
        assert [(r.tokens, r.timestamp) for r in rebuilt] == [
            (r.tokens, r.timestamp) for r in original
        ]


class TestValidateOnce:
    """A stream checks its corpus once, where it enters, with the error
    ``Record(...)`` raises; its walk builds records without checking
    again."""

    MESSAGE = (
        "Record 1: tokens must be strictly ascending (canonical form), "
        "got (3, 1)"
    )

    def test_every_entry_path_refuses_a_tuple_out_of_order(self):
        escaped = trusted_record(1, (3, 1), 0.5, "")  # skipped its check
        for build in (
            lambda: Record(rid=1, tokens=(3, 1)),
            lambda: RecordStream([(1, 2), (3, 1)]),
            lambda: RecordStream([(1, 2), [3, 1]]),
            lambda: from_records([Record(rid=0, tokens=(1, 2)), escaped]),
        ):
            with pytest.raises(ValueError) as refused:
                build()
            assert str(refused.value) == self.MESSAGE
        with pytest.raises(ValueError, match="Record 0: .* got \\(2, 2\\)"):
            RecordStream([(2, 2)])

    def test_a_walk_checks_nothing(self, monkeypatch, tmp_path):
        import repro.records
        import repro.streams.stream
        from repro.datasets.loader import load_token_file

        expected = [Record(rid=0, tokens=(1, 2)), Record(rid=1, tokens=(3,),
                                                         timestamp=0.001)]
        path = tmp_path / "rows.txt"
        path.write_text("b a b\nc\n")
        loaded = [Record(rid=0, tokens=(0, 1)),
                  Record(rid=1, tokens=(2,), timestamp=0.001)]
        checked = []
        for module in (repro.records, repro.streams.stream):
            monkeypatch.setattr(
                module, "check_canonical",
                lambda rid, tokens: checked.append((rid, tokens)),
            )
        stream = RecordStream([[1, 2], (3,)])
        assert checked == [(0, (1, 2)), (1, (3,))]
        assert stream.records() == stream.records() == expected
        assert stream.take(1).records() == expected[:1]
        assert load_token_file(path)[0].records() == loaded
        assert checked == [(0, (1, 2)), (1, (3,))]  # nothing since

    def test_walked_records_equal_checked_ones(self):
        stream = RecordStream([(1, 2), (3,)], PoissonArrivals(5, seed=2),
                              sources=["L", "R"])
        for record in stream:
            twin = Record(record.rid, record.tokens, record.timestamp,
                          record.source)
            assert type(record) is Record
            assert record == twin and hash(record) == hash(twin)
            assert pickle.loads(pickle.dumps(record)) == twin
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.rid = 9


class TestSlidingWindow:
    def test_unbounded_default(self):
        w = SlidingWindow()
        assert not w.bounded
        assert w.alive(Record(0, (1,), 0.0), now=1e12)

    def test_bounded_alive(self):
        w = SlidingWindow(10.0)
        old = Record(0, (1,), timestamp=0.0)
        assert w.alive(old, now=10.0)
        assert not w.alive(old, now=10.0001)

    def test_qualifies_symmetric(self):
        w = SlidingWindow(5.0)
        a = Record(0, (1,), timestamp=0.0)
        b = Record(1, (1,), timestamp=4.0)
        c = Record(2, (1,), timestamp=6.0)
        assert w.qualifies(a, b) and w.qualifies(b, a)
        assert not w.qualifies(a, c)

    def test_expiry_horizon(self):
        assert SlidingWindow(3.0).expiry_horizon(10.0) == pytest.approx(7.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)
        with pytest.raises(ValueError):
            SlidingWindow(-1)
        with pytest.raises(ValueError):
            SlidingWindow(float("nan"))
        assert not SlidingWindow(math.inf).bounded  # inf stays accepted

    def test_equality(self):
        assert SlidingWindow(5) == SlidingWindow(5)
        assert SlidingWindow(5) != SlidingWindow(6)
        assert SlidingWindow() == SlidingWindow(math.inf)
