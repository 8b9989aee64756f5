"""The results direction's one representation: ``MatchTable``.

Sequence protocol, the ordered-runs bookkeeping and its block merge
against a plain ``sorted(list_of_tuples)`` oracle, the one shipper's
frames, the driver-side memory bound, and the differential case the
grids lack: out-of-order timestamps over several shards per worker.
"""

import random
import tracemalloc

import pytest

from repro.core.config import JoinConfig
from repro.core.local_join import MatchResult
from repro.parallel import (
    MatchTable,
    ParallelJoinRunner,
    decode_match_batch,
    encode_match_batch,
    merge_matches,
    run_serial,
)
from repro.parallel.codec import TAG_MATCHES
from repro.parallel.worker import MATCH_CHUNK, ship_matches
from repro.records import Record

from tests.test_parallel_differential import try_process_run

ROWS = [
    (0.5, 10, 3, 4, 0.8),
    (0.5, 10, 7, 2, 1.0),
    (0.75, 11, 10, 5, 1.0),
    (1.25, 12, 1, 2, 0.625),
]


class TestSequenceProtocol:
    def test_len_index_iteration(self):
        table = MatchTable(ROWS)
        assert len(table) == 4
        assert table[0] == ROWS[0]
        assert table[-1] == ROWS[-1]
        assert isinstance(table[1], tuple)
        assert list(table) == ROWS
        assert [row for row in table] == ROWS  # iterable twice
        with pytest.raises(IndexError):
            table[4]

    def test_slice_is_a_table(self):
        table = MatchTable(ROWS)
        middle = table[1:3]
        assert isinstance(middle, MatchTable)
        assert middle == ROWS[1:3]
        assert table[:0] == [] and len(table[:0]) == 0
        assert table[::-1] == ROWS[::-1]
        assert not table[::-1].ordered and table[::2].ordered

    def test_equality_both_operand_orders(self):
        table = MatchTable(ROWS)
        assert table == MatchTable(ROWS)
        assert table == ROWS and ROWS == table
        assert not table != ROWS and not ROWS != table
        other = ROWS[:-1] + [(1.25, 12, 1, 2, 0.5)]
        assert table != other and other != table
        assert table != MatchTable(other)
        assert table != ROWS[:-1] and ROWS[:-1] != table  # unequal lengths
        assert table != MatchTable(ROWS[:-1])
        assert MatchTable() == [] and [] == MatchTable()
        assert table != "rows"

    def test_rows_round_trip(self):
        shuffled = ROWS[::-1]
        assert list(MatchTable(shuffled)) == shuffled
        assert list(MatchTable(iter(ROWS))) == ROWS
        assert list(MatchTable(MatchTable(ROWS))) == ROWS

    def test_wire_round_trip_from_rows_and_from_table(self):
        frame = encode_match_batch(ROWS)
        assert frame == encode_match_batch(MatchTable(ROWS))
        assert len(frame) == 4 + 40 * len(ROWS)
        decoded = decode_match_batch(memoryview(frame))
        assert isinstance(decoded, MatchTable) and decoded == ROWS
        # The drain loop decodes a view past the tag byte, not a copy.
        tagged = memoryview(bytes([TAG_MATCHES]) + frame)[1:]
        assert decode_match_batch(tagged) == decode_match_batch(frame)


def emit_all(table, probes):
    for timestamp, rid, partners in probes:
        table.emit(timestamp, rid, [
            MatchResult(Record(rid=partner, tokens=()), similarity, overlap)
            for partner, overlap, similarity in partners
        ])


def as_rows(probes):
    return [
        (timestamp, rid, partner, overlap, similarity)
        for timestamp, rid, partners in probes
        for partner, overlap, similarity in partners
    ]


def random_probes(rng, n=120):
    """Probes in arrival order: timestamps repeat across records, and
    every probe's partners come in scan (not rid) order."""
    probes = []
    for rid in range(1, n):
        timestamp = (rid // 3) * 0.5  # three records per timestamp
        partners = rng.sample(range(rid), min(rid, rng.randint(1, 9)))
        probes.append((timestamp, rid, [
            (partner, rng.randint(1, 5), rng.choice((0.8, 0.9, 1.0)))
            for partner in partners
        ]))
    return probes


class TestOrderedRuns:
    def test_in_order_emits_stay_one_run(self):
        probes = random_probes(random.Random(1))
        table = MatchTable()
        emit_all(table, probes)
        assert table.ordered and table.runs == [0]
        assert list(table) == sorted(as_rows(probes))
        before = table.columns
        table.sort()
        assert table.columns is before  # nothing to do, nothing copied

    @pytest.mark.parametrize("seed", range(6))
    def test_interleaved_shards_and_late_arrivals(self, seed):
        """Each probe is split over up to three 'shards' (its partners
        interleave across them), shards are emitted batch-wise, and a
        few probes arrive late — the merge must equal a tuple sort."""
        rng = random.Random(seed)
        shards = [[], [], []]
        for timestamp, rid, partners in random_probes(rng):
            for shard in shards:
                mine = [p for p in partners if rng.random() < 0.5]
                partners = [p for p in partners if p not in mine]
                if mine:
                    shard.append((timestamp, rid, mine))
        for shard in shards:
            for _ in range(4):  # late arrivals inside one shard
                shard.insert(rng.randrange(len(shard)), shard.pop())
        emitted = []
        while any(shards):
            shard = rng.choice([s for s in shards if s])
            batch, shard[:] = shard[:16], shard[16:]
            emitted.extend(batch)
        table = MatchTable()
        emit_all(table, emitted)
        assert not table.ordered and len(table.runs) > 3
        table.sort()
        assert table.ordered
        assert list(table) == sorted(as_rows(emitted))

    def test_rows_constructor_finds_the_runs(self):
        rng = random.Random(9)
        rows = as_rows(random_probes(rng))
        rng.shuffle(rows)
        table = MatchTable(rows)
        assert list(table) == rows and not table.ordered
        for lo, hi in zip(table.runs, table.runs[1:] + [len(rows)]):
            assert rows[lo:hi] == sorted(rows[lo:hi])
        table.sort()
        assert list(table) == sorted(rows)
        assert MatchTable(sorted(rows)).ordered

    def test_one_timestamp_everywhere(self):
        rows = [(0.0, a, b, 1, 1.0) for a in range(12) for b in range(a)]
        random.Random(3).shuffle(rows)
        table = MatchTable(rows)
        table.sort()
        assert list(table) == sorted(rows)

    def test_extend_keeps_runs_across_the_seam(self):
        rows = sorted(as_rows(random_probes(random.Random(4))))
        head, tail = MatchTable(rows[:50]), MatchTable(rows[50:])
        head.extend(tail)
        assert head.ordered and head == rows
        tail.extend(MatchTable(rows[:50]))
        assert tail.runs == [0, len(rows) - 50]
        empty = MatchTable()
        empty.extend(MatchTable(rows))
        empty.extend(MatchTable())
        assert empty.ordered and empty == rows


class TestMergeMatches:
    def test_single_table_is_adopted(self):
        table = MatchTable(ROWS)
        columns = table.columns
        merged = merge_matches([table])
        assert merged is table and merged.columns is columns

    def test_tables_and_lists_mix(self):
        rows = sorted(as_rows(random_probes(random.Random(5))))
        chunks = [rows[0::3], MatchTable(rows[1::3]), MatchTable(rows[2::3])]
        merged = merge_matches(chunks)
        assert isinstance(merged, MatchTable) and merged.ordered
        assert merged == rows
        assert merge_matches([]) == []
        assert merge_matches([rows[::-1]]) == rows  # a list's order is checked

    def test_driver_side_memory_stays_near_the_wire_size(self):
        """Decoding and merging one worker's 200 k rows must not build
        per-row objects: the driver's peak stays within 2.5x the wire
        bytes (a tuple list alone is > 5x)."""
        n = 200_000
        table = MatchTable()
        stamps, rid_a, rid_b, overlap, similarity = table.columns
        stamps.extend(i * 0.001 for i in range(n))
        rid_a.extend(range(1, n + 1))
        rid_b.extend(range(n))
        overlap.extend([2] * n)
        similarity.extend([0.875] * n)
        frames = [
            encode_match_batch(table[i:i + MATCH_CHUNK])
            for i in range(0, n, MATCH_CHUNK)
        ]
        wire = sum(map(len, frames))
        tracemalloc.start()
        try:
            rows = MatchTable()
            for frame in frames:
                rows.extend(decode_match_batch(frame))
            merged = merge_matches([rows])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert merged is rows and len(merged) == n and merged == table
        assert peak <= 2.5 * wire, f"peak {peak} vs wire {wire}"


    def test_a_count_only_run_keeps_the_driver_at_the_no_rows_floor(self):
        """A dense result (one match class: ~20 k rows, 0.8 MB of
        columns) through real workers. Collecting holds it; count-only,
        no worker ships a byte and the driver's traced peak is what a
        run with no rows at all costs, plus a small constant — a bound
        independent of the result."""
        dense = [
            Record(rid=rid, tokens=(3, 7, 9), timestamp=rid * 0.001)
            for rid in range(200)
        ]
        disjoint = [
            Record(rid=rid, tokens=(rid,), timestamp=rid * 0.001)
            for rid in range(200)
        ]
        config = JoinConfig(threshold=0.9, num_workers=2, batch_size=8)

        def driver_peak(records, collect):
            runner = ParallelJoinRunner(config, workers=2)
            tracemalloc.start()
            try:
                result = try_process_run(runner, records, collect)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return result, peak

        driver_peak(disjoint, True)  # first-run imports are not the run's
        empty, floor = driver_peak(disjoint, False)
        collected, held = driver_peak(dense, True)
        counted, peak = driver_peak(dense, False)
        wire = 40 * collected.results
        assert empty.results == 0
        assert counted.matches is None
        assert collected.results == counted.results > 15_000
        assert held >= wire
        assert [stats["bytes_out"] for stats in counted.worker_stats] == [0, 0]
        assert peak <= floor + 32 * 1024, (peak, floor, wire)


class _Pipe:
    """Stand-in for the worker's end of the result pipe."""

    def __init__(self):
        self.frames = []

    def send_bytes(self, frame):
        self.frames.append(bytes(frame))


class TestShipMatches:
    ROWS = sorted(as_rows(random_probes(random.Random(6), n=400)))

    def test_pipe_frames_are_the_codec_frames(self):
        table = MatchTable(self.ROWS * 12)  # > one MATCH_CHUNK
        table.sort()
        conn = _Pipe()
        sent = ship_matches(table, conn)
        expected = [
            bytes([TAG_MATCHES]) + encode_match_batch(table[i:i + MATCH_CHUNK])
            for i in range(0, len(table), MATCH_CHUNK)
        ]
        assert len(expected) > 1 and conn.frames == expected
        assert sent == sum(map(len, expected))
        table.emit(9e9, 10 ** 9, [MatchResult(Record(0, ()), 1.0, 1)])  # unpinned


def late_arrival_records(seed=23, n=300):
    rng = random.Random(seed)
    records = []
    for rid in range(n):
        if records and rng.random() < 0.5:
            tokens = rng.choice(records[-40:]).tokens
        else:
            tokens = tuple(sorted(rng.sample(range(60), rng.randint(2, 8))))
        # Arrival order is rid order; event time jitters backwards and
        # repeats (two decimals), so canonical order != arrival order.
        timestamp = round(rid * 0.01 + rng.uniform(-0.08, 0.0), 2)
        records.append(Record(rid=rid, tokens=tokens, timestamp=timestamp))
    return records


class TestDifferential:
    def test_out_of_order_stream_over_four_shards(self):
        records = late_arrival_records()
        config = JoinConfig(threshold=0.6, num_workers=4)
        serial = run_serial(config, records)
        assert serial.results > 50 and serial.num_shards == 4
        rows = list(serial.matches)
        assert rows == sorted(rows)
        arrival = [row[1] for row in rows]
        assert arrival != sorted(arrival), "stream was not out of order"
        runner = ParallelJoinRunner(config.replace(batch_size=16), workers=2)
        result = try_process_run(runner, records)
        assert result.matches == rows
        assert result.operations == serial.operations
        assert result.events == serial.events
