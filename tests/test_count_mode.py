"""Count-only probes: ``StreamingSetJoin.count`` against ``probe``.

A counting engine runs the probe walk of a row-building one — the same
filters, merges and meter charges — and returns how many rows it found
instead of the rows. The property test drives one engine of each mode
over the same stream on every similarity function, window layout and
filter; the runtime test shows that a count-only parallel run builds
no row and computes no similarity anywhere, at one and two workers.
"""

import math
import multiprocessing
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import local_join
from repro.core.config import JoinConfig
from repro.core.local_join import StreamingSetJoin
from repro.core.metering import WorkMeter
from repro.core.two_stream import cross_source_filter
from repro.parallel import ParallelJoinRunner, ParallelWorkerError
from repro.parallel.runtime import run_serial
from repro.records import Record
from repro.routing.prefix_router import token_owner
from repro.similarity import functions
from repro.similarity.functions import get_similarity
from repro.streams.window import SlidingWindow

#: Every similarity function, each at a threshold that pairs often.
SIMILARITIES = {"jaccard": 0.6, "cosine": 0.7, "dice": 0.7, "overlap": 2}
#: Unbounded (size-sorted columns, exact duplicates grouped) and a
#: 10 s window (time-ordered columns) under both expiry modes.
WINDOWS = {
    "unbounded": (math.inf, "lazy"),
    "10s-lazy": (10.0, "lazy"),
    "10s-eager": (10.0, "eager"),
}
FILTERS = {
    "none": {},
    "token": {"token_filter": lambda token: token_owner(token, 3) != 1},
    "pair": {"pair_filter": cross_source_filter},
}


def stream(seed, duplicate_rate, late_rate, n=160):
    """Short records over a small vocabulary: exact repeats of recent
    and old records, ties, arrivals up to 15 s late, mixed sources."""
    rng = random.Random(seed)
    records = []
    now = 0.0
    for rid in range(n):
        if rng.random() < 0.8:
            now += rng.random()
        late = rng.random() * 15.0 if rng.random() < late_rate else 0.0
        if records and rng.random() < duplicate_rate:
            pool = records[-10:] if rng.random() < 0.5 else records
            tokens = rng.choice(pool).tokens
        else:
            tokens = tuple(sorted(rng.sample(range(25), rng.randint(0, 6))))
        records.append(Record(rid, tokens, now - late, source=rng.choice("LR")))
    return records


def engine(func_name, window, filters):
    seconds, expiry = WINDOWS[window]
    return StreamingSetJoin(
        get_similarity(func_name, SIMILARITIES[func_name]),
        window=SlidingWindow(seconds),
        meter=WorkMeter(),
        expiry=expiry,
        **FILTERS[filters],
    )


@pytest.mark.parametrize("filters", FILTERS)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("func_name", SIMILARITIES)
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    duplicate_rate=st.sampled_from([0.0, 0.3, 0.7]),
    late_rate=st.sampled_from([0.0, 0.1]),
)
def test_count_is_the_probes_row_count(
    func_name, window, filters, seed, duplicate_rate, late_rate
):
    rows, counts = engine(func_name, window, filters), engine(
        func_name, window, filters
    )
    found = 0
    for record in stream(seed, duplicate_rate, late_rate):
        matches = rows.probe(record)
        assert counts.count(record) == len(matches), record.rid
        found += len(matches)
        rows.insert(record)
        counts.insert(record)
    for observable in ("operations", "events", "signals"):
        assert getattr(counts.meter, observable) == getattr(
            rows.meter, observable
        ), observable
    assert counts.live_postings == rows.live_postings
    assert counts.meter.operations.get("result_emit", 0) == found


def dense_records(n=1200, seed=52):
    """Two- and three-token records over 40 tokens, a third of them
    exact repeats: many rows per probe, grouped postings included."""
    rng = random.Random(seed)
    records = []
    for rid in range(n):
        if records and rng.random() < 0.3:
            tokens = rng.choice(records).tokens
        else:
            tokens = tuple(sorted(rng.sample(range(40), rng.randint(2, 3))))
        records.append(Record(rid, tokens, rid * 0.01))
    return records


class NotATuple:
    """What ``MatchResult`` becomes under the patch: ``tuple.__new__``
    refuses it, so building any row raises."""


def no_similarity(*args):
    raise AssertionError("a count-only probe computed a similarity")


CELLS = [
    # (workers, shards, distribution, window seconds, expiry, trace)
    (1, None, "length", math.inf, "lazy", 0),
    (2, None, "length", math.inf, "lazy", 0),
    (2, 4, "prefix", math.inf, "lazy", 0),
    (2, None, "length", 2.0, "lazy", 7),
    (1, None, "length", 2.0, "eager", 7),
]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patch reaches the workers only through fork",
)
@pytest.mark.parametrize(
    "workers, shards, distribution, seconds, expiry, trace", CELLS
)
def test_count_only_run_builds_no_row(
    monkeypatch, workers, shards, distribution, seconds, expiry, trace
):
    """Under fork the workers inherit the patched ``MatchResult`` and
    similarity functions: a count-only run must not touch either, and
    still report the serial run's row count and meters. A collecting
    run under the same patch fails, so the patch does reach the
    workers. ``trace`` on sends traced records through the timed step."""
    config = JoinConfig(
        threshold=0.6,
        num_workers=shards or workers,
        distribution=distribution,
        window_seconds=seconds,
        expiry=expiry,
        batch_size=64,
    )
    records = dense_records()
    serial = run_serial(config, records)
    assert len(serial.matches) > 200
    monkeypatch.setattr(local_join, "MatchResult", NotATuple)
    for cls in functions._REGISTRY.values():
        monkeypatch.setattr(cls, "similarity_from_overlap", no_similarity)
    runner = ParallelJoinRunner(
        config, workers=workers, start_method="fork", trace_sample=trace
    )
    try:
        counted = runner.run(records, collect=False)
    except (ImportError, OSError, PermissionError) as error:
        pytest.skip(f"multiprocessing unavailable on this host: {error}")
    assert counted.results == len(serial.matches)
    assert counted.operations == serial.operations
    assert counted.events == serial.events
    with pytest.raises(ParallelWorkerError):
        runner.run(records)
