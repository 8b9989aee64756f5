"""Differential fuzz: columnar engine vs. the retained reference engine.

The columnar fast path in :mod:`repro.core.local_join` must be
*observationally identical* to the pre-columnar
:class:`ReferenceStreamingSetJoin` — not just the same match set, but
the same per-probe match lists, the same :class:`WorkMeter` operation
and event totals (the repo's cost-model currency, gated float-for-float
by ``repro diff``), and the same live-posting count. These tests drive
both engines over randomized streams — out-of-order timestamps, empty
records, heavy duplicates, bounded and unbounded windows, both expiry
modes, and the prefix-scheme token/pair filters — and assert equality
on every observable (signal peaks included) after every record. A
token-filtered columnar engine applies the prefix scheme's reporting
rule inside its verification walk; the reference engine gets the same
rule bolted on as a separate pass (``bolted_on_dedup``). For the
size-sorted layout the same holds under three insert/probe schedules,
on duplicate-heavy streams too (exact duplicates share one posting
there), and the order matches are emitted in is pinned as well. On
the bench-calibrated AOL and TWEET generators, 3 000 records each, the
end-of-run match multiset, meter totals and live postings are compared.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.local_join import StreamingSetJoin
from repro.core.metering import WorkMeter
from repro.core.reference import (
    ReferenceStreamingSetJoin,
    min_common_prefix_token,
)
from repro.core.two_stream import cross_source_filter
from repro.datasets.corpora import synthetic_aol, synthetic_tweet
from repro.obs.health import HealthMonitor
from repro.records import Record
from repro.routing.prefix_router import token_owner
from repro.similarity.functions import get_similarity
from repro.streams.window import SlidingWindow

ENGINES = (StreamingSetJoin, ReferenceStreamingSetJoin)


def probe_then_insert(records):
    """The streaming schedule: every record probes, then is indexed."""
    for record in records:
        yield "probe", record
        yield "insert", record


def bolted_on_dedup(owned, func, meter, pair_filter=None):
    """Report a pair only where its minimal common prefix token is
    ``owned`` — after ``pair_filter``, as a second merge charged to the
    meter on its own: the two-pass form of what a token-filtered
    ``StreamingSetJoin`` does in one walk."""
    def composed(r, s):
        if pair_filter is not None and not pair_filter(r, s):
            return False
        token, comparisons = min_common_prefix_token(r, s, func)
        meter.charge("token_compare", comparisons)
        return token is not None and owned(token)
    return composed


def run_engine(engine_cls, ops, func_name, threshold, window_seconds,
               expiry, token_filter=None, pair_filter=None):
    """Apply ``(op, record)`` steps; return all observables per step."""
    func = get_similarity(func_name, threshold)
    meter = WorkMeter()
    if token_filter is not None and engine_cls is ReferenceStreamingSetJoin:
        pair_filter = bolted_on_dedup(token_filter, func, meter, pair_filter)
    engine = engine_cls(
        func,
        window=SlidingWindow(window_seconds),
        meter=meter,
        token_filter=token_filter,
        pair_filter=pair_filter,
        expiry=expiry,
    )
    steps = []
    for op, record in ops:
        matches = getattr(engine, op)(record) or []
        steps.append({
            "matches": sorted(
                (m.partner.rid, round(m.similarity, 12), m.overlap)
                for m in matches
            ),
            "emitted": [m.partner for m in matches],
            "operations": dict(meter.operations),
            "events": dict(meter.events),
            "signals": dict(meter.signals),
            "live_postings": engine.live_postings,
        })
    return steps


def assert_identical(records, func_name, threshold, window_seconds, expiry,
                     token_filter=None, pair_filter=None,
                     schedule=probe_then_insert):
    ops = list(schedule(records))
    columnar, reference = (
        run_engine(engine_cls, ops, func_name, threshold,
                   window_seconds, expiry, token_filter, pair_filter)
        for engine_cls in ENGINES
    )
    context = (f"{func_name} θ={threshold} window={window_seconds} "
               f"expiry={expiry}")
    for i, (got, want) in enumerate(zip(columnar, reference)):
        for observable in want:
            if observable == "emitted":
                continue  # emission order is layout-specific
            assert got[observable] == want[observable], (
                f"{context}: after step {i} ({ops[i][0]} rid "
                f"{ops[i][1].rid}) {observable} differ:\n"
                f"  columnar:  {got[observable]}\n"
                f"  reference: {want[observable]}"
            )
    return ops, columnar, reference


def fuzz_stream(seed, n=350, universe=60, max_len=8, jitter_rate=0.3):
    """A randomized stream with out-of-order timestamps and empty records."""
    rng = random.Random(seed)
    records = []
    now = 0.0
    for rid in range(n):
        now += rng.random() * 0.5
        # Occasional timestamp jitter: records arrive out of event order,
        # which is what makes the eager heap and lazy sweeps disagree if
        # either engine's expiration bookkeeping drifts.
        jitter = rng.random() * 2.0 if rng.random() < jitter_rate else 0.0
        size = rng.randint(0, max_len)
        tokens = tuple(sorted(rng.sample(range(universe), size)))
        records.append(Record(rid=rid, tokens=tokens, timestamp=now + jitter))
    return records


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("window_seconds", [3.0, 10.0, math.inf])
@pytest.mark.parametrize("expiry", ["lazy", "eager"])
def test_unfiltered_differential(seed, window_seconds, expiry):
    records = fuzz_stream(seed)
    for func_name, threshold in (("jaccard", 0.6), ("cosine", 0.7)):
        assert_identical(records, func_name, threshold, window_seconds, expiry)


@pytest.mark.parametrize("seed", [100, 101])
@pytest.mark.parametrize("window_seconds", [5.0, math.inf])
@pytest.mark.parametrize("expiry", ["lazy", "eager"])
def test_filtered_differential(seed, window_seconds, expiry):
    """Prefix-scheme mode: token filter + pair filter + relaxed verify."""
    records = fuzz_stream(seed, n=250, universe=50, jitter_rate=0.0)
    assert_identical(
        records, "jaccard", 0.5, window_seconds, expiry,
        token_filter=lambda token: token_owner(token, 3) == 1,
        pair_filter=lambda r, s: (r.rid + s.rid) % 2 == 0,
    )


@pytest.mark.parametrize("expiry", ["lazy", "eager"])
def test_duplicate_heavy_stream(expiry):
    """Exact duplicates exercise the columnar closed-form merge shortcut."""
    rng = random.Random(7)
    base = [tuple(sorted(rng.sample(range(40), rng.randint(1, 6))))
            for _ in range(12)]
    records = [
        Record(rid=rid, tokens=rng.choice(base), timestamp=rid * 0.3)
        for rid in range(300)
    ]
    for window_seconds in (4.0, math.inf):
        assert_identical(records, "jaccard", 0.8, window_seconds, expiry)


def test_overlap_function_differential():
    """Overlap's unbounded length filter stresses the bisect slicing."""
    records = fuzz_stream(3, n=200, universe=30, max_len=10)
    for window_seconds in (6.0, math.inf):
        for expiry in ("lazy", "eager"):
            assert_identical(records, "overlap", 3, window_seconds, expiry)


# -- unbounded window: the size-sorted columns --------------------------------

def insert_all_then_probe_all(records):
    """Bulk load, then query (every probe also meets its own record)."""
    for record in records:
        yield "insert", record
    for record in records:
        yield "probe", record


def alternating_streaks(records):
    """Streaks of 1…40 inserts, each followed by probes of the same
    records — columns grow by many out-of-order postings between scans."""
    rng = random.Random(len(records))
    at = 0
    while at < len(records):
        streak = records[at:at + rng.randint(1, 40)]
        at += len(streak)
        for record in streak:
            yield "insert", record
        for record in streak:
            yield "probe", record


SIZE_SORTED_MODES = {
    "unfiltered": {},
    "token-filtered": {
        "token_filter": lambda token: token_owner(token, 3) != 1,
    },
    "pair-filtered": {
        "token_filter": lambda token: token_owner(token, 3) != 1,
        "pair_filter": lambda r, s: (r.rid + s.rid) % 3 != 0,
    },
    "eager-unbounded": {"expiry": "eager"},
}


def representatives(ops, owned, pair_filter):
    """Every grouped record's representative (rid -> rid), by the rule
    the size-sorted layout follows: a probe that verifies an indexed
    exact duplicate — the first one posted, met under the record's
    first token, which the engine must own, through a group with a
    pair ``pair_filter`` admits — hands it to the insert of that same
    record, which joins its group instead of posting."""
    posted, members, rep_of = [], {}, {}
    pending = None
    for op, record in ops:
        tokens = record.tokens
        if op == "probe":
            for rep in posted:
                if (rep.tokens == tokens and tokens and owned(tokens[0])
                        and any(pair_filter(record, member)
                                for member in [rep] + members[rep.rid])):
                    pending = record, rep
                    break
        elif pending is not None and pending[0] is record:
            rep = pending[1]
            members[rep.rid].append(record)
            rep_of[record.rid] = rep.rid
            pending = None
        else:
            posted.append(record)
            members[record.rid] = []
    return rep_of


def assert_scan_order(ops, columnar, reference, owned, pair_filter):
    """Matches are emitted in scan order: by probe-prefix token, then
    partner size, then the arrival of the partner's representative (a
    posted record is its own), then arrival — a representative's
    members follow it. Returns the grouping and the rows checked."""
    rep_of = representatives(ops, owned, pair_filter)

    def scan_key(record, partner):
        # A pair is verified where it is first met: at its smallest
        # shared (owned) token, which lies in both prefixes if any does.
        first = min(t for t in set(record.tokens) & set(partner.tokens)
                    if owned(t))
        return (record.tokens.index(first), len(partner.tokens),
                rep_of.get(partner.rid, partner.rid))

    emitted = 0
    for (op, record), got, want in zip(ops, columnar, reference):
        # The reference scans each list in arrival order, so a stable
        # sort of its emissions by (token, size, representative) is the
        # columnar order.
        expected = sorted(
            want["emitted"], key=lambda partner: scan_key(record, partner)
        )
        assert got["emitted"] == expected, f"{op} rid {record.rid}"
        emitted += len(expected)
    return rep_of, emitted


def always(*_):
    return True


@pytest.mark.parametrize("seed", [400, 401])
@pytest.mark.parametrize("mode", SIZE_SORTED_MODES)
@pytest.mark.parametrize(
    "schedule",
    [probe_then_insert, insert_all_then_probe_all, alternating_streaks],
)
def test_size_sorted_schedules(schedule, mode, seed):
    """However inserts and probes interleave, every observable equals the
    reference's after every step, and matches are emitted in scan order
    (``assert_scan_order``)."""
    options = dict(SIZE_SORTED_MODES[mode])
    expiry = options.pop("expiry", "lazy")
    records = fuzz_stream(seed, n=300, universe=25, max_len=10)
    ops, columnar, reference = assert_identical(
        records, "jaccard", 0.5, math.inf, expiry, schedule=schedule, **options
    )
    _, emitted = assert_scan_order(
        ops, columnar, reference,
        options.get("token_filter", always), options.get("pair_filter", always),
    )
    assert emitted > 50  # the order check saw real match lists


def duplicate_heavy_stream(seed, n=300):
    """Half the records repeat one of a few dozen token sets exactly;
    sources alternate at random for the cross-source filter."""
    rng = random.Random(seed)
    base = [tuple(sorted(rng.sample(range(30), rng.randint(1, 7))))
            for _ in range(30)]
    records = []
    for rid in range(n):
        if rng.random() < 0.5:
            tokens = rng.choice(base)
        else:
            tokens = tuple(sorted(rng.sample(range(30), rng.randint(1, 7))))
        records.append(Record(rid, tokens, float(rid), source=rng.choice("LR")))
    return records


DUPLICATE_MODES = {
    "unfiltered": {},
    "token-filtered": {
        "token_filter": lambda token: token_owner(token, 3) != 1,
    },
    "pair-filtered": {
        "token_filter": lambda token: token_owner(token, 3) != 1,
        "pair_filter": cross_source_filter,
    },
    "cross-source": {"pair_filter": cross_source_filter},
}


@pytest.mark.parametrize("seed", [500, 501])
@pytest.mark.parametrize("mode", DUPLICATE_MODES)
@pytest.mark.parametrize(
    "schedule",
    [probe_then_insert, insert_all_then_probe_all, alternating_streaks],
)
def test_size_sorted_exact_duplicates(schedule, mode, seed):
    """A stream of exact repeats: grouped records leave every observable
    equal to the reference's, and a member pairs with a record its
    representative may not (the cross-source rule)."""
    options = DUPLICATE_MODES[mode]
    records = duplicate_heavy_stream(seed)
    seen = set()
    repeats = 0
    for record in records:
        repeats += record.tokens in seen
        seen.add(record.tokens)
    assert repeats >= 0.3 * len(records)
    ops, columnar, reference = assert_identical(
        records, "jaccard", 0.5, math.inf, "lazy", schedule=schedule, **options
    )
    pair_filter = options.get("pair_filter", always)
    rep_of, emitted = assert_scan_order(
        ops, columnar, reference,
        options.get("token_filter", always), pair_filter,
    )
    assert emitted > 100
    if schedule is not probe_then_insert:
        assert not rep_of  # no insert followed its own probe
        return
    assert len(rep_of) >= 0.1 * len(records)
    if pair_filter is always:
        return
    by_rid = {record.rid: record for record in records}
    member_only = [
        (record.rid, partner.rid)
        for (op, record), got in zip(ops, columnar)
        for partner in got["emitted"]
        if partner.rid in rep_of
        and not pair_filter(record, by_rid[rep_of[partner.rid]])
    ]
    assert member_only  # a member emitted where its representative is not


#: The bench-calibrated generators: the paper's postings-per-token
#: density at a few thousand records.
CALIBRATED_CORPORA = {
    "AOL": lambda n: synthetic_aol(
        n, seed=20200420, vocabulary_size=800, duplicate_rate=0.15
    ),
    "TWEET": lambda n: synthetic_tweet(
        n, seed=20200420, vocabulary_size=1_200, duplicate_rate=0.25
    ),
}


@pytest.mark.parametrize("corpus", CALIBRATED_CORPORA)
def test_calibrated_corpus_end_of_run(corpus):
    """Index a calibrated stream, then probe every record against the
    full index: both engines end with the same match multiset, meter
    totals and live postings."""
    records = list(CALIBRATED_CORPORA[corpus](3_000))
    ends = []
    for engine_cls in ENGINES:
        meter = WorkMeter()
        engine = engine_cls(get_similarity("jaccard", 0.8), meter=meter)
        for record in records:
            engine.insert(record)
        matches = sorted(
            (record.rid, m.partner.rid, round(m.similarity, 12), m.overlap)
            for record in records for m in engine.probe(record)
        )
        ends.append((matches, dict(meter.operations), dict(meter.events),
                     engine.live_postings))
    (matches, *_), reference = ends
    assert len(matches) > len(records)  # real match lists, not just self-pairs
    assert ends[0] == reference


# -- a bounded window: the time-ordered columns ----------------------------

def test_window_boundary_differential():
    """``now - ts == seconds`` is alive; one ulp later the posting dies —
    in both engines, on the same record."""
    seconds = 2.5
    records = [
        Record(0, (1, 2, 3), timestamp=0.0),
        Record(1, (1, 2, 3), timestamp=seconds),
        Record(2, (1, 2, 3), timestamp=math.nextafter(seconds, math.inf)),
    ]
    assert_identical(records, "jaccard", 0.6, seconds, "lazy")


def test_equal_timestamps_differential():
    """Bursts sharing one timestamp expire together or not at all."""
    rng = random.Random(11)
    records = [
        Record(rid, tuple(sorted(rng.sample(range(12), rng.randint(1, 5)))),
               timestamp=float(rid // 5))
        for rid in range(200)
    ]
    assert_identical(records, "jaccard", 0.6, 3.0, "lazy")


def test_late_record_differential():
    """A record older than its list's tail is filed at its time position;
    later probes expire the postings before it, then it, then the rest."""
    times = [0.0, 1.0, 2.0, 3.0, 0.5, 2.0, 3.9, 4.2, 4.6, 5.5, 9.0]
    records = [
        Record(rid, (1, 2, 3 + rid % 2), timestamp=ts)
        for rid, ts in enumerate(times)
    ]
    assert_identical(records, "jaccard", 0.5, 3.0, "lazy")


@pytest.mark.parametrize("expiry", ["lazy", "eager"])
def test_reversed_stream_differential(expiry):
    """Timestamps run backwards, so every insert is a late arrival filed
    at its column's front and nothing expires; three forward records
    then expire the lot in stages."""
    times = [6.0 - 0.25 * k for k in range(25)] + [7.0, 8.5, 20.0]
    rng = random.Random(5)
    records = [
        Record(rid, tuple(sorted(rng.sample(range(10), rng.randint(1, 4)))),
               timestamp=ts)
        for rid, ts in enumerate(times)
    ]
    _, columnar, _ = assert_identical(records, "jaccard", 0.5, 3.0, expiry)
    assert columnar[-1]["operations"]["posting_expire"] > 20
    assert any(step["matches"] for step in columnar)


class _HealthContext:
    """What a meter forwards to a bolt context, reduced to its signals:
    each goes to a :class:`HealthMonitor` stamped with the current
    record's time."""

    def __init__(self):
        self.monitor = HealthMonitor()
        self.now = 0.0

    def charge(self, operation, count):
        pass

    def add_counter(self, name, amount):
        pass

    def signal(self, name, value):
        self.monitor.on_signal("join", 0, self.now, name, value)


@pytest.mark.parametrize("expiry", ["lazy", "eager"])
def test_expiration_lag_peaks_and_health_events(expiry):
    """The reference engine signals every dead posting's lag, the
    columnar engine one lag per expiry sweep (its oldest posting's).
    On a windowed stream of late arrivals both give the same signal
    peak after every record and the same health events."""
    records = fuzz_stream(seed=7, n=300, universe=40)
    observed = []
    for engine_cls in ENGINES:
        context = _HealthContext()
        meter = WorkMeter(context)
        engine = engine_cls(
            get_similarity("jaccard", 0.5), window=SlidingWindow(1.0),
            meter=meter, expiry=expiry,
        )
        peaks = []
        for record in records:
            context.now = record.timestamp
            engine.probe_and_insert(record)
            peaks.append(meter.signals.get("window_expiration_lag_fraction"))
        observed.append(
            (peaks, [event.as_dict() for event in context.monitor.events])
        )
    assert observed[0] == observed[1]
    events = observed[0][1]
    assert [event["severity"] for event in events] == ["warning", "critical"]


@pytest.mark.parametrize("seed", [200, 201])
def test_windowed_prefix_filters_with_jitter(seed):
    """Window + prefix-scheme token/pair filters on out-of-order input."""
    records = fuzz_stream(seed, n=250, universe=50)
    assert_identical(
        records, "jaccard", 0.5, 4.0, "lazy",
        token_filter=lambda token: token_owner(token, 3) == 1,
        pair_filter=lambda r, s: (r.rid + s.rid) % 2 == 0,
    )


def test_windowed_cross_source_filter():
    """Window + the two-stream join's cross-source pair filter."""
    records = [
        Record(r.rid, r.tokens, r.timestamp, source="LR"[r.rid % 2])
        for r in fuzz_stream(300, n=250, universe=40)
    ]
    assert_identical(
        records, "jaccard", 0.6, 4.0, "lazy", pair_filter=cross_source_filter
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    window_seconds=st.floats(0.25, 12.0),
    jitter_rate=st.sampled_from([0.0, 0.1, 0.3, 1.0]),
    threshold=st.sampled_from([0.5, 0.6, 0.8]),
)
def test_property_lazy_window_matches_reference(
    seed, window_seconds, jitter_rate, threshold
):
    records = fuzz_stream(seed, n=120, universe=30, jitter_rate=jitter_rate)
    assert_identical(records, "jaccard", threshold, window_seconds, "lazy")


# -- a bounded window over exact repeats ---------------------------------------

def windowed_duplicate_stream(seed, duplicate_rate, window_seconds, n=300,
                              tie_rate=0.2, late_rate=0.1):
    """Exact repeats at gaps on both sides of the window: half repeat one
    of the last dozen records (mostly inside it), half any earlier one
    (mostly outside). Some records share the previous timestamp, some
    arrive up to one and a half windows late; sources alternate at
    random for the cross-source filter."""
    rng = random.Random(seed)
    records = []
    now = 0.0
    for rid in range(n):
        if rng.random() >= tie_rate:
            now += rng.random() * window_seconds / 10
        late = 0.0
        if rng.random() < late_rate:
            late = rng.random() * 1.5 * window_seconds
        if records and rng.random() < duplicate_rate:
            pool = records[-12:] if rng.random() < 0.5 else records
            tokens = rng.choice(pool).tokens
        else:
            tokens = tuple(sorted(rng.sample(range(30), rng.randint(1, 7))))
        records.append(Record(rid, tokens, now - late, source=rng.choice("LR")))
    return records


def repeat_gaps(records, window_seconds):
    """How many records repeat an earlier token set within the window of
    its latest copy, and how many beyond it."""
    latest, inside, beyond = {}, 0, 0
    for record in records:
        earlier = latest.get(record.tokens)
        if earlier is not None:
            if abs(record.timestamp - earlier) <= window_seconds:
                inside += 1
            else:
                beyond += 1
        latest[record.tokens] = record.timestamp
    return inside, beyond


def probe_all_insert_most(records):
    """Every record probes; one in five is never indexed (a probe-only
    call, as a two-stream join makes into the other side's index)."""
    for record in records:
        yield "probe", record
        if record.rid % 5 != 2:
            yield "insert", record


WINDOW_DUPLICATE_MODES = {
    "unfiltered": {},
    "cross-source": {"pair_filter": cross_source_filter},
    "2-shards-0": {"token_filter": lambda token: token_owner(token, 2) == 0},
    "2-shards-1": {"token_filter": lambda token: token_owner(token, 2) == 1},
    "4-shards-1": {"token_filter": lambda token: token_owner(token, 4) == 1},
    "4-shards-3-cross-source": {
        "token_filter": lambda token: token_owner(token, 4) == 3,
        "pair_filter": cross_source_filter,
    },
}


@pytest.mark.parametrize("duplicate_rate", [0.3, 0.6])
@pytest.mark.parametrize("mode", WINDOW_DUPLICATE_MODES)
@pytest.mark.parametrize("expiry", ["lazy", "eager"])
@pytest.mark.parametrize(
    "schedule", [probe_then_insert, probe_all_insert_most]
)
def test_windowed_exact_duplicates(schedule, expiry, mode, duplicate_rate):
    """Exact repeats under a sliding window — repeats whose earlier copy
    is live and ones whose copy has expired, ties, late records,
    probe-only calls, the prefix scheme's shards and the two-stream
    filter: every observable equals the reference's after every step."""
    window_seconds = 4.0
    records = windowed_duplicate_stream(
        int(duplicate_rate * 10), duplicate_rate, window_seconds
    )
    inside, beyond = repeat_gaps(records, window_seconds)
    assert inside >= 0.1 * len(records) and beyond >= 0.05 * len(records)
    _, columnar, _ = assert_identical(
        records, "jaccard", 0.6, window_seconds, expiry, schedule=schedule,
        **WINDOW_DUPLICATE_MODES[mode]
    )
    assert columnar[-1]["operations"]["posting_expire"] > 0
    assert sum(len(step["matches"]) for step in columnar) > 5


@pytest.mark.parametrize("expiry", ["lazy", "eager"])
def test_late_probe_after_a_sweep_meets_a_repeat(expiry):
    """Two copies of one token set; a probe sharing only its first token
    sweeps at a later time; then a late copy probes. Lazy: only that
    column lost the older copy, dead at the sweep but alive at the late
    probe's time, which meets it through the columns the sweep did not
    touch. Eager: the sweep cut it everywhere."""
    seconds = 3.0
    tokens = (1, 2, 3, 4, 5)
    records = [
        Record(0, tokens, 0.0),
        Record(1, tokens, 1.0),
        Record(2, (1, 20, 21, 22, 23), 3.5),
        Record(3, tokens, 2.5),
        Record(4, tokens, 4.2),
    ]
    _, columnar, _ = assert_identical(records, "jaccard", 0.6, seconds, expiry)
    probes = columnar[::2]
    late = [rid for rid, _, _ in probes[3]["matches"]]
    if expiry == "lazy":
        assert probes[2]["operations"]["posting_expire"] == 1
        assert late == [0, 1]
    else:
        assert late == [1]
