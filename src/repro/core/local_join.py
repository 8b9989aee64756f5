"""The per-worker streaming set similarity join engine (columnar fast path).

A streaming adaptation of the prefix-filter inverted-index join
(AllPairs/PPJoin family): each indexed record posts its prefix tokens;
a probing record scans the postings of *its* prefix tokens, applies the
length and position filters, and merge-verifies the surviving
candidates with early termination.

The engine is built for Python-level speed without changing metered
semantics one bit. The structural choices, each held to the matches,
meters and ``live_postings`` of the retained pre-columnar engine
(:class:`repro.core.reference.ReferenceStreamingSetJoin`) by the
cross-engine tests and timed end to end by ``benchmarks/e2e``:

**Columnar postings.** A token's posting list is not a list of
``(Record, position)`` tuples but parallel columns — ``array('i')``
size and position, an ``array('d')`` timestamp in the time-ordered
layout only, and a Record-reference list that owns record lifetimes.
No column repeats what the Record holds: a partner's rid is read from
it. The scan loop reads primitive slots; attribute access on a Record
happens only once a posting passes the position filter, except the
filtered loop's rid read (below). A posting's data is 16 B, 24 B with
a timestamp (DESIGN §9.1).

**Two column layouts, one scan loop.** What order a column is kept in
follows from when its postings can die; the window fixes it at
construction (DESIGN §9.2):

* *Unbounded window — size-sorted.* A probe applies the length filter
  *wholesale*: two binary searches bound the qualifying slice and
  postings outside ``[lo, hi]`` are never touched. They are still
  **accounted** as scanned — ``posting_scan`` counts the logical work
  of the reference algorithm, which walks the full list; the meter is
  the cost-model currency, the fast path merely does less physical work
  per logical operation. Inserts keep the order: a record appends
  unless a larger one is already posted under the token, in which case
  it is ``bisect_right``-inserted after every posting not larger than
  it, so equal sizes stay in arrival order and a probe scans exactly
  the arrangement it always has (measured by the ``enron_long``
  workload of ``benchmarks/e2e``).
* *Bounded window — time-ordered.* Inserts append unless the record
  arrives late, in which case it is bisect-inserted at its timestamp.
  ``now - ts`` never grows with ``ts`` (IEEE subtraction is monotone),
  so the postings that fail the window predicate at ``now`` are a
  *prefix* of every column, and expiring them is one ``del`` per
  column off the front. The expiry mode only decides who cuts it
  (below); either way a probe scans a live suffix with no per-posting
  liveness check (measured by the ``tweet_window`` workload of
  ``benchmarks/e2e``).

Both layouts feed the same ``zip`` loops: every column is dense —
expiry only ever cuts its front — so nothing is walked by index.

**Filter rows.** A probe of size ``lr`` reads each partner's overlap
bound ``required`` from one tuple indexed by partner size,
:meth:`~repro.similarity.functions.SimilarityFunction.required_row`,
memoised per probe size on the similarity function — one subscript
per posting, no call. An ``ls`` outside the length bounds reads
``lr + 1``, which no overlap reaches, so the position filter applies
the length filter too and no loop tests ``[lo, hi]`` per posting; a
time-ordered column, whose partners may be longer than ``lmax``, reads
the row padded with that bound to the longest record indexed. In the
two unfiltered loops the strict position filter runs *before* the
``seen`` test: if it rejects a partner's first hit ``(i, j)`` it
rejects every later one ``(i' > i, j' > j)`` (both remainders only
shrink), so a rejected posting never needs to enter ``seen`` — nor
have its ``partner.rid``, the ``seen`` key, read. The filtered loop
keeps ``seen`` first: its relaxed filter is not monotone along a
partner's hits, so it reads ``partner.rid`` for every posting it
scans.

**Exact duplicates share a posting** (size-sorted layout only; DESIGN
§9.2). Detection is free: a probe verifies every indexed record with
its exact token set anyway (the closed-form branch of the merge;
``overlap == lr == ls`` on the filtered path) and hands the first one
to the ``insert`` of the *same* ``Record`` object. That insert adds
the record to the representative's group instead of posting it, and
counts a member posting under each column it would have posted to.
The meters stay logical: ``live_postings``, ``posting_insert`` and
``posting_scan`` count member postings as postings, and a probe that
admits a representative charges admit, verify and compare once per
member, emitting one row per member at the representative's slot (the
representative, then its members in arrival order). The merge runs
once; ``pair_filter`` runs per member, which may pair where its
representative may not. Columns without members run the scan loop as
before. A bounded window does not group: there the newest copy would
have to carry the group and the older copies' postings move aside as
ghosts that are still scanned and expired, and on ``tweet_window``
that bookkeeping cost more than the sixth of posting visits it saved
(EXPERIMENTS.md, "filter rows"). Nor does an insert that its own probe
did not precede (bulk loads), so those post exactly as they always
have.

**Aggregate metering.** The scan accumulates plain local integers and
flushes them once per probe through
:meth:`~repro.core.metering.WorkMeter.charge_many` /
:meth:`~repro.core.metering.WorkMeter.event_many` — exact same totals
as the reference engine's per-posting ``charge`` calls (operation
counts are integers; float summation cannot diverge), hundreds of
times fewer calls. The ``repro diff`` baseline gate pins this
invariant float-for-float.

**Memoized bounds.** ``length_bounds`` / ``required_row`` / prefix
lengths / ``similarity_from_overlap`` are per-instance memo tables on
:class:`~repro.similarity.functions.SimilarityFunction`, so probes stop
re-deriving threshold arithmetic for sizes they have seen before.

**Inlined verification.** In unfiltered mode the first-match merge
verification runs inline in the scan loop (no ``verify_pair`` call),
with comparison counting identical to
:func:`~repro.similarity.verification.verify_pair`. Probes whose
prefix holds a single token skip duplicate-candidate tracking entirely
(a partner cannot be scanned twice through one token).

Window expiration supports two modes over the one time-ordered layout.
``"lazy"`` (default, the original semantics): a probe walks the front
of each column it touches to the first live posting, charges the dead
prefix in bulk and truncates it; a token no later record probes keeps
its dead postings. ``"eager"``: inserts also push ``(timestamp,
token)`` onto a min-heap, and every probe/insert first pops every entry
outside the window, counts the pops per token and cuts that many
postings off the front of each touched column — the index never holds
a posting dead at the current record's time, so ``live_postings`` is
exact and bounded by the window whatever the vocabulary does. The heap
needs no slot addresses: a token's oldest posting *is* its column's
front. Both modes are differentially fuzzed against the reference
engine.

Three details specific to this reproduction:

**first-match verification.** With an unfiltered (whole-prefix) index,
the first posting hit for a pair is provably its minimal common token,
and both its positions lie inside the respective prefixes; verification
can therefore resume right after those positions with one match already
known. With a *token-filtered* index (the prefix-based distribution
scheme owns only a share of the token space per worker), that argument
breaks — common tokens owned by other workers may precede the local
first match — so a filtered engine verifies from ``(0, 0)`` and admits
candidates through a correspondingly relaxed position filter: up to
``min(i, j)`` matches may precede the hit, and only the merge can tell.
Both variants are exercised by the equivalence tests.

**what a token-filtered engine reports.** ``token_filter`` is the
engine's ownership predicate, and decides more than what is indexed
and probed: a filtered engine reports a pair iff it owns the pair's
*minimal common prefix token*, so the owners of the pair's other
shared tokens, which meet it too, stay silent and the scheme's output
is exactly-once (:mod:`repro.core.dedup`). Finding that token is the
first stretch of the from-scratch merge, so a candidate gets one walk
(:func:`~repro.core.dedup.verify_owned_pair`), metered as the two
passes it fuses (DESIGN §9.7). Only a prefix-scheme shard of two or
more is built filtered: a lone shard owns every token, so
:func:`~repro.core.shard_engine.build_shard_engine` gives it the
unfiltered engine, which meets every pair first at its minimal common
token anyway.

**metering.** Every operation is charged to a
:class:`~repro.core.metering.WorkMeter` so the simulator's cost model
and the ablation experiments see exactly the work performed.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from functools import lru_cache
from heapq import heappop, heappush
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.dedup import verify_owned_pair
from repro.core.metering import WorkMeter
from repro.records import Record
from repro.similarity.functions import SimilarityFunction
from repro.streams.window import SlidingWindow

TokenFilter = Callable[[int], bool]
PairFilter = Callable[[Record, Record], bool]

#: Supported window-expiration modes (see module docstring).
EXPIRY_MODES = ("lazy", "eager")


class MatchResult(NamedTuple):
    """One verified join result from a probe.

    A ``NamedTuple`` rather than a dataclass: probes on dense streams
    allocate one per emitted pair, and tuple construction is several
    times cheaper than a frozen dataclass ``__init__``.
    """

    partner: Record
    similarity: float
    overlap: int


def _pairable(
    record: Record, group: Sequence[Record], pair_filter: Optional[PairFilter],
) -> Optional[Sequence[Record]]:
    """The records of ``group`` that ``pair_filter`` lets pair with
    ``record``, in order; None if none may."""
    if pair_filter is not None:
        group = [member for member in group if pair_filter(record, member)]
    return group or None


class _Postings:
    """One token's posting list as parallel columns.

    Two 32-bit integer columns (``sizes``, ``positions``), a
    ``timestamps`` column in the time-ordered layout only, and a
    Record-reference list, index-aligned. A partner's rid is read from
    its Record (``recs``), never stored twice. The engine keeps the
    columns in one of two orders (see the module docstring): sorted by
    ``sizes`` under an unbounded window, sorted by ``timestamps`` under
    a bounded one — in both expiry modes, which differ only in *when*
    the dead front is cut.

    ``timestamps`` is None in the size-sorted layout: nothing expires,
    so nothing reads it.
    """

    __slots__ = ("sizes", "positions", "timestamps", "recs")

    def __init__(self, time_ordered: bool) -> None:
        self.sizes = array("i")
        self.positions = array("i")
        self.timestamps = array("d") if time_ordered else None
        self.recs: List[Record] = []


class StreamingSetJoin:
    """Streaming prefix-filter join over one worker's index.

    Parameters
    ----------
    func:
        Similarity function with threshold.
    window:
        Sliding window; defaults to unbounded.
    meter:
        Work meter; a fresh unattached one is created if omitted.
    token_filter:
        Ownership predicate of the prefix-based distribution scheme:
        only owned tokens are indexed and probed, and a pair is
        reported only if its minimal common prefix token is owned.
        Enables from-scratch verification and the relaxed position
        filter (see module doc). Must be a pure function of the token;
        answers are memoised.
    pair_filter:
        Predicate deciding whether an admitted candidate pair may be
        verified/reported at all (the two-stream join's cross-source
        rule); evaluated before the ownership test.
    expiry:
        ``"lazy"`` (default) or ``"eager"`` window expiration; ignored
        for unbounded windows (nothing ever expires).
    """

    def __init__(
        self,
        func: SimilarityFunction,
        window: Optional[SlidingWindow] = None,
        meter: Optional[WorkMeter] = None,
        token_filter: Optional[TokenFilter] = None,
        pair_filter: Optional[PairFilter] = None,
        expiry: str = "lazy",
    ):
        if expiry not in EXPIRY_MODES:
            raise ValueError(f"expiry must be one of {EXPIRY_MODES}, got {expiry!r}")
        self.func = func
        self.window = window if window is not None else SlidingWindow()
        self.meter = meter if meter is not None else WorkMeter()
        self.token_filter = token_filter
        #: ``token_filter`` memoised per engine: probe, insert and the
        #: dedup test of every candidate ask it about the same tokens.
        self._owns = token_filter and lru_cache(maxsize=None)(token_filter)
        self.pair_filter = pair_filter
        self.expiry = expiry
        self._eager = expiry == "eager" and self.window.bounded
        #: A bounded window's postings die in timestamp order, so its
        #: columns are time-ordered and the dead ones are a prefix —
        #: cut by the probe that meets them (lazy) or by the heap
        #: before every probe and insert (eager).
        self._time_ordered = self.window.bounded
        self._index: Dict[int, _Postings] = {}
        #: Eager mode: one ``(timestamp, token)`` per live posting. No
        #: slot — the oldest posting of a token is its column's front.
        self._heap: List[Tuple[float, int]] = []
        self._live_postings = 0
        #: Time-ordered layout: the longest record indexed, and per
        #: probe size the similarity function's overlap-bound row padded
        #: to it (see ``probe``).
        self._max_size = 0
        self._padded_rows: Dict[int, Tuple[int, ...]] = {}
        #: Size-sorted layout only (see "exact duplicates share a
        #: posting" in the module doc): representative rid -> its group
        #: (the representative, then its members in arrival order);
        #: token -> how many member postings its column stands for; and
        #: the last probe's ``(record, representative)`` when it met an
        #: exact duplicate, for the insert of that same record.
        self._groups: Dict[int, Tuple[Record, ...]] = {}
        self._member_postings: Dict[int, int] = {}
        self._duplicate: Optional[Tuple[Record, Record]] = None

    # -- index maintenance ---------------------------------------------------
    @property
    def live_postings(self) -> int:
        """Postings currently in the index (after expiration)."""
        return self._live_postings

    def insert(self, record: Record) -> None:
        """Index a record under its (owned) prefix tokens."""
        meter = self.meter
        if self._eager:
            self._expire_upto(record.timestamp)
        tokens = record.tokens
        size = len(tokens)
        width = self.func.index_prefix_length(size)
        owns = self._owns
        timestamp = record.timestamp
        index = self._index
        inserted = 0
        # Every column is kept in its layout's order here; probes rely
        # on it. Bounded columns carry timestamps and stay time-ordered,
        # which is an append unless the record arrives late; eager mode
        # also files the posting in the expiration heap. Unbounded
        # columns stay size-sorted — an append unless a larger record
        # is already posted — and have no timestamps column: nothing
        # reads it when postings cannot expire (hot path: this is the
        # engine's per-posting cost floor).
        if self._time_ordered:
            if size > self._max_size:
                self._max_size = size
            eager = self._eager
            for position in range(width):
                token = tokens[position]
                if owns is not None and not owns(token):
                    continue
                cols = index.get(token)
                if cols is None:
                    cols = index[token] = _Postings(True)
                timestamps = cols.timestamps
                inserted += 1
                if eager:
                    heappush(self._heap, (timestamp, token))
                if timestamps and timestamp < timestamps[-1]:
                    # Late arrival: take the slot after every posting
                    # not newer than this one, so the column stays
                    # sorted by timestamp (ties in arrival order).
                    k = bisect_right(timestamps, timestamp)
                    cols.sizes.insert(k, size)
                    cols.positions.insert(k, position)
                    timestamps.insert(k, timestamp)
                    cols.recs.insert(k, record)
                    continue
                cols.sizes.append(size)
                cols.positions.append(position)
                timestamps.append(timestamp)
                cols.recs.append(record)
        elif self._duplicate is not None and self._duplicate[0] is record:
            # This record's own probe met an indexed exact duplicate:
            # it joins that representative's group, and each column it
            # would post to counts one more member posting instead.
            groups, representative = self._groups, self._duplicate[1]
            groups[representative.rid] = (
                groups.get(representative.rid, (representative,)) + (record,)
            )
            self._duplicate = None
            member_postings = self._member_postings
            for position in range(width):
                token = tokens[position]
                if owns is not None and not owns(token):
                    continue
                member_postings[token] = member_postings.get(token, 0) + 1
                inserted += 1
        else:
            for position in range(width):
                token = tokens[position]
                if owns is not None and not owns(token):
                    continue
                cols = index.get(token)
                if cols is None:
                    cols = index[token] = _Postings(False)
                sizes = cols.sizes
                inserted += 1
                if sizes and size < sizes[-1]:
                    # Take the slot after every posting not larger than
                    # this one (equal sizes stay in arrival order).
                    k = bisect_right(sizes, size)
                    sizes.insert(k, size)
                    cols.positions.insert(k, position)
                    cols.recs.insert(k, record)
                    continue
                sizes.append(size)
                cols.positions.append(position)
                cols.recs.append(record)
        self._live_postings += inserted
        meter.charge("posting_insert", inserted)
        meter.event("postings_inserted", inserted)

    # -- probing ------------------------------------------------------------
    def probe(self, record: Record) -> List[MatchResult]:
        """All indexed, in-window partners with ``sim >= θ``."""
        tokens = record.tokens
        lr = len(tokens)
        if lr == 0:
            return []
        func = self.func
        meter = self.meter
        now = record.timestamp
        if self._eager:
            self._expire_upto(now)
        time_ordered = self._time_ordered
        lo, hi = func.length_bounds(lr)
        width = func.probe_prefix_length(lr)
        # The row applies the length filter too: a partner outside
        # ``[lo, hi]`` reads a bound no overlap reaches. A time-ordered
        # column may hold partners longer than any row entry, so there
        # the row is padded to the longest record indexed.
        required_of = func.required_row(lr)
        if time_ordered and hi < self._max_size:
            required_of = self._padded_rows.get(lr)
            if required_of is None or len(required_of) <= self._max_size:
                required_of = self._padded_rows[lr] = (
                    func.required_row(lr) + (lr + 1,) * (self._max_size - hi)
                )
        similarity_from_overlap = func.similarity_from_overlap
        owns = self._owns
        filtered_mode = owns is not None
        pair_filter = self.pair_filter
        seconds = self.window.seconds
        index = self._index
        groups = self._groups
        member_postings = self._member_postings
        # The first indexed exact duplicate verified, if any.
        duplicate = None
        # The candidate being verified when it is a representative: it
        # and its members, less those ``pair_filter`` rejects. None
        # otherwise (every candidate in a column without members).
        group = None
        # A single-token probe prefix cannot scan the same partner
        # twice, so duplicate-candidate tracking is skipped wholesale;
        # the ``seen`` set exists only when something can use it.
        dedup = width > 1
        if dedup or filtered_mode:
            seen: set = set()
            seen_add = seen.add
        results: List[MatchResult] = []
        emit = results.append
        # tuple.__new__ is the cheapest way to build a NamedTuple
        # (``MatchResult(...)`` and ``_make`` both add a Python frame).
        new_mr = tuple.__new__
        MR = MatchResult
        # Aggregate metering: local integers, flushed once at the end.
        n_lookup = n_scan = n_expire = n_admit = 0
        n_compare = n_verify = n_emit = 0

        for i in range(width):
            token = tokens[i]
            if filtered_mode and not owns(token):
                continue
            n_lookup += 1
            cols = index.get(token)
            if cols is None:
                continue
            sizes = cols.sizes
            positions = cols.positions
            recs = cols.recs
            n = len(recs)
            # Every posting left in a column is scanned — no
            # per-posting liveness check, scan count in one add.
            n_scan += n
            if time_ordered:
                grouped = 0
                # Time-ordered column: ``now - ts`` never grows
                # with ``ts`` (IEEE subtraction is monotone), so
                # the postings dead at ``now`` are a prefix; walk
                # it, charge it in bulk, truncate the front. (Eager
                # mode cut that prefix before the scan: the walk
                # stops at the first posting.)
                timestamps = cols.timestamps
                kd = 0
                while kd < n and now - timestamps[kd] > seconds:
                    kd += 1
                if kd:
                    # Health signal: how long past its window the
                    # oldest dead posting lingered before this scan
                    # collected it, in units of the window length.
                    # The meter keeps the peak, and the rest of the
                    # prefix is younger, so one observation suffices.
                    meter.signal(
                        "window_expiration_lag_fraction",
                        (now - timestamps[0] - seconds) / seconds,
                    )
                    n_expire += kd
                    self._live_postings -= kd
                    if kd == n:
                        del index[token]
                        continue
                    del sizes[:kd], positions[:kd], timestamps[:kd], recs[:kd]
            else:
                # Size-sorted column (unbounded window): the length
                # filter is two bisects bounding the qualifying
                # slice; the pruned slots still count as scanned
                # (see module doc), and so do the member postings
                # the column's representatives stand for.
                grouped = member_postings.get(token, 0)
                n_scan += grouped
                klo = bisect_left(sizes, lo)
                khi = bisect_right(sizes, hi, klo)
                if klo >= khi:
                    continue
                if klo or khi < n:
                    sizes = sizes[klo:khi]
                    positions = positions[klo:khi]
                    recs = recs[klo:khi]
            i1 = i + 1
            if filtered_mode:
                # The relaxed position filter (module doc) is not
                # monotone along a partner's hits, so a partner is
                # marked seen at its first hit, admitted or not (one
                # outside the length bounds fails every hit anyway).
                rem_r = lr - i1
                for ls, j, partner in zip(sizes, positions, recs):
                    rid = partner.rid
                    if rid in seen:
                        continue
                    seen_add(rid)
                    required = required_of[ls]
                    slack = i if i < j else j
                    rem_s = ls - j - 1
                    if (
                        slack + 1 + (rem_r if rem_r < rem_s else rem_s)
                        < required
                    ):
                        continue
                    n_admit += 1
                    if grouped:
                        group = groups.get(rid)
                        if group is not None:
                            n_admit += len(group) - 1
                            group = _pairable(record, group, pair_filter)
                            if group is None:
                                continue
                    if (
                        pair_filter is not None and group is None
                        and not pair_filter(record, partner)
                    ):
                        continue
                    overlap, comparisons, verified = verify_owned_pair(
                        tokens, partner.tokens, required, owns
                    )
                    n_compare += comparisons
                    n_verify += verified
                    if overlap == lr == ls and duplicate is None:
                        duplicate = partner
                    if group is not None:
                        # One walk for the group, charged per pair.
                        k = len(group) - 1
                        n_compare += k * comparisons
                        n_verify += k * verified
                        if overlap >= required:
                            n_emit += k + 1
                            similarity = similarity_from_overlap(lr, ls, overlap)
                            for member in group:
                                emit(new_mr(MR, (member, similarity, overlap)))
                        group = None
                        continue
                    if overlap >= required:
                        n_emit += 1
                        emit(new_mr(MR, (
                            partner,
                            similarity_from_overlap(lr, ls, overlap),
                            overlap,
                        )))
            elif dedup:
                # The strict position filter — admit iff
                # ``min(lr - i - 1, ls - j - 1) >= required - 1``, i.e.
                # ``j <= ls - required`` and ``required <= lr - i`` —
                # runs before the seen test: it rejects every later hit
                # of a partner whose first hit it rejects (DESIGN §9.4),
                # so only admitted partners need remembering.
                rest = lr - i
                for ls, j, partner in zip(sizes, positions, recs):
                    required = required_of[ls]
                    if j > ls - required or required > rest:
                        continue
                    rid = partner.rid
                    if rid in seen:
                        continue
                    seen_add(rid)
                    n_admit += 1
                    if grouped:
                        group = groups.get(rid)
                        if group is not None:
                            n_admit += len(group) - 1
                            group = _pairable(record, group, pair_filter)
                            if group is None:
                                continue
                    if (
                        pair_filter is not None and group is None
                        and not pair_filter(record, partner)
                    ):
                        continue
                    # verify_pair(tokens, partner.tokens, required,
                    #             start_r=i+1, start_s=j+1, known=1),
                    # inlined: (i, j) is the pair's first common
                    # token — resume after it with one match known.
                    ptokens = partner.tokens
                    b = j + 1
                    if ls == lr and b == i1 and tokens == ptokens:
                        # Exact duplicate: every remaining step of
                        # the merge matches and the bound (constant
                        # at ``1 + lr - a``, admitted by the
                        # position filter) never fires — the
                        # outcome is closed-form.
                        comparisons = lr - i1
                        o = 1 + comparisons
                        if duplicate is None:
                            duplicate = partner
                    else:
                        a, o = i1, 1
                        comparisons = 0
                        while a < lr and b < ls:
                            ra = lr - a
                            rb = ls - b
                            if o + (ra if ra < rb else rb) < required:
                                break  # bound failed => o < required
                            comparisons += 1
                            ta = tokens[a]
                            tb = ptokens[b]
                            if ta == tb:
                                o += 1
                                a += 1
                                b += 1
                            elif ta < tb:
                                a += 1
                            else:
                                b += 1
                    n_compare += comparisons
                    n_verify += 1
                    if group is not None:
                        k = len(group) - 1
                        n_compare += k * comparisons
                        n_verify += k
                        if o >= required:
                            n_emit += k + 1
                            similarity = similarity_from_overlap(lr, ls, o)
                            for member in group:
                                emit(new_mr(MR, (member, similarity, o)))
                        group = None
                        continue
                    if o >= required:
                        n_emit += 1
                        emit(new_mr(MR, (
                            partner,
                            similarity_from_overlap(lr, ls, o),
                            o,
                        )))
            else:
                # Same position filter as the dedup loop above.
                rest = lr - i
                for ls, j, partner in zip(sizes, positions, recs):
                    required = required_of[ls]
                    if j > ls - required or required > rest:
                        continue
                    n_admit += 1
                    if grouped:
                        group = groups.get(partner.rid)
                        if group is not None:
                            n_admit += len(group) - 1
                            group = _pairable(record, group, pair_filter)
                            if group is None:
                                continue
                    if (
                        pair_filter is not None and group is None
                        and not pair_filter(record, partner)
                    ):
                        continue
                    # Same inlined first-match merge as above.
                    ptokens = partner.tokens
                    b = j + 1
                    if ls == lr and b == i1 and tokens == ptokens:
                        # Exact duplicate: every remaining step of
                        # the merge matches and the bound (constant
                        # at ``1 + lr - a``, admitted by the
                        # position filter) never fires — the
                        # outcome is closed-form.
                        comparisons = lr - i1
                        o = 1 + comparisons
                        if duplicate is None:
                            duplicate = partner
                    else:
                        a, o = i1, 1
                        comparisons = 0
                        while a < lr and b < ls:
                            ra = lr - a
                            rb = ls - b
                            if o + (ra if ra < rb else rb) < required:
                                break  # bound failed => o < required
                            comparisons += 1
                            ta = tokens[a]
                            tb = ptokens[b]
                            if ta == tb:
                                o += 1
                                a += 1
                                b += 1
                            elif ta < tb:
                                a += 1
                            else:
                                b += 1
                    n_compare += comparisons
                    n_verify += 1
                    if group is not None:
                        k = len(group) - 1
                        n_compare += k * comparisons
                        n_verify += k
                        if o >= required:
                            n_emit += k + 1
                            similarity = similarity_from_overlap(lr, ls, o)
                            for member in group:
                                emit(new_mr(MR, (member, similarity, o)))
                        group = None
                        continue
                    if o >= required:
                        n_emit += 1
                        emit(new_mr(MR, (
                            partner,
                            similarity_from_overlap(lr, ls, o),
                            o,
                        )))

        charges: Dict[str, float] = {}
        if n_lookup:
            charges["index_lookup"] = n_lookup
        if n_scan:
            charges["posting_scan"] = n_scan
        if n_expire:
            charges["posting_expire"] = n_expire
        if n_admit:
            charges["candidate_admit"] = n_admit
        if n_verify or n_compare:
            # Charged whenever the reference engine would have called
            # ``charge("token_compare", …)`` — including an explicit 0
            # for verifications whose bound check fired before the
            # first comparison (key-set parity with per-call metering).
            charges["token_compare"] = n_compare
        if n_emit:
            charges["result_emit"] = n_emit
        if charges:
            meter.charge_many(charges)
        if duplicate is not None and not time_ordered:
            self._duplicate = (record, duplicate)
        if n_admit or n_verify:
            events: Dict[str, float] = {}
            if n_admit:
                events["candidates"] = n_admit
            if n_verify:
                events["verifications"] = n_verify
            meter.event_many(events)
        return results

    # -- combined -------------------------------------------------------------
    def probe_and_insert(self, record: Record) -> List[MatchResult]:
        """Probe first (no self-pair), then index — the per-record step
        of a self-join worker."""
        results = self.probe(record)
        self.insert(record)
        return results

    # -- batched delivery ------------------------------------------------------
    @contextmanager
    def batched(self):
        """Buffer all metering inside the block; flush it once on exit.

        The parallel runtime delivers records in batches; per-record
        meter flushes (one ``charge_many``/``event_many`` round per
        probe, one ``charge``/``event`` pair per insert) would dominate
        small-record workloads. Inside this context the engine meters
        into a private :class:`WorkMeter` and the aggregate is flushed
        to the real meter in a single ``charge_many`` + ``event_many``
        call on exit. Totals are *exactly* those of unbatched execution:
        operation counts are integers, so summation order cannot
        diverge, and zero-valued charges survive the round trip (the
        buffer records them verbatim, preserving counter key sets).
        Signals flush as their in-batch peak, which is what the meter
        keeps anyway.
        """
        buffer = WorkMeter()
        real = self.meter
        self.meter = buffer
        try:
            yield
        finally:
            self.meter = real
            if buffer.operations:
                real.charge_many(dict(buffer.operations))
            if buffer.events:
                real.event_many(dict(buffer.events))
            for name, value in buffer.signals.items():
                real.signal(name, value)

    # -- expiration internals --------------------------------------------------
    def _expire_upto(self, now: float) -> None:
        """Eagerly remove every posting dead at time ``now``.

        Pops the ``(timestamp, token)`` heap while the oldest posting
        fails the window predicate and counts the pops per token: the
        columns are time-ordered, so a token's ``k`` dead postings are
        the first ``k`` of its column, cut with one ``del`` per column.
        """
        heap = self._heap
        seconds = self.window.seconds
        meter = self.meter
        if not heap or now - heap[0][0] <= seconds:
            return
        # The first pop is the oldest posting: one lag observation
        # carries the sweep's peak.
        meter.signal(
            "window_expiration_lag_fraction",
            (now - heap[0][0] - seconds) / seconds,
        )
        cuts: Dict[int, int] = {}
        while heap and now - heap[0][0] > seconds:
            _, token = heappop(heap)
            cuts[token] = cuts.get(token, 0) + 1
        index = self._index
        n_expired = 0
        for token, k in cuts.items():
            cols = index[token]
            n_expired += k
            if k == len(cols.recs):
                del index[token]
                continue
            del cols.sizes[:k], cols.positions[:k]
            del cols.timestamps[:k], cols.recs[:k]
        self._live_postings -= n_expired
        meter.charge_many({"posting_expire": n_expired})
