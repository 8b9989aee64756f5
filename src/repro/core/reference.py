"""Reference implementations: the oracles everything is compared against.

Two tiers of reference, for two kinds of question, plus the prefix
scheme's reporting rule as the separate pass it used to be:

:func:`naive_join`
    Brute-force quadratic join, no filtering beyond the window
    predicate — slow but obviously correct. Answers "is the *result
    set* right?". Returns the exact pair → similarity mapping so
    equivalence tests can check both membership and values.

:class:`ReferenceStreamingSetJoin`
    The object-per-posting prefix-filter engine that
    :class:`~repro.core.local_join.StreamingSetJoin` replaced when the
    hot path went columnar. It keeps the original layout (one
    ``(Record, position)`` tuple per posting) and the original
    per-posting ``meter.charge`` discipline, so it answers the stronger
    question "is the *metered work* right?": the differential fuzz
    tests, and a cross-engine test on the calibrated AOL and TWEET
    generators, drive both engines over the same stream and require
    identical match sets, identical ``WorkMeter`` totals and identical
    ``live_postings`` (DESIGN §9).

:class:`PrefixDedupFilter` / :func:`min_common_prefix_token`
    The minimal-common-prefix-token rule (:mod:`repro.core.dedup`) as a
    pair filter with its own merge and its own meter charge. Paired
    with the reference engine it is the oracle for the one-walk form
    inside a token-filtered ``StreamingSetJoin`` (DESIGN §9.7).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.local_join import EXPIRY_MODES, MatchResult, PairFilter, TokenFilter
from repro.core.metering import WorkMeter
from repro.records import Record, pair_key
from repro.routing.prefix_router import token_owner
from repro.similarity.functions import SimilarityFunction
from repro.similarity.verification import verify_pair
from repro.streams.window import SlidingWindow


def naive_join(
    records: Iterable[Record],
    func: SimilarityFunction,
    window: Optional[SlidingWindow] = None,
) -> Dict[Tuple[int, int], float]:
    """All qualifying pairs ``{(rid_lo, rid_hi): similarity}``.

    A pair qualifies when ``sim >= θ`` and both records fall within the
    window of each other. Empty records never join (a record with no
    tokens has similarity 0 with everything, or an ill-defined 1.0 with
    another empty record — the join engines skip them, and so does the
    oracle).
    """
    window = window if window is not None else SlidingWindow()
    ordered: List[Record] = sorted(records, key=lambda r: (r.timestamp, r.rid))
    results: Dict[Tuple[int, int], float] = {}
    for i, r in enumerate(ordered):
        if r.size == 0:
            continue
        for j in range(i):
            s = ordered[j]
            if s.size == 0:
                continue
            if not window.qualifies(r, s):
                continue
            similarity = func.similarity(r.tokens, s.tokens)
            if similarity >= func.threshold - 1e-12:
                results[pair_key(r, s)] = similarity
    return results


class ReferenceStreamingSetJoin:
    """The pre-columnar streaming prefix-filter join, retained verbatim.

    Same contract as :class:`~repro.core.local_join.StreamingSetJoin`
    (constructor, :meth:`probe`, :meth:`insert`, :meth:`probe_and_insert`,
    ``live_postings``) with the original implementation: postings are
    ``(Record, position)`` tuples, every operation is charged to the
    meter individually, and per-size bounds are fetched per probe. The
    only behavioural additions mirror the columnar engine so the two
    stay comparable: the ``expiry`` mode (``"lazy"`` collects dead
    postings when a scan touches them, ``"eager"`` drains a min-heap of
    postings at the start of every probe/insert) and the unbounded-
    window short-circuit (no liveness call, no alive-list rebuild when
    nothing can ever expire).

    One deliberate difference: here ``token_filter`` only restricts the
    index and the probes. The prefix scheme's reporting rule, which the
    columnar engine applies inside its verification walk, is bolted on
    from outside as a ``pair_filter`` (:class:`PrefixDedupFilter`,
    below) — a second merge and a restart from ``(0, 0)``, which is
    what makes this engine an independent oracle for the fused one.
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
        self.pair_filter = pair_filter
        self.expiry = expiry
        self._eager = expiry == "eager" and self.window.bounded
        self._index: Dict[int, List[Tuple[Record, int]]] = {}
        self._heap: List[Tuple[float, int, int, int]] = []  # (ts, token, rid, pos)
        self._live_postings = 0

    @property
    def live_postings(self) -> int:
        return self._live_postings

    def insert(self, record: Record) -> None:
        meter = self.meter
        if self._eager:
            self._expire_upto(record.timestamp)
        width = self.func.index_prefix_length(record.size)
        token_filter = self.token_filter
        inserted = 0
        for position in range(width):
            token = record.tokens[position]
            if token_filter is not None and not token_filter(token):
                continue
            self._index.setdefault(token, []).append((record, position))
            if self._eager:
                heappush(
                    self._heap, (record.timestamp, token, record.rid, position)
                )
            inserted += 1
        self._live_postings += inserted
        meter.charge("posting_insert", inserted)
        meter.event("postings_inserted", inserted)

    def probe(self, record: Record) -> List[MatchResult]:
        lr = record.size
        if lr == 0:
            return []
        func = self.func
        meter = self.meter
        now = record.timestamp
        if self._eager:
            self._expire_upto(now)
        lo, hi = func.length_bounds(lr)
        width = func.probe_prefix_length(lr)
        token_filter = self.token_filter
        filtered_mode = token_filter is not None
        # Liveness is checked per posting only when postings can die
        # lazily: never for an unbounded window (alive() is constant
        # true), never in eager mode (the heap drain above already
        # removed everything dead at ``now``).
        check_alive = self.window.bounded and not self._eager
        seen: set = set()
        required_cache: Dict[int, int] = {}
        results: List[MatchResult] = []

        for i in range(width):
            token = record.tokens[i]
            if filtered_mode and not token_filter(token):
                continue
            meter.charge("index_lookup")
            postings = self._index.get(token)
            if not postings:
                continue
            alive: Optional[List[Tuple[Record, int]]] = [] if check_alive else None
            for entry in postings:
                partner, j = entry
                meter.charge("posting_scan")
                if check_alive and not self.window.alive(partner, now):
                    meter.charge("posting_expire")
                    self._live_postings -= 1
                    # Health signal: how long past its window the dead
                    # posting lingered before this scan collected it,
                    # in units of the window length (alive() failing
                    # implies the window is bounded).
                    meter.signal(
                        "window_expiration_lag_fraction",
                        (now - partner.timestamp - self.window.seconds)
                        / self.window.seconds,
                    )
                    continue
                if alive is not None:
                    alive.append(entry)
                ls = partner.size
                if ls < lo or ls > hi:
                    continue
                if partner.rid in seen:
                    continue
                seen.add(partner.rid)
                required = required_cache.get(ls)
                if required is None:
                    required = func.min_overlap(lr, ls)
                    required_cache[ls] = required
                # Position filter. Unfiltered index: (i, j) is the first
                # common token, so nothing matched before it. Filtered
                # index: up to min(i, j) earlier tokens may match at
                # other workers; relax accordingly.
                slack = min(i, j) if filtered_mode else 0
                if slack + 1 + min(lr - i - 1, ls - j - 1) < required:
                    continue
                meter.charge("candidate_admit")
                meter.event("candidates")
                if self.pair_filter is not None and not self.pair_filter(
                    record, partner
                ):
                    continue
                if filtered_mode:
                    overlap, comparisons = verify_pair(
                        record.tokens, partner.tokens, required
                    )
                else:
                    overlap, comparisons = verify_pair(
                        record.tokens,
                        partner.tokens,
                        required,
                        start_r=i + 1,
                        start_s=j + 1,
                        known=1,
                    )
                meter.charge("token_compare", comparisons)
                meter.event("verifications")
                if overlap >= required:
                    similarity = func.similarity_from_overlap(lr, ls, overlap)
                    meter.charge("result_emit")
                    results.append(MatchResult(partner, similarity, overlap))
            if alive is not None and len(alive) != len(postings):
                if alive:
                    self._index[token] = alive
                else:
                    del self._index[token]
        return results

    def probe_and_insert(self, record: Record) -> List[MatchResult]:
        results = self.probe(record)
        self.insert(record)
        return results

    # -- eager expiration ----------------------------------------------------
    def _expire_upto(self, now: float) -> None:
        """Remove every posting dead at time ``now`` (eager mode)."""
        heap = self._heap
        if not heap:
            return
        meter = self.meter
        seconds = self.window.seconds
        while heap and now - heap[0][0] > seconds:
            timestamp, token, rid, position = heappop(heap)
            postings = self._index[token]
            for idx, (partner, j) in enumerate(postings):
                if partner.rid == rid and j == position:
                    del postings[idx]
                    break
            if not postings:
                del self._index[token]
            self._live_postings -= 1
            meter.charge("posting_expire")
            meter.signal(
                "window_expiration_lag_fraction",
                (now - timestamp - seconds) / seconds,
            )


def min_common_prefix_token(
    r: Record, s: Record, func: SimilarityFunction
) -> Tuple[Optional[int], int]:
    """First common token of the two records' prefixes, plus merge cost.

    Returns ``(token, comparisons)``; ``token`` is ``None`` when the
    prefixes share nothing (such a pair is never a candidate under
    prefix routing, but the function stays total).
    """
    pr = func.probe_prefix_length(r.size)
    ps = func.index_prefix_length(s.size)
    i = j = comparisons = 0
    while i < pr and j < ps:
        comparisons += 1
        a, b = r.tokens[i], s.tokens[j]
        if a == b:
            return a, comparisons
        if a < b:
            i += 1
        else:
            j += 1
    return None, comparisons


class PrefixDedupFilter:
    """Pair filter: report only at the minimal common token's owner."""

    def __init__(
        self,
        worker_index: int,
        num_workers: int,
        func: SimilarityFunction,
        meter: WorkMeter,
    ):
        self.worker_index = worker_index
        self.num_workers = num_workers
        self.func = func
        self.meter = meter

    def __call__(self, r: Record, s: Record) -> bool:
        token, comparisons = min_common_prefix_token(r, s, self.func)
        self.meter.charge("token_compare", comparisons)
        if token is None:
            return False
        return token_owner(token, self.num_workers) == self.worker_index
