"""The MinHash/LSH join engine: band buckets + exact verification.

:class:`SketchStreamingSetJoin` has the columnar
:class:`~repro.core.local_join.StreamingSetJoin`'s ``probe`` /
``insert`` interface, but candidate generation is entirely different:
instead of scanning per-token posting lists, a probe looks up its
``bands`` band keys in per-band bucket dictionaries and scans only the
records that collide in at least one band. Every admitted candidate
still goes through the exact verifier (:func:`verify_pair` plus the
length bounds), so **every emitted match is a true positive — precision
is exactly 1.0 and only recall is approximate** (a true pair is missed
iff no band collides).

Only the end-to-end benchmark's ``sketch`` layer builds this engine
(see :mod:`repro.sketch`).

Index layout — signature groups of token variants
-------------------------------------------------
Streaming corpora are duplicate-heavy, so the index exploits identity
twice:

* records are grouped by **signature** (:class:`_SigGroup`): each
  band holds one bucket reference to the whole group, so a group costs
  O(bands) index entries however many records it holds;
* within a group, records are sub-grouped by **token variant**
  (:class:`_Variant`): every member of a variant has the *same* token
  set, so a probe verifies each variant **once** (one merge walk — the
  same diff-based batch-verification idea the bundle engine uses) and
  bulk-emits a match per live member. Probe cost scales with distinct
  collided token sets, not with raw collided records.

Windowed expiry
---------------
Entries within a variant are appended in arrival order, so their
timestamps are nondecreasing and lazy expiry is a pure front-advance:
each scan moves the variant's ``start`` cursor past dead entries
(charged as ``posting_expire``, with the standard expiration-lag health
signal) and the consumed front is trimmed once it dominates the
arrays. Eager expiry is not offered — bucket entries are only ever
touched by colliding probes, which is exactly when lazy collection is
free.

Metering
--------
The engine charges the standard operation vocabulary (``index_lookup``
per band bucket consulted, ``posting_scan`` per live entry scanned,
``posting_expire``/``posting_insert`` per (entry × band),
``candidate_admit``/``token_compare``/``result_emit`` as in the exact
engine; ``verifications`` counts merge walks, i.e. one per admitted
*variant*) plus two sketch-specific events — ``sketch_band_collisions``
(band-bucket group collisions, pre-dedup) and
``sketch_candidates_admitted``. All counts are pure functions of the
delivery order.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Dict, List, Optional, Tuple

from repro.core.local_join import MatchResult
from repro.core.metering import WorkMeter
from repro.records import Record
from repro.similarity.functions import SimilarityFunction
from repro.similarity.verification import verify_pair
from repro.sketch.minhash import MinHashScheme
from repro.streams.window import SlidingWindow

__all__ = ["SketchStreamingSetJoin"]


class _Variant:
    """All indexed records sharing one exact token set, arrival order.

    ``start`` is the front-expiry cursor (timestamps nondecreasing);
    ``size`` caches the token count for the length filter.
    ``selfmatches`` pre-builds the :class:`MatchResult` a probe with
    *these exact tokens* would emit per member — similarity 1.0,
    overlap ``size``, a pure function of the variant — so the
    duplicate-probe hot path is one C-level list extend instead of a
    per-member tuple construction.
    """

    __slots__ = (
        "tokens", "size", "timestamps", "recs", "selfmatches", "start",
    )

    def __init__(self, tokens: Tuple[int, ...]):
        self.tokens = tokens
        self.size = len(tokens)
        self.timestamps = array("d")
        self.recs: List[Record] = []
        self.selfmatches: List[MatchResult] = []
        self.start = 0


class _SigGroup:
    """All indexed records sharing one signature, split by token variant.

    ``variants`` iterates in first-arrival order (dict insertion order),
    keeping scans deterministic.
    """

    __slots__ = ("variants",)

    def __init__(self):
        self.variants: Dict[Tuple[int, ...], _Variant] = {}


class SketchStreamingSetJoin:
    """Streaming MinHash/LSH join over every band's buckets.

    Parameters
    ----------
    func:
        Similarity function with threshold (verification + length
        bounds — unchanged from the exact engine).
    scheme:
        The :class:`MinHashScheme`; a default one is built if omitted.
    window:
        Sliding window; defaults to unbounded.
    meter:
        Work meter; a fresh unattached one is created if omitted.
    """

    def __init__(
        self,
        func: SimilarityFunction,
        scheme: Optional[MinHashScheme] = None,
        window: Optional[SlidingWindow] = None,
        meter: Optional[WorkMeter] = None,
    ):
        self.func = func
        self.scheme = scheme if scheme is not None else MinHashScheme()
        self.window = window if window is not None else SlidingWindow()
        self.meter = meter if meter is not None else WorkMeter()
        self._bounded = self.window.bounded
        #: Groups are keyed by the *band-key vector*, not the full
        #: signature: two records can only ever collide through their
        #: band keys, so distinct signatures with identical keys belong
        #: in one group (they collide in every band regardless), and a
        #: ``bands``-wide tuple hashes much faster than a ``perms``-wide
        #: one on the insert/probe hot path.
        self._groups: Dict[Tuple[int, ...], _SigGroup] = {}
        #: One bucket dict per band: band key → groups.
        self._buckets: List[Dict[int, List[_SigGroup]]] = [
            {} for _ in range(self.scheme.bands)
        ]
        self._bucket_gets = tuple(bucket.get for bucket in self._buckets)

    # -- index maintenance ---------------------------------------------------
    def insert(self, record: Record) -> None:
        """Index a record under its band buckets."""
        meter = self.meter
        tokens = record.tokens
        if not tokens:
            # Key-set parity with the exact engine: an unindexable
            # record still stamps both counters.
            meter.charge("posting_insert", 0)
            meter.event("postings_inserted", 0)
            return
        _sig, keys = self.scheme.sketch(tokens)
        group = self._groups.get(keys)
        if group is None:
            group = self._groups[keys] = _SigGroup()
            for bucket, key in zip(self._buckets, keys):
                groups = bucket.get(key)
                if groups is None:
                    bucket[key] = [group]
                else:
                    groups.append(group)
        variant = group.variants.get(tokens)
        if variant is None:
            variant = group.variants[tokens] = _Variant(tokens)
        variant.timestamps.append(record.timestamp)
        variant.recs.append(record)
        variant.selfmatches.append(MatchResult(record, 1.0, variant.size))
        inserted = self.scheme.bands
        meter.charge("posting_insert", inserted)
        meter.event("postings_inserted", inserted)

    # -- probing ------------------------------------------------------------
    def probe(self, record: Record) -> List[MatchResult]:
        """All colliding, in-window partners with ``sim >= θ``."""
        tokens = record.tokens
        lr = len(tokens)
        if lr == 0:
            return []
        func = self.func
        meter = self.meter
        now = record.timestamp
        bounded = self._bounded
        seconds = self.window.seconds
        _sig, keys = self.scheme.sketch(tokens)
        bands = len(keys)
        results: List[MatchResult] = []
        MR = MatchResult
        new_mr = tuple.__new__
        #: The length bounds and overlap helpers are only needed when a
        #: *non-identical* variant collides — rare on duplicate-heavy
        #: streams — so their method calls are deferred until then.
        have_bounds = False
        lo = hi = 0
        min_overlap = similarity_from_overlap = None
        n_scan = n_expire = n_admit = 0
        n_compare = n_verify = n_emit = n_collide = 0
        #: Groups to scan, each once. The probe's own group (identical
        #: band keys) collides in every band; pulling it out up front
        #: keeps the per-band loop to a single identity test in the
        #: common case where each bucket holds exactly that group. Only
        #: when a bucket holds anything else is a dedup set built
        #: (identity hash, so membership stays O(1) however many aliens
        #: collide at low-rows settings).
        own = self._groups.get(keys)
        scans = [own] if own is not None else []
        scans_append = scans.append
        seen = None
        for key, bucket_get in zip(keys, self._bucket_gets):
            groups = bucket_get(key)
            if groups is None:
                continue
            n_collide += len(groups)
            if len(groups) == 1 and groups[0] is own:
                continue
            if seen is None:
                seen = set(scans)
                seen_add = seen.add
            for group in groups:
                if group not in seen:
                    seen_add(group)
                    scans_append(group)

        for group in scans:
            for variant in group.variants.values():
                start = variant.start
                timestamps = variant.timestamps
                n = len(timestamps)
                if bounded and start < n:
                    # Front-advance lazy expiry: in-variant timestamps
                    # are nondecreasing (arrival order), so everything
                    # dead sits at the front. One lag observation per
                    # sweep, its oldest posting's (the meter keeps the
                    # peak): the first dead one, unless a late arrival
                    # behind it is older still.
                    oldest = now
                    while start < n and now - timestamps[start] > seconds:
                        if timestamps[start] < oldest:
                            oldest = timestamps[start]
                            meter.signal(
                                "window_expiration_lag_fraction",
                                (now - oldest - seconds) / seconds,
                            )
                        start += 1
                    expired = start - variant.start
                    if expired:
                        n_expire += expired * bands
                        if start >= 64 and start * 2 >= n:
                            del variant.timestamps[:start]
                            del variant.recs[:start]
                            del variant.selfmatches[:start]
                            start = 0
                            n = len(timestamps)
                        variant.start = start
                live = n - start
                if not live:
                    continue
                n_scan += live
                vtokens = variant.tokens
                if vtokens == tokens:
                    # Exact duplicates (the streaming common case):
                    # identical sets match at any θ ≤ 1 with overlap lr
                    # and similarity 1.0 — one bulk emit, no merge walk.
                    n_admit += live
                    n_verify += 1
                    n_emit += live
                    sm = variant.selfmatches
                    results += sm if not start else sm[start:]
                    continue
                if not have_bounds:
                    lo, hi = func.length_bounds(lr)
                    min_overlap = func.min_overlap
                    similarity_from_overlap = func.similarity_from_overlap
                    have_bounds = True
                ls = variant.size
                if ls < lo or ls > hi:
                    continue
                n_admit += live
                required = min_overlap(lr, ls)
                # One merge walk verifies the whole variant — every
                # member has exactly these tokens (the bundle engine's
                # batch-verification idea, with an exact batch).
                overlap, comparisons = verify_pair(tokens, vtokens, required)
                n_compare += comparisons
                n_verify += 1
                if overlap >= required:
                    n_emit += live
                    similarity = similarity_from_overlap(lr, ls, overlap)
                    recs = variant.recs
                    seq = recs if not start else recs[start:]
                    results += map(
                        new_mr, repeat(MR),
                        zip(seq, repeat(similarity), repeat(overlap)),
                    )

        charges: Dict[str, float] = {"index_lookup": bands}
        if n_scan:
            charges["posting_scan"] = n_scan
        if n_expire:
            charges["posting_expire"] = n_expire
        if n_admit:
            charges["candidate_admit"] = n_admit
        if n_verify or n_compare:
            charges["token_compare"] = n_compare
        if n_emit:
            charges["result_emit"] = n_emit
        meter.charge_many(charges)
        if n_collide or n_admit or n_verify:
            events: Dict[str, float] = {}
            if n_collide:
                events["sketch_band_collisions"] = n_collide
            if n_admit:
                events["candidates"] = n_admit
                events["sketch_candidates_admitted"] = n_admit
            if n_verify:
                events["verifications"] = n_verify
            meter.event_many(events)
        return results
