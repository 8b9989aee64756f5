"""Local join-cost estimation for candidate length partitions.

The load-aware partitioner needs, for any contiguous length range
``[a, b]``, an estimate of the work the worker owning that range will
perform. Three components are modelled, mirroring what the join bolt
actually does (and charges in the simulator):

index maintenance
    Every record with length in ``[a, b]`` is indexed here under its
    prefix tokens: ``Σ f(l)·g(l)`` postings, where ``g(l)`` is the
    prefix length.

probe fan-in (fixed)
    Every record whose admissible partner-length interval intersects
    ``[a, b]`` sends a probe tuple here; each costs fixed tuple handling.

candidate generation
    A probe of length ``l`` scans postings of records with length in
    ``[a, b] ∩ [lo(l), hi(l)]``. Under a rough independence model, the
    expected postings matched per (probe, indexed) pair is
    ``g(l)·g(l′)/V`` — each of the probe's ``g(l)`` prefix tokens hits
    each of the partner's ``g(l′)`` posted tokens with probability
    ``1/V`` (``V`` = vocabulary size). The model ignores token skew, but
    the histogram term ``f(l)·f(l′)`` — which dominates in practice —
    is exact, and the estimator is only used to *compare* ranges.

All three reduce to prefix-sum queries plus one ``O(range)`` loop, so a
cost query is ``O(max_length)``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Tuple

from repro.partition.stats import LengthHistogram
from repro.similarity.functions import SimilarityFunction

#: Relative prices of the three cost components, following the
#: simulator's cost model: a posting insert ≈ 8 units, probe tuple
#: handling ≈ 300 units, admitting + part-verifying one candidate ≈ 30
#: units.
INSERT_WEIGHT = 8.0
PROBE_WEIGHT = 300.0
CANDIDATE_WEIGHT = 30.0


class JoinCostEstimator:
    """Estimates per-worker join cost of owning a length range.

    Parameters
    ----------
    histogram:
        Length distribution of (a sample of) the stream.
    func:
        Similarity function; supplies length bounds and prefix lengths.
    vocabulary_size:
        Approximate number of distinct tokens (selectivity scale).
    """

    def __init__(
        self,
        histogram: LengthHistogram,
        func: SimilarityFunction,
        vocabulary_size: int = 10_000,
    ):
        if histogram.total == 0:
            raise ValueError("cannot estimate costs from an empty histogram")
        if vocabulary_size < 1:
            raise ValueError(f"vocabulary_size must be >= 1, got {vocabulary_size}")
        self.histogram = histogram
        self.func = func
        self.vocabulary_size = vocabulary_size

        top = histogram.max_length
        self._top = top
        # Dense per-length arrays, index 0 unused (lengths start at 1).
        self._f = [0] * (top + 1)
        for length in histogram.lengths():
            self._f[length] = histogram.count(length)
        self._g = [0] * (top + 1)
        self._lo = [0] * (top + 1)
        self._hi = [0] * (top + 1)
        for length in range(1, top + 1):
            self._g[length] = func.probe_prefix_length(length)
            lo, hi = func.length_bounds(length)
            self._lo[length] = max(1, lo)
            self._hi[length] = min(top, hi)
        # Prefix sums: F of f, G of f·g.
        self._F = [0.0] * (top + 1)
        self._G = [0.0] * (top + 1)
        for length in range(1, top + 1):
            self._F[length] = self._F[length - 1] + self._f[length]
            self._G[length] = self._G[length - 1] + self._f[length] * self._g[length]
        self._cache: Dict[Tuple[int, int], float] = {}

    # -- public -------------------------------------------------------------
    @property
    def max_length(self) -> int:
        return self._top

    def cost(self, a: int, b: int) -> float:
        """Estimated work of a worker owning lengths ``[a, b]``."""
        if a > b:
            return 0.0
        a = max(1, a)
        b = min(self._top, b)
        if a > b:
            return 0.0
        key = (a, b)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        value = self._index_cost(a, b) + self._probe_cost(a, b)
        self._cache[key] = value
        return value

    def total_cost(self) -> float:
        """Cost of a single worker owning everything (the 1-worker run)."""
        return self.cost(1, self._top)

    # -- components ----------------------------------------------------------
    def _index_cost(self, a: int, b: int) -> float:
        return INSERT_WEIGHT * (self._G[b] - self._G[a - 1])

    def _probe_sources(self, a: int, b: int) -> Tuple[int, int]:
        """Length range of records whose probes reach partition [a, b].

        A probe of length ``l`` reaches iff ``lo(l) <= b`` and
        ``hi(l) >= a``; both bounds are non-decreasing in ``l``, so the
        qualifying lengths form the contiguous range returned here.
        """
        low = bisect_left(self._hi, a, 1, self._top + 1)
        high = bisect_right(self._lo, b, 1, self._top + 1) - 1
        return low, high

    def _probe_cost(self, a: int, b: int) -> float:
        low, high = self._probe_sources(a, b)
        if low > high:
            return 0.0
        fixed = PROBE_WEIGHT * (self._F[high] - self._F[low - 1])
        scale = CANDIDATE_WEIGHT / self.vocabulary_size
        candidates = 0.0
        for length in range(low, high + 1):
            weight = self._f[length] * self._g[length]
            if not weight:
                continue
            span_lo = max(a, self._lo[length])
            span_hi = min(b, self._hi[length])
            if span_lo > span_hi:
                continue
            candidates += weight * (self._G[span_hi] - self._G[span_lo - 1])
        return fixed + scale * candidates
