"""Similarity functions over token sets and their exact pruning bounds.

Each similarity function exposes the pieces of derived math that
set-similarity join algorithms need:

``min_overlap(lr, ls)``
    The smallest intersection size ``o`` such that two sets of sizes
    ``lr`` and ``ls`` with ``|r ∩ s| = o`` can satisfy ``sim(r, s) >= θ``.

``length_bounds(lr)``
    The closed interval ``[lmin, lmax]`` of partner sizes that can
    possibly reach the threshold against a set of size ``lr`` (the
    *length filter*).

``required_row(lr)``
    ``min_overlap(lr, ls)`` for every partner size at once, indexed by
    ``ls`` — what a join engine's scan reads per posting.

``probe_prefix_length(lr)`` / ``index_prefix_length(lr)``
    Prefix-filter lengths. If ``sim(r, s) >= θ`` then the first
    ``probe_prefix_length(|r|)`` tokens of ``r`` (in the global order)
    and the first ``index_prefix_length(|s|)`` tokens of ``s`` share at
    least one token, so an inverted index over index prefixes finds
    every qualifying pair.

In the *streaming* setting records arrive in arbitrary order and either
side of a pair may probe, so the safe index prefix equals the probe
prefix (both are derived from the shortest admissible partner). The
offline optimization of shorter index prefixes — valid only when records
are processed in non-decreasing length order — is intentionally not
used; see DESIGN.md §7 invariant 1.

All bounds are exact in the sense tested by
``tests/test_similarity_functions.py``: they never prune a qualifying
pair, and each bound is tight for some pair.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Sequence, Tuple, Type

#: Guard against float rounding in threshold arithmetic. 1e-9 is far
#: below the resolution of any meaningful threshold (thresholds are
#: user-supplied constants like 0.8) and far above double rounding error
#: for the set sizes this library handles (< 1e7 tokens).
EPS = 1e-9


def _ceil(x: float) -> int:
    """Ceiling that forgives float error just below an integer."""
    return int(math.ceil(x - EPS))


def _floor(x: float) -> int:
    """Floor that forgives float error just above an integer."""
    return int(math.floor(x + EPS))


class SimilarityFunction:
    """A normalized set-similarity function with its pruning bounds.

    Parameters
    ----------
    threshold:
        The join threshold ``θ``. For the normalized functions
        (Jaccard, Cosine, Dice) it must lie in ``(0, 1]``; for
        :class:`Overlap` it is an absolute intersection size ``>= 1``.
    """

    #: Registry name, e.g. ``"jaccard"``. Set by subclasses.
    name: str = ""

    def __init__(self, threshold: float):
        self._check_threshold(threshold)
        self.threshold = float(threshold)
        # Per-instance memo tables over the pure size-derived bounds.
        # The join engines call these once per posting/probe and record
        # sizes repeat heavily, so each instance shadows its (subclass)
        # methods with an unbounded cache; the table size is bounded by
        # the number of distinct record lengths (length pairs for
        # ``min_overlap``, size/size/overlap triples for
        # ``similarity_from_overlap`` — the length filter keeps the
        # sizes close and the overlap near the threshold, so the
        # triples stay sparse), a few thousand entries at most.
        self.min_overlap = lru_cache(maxsize=None)(self.min_overlap)
        self.length_bounds = lru_cache(maxsize=None)(self.length_bounds)
        self.probe_prefix_length = lru_cache(maxsize=None)(self.probe_prefix_length)
        self.index_prefix_length = lru_cache(maxsize=None)(self.index_prefix_length)
        self.similarity_from_overlap = lru_cache(maxsize=None)(
            self.similarity_from_overlap
        )
        self.required_row = lru_cache(maxsize=None)(self.required_row)

    # -- to be provided by subclasses ------------------------------------
    def similarity(self, r: Sequence[int], s: Sequence[int]) -> float:
        """Exact similarity of two canonical token arrays."""
        raise NotImplementedError

    def similarity_from_overlap(self, lr: int, ls: int, o: int) -> float:
        """Similarity value implied by sizes ``lr, ls`` and overlap ``o``."""
        raise NotImplementedError

    def min_overlap(self, lr: int, ls: int) -> int:
        """Smallest overlap that lets sizes ``lr, ls`` reach the threshold."""
        raise NotImplementedError

    def length_bounds(self, lr: int) -> Tuple[int, int]:
        """Partner-size interval ``[lmin, lmax]`` admissible for size ``lr``."""
        raise NotImplementedError

    # -- shared derivations ----------------------------------------------
    def probe_prefix_length(self, lr: int) -> int:
        """Prefix length of a probing record of size ``lr``.

        Derived from the loosest admissible partner: the minimum of
        ``min_overlap(lr, ls)`` over all admissible ``ls`` is attained
        at ``ls = lmin`` for every function implemented here (each
        ``min_overlap`` is non-decreasing in ``ls``).
        """
        if lr <= 0:
            return 0
        lmin, _ = self.length_bounds(lr)
        lmin = max(lmin, 1)
        t = self.required_row(lr)[lmin]
        return max(0, min(lr, lr - t + 1))

    def index_prefix_length(self, lr: int) -> int:
        """Prefix length under which a record of size ``lr`` is indexed.

        Equal to the probe prefix in the streaming setting (arbitrary
        arrival order — see module docstring).
        """
        return self.probe_prefix_length(lr)

    def required_row(self, lr: int) -> Sequence[int]:
        """The overlap a partner of each size ``ls <= lmax`` needs, as one
        tuple indexed by ``ls``: ``min_overlap(lr, ls)`` inside the
        length bounds, ``lr + 1`` — which no overlap reaches — below.

        A probe of size ``lr`` reads its partners' bounds from this row,
        one subscript per posting, instead of calling ``min_overlap``
        per posting; the unreachable entries make the position filter
        apply the length filter as well. Memoised per probe size, so
        each ``(lr, ls)`` is computed once (``min_overlap`` itself is
        not consulted: its table would hold every row twice).
        """
        lo, hi = self.length_bounds(lr)
        lo = max(lo, 0)
        bound = type(self).min_overlap
        return (lr + 1,) * lo + tuple(
            bound(self, lr, ls) for ls in range(lo, hi + 1)
        )

    def matches(self, r: Sequence[int], s: Sequence[int]) -> bool:
        """Whether ``sim(r, s) >= threshold`` (exact, no filtering)."""
        return self.similarity(r, s) >= self.threshold - EPS

    # -- plumbing ----------------------------------------------------------
    def _check_threshold(self, threshold: float) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(
                f"{type(self).__name__} threshold must be in (0, 1], "
                f"got {threshold!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(threshold={self.threshold})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SimilarityFunction)
            and type(self) is type(other)
            and self.threshold == other.threshold
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.threshold))

    def __reduce__(self):
        # The per-instance memo tables shadow the methods they wrap and
        # do not pickle; a copy in another process starts with empty
        # ones (a ``ShardPlan`` carries one as a ``spawn`` argument).
        return type(self), (self.threshold,)


def _overlap(r: Sequence[int], s: Sequence[int]) -> int:
    """Intersection size of two sorted token arrays (linear merge)."""
    i = j = o = 0
    lr, ls = len(r), len(s)
    while i < lr and j < ls:
        if r[i] == s[j]:
            o += 1
            i += 1
            j += 1
        elif r[i] < s[j]:
            i += 1
        else:
            j += 1
    return o


class Jaccard(SimilarityFunction):
    """Jaccard similarity ``|r ∩ s| / |r ∪ s|``."""

    name = "jaccard"

    def similarity(self, r: Sequence[int], s: Sequence[int]) -> float:
        if not r and not s:
            return 1.0
        o = _overlap(r, s)
        return o / (len(r) + len(s) - o)

    def similarity_from_overlap(self, lr: int, ls: int, o: int) -> float:
        union = lr + ls - o
        return 1.0 if union == 0 else o / union

    def min_overlap(self, lr: int, ls: int) -> int:
        # o / (lr + ls - o) >= θ  ⟺  o >= θ (lr + ls) / (1 + θ)
        t = self.threshold
        return _ceil(t / (1.0 + t) * (lr + ls))

    def length_bounds(self, lr: int) -> Tuple[int, int]:
        t = self.threshold
        return _ceil(t * lr), _floor(lr / t)


class Cosine(SimilarityFunction):
    """Cosine similarity over sets ``|r ∩ s| / sqrt(|r| |s|)``."""

    name = "cosine"

    def similarity(self, r: Sequence[int], s: Sequence[int]) -> float:
        if not r and not s:
            return 1.0
        if not r or not s:
            return 0.0
        return _overlap(r, s) / math.sqrt(len(r) * len(s))

    def similarity_from_overlap(self, lr: int, ls: int, o: int) -> float:
        if lr == 0 and ls == 0:
            return 1.0
        if lr == 0 or ls == 0:
            return 0.0
        return o / math.sqrt(lr * ls)

    def min_overlap(self, lr: int, ls: int) -> int:
        return _ceil(self.threshold * math.sqrt(lr * ls))

    def length_bounds(self, lr: int) -> Tuple[int, int]:
        t2 = self.threshold * self.threshold
        return _ceil(t2 * lr), _floor(lr / t2)


class Dice(SimilarityFunction):
    """Dice similarity ``2 |r ∩ s| / (|r| + |s|)``."""

    name = "dice"

    def similarity(self, r: Sequence[int], s: Sequence[int]) -> float:
        if not r and not s:
            return 1.0
        return 2.0 * _overlap(r, s) / (len(r) + len(s))

    def similarity_from_overlap(self, lr: int, ls: int, o: int) -> float:
        total = lr + ls
        return 1.0 if total == 0 else 2.0 * o / total

    def min_overlap(self, lr: int, ls: int) -> int:
        return _ceil(self.threshold * (lr + ls) / 2.0)

    def length_bounds(self, lr: int) -> Tuple[int, int]:
        t = self.threshold
        return _ceil(t / (2.0 - t) * lr), _floor((2.0 - t) / t * lr)


class Overlap(SimilarityFunction):
    """Absolute overlap ``|r ∩ s|``; the threshold is an integer count."""

    name = "overlap"

    def _check_threshold(self, threshold: float) -> None:
        if threshold < 1 or threshold != int(threshold):
            raise ValueError(
                f"Overlap threshold must be a positive integer, got {threshold!r}"
            )

    def similarity(self, r: Sequence[int], s: Sequence[int]) -> float:
        return float(_overlap(r, s))

    def similarity_from_overlap(self, lr: int, ls: int, o: int) -> float:
        return float(o)

    def min_overlap(self, lr: int, ls: int) -> int:
        return int(self.threshold)

    def length_bounds(self, lr: int) -> Tuple[int, int]:
        # A partner must contain at least θ tokens; no upper bound.
        return int(self.threshold), 2**31 - 1

    def required_row(self, lr: int) -> Sequence[int]:
        # ``lmax`` is no bound here, so no tuple can span the length
        # range; the bound is θ whatever the sizes (below ``lmin = θ``
        # the position filter still rejects: ``ls - θ < 0 <= j``).
        return _ConstantRow(int(self.threshold))


class _ConstantRow:
    """A row whose every entry is one value: ``row[ls]`` for any ``ls``."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __getitem__(self, ls: int) -> int:
        return self.value


_REGISTRY: Dict[str, Type[SimilarityFunction]] = {
    cls.name: cls for cls in (Jaccard, Cosine, Dice, Overlap)
}


def get_similarity(name: str, threshold: float) -> SimilarityFunction:
    """Instantiate a similarity function from its registry name.

    >>> get_similarity("jaccard", 0.8).min_overlap(10, 10)
    9
    """
    try:
        cls = _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown similarity function {name!r}; known: {known}")
    return cls(threshold)
