"""Time-based sliding-window semantics for the streaming join.

A pair ``(r, s)`` with ``s.timestamp <= r.timestamp`` qualifies iff
``r.timestamp - s.timestamp <= window``. The join engines use
:meth:`SlidingWindow.alive` to decide whether an indexed record may
still match and :meth:`SlidingWindow.expiry_horizon` to garbage-collect
index entries lazily.
"""

from __future__ import annotations

import math

from repro.records import Record


class SlidingWindow:
    """A time-based sliding window of ``seconds`` duration.

    ``seconds = math.inf`` (the default) disables expiration — the
    unbounded append-only join the throughput experiments run.
    """

    def __init__(self, seconds: float = math.inf):
        if not seconds > 0:  # NaN too; inf is the unbounded window
            raise ValueError(f"window must be positive, got {seconds}")
        self.seconds = float(seconds)

    @property
    def bounded(self) -> bool:
        """Whether records ever expire."""
        return math.isfinite(self.seconds)

    def alive(self, indexed: Record, now: float) -> bool:
        """Whether a record indexed earlier can still join at time ``now``."""
        return now - indexed.timestamp <= self.seconds

    def expiry_horizon(self, now: float) -> float:
        """Timestamp below which indexed records are dead at time ``now``."""
        return now - self.seconds

    def qualifies(self, a: Record, b: Record) -> bool:
        """Window predicate on a pair, independent of arrival order."""
        return abs(a.timestamp - b.timestamp) <= self.seconds

    def __repr__(self) -> str:
        return f"SlidingWindow({self.seconds})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SlidingWindow) and self.seconds == other.seconds

    def __hash__(self) -> int:
        return hash(("SlidingWindow", self.seconds))
