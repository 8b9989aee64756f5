"""The length-based distribution framework (the paper's core idea).

Each join worker owns a contiguous range of record lengths. An incoming
record ``r``:

* is **indexed** exactly once, at the worker owning ``|r|``;
* **probes** every worker whose range intersects the admissible
  partner-length interval ``[lmin(|r|), lmax(|r|)]`` of the similarity
  function (the length filter), because a qualifying earlier record can
  have any admissible length and sits in exactly one index.

Completeness & uniqueness: a qualifying pair ``(r, s)`` with ``s``
earlier is found precisely when ``r`` probes the worker owning ``|s|``
— which the intersection rule guarantees — and nowhere else, since
``s`` is indexed nowhere else. No replication, no deduplication, and
per-record communication is 1 index message plus a handful of probe
messages (most of which coincide with the index target for tight
thresholds, collapsing into a single combined message).
"""

from __future__ import annotations

from repro.partition.length_partition import LengthPartition
from repro.records import Record
from repro.routing.base import Router, RoutingDecision
from repro.similarity.functions import SimilarityFunction


class LengthRouter(Router):
    """Route records by length over a :class:`LengthPartition`."""

    name = "length"
    routes_by_size = True

    def __init__(self, partition: LengthPartition, func: SimilarityFunction):
        super().__init__(partition.num_workers)
        self.partition = partition
        self.func = func

    def route(self, record: Record) -> RoutingDecision:
        length = max(1, record.size)
        home = self.partition.owner_of(length)
        lo, hi = self.func.length_bounds(length)
        probe = self.partition.owners_of_range(max(1, lo), max(1, hi))
        return RoutingDecision(index_tasks=(home,), probe_tasks=probe)

    def describe(self) -> str:
        return f"{self.name}({self.partition.describe()})"
