"""Streaming two-stream (R–S) set similarity join.

The paper studies the self-join; the natural companion is the cross
join of two streams — e.g. a stream of incoming news matched against a
stream of fact-check claims. A record from either stream must join
partners *from the other stream only*, within the window.

:func:`merge_streams` interleaves two record streams into one (stable
by timestamp, fresh contiguous rids, sources tagged on the records),
which the existing distributed machinery joins under a cross-source
pair filter — completeness and exactly-once follow directly from the
self-join guarantees. Each engine is the ordinary
:class:`~repro.core.local_join.StreamingSetJoin` with
:func:`cross_source_filter` as its pair filter. The round-trip is
tested against a brute-force cross oracle.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.records import Record
from repro.streams.stream import RecordStream, from_records

LEFT, RIGHT = "L", "R"


def merge_streams(
    left: RecordStream, right: RecordStream
) -> Tuple[RecordStream, Dict[int, Tuple[str, int]]]:
    """Interleave two streams for the distributed cross join.

    Returns the merged stream (fresh contiguous rids in timestamp
    order, each record tagged with its source) and the provenance map
    ``merged_rid → (side, original_rid)``.
    """
    tagged: List[Tuple[float, int, str, Record]] = []
    for side, stream in ((LEFT, left), (RIGHT, right)):
        for record in stream:
            tagged.append((record.timestamp, record.rid, side, record))
    tagged.sort(key=lambda item: (item[0], item[2], item[1]))

    merged: List[Record] = []
    provenance: Dict[int, Tuple[str, int]] = {}
    for rid, (timestamp, original_rid, side, record) in enumerate(tagged):
        merged.append(
            Record(rid=rid, tokens=record.tokens, timestamp=timestamp, source=side)
        )
        provenance[rid] = (side, original_rid)
    return from_records(merged, name=f"{left.name}×{right.name}"), provenance


def cross_source_filter(r: Record, s: Record) -> bool:
    """Pair filter admitting only pairs from different sources."""
    return r.source != s.source


class DistributedTwoStreamJoin:
    """Distributed cross join of two streams via stream merging.

    Merges the two streams (source-tagged), runs the configured
    distributed self-join machinery under a cross-source pair filter,
    and maps result pairs back to ``((side, rid), (side, rid))``
    provenance. Exactness follows from the self-join guarantees plus
    the filter; tested against a brute-force cross oracle.

    >>> from repro.core.config import JoinConfig
    >>> cfg = JoinConfig(threshold=0.8, num_workers=4, collect_pairs=True)
    >>> # join = DistributedTwoStreamJoin(cfg); report, pairs = join.run(L, R)
    """

    def __init__(self, config, cost=None, network=None):
        from repro.core.join import DistributedStreamJoin  # local: avoid cycle

        self.config = config.replace(cross_source_only=True)
        self._inner = DistributedStreamJoin(self.config, cost=cost, network=network)

    def run(self, left: RecordStream, right: RecordStream):
        """Returns ``(JoinRunReport, cross_pairs)`` where each cross
        pair is ``((side_a, rid_a), (side_b, rid_b), similarity)`` in
        the original streams' id spaces (left side listed first)."""
        merged, provenance = merge_streams(left, right)
        report = self._inner.run(merged)
        pairs = None
        if report.pairs is not None:
            pairs = []
            for a, b, similarity in report.pairs:
                origin_a, origin_b = provenance[a], provenance[b]
                if origin_a[0] == RIGHT:
                    origin_a, origin_b = origin_b, origin_a
                pairs.append((origin_a, origin_b, similarity))
        return report, pairs
