"""The paper's contribution: the distributed streaming set similarity
join — local join engines, bundles, batch verification, and the
topology façade that wires them onto the Storm simulator.

Public entry points:

* :class:`~repro.core.join.DistributedStreamJoin` — configure with a
  :class:`~repro.core.config.JoinConfig`, call
  :meth:`~repro.core.join.DistributedStreamJoin.run` on a
  :class:`~repro.streams.stream.RecordStream`.
* :class:`~repro.core.local_join.StreamingSetJoin` — the single-node
  streaming join engine (columnar fast path; usable standalone).
* :func:`~repro.core.reference.naive_join` — the brute-force oracle the
  tests compare everything against.
* :class:`~repro.core.reference.ReferenceStreamingSetJoin` — the
  retained pre-columnar engine, the oracle for the columnar engine's
  metered work (see DESIGN §9).
"""

from repro.core.bundle import Bundle, BundleIndex, BundleMember
from repro.core.config import JoinConfig
from repro.core.join import DistributedStreamJoin, JoinRunReport
from repro.core.local_join import MatchResult, StreamingSetJoin
from repro.core.metering import WorkMeter
from repro.core.reference import ReferenceStreamingSetJoin, naive_join
from repro.core.two_stream import (
    DistributedTwoStreamJoin,
    cross_source_filter,
    merge_streams,
)
from repro.core.verify import batch_verify_members, individually_verify_members

__all__ = [
    "Bundle",
    "BundleIndex",
    "BundleMember",
    "DistributedStreamJoin",
    "DistributedTwoStreamJoin",
    "JoinConfig",
    "JoinRunReport",
    "MatchResult",
    "ReferenceStreamingSetJoin",
    "StreamingSetJoin",
    "WorkMeter",
    "batch_verify_members",
    "cross_source_filter",
    "individually_verify_members",
    "merge_streams",
    "naive_join",
]
