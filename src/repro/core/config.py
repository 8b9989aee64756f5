"""Configuration of a distributed streaming join run."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.local_join import EXPIRY_MODES
from repro.similarity.functions import get_similarity

DISTRIBUTIONS = ("length", "prefix", "broadcast")
PARTITIONINGS = ("load_aware", "uniform", "quantile")
SIMILARITIES = ("jaccard", "cosine", "dice", "overlap")

#: Records sampled from the head of the stream to plan the length
#: partition and estimate vocabulary size.
PLAN_SAMPLE_SIZE = 5000

#: Upper bound on :attr:`JoinConfig.batch_size` — beyond this a batch
#: stops amortizing anything and only buffers memory.
MAX_BATCH_SIZE = 1 << 20


@dataclass(frozen=True)
class JoinConfig:
    """Everything that defines one join deployment.

    Attributes
    ----------
    similarity / threshold:
        Similarity function name and join threshold θ.
    num_workers:
        Parallelism of the join bolt (the paper's "processing units").
    distribution:
        Routing scheme: ``"length"`` (the paper), ``"prefix"`` (the
        offline-style baseline) or ``"broadcast"`` (naive baseline).
    partitioning:
        Length-partition planner for the length scheme:
        ``"load_aware"`` (the paper), ``"uniform"`` or ``"quantile"``.
        Ignored by the other schemes.
    use_bundles / bundle_threshold:
        Bundle-based join (length scheme only). ``bundle_threshold`` is
        the minimum record↔representative Jaccard (β ≥ θ).
    batch_verification:
        Diff-based batch verification of bundle members (True, the
        paper) vs per-member merges (False, the ablation arm).
    window_seconds:
        Sliding-window duration; ``inf`` disables expiration.
    expiry:
        Window-expiration strategy of the record engines: ``"lazy"``
        (default — dead postings are collected by the scans that touch
        them) or ``"eager"`` (a min-heap drains every dead posting at
        the start of each probe/insert, so long-lived windows never
        re-scan dead entries). Ignored for unbounded windows; the
        bundle engine supports lazy expiry only.
    collect_pairs:
        Ship result pairs to the sink (tests, small runs) instead of
        per-probe counts (benchmarks).
    """

    similarity: str = "jaccard"
    threshold: float = 0.8
    num_workers: int = 8
    distribution: str = "length"
    partitioning: str = "load_aware"
    use_bundles: bool = False
    bundle_threshold: float = 0.9
    batch_verification: bool = True
    window_seconds: float = math.inf
    expiry: str = "lazy"
    collect_pairs: bool = False
    #: Parallel input dispatchers. Above 1, join bolts reorder work via
    #: dispatcher watermarks (exactly-once is preserved; see
    #: :class:`repro.core.bolts.JoinBolt`).
    dispatcher_parallelism: int = 1
    #: Records between two watermarks of one dispatcher (the
    #: reordering latency/traffic trade-off).
    watermark_interval: int = 16
    #: Report only pairs whose records come from different sources —
    #: the two-stream (R–S) cross join over a merged, source-tagged
    #: stream (see :mod:`repro.core.two_stream`).
    cross_source_only: bool = False
    #: Records per batch in the multi-core runtime
    #: (:mod:`repro.parallel`): a batch is one shard's unit of work
    #: inside a worker, with one meter flush and at most one match ship
    #: to the driver. Larger batches amortize more per-batch cost but
    #: delay the first results.
    batch_size: int = 512

    def __post_init__(self) -> None:
        if self.similarity not in SIMILARITIES:
            raise ValueError(
                f"similarity must be one of {SIMILARITIES}, got {self.similarity!r}"
            )
        # The function's own threshold check: (0, 1] for the normalized
        # functions, a positive integer count for overlap.
        get_similarity(self.similarity, self.threshold)
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"distribution must be one of {DISTRIBUTIONS}, "
                f"got {self.distribution!r}"
            )
        if self.partitioning not in PARTITIONINGS:
            raise ValueError(
                f"partitioning must be one of {PARTITIONINGS}, "
                f"got {self.partitioning!r}"
            )
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.use_bundles and self.distribution != "length":
            raise ValueError(
                "bundles require the length distribution: bundle assignment "
                "reuses the single home worker's probe results, which the "
                f"{self.distribution!r} scheme does not have"
            )
        if not self.window_seconds > 0:  # NaN too
            raise ValueError(
                f"window_seconds must be positive, got {self.window_seconds}"
            )
        if self.expiry not in EXPIRY_MODES:
            raise ValueError(
                f"expiry must be one of {EXPIRY_MODES}, got {self.expiry!r}"
            )
        if self.expiry == "eager" and self.use_bundles:
            raise ValueError(
                "eager expiry is incompatible with bundles: the bundle index "
                "expires whole bundles lazily (a bundle's lifetime is its "
                "latest member's, unknowable at insert time)"
            )
        if self.dispatcher_parallelism < 1:
            raise ValueError(
                f"dispatcher_parallelism must be >= 1, "
                f"got {self.dispatcher_parallelism}"
            )
        if self.watermark_interval < 1:
            raise ValueError(
                f"watermark_interval must be >= 1, got {self.watermark_interval}"
            )
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}: a "
                "parallel worker processes each shard's records in "
                "batches of this many"
            )
        if self.batch_size > MAX_BATCH_SIZE:
            raise ValueError(
                f"batch_size {self.batch_size} is absurd (max "
                f"{MAX_BATCH_SIZE}): a batch is buffered in memory per "
                "shard and larger batches only delay the first results"
            )
        if self.cross_source_only and self.use_bundles:
            raise ValueError(
                "cross_source_only is incompatible with bundles: the bundle "
                "index verifies whole member batches and cannot apply a "
                "per-pair source filter"
            )

    @property
    def method_label(self) -> str:
        """Short label used throughout the experiment tables."""
        if self.distribution == "prefix":
            return "PRE"
        if self.distribution == "broadcast":
            return "BRD"
        label = "LEN" if self.partitioning == "load_aware" else (
            "LEN-U" if self.partitioning == "uniform" else "LEN-Q"
        )
        if self.use_bundles:
            label += "+BUN" if self.batch_verification else "+BUN/ind"
        return label

    def replace(self, **changes) -> "JoinConfig":
        """A copy with some fields changed (dataclasses.replace sugar)."""
        import dataclasses

        return dataclasses.replace(self, **changes)
