"""Shared routing plan: build a router from a corpus sample.

Both execution backends — the simulated Storm topology
(:class:`repro.core.join.DistributedStreamJoin`) and the real
multi-core runtime (:mod:`repro.parallel`) — must shard work the same
way, or their observable behaviour (match sets, metered totals) would
diverge for no algorithmic reason. This module holds the single
implementation both call: given a :class:`~repro.core.config.JoinConfig`
and a sample of the stream's head, construct the router (and, for the
length scheme, the underlying :class:`LengthPartition`).

Note the returned router's ``num_workers`` can be *smaller* than
``config.num_workers``: a length partition over a narrow length domain
cannot be split into more ranges than there are distinct lengths.
Callers must size their worker pool from ``router.num_workers``, not
from the config.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.config import JoinConfig
from repro.partition.cost import JoinCostEstimator
from repro.partition.length_partition import (
    LengthPartition,
    load_aware_partition,
    quantile_partition,
    uniform_partition,
)
from repro.partition.stats import LengthHistogram
from repro.routing.base import Router
from repro.routing.broadcast_router import BroadcastRouter
from repro.routing.length_router import LengthRouter
from repro.routing.prefix_router import PrefixRouter
from repro.similarity.functions import SimilarityFunction


def plan_routing(
    config: JoinConfig,
    func: SimilarityFunction,
    sample: Sequence[Tuple[int, ...]],
) -> Tuple[Router, Optional[LengthPartition]]:
    """Build the router (and, for the length scheme, the partition).

    ``sample`` is a sequence of token tuples from the stream's head
    (already truncated to :data:`~repro.core.config.PLAN_SAMPLE_SIZE`
    by the caller, or not — the planner takes what it is given). The router spans
    ``config.num_workers`` join tasks.
    """
    workers = config.num_workers
    if config.distribution == "prefix":
        return PrefixRouter(workers, func), None
    if config.distribution == "broadcast":
        return BroadcastRouter(workers), None

    lengths = [len(tokens) for tokens in sample if tokens]
    if not lengths:
        lengths = [1]
    histogram = LengthHistogram.from_lengths(lengths)

    if config.partitioning == "uniform":
        partition = uniform_partition(
            histogram.min_length, histogram.max_length, workers
        )
    elif config.partitioning == "quantile":
        partition = quantile_partition(histogram, workers)
    else:
        vocabulary = set()
        for tokens in sample:
            vocabulary.update(tokens)
        estimator = JoinCostEstimator(
            histogram, func, vocabulary_size=max(1, len(vocabulary))
        )
        partition = load_aware_partition(estimator, workers)
    return LengthRouter(partition, func), partition
