"""The one place a join task's engine is built from a ``JoinConfig``:
the simulator's ``JoinBolt`` and the parallel runtime's ``ShardWorker``
both call it, so task ``t`` of ``n`` meters the same work on either
runtime (DESIGN §10.3).
"""

from __future__ import annotations

from repro.core.config import JoinConfig
from repro.core.local_join import StreamingSetJoin
from repro.core.metering import WorkMeter
from repro.core.two_stream import cross_source_filter
from repro.routing.prefix_router import token_owner
from repro.similarity.functions import SimilarityFunction
from repro.streams.window import SlidingWindow


def build_shard_engine(
    config: JoinConfig,
    func: SimilarityFunction,
    shard: int,
    num_shards: int,
    meter: WorkMeter,
) -> StreamingSetJoin:
    """The engine for logical shard (join task) ``shard`` of
    ``num_shards``. The bundle engine is not built here: only the
    simulator runs it (``plan_shards`` rejects ``use_bundles``)."""
    window = SlidingWindow(config.window_seconds)
    # Under the prefix scheme each of two or more shards owns a share
    # of the token space and reports only the pairs whose minimal
    # common token it owns. A lone shard owns every token, so it gets
    # the unfiltered engine and meters what a one-shard length or
    # broadcast run meters (DESIGN §9.7).
    return StreamingSetJoin(
        func,
        window=window,
        meter=meter,
        token_filter=(
            (lambda token: token_owner(token, num_shards) == shard)
            if config.distribution == "prefix" and num_shards > 1
            else None
        ),
        pair_filter=cross_source_filter if config.cross_source_only else None,
        expiry=config.expiry,
    )
