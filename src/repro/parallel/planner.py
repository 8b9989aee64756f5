"""Shard planning: how records map to engine shards and shards to workers.

The key determinism decision of the runtime: **logical shards are
decoupled from physical workers**. The stream is routed over a fixed
number of shards (``config.num_workers``, the one place the shard count
is set, and the same sharding the simulated cluster uses), each backed
by its own :class:`~repro.core.local_join.StreamingSetJoin`; the
``--workers N`` process count only decides which OS process *hosts*
each shard (``shard % N``). Every shard therefore sees exactly the same
record subsequence — in arrival order, because every worker walks the same
published stream through this same plan (a pure function of the
record) and keeps the tasks of the shards it hosts — regardless of how
many processes run. Match sets, ``WorkMeter`` totals and fingerprints
are a pure function of the shard plan, which is why the differential
harness can demand bit-equality across worker counts. The plan pickles
(memo tables included or rebuilt), so a ``spawn`` worker receives it as
a start-up argument like a ``fork`` worker inherits it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import PLAN_SAMPLE_SIZE, JoinConfig
from repro.parallel.codec import INDEX, PROBE
from repro.partition.length_partition import LengthPartition
from repro.records import Record
from repro.routing.base import Router, RoutingDecision
from repro.routing.plan import plan_routing
from repro.similarity.functions import SimilarityFunction, get_similarity


@dataclass
class ShardPlan:
    """The routing side of one parallel run, fixed before any worker
    starts."""

    config: JoinConfig
    router: Router
    partition: Optional[LengthPartition]
    func: SimilarityFunction = field(repr=False)
    #: ``tasks`` results by record size, filled only when the decision
    #: depends on nothing else: ``Router.routes_by_size``, or any
    #: router over a single shard.
    _tasks_by_size: Dict[int, List[Tuple[int, int]]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: ``tasks`` results by routing decision, for every other plan: a
    #: stream has far fewer distinct target sets than records.
    _tasks_by_targets: Dict[RoutingDecision, List[Tuple[int, int]]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def num_shards(self) -> int:
        """Actual shard count — the router's, which can be below the
        requested count when a length partition cannot split further."""
        return self.router.num_workers

    def route(self, record: Record) -> RoutingDecision:
        return self.router.route(record)

    def tasks(self, record: Record) -> List[Tuple[int, int]]:
        """``(shard, op)`` pairs for one record, in the dispatcher's
        order (ascending shard; op combines probe/index bits exactly
        like the ``"p"/"i"/"b"`` message kinds). Callers only iterate
        the list: records of one size share it when the router routes
        by size alone, which every router does over one shard (its
        targets are all shard 0); otherwise records routed to the same
        targets share it."""
        router = self.router
        if router.routes_by_size or router.num_workers == 1:
            size = len(record.tokens)
            tasks = self._tasks_by_size.get(size)
            if tasks is None:
                tasks = self._tasks_by_size[size] = self._tasks_of(record)
            return tasks
        decision = router.route(record)
        tasks = self._tasks_by_targets.get(decision)
        if tasks is None:
            tasks = self._tasks_by_targets[decision] = self._tasks_for(decision)
        return tasks

    def _tasks_of(self, record: Record) -> List[Tuple[int, int]]:
        """``tasks`` without either memo."""
        return self._tasks_for(self.router.route(record))

    @staticmethod
    def _tasks_for(decision: RoutingDecision) -> List[Tuple[int, int]]:
        index_set = set(decision.index_tasks)
        probe_set = set(decision.probe_tasks)
        out = []
        for shard in sorted(index_set | probe_set):
            op = 0
            if shard in probe_set:
                op |= PROBE
            if shard in index_set:
                op |= INDEX
            out.append((shard, op))
        return out

    def shards_of_worker(self, worker: int, workers: int) -> List[int]:
        """The shards hosted by physical worker ``worker`` of ``workers``."""
        return [s for s in range(self.num_shards) if s % workers == worker]


def plan_shards(
    config: JoinConfig, corpus: Sequence[Tuple[int, ...]]
) -> ShardPlan:
    """Plan the shard routing for ``config`` over a corpus sample.

    ``corpus`` is the stream's token tuples (only the first
    :data:`~repro.core.config.PLAN_SAMPLE_SIZE` are consulted, mirroring
    :meth:`DistributedStreamJoin.plan`). The requested shard count is
    ``config.num_workers`` and nothing else, which keeps parallel
    observables comparable with the simulated cluster.
    """
    if config.use_bundles:
        raise ValueError(
            "the parallel runtime does not support bundles: the bundle "
            "engine reuses home-worker probe results, which the "
            "process-sharded driver does not observe"
        )
    func = get_similarity(config.similarity, config.threshold)
    router, partition = plan_routing(config, func, corpus[:PLAN_SAMPLE_SIZE])
    return ShardPlan(config=config, router=router, partition=partition, func=func)
