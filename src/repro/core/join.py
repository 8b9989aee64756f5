"""The façade: plan, wire and run a distributed streaming join."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.bolts import DispatcherBolt, JoinBolt, RecordSpout, ResultSink
from repro.core.config import PLAN_SAMPLE_SIZE, JoinConfig
from repro.obs.observer import RunObserver
from repro.partition.length_partition import LengthPartition
from repro.routing.base import Router
from repro.routing.plan import plan_routing
from repro.similarity.functions import get_similarity
from repro.storm.cluster import LocalCluster
from repro.storm.costmodel import CostModel, NetworkModel
from repro.storm.metrics import ClusterReport
from repro.storm.topology import TopologyBuilder
from repro.streams.stream import RecordStream


@dataclass
class JoinRunReport:
    """Everything one run produced: config, plan and measurements."""

    config: JoinConfig
    cluster: ClusterReport
    partition: Optional[LengthPartition]
    pairs: Optional[List[Tuple[int, int, float]]]

    @property
    def method(self) -> str:
        return self.config.method_label

    # -- measurement shortcuts used by every experiment --------------------
    @property
    def throughput(self) -> float:
        """Sustainable records/second (bottleneck capacity)."""
        return self.cluster.capacity_throughput

    @property
    def results(self) -> int:
        return self.cluster.results

    @property
    def messages_per_record(self) -> float:
        return self.cluster.messages_per_record

    @property
    def bytes_per_record(self) -> float:
        return self.cluster.bytes_per_record

    @property
    def load_balance(self) -> float:
        """max/avg busy time across join workers (1.0 = perfect)."""
        return self.cluster.load_balance

    @property
    def obs(self):
        """The run's exportable metrics registry."""
        return self.cluster.obs

    @property
    def candidates(self) -> float:
        return self.cluster.counter("candidates")

    @property
    def verifications(self) -> float:
        return self.cluster.counter("verifications")

    def summary(self) -> dict:
        row = {"method": self.method}
        row.update(self.cluster.as_row())
        return row


class DistributedStreamJoin:
    """Plans and executes one distributed streaming self-join.

    >>> from repro.datasets import synthetic_aol
    >>> cfg = JoinConfig(threshold=0.8, num_workers=4, collect_pairs=True)
    >>> report = DistributedStreamJoin(cfg).run(synthetic_aol(500, seed=1))
    >>> report.results == len(report.pairs)
    True
    """

    def __init__(
        self,
        config: JoinConfig,
        cost: Optional[CostModel] = None,
        network: Optional[NetworkModel] = None,
    ):
        self.config = config
        self.func = get_similarity(config.similarity, config.threshold)
        self.cost = cost if cost is not None else CostModel()
        self.network = network if network is not None else NetworkModel()

    # -- planning -----------------------------------------------------------
    def plan(self, stream: RecordStream) -> Tuple[Router, Optional[LengthPartition]]:
        """Build the router (and, for the length scheme, the partition)
        from a sample of the stream's head (see
        :func:`repro.routing.plan.plan_routing`, shared with the
        multi-core runtime)."""
        config = self.config
        return plan_routing(config, self.func, stream.head(PLAN_SAMPLE_SIZE))

    # -- execution -----------------------------------------------------------
    def run(
        self, stream: RecordStream, observer: Optional[RunObserver] = None
    ) -> JoinRunReport:
        """Simulate the full topology over the stream; return the report.

        ``observer`` switches on record tracing and/or the profiling
        timeline for this run (see :mod:`repro.obs`); the run's metric
        series are labeled with the method and the stream name either
        way.
        """
        config = self.config
        router, partition = self.plan(stream)

        sinks: List[ResultSink] = []

        def make_sink(_index: int) -> ResultSink:
            sink = ResultSink(collect_pairs=config.collect_pairs)
            sinks.append(sink)
            return sink

        builder = TopologyBuilder()
        builder.set_spout("source", RecordSpout(stream))
        builder.set_bolt(
            "dispatch",
            lambda _i: DispatcherBolt(router, config.watermark_interval),
            parallelism=config.dispatcher_parallelism,
        ).shuffle_grouping("source", "records")
        join_declarer = builder.set_bolt(
            "join",
            lambda _i: JoinBolt(config, self.func),
            parallelism=router.num_workers,
        ).direct_grouping("dispatch", "work")
        if config.dispatcher_parallelism > 1:
            join_declarer.all_grouping("dispatch", "wm")
        builder.set_bolt("sink", make_sink, parallelism=1).global_grouping(
            "join", "results"
        )

        cluster = LocalCluster(
            cost=self.cost, network=self.network, observer=observer
        )
        report = cluster.run(
            builder.build(),
            join_component="join",
            labels={"method": config.method_label, "corpus": stream.name},
        )
        pairs = sinks[0].pairs if (sinks and config.collect_pairs) else None
        return JoinRunReport(
            config=config, cluster=report, partition=partition, pairs=pairs
        )
