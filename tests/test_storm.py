"""The Storm-like simulator: groupings, scheduling, metrics, determinism."""

import math

import pytest

from repro.storm.cluster import LocalCluster
from repro.storm.components import Bolt, Spout
from repro.storm.costmodel import CostModel, NetworkModel
from repro.storm.topology import (
    AllGrouping,
    DirectGrouping,
    GlobalGrouping,
    ShuffleGrouping,
    TopologyBuilder,
)
from repro.storm.tuples import StormTuple, payload_bytes


class ListSpout(Spout):
    """Emits (time, value) pairs on the default stream."""

    def __init__(self, items, stream="default"):
        self.items = items
        self.stream = stream

    def emissions(self):
        for t, value in self.items:
            yield t, self.stream, (value,)


class Recorder(Bolt):
    """Remembers every tuple it sees; optionally charges work."""

    instances = []

    def __init__(self, units=0.0):
        self.units = units
        self.seen = []
        Recorder.instances.append(self)

    def execute(self, tup):
        self.seen.append((self.ctx.task_index, tup.values[0], self.ctx.now))
        if self.units:
            self.ctx.charge_units(self.units)


@pytest.fixture(autouse=True)
def clear_recorders():
    Recorder.instances = []
    yield
    Recorder.instances = []


def simple_topology(grouping_method, parallelism=3, n=9, units=0.0):
    builder = TopologyBuilder()
    builder.set_spout("src", ListSpout([(i * 0.001, i) for i in range(n)]))
    declarer = builder.set_bolt("sink", lambda i: Recorder(units), parallelism)
    getattr(declarer, grouping_method)("src")
    return builder.build()


def all_seen():
    return sorted(
        (task, value) for bolt in Recorder.instances for task, value, _ in bolt.seen
    )


class TestGroupings:
    def test_shuffle_round_robins(self):
        LocalCluster().run(simple_topology("shuffle_grouping"), "sink")
        per_task = {}
        for task, value in all_seen():
            per_task.setdefault(task, []).append(value)
        counts = sorted(len(v) for v in per_task.values())
        assert sum(counts) == 9
        assert max(counts) - min(counts) <= 1  # balanced

    def test_all_grouping_broadcasts(self):
        LocalCluster().run(simple_topology("all_grouping"), "sink")
        assert len(all_seen()) == 27  # 9 tuples × 3 tasks

    def test_global_grouping_hits_task_zero(self):
        LocalCluster().run(simple_topology("global_grouping"), "sink")
        assert {task for task, _ in all_seen()} == {0}

    def test_direct_grouping_targets_named_task(self):
        class Director(Bolt):
            def execute(self, tup):
                value = tup.values[0]
                self.collector.emit((value,), stream="out", direct_task=value % 3)

        builder = TopologyBuilder()
        builder.set_spout("src", ListSpout([(i * 0.001, i) for i in range(9)]))
        builder.set_bolt("mid", lambda i: Director(), 1).shuffle_grouping("src")
        builder.set_bolt("sink", lambda i: Recorder(), 3).direct_grouping("mid", "out")
        LocalCluster().run(builder.build(), "sink")
        for task, value in all_seen():
            assert task == value % 3

    def test_direct_emit_without_target_fails(self):
        class BadDirector(Bolt):
            def execute(self, tup):
                self.collector.emit((1,), stream="out")

        builder = TopologyBuilder()
        builder.set_spout("src", ListSpout([(0.0, 1)]))
        builder.set_bolt("mid", lambda i: BadDirector(), 1).shuffle_grouping("src")
        builder.set_bolt("sink", lambda i: Recorder(), 2).direct_grouping("mid", "out")
        with pytest.raises(ValueError, match="direct_task"):
            LocalCluster().run(builder.build(), "sink")


class TestTopologyValidation:
    def test_duplicate_names_rejected(self):
        builder = TopologyBuilder()
        builder.set_spout("x", ListSpout([]))
        with pytest.raises(ValueError, match="already declared"):
            builder.set_bolt("x", lambda i: Recorder())

    def test_unknown_source_rejected(self):
        builder = TopologyBuilder()
        builder.set_bolt("sink", lambda i: Recorder()).shuffle_grouping("ghost")
        with pytest.raises(ValueError, match="unknown component"):
            builder.build()

    def test_unsubscribed_bolt_rejected(self):
        builder = TopologyBuilder()
        builder.set_spout("src", ListSpout([]))
        builder.set_bolt("island", lambda i: Recorder())
        with pytest.raises(ValueError, match="subscribes to nothing"):
            builder.build()

    def test_bad_parallelism(self):
        builder = TopologyBuilder()
        with pytest.raises(ValueError):
            builder.set_bolt("b", lambda i: Recorder(), parallelism=0)


class TestSchedulingAndMetrics:
    def test_work_units_occupy_simulated_time(self):
        # 9 tuples, 1 task, 10_000 units each at 1e-8 s/unit + overheads
        topo = simple_topology("global_grouping", n=9, units=10_000)
        report = LocalCluster().run(topo, "sink")
        busy = report.per_task_busy["sink"][0]
        cost = CostModel()
        per_tuple = (
            10_000 + cost.tuple_overhead + cost.tuple_per_byte * payload_bytes((0,))
        )
        assert busy == pytest.approx(9 * cost.seconds(per_tuple))

    def test_capacity_throughput_reads_bottleneck(self):
        topo = simple_topology("global_grouping", n=10, units=100_000)  # 1ms each
        report = LocalCluster().run(topo, "sink")
        assert report.capacity_throughput == pytest.approx(
            10 / report.per_task_busy["sink"][0]
        )
        assert report.bottleneck_component == "sink"

    def test_queueing_emerges_under_overload(self):
        # 1000 tuples arriving every 1µs into a 1ms-per-tuple task
        builder = TopologyBuilder()
        builder.set_spout("src", ListSpout([(i * 1e-6, i) for i in range(200)]))
        builder.set_bolt("slow", lambda i: Recorder(100_000), 1).shuffle_grouping("src")
        report = LocalCluster().run(builder.build(), "slow")
        sink_metrics = report.per_task_busy["slow"]
        assert report.makespan > 0.19  # 200 × 1ms, serialized
        # processing order respected and queue was observed
        times = [now for _, _, now in Recorder.instances[0].seen]
        assert times == sorted(times)

    def test_messages_and_bytes_counted(self):
        topo = simple_topology("all_grouping", n=5)
        report = LocalCluster().run(topo, "sink")
        assert report.messages == 15
        assert report.bytes == 15 * payload_bytes((0,))

    def test_load_balance_metric(self):
        topo = simple_topology("global_grouping", parallelism=4, n=8, units=1000)
        report = LocalCluster().run(topo, "sink")
        # everything lands on task 0 of 4 → balance = max/avg = 4
        assert report.load_balance == pytest.approx(4.0)

    def test_determinism(self):
        def run_once():
            topo = simple_topology("shuffle_grouping", n=20, units=500)
            report = LocalCluster().run(topo, "sink")
            seen = all_seen()
            Recorder.instances = []
            return report.makespan, report.messages, seen

        assert run_once() == run_once()

    def test_finish_hook_can_emit(self):
        class Flusher(Bolt):
            def execute(self, tup):
                pass

            def finish(self):
                self.collector.emit(("flushed",), stream="out")

        builder = TopologyBuilder()
        builder.set_spout("src", ListSpout([(0.0, 1)]))
        builder.set_bolt("mid", lambda i: Flusher(), 1).shuffle_grouping("src")
        builder.set_bolt("sink", lambda i: Recorder(), 1).shuffle_grouping("mid", "out")
        LocalCluster().run(builder.build(), "sink")
        assert [value for _, value in all_seen()] == ["flushed"]

    def test_out_of_order_spout_rejected(self):
        builder = TopologyBuilder()
        builder.set_spout("src", ListSpout([(1.0, 1), (0.5, 2)]))
        builder.set_bolt("sink", lambda i: Recorder(), 1).shuffle_grouping("src")
        with pytest.raises(ValueError, match="out of order"):
            LocalCluster().run(builder.build(), "sink")

    def test_conservation_tuples_in_equals_deliveries(self):
        topo = simple_topology("all_grouping", parallelism=3, n=7)
        report = LocalCluster().run(topo, "sink")
        total_in = sum(
            len(bolt.seen) for bolt in Recorder.instances
        )
        assert total_in == report.messages == 21


class TestNetworkModel:
    def test_delivery_delay(self):
        net = NetworkModel(base_latency=0.001, bytes_per_second=1000)
        assert net.delivery_delay(500) == pytest.approx(0.501)

    def test_latency_includes_network_and_queue(self):
        net = NetworkModel(base_latency=0.05, bytes_per_second=1e12)

        class LatencyProbe(Bolt):
            def execute(self, tup):
                self.ctx.observe_latency(self.ctx.now - tup.values[0])

        builder = TopologyBuilder()
        builder.set_spout("src", ListSpout([(0.0, 0.0), (1.0, 1.0)]))
        builder.set_bolt("sink", lambda i: LatencyProbe(), 1).shuffle_grouping("src")
        report = LocalCluster(network=net).run(builder.build(), "sink")
        assert report.latency_p50 >= 0.05


class TestCostModel:
    def test_scaled_override(self):
        cost = CostModel().scaled(token_compare=5.0)
        assert cost.token_compare == 5.0
        assert cost.posting_scan == CostModel().posting_scan

    def test_as_dict_complete(self):
        d = CostModel().as_dict()
        assert "token_compare" in d and "seconds_per_unit" in d

    def test_payload_bytes_record(self):
        from repro.records import Record

        small = payload_bytes((Record(0, (1, 2), 0.0),))
        large = payload_bytes((Record(0, tuple(range(100)), 0.0),))
        assert large > small
