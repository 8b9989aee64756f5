"""WorkMeter context forwarding: charges must reach the simulated
clock, events must reach the counters — and an unbound meter must keep
working as a plain local accumulator."""

import pytest

from repro.core.metering import WorkMeter
from repro.storm.components import TopologyContext
from repro.storm.costmodel import CostModel
from repro.storm.metrics import MetricsRegistry


@pytest.fixture
def ctx():
    registry = MetricsRegistry()
    cost = CostModel()
    return TopologyContext(
        component="join",
        task_index=2,
        num_tasks=4,
        cost=cost,
        metrics=registry.task("join", 2),
        registry=registry,
    )


class TestUnboundMeter:
    def test_accumulates_locally(self):
        meter = WorkMeter()
        meter.charge("posting_scan", 5)
        meter.charge("posting_scan", 2)
        meter.event("candidates", 3)
        assert meter.operation("posting_scan") == 7
        assert meter.count("candidates") == 3
        assert meter.operation("missing") == 0.0
        assert meter.count("missing") == 0.0

    def test_snapshot_merges_operations_and_events(self):
        meter = WorkMeter()
        meter.charge("token_compare", 4)
        meter.event("results", 2)
        assert meter.snapshot() == {"token_compare": 4, "results": 2}

    def test_charge_many_equals_singles(self):
        batched, singles = WorkMeter(), WorkMeter()
        batched.charge_many({"posting_scan": 7, "token_compare": 3})
        batched.charge_many({"posting_scan": 2})
        for operation, count in (("posting_scan", 7), ("token_compare", 3),
                                 ("posting_scan", 2)):
            singles.charge(operation, count)
        assert dict(batched.operations) == dict(singles.operations)

    def test_charge_many_records_zero_counts(self):
        # The engines emit token_compare=0 when a probe verified nothing,
        # so the operation key-set (part of the baseline fingerprint)
        # matches a per-posting engine that called charge(op, 0).
        meter = WorkMeter()
        meter.charge_many({"token_compare": 0})
        assert "token_compare" in meter.operations
        assert meter.operation("token_compare") == 0

    def test_event_many_equals_singles(self):
        batched, singles = WorkMeter(), WorkMeter()
        batched.event_many({"candidates": 5, "verifications": 4})
        singles.event("candidates", 5)
        singles.event("verifications", 4)
        assert dict(batched.events) == dict(singles.events)


class TestBoundMeter:
    def test_charges_reach_the_context_clock(self, ctx):
        meter = WorkMeter(ctx)
        before = ctx.pending_units
        meter.charge("posting_scan", 10)
        charged = ctx.pending_units - before
        assert charged == ctx.cost.posting_scan * 10
        # And the operation count lands in the metrics counters too.
        assert ctx.metrics.counter("op:posting_scan") == 10
        # The local view is unchanged by forwarding.
        assert meter.operation("posting_scan") == 10

    def test_events_reach_the_counters_not_the_clock(self, ctx):
        meter = WorkMeter(ctx)
        before = ctx.pending_units
        meter.event("candidates", 6)
        assert ctx.pending_units == before  # events are free
        assert ctx.metrics.counter("candidates") == 6
        assert meter.count("candidates") == 6

    def test_forwarded_counts_reach_the_obs_registry(self, ctx):
        meter = WorkMeter(ctx)
        meter.event("candidates", 4)
        meter.charge("index_lookup", 3)
        # Counters live in the task's dict until the report publishes them.
        assert ctx.obs.family("candidates") is None
        obs = ctx._registry.sync_obs()
        assert obs.value("candidates", component="join", task=2) == 4
        assert obs.value("op:index_lookup", component="join", task=2) == 3

    def test_charge_many_forwards_to_the_context(self, ctx):
        meter = WorkMeter(ctx)
        before = ctx.pending_units
        meter.charge_many({"posting_scan": 4, "token_compare": 9})
        charged = ctx.pending_units - before
        assert charged == ctx.cost.posting_scan * 4 + ctx.cost.token_compare * 9
        assert ctx.metrics.counter("op:posting_scan") == 4
        assert ctx.metrics.counter("op:token_compare") == 9

    def test_event_many_forwards_to_the_counters(self, ctx):
        meter = WorkMeter(ctx)
        before = ctx.pending_units
        meter.event_many({"candidates": 8, "verifications": 2})
        assert ctx.pending_units == before  # events stay free
        assert ctx.metrics.counter("candidates") == 8
        assert ctx.metrics.counter("verifications") == 2

    def test_multiple_charges_accumulate_simulated_time(self, ctx):
        meter = WorkMeter(ctx)
        meter.charge("token_compare", 100)
        meter.charge("index_lookup", 10)
        expected_units = (
            ctx.cost.token_compare * 100 + ctx.cost.index_lookup * 10
        )
        assert ctx.pending_units == expected_units
        assert ctx.cost.seconds(expected_units) == pytest.approx(
            expected_units * ctx.cost.seconds_per_unit
        )
