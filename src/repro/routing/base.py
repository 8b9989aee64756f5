"""Router interface shared by every distribution scheme."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.records import Record


@dataclass(frozen=True)
class RoutingDecision:
    """Where one record must go.

    ``index_tasks`` are the join tasks that must add the record to
    their local index; ``probe_tasks`` are the tasks that must probe
    their index with it. A task appearing in both receives a single
    combined message (probe first, then index — the order that makes
    each pair reported exactly once by its later-arriving member).
    """

    index_tasks: Tuple[int, ...]
    probe_tasks: Tuple[int, ...]

    @property
    def message_count(self) -> int:
        """Messages this decision ships (combined targets pay once)."""
        return len(set(self.index_tasks) | set(self.probe_tasks))


def fanout_fraction(targets: int, num_tasks: int) -> float:
    """Share of the join tasks one record reaches: the
    ``routing_fanout_fraction`` health signal every dispatcher feeds
    the replication blow-up detector. Zero on a one-task plan, where
    reaching the only task replicates nothing and 1/1 would read as a
    broadcast."""
    return targets / num_tasks if num_tasks > 1 else 0.0


class Router:
    """Maps records to routing decisions for ``num_workers`` join tasks."""

    #: Short scheme label used in reports ("length", "prefix", …).
    name: str = "abstract"

    #: Whether ``route`` is a pure function of ``len(record.tokens)``;
    #: the shard planner then routes once per distinct size.
    routes_by_size: bool = False

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers

    def route(self, record: Record) -> RoutingDecision:
        raise NotImplementedError

    #: Work units the dispatcher should charge per routed record, on
    #: top of the cost model's flat ``route_record``; schemes that hash
    #: prefix tokens override this.
    def routing_units(self, record: Record, cost) -> float:
        return 0.0

    def describe(self) -> str:
        return f"{self.name}(k={self.num_workers})"
