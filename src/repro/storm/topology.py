"""Topology declaration: components, parallelism and stream groupings.

The builder mirrors Storm's ``TopologyBuilder``::

    builder = TopologyBuilder()
    builder.set_spout("source", spout)
    builder.set_bolt("dispatch", make_dispatcher, parallelism=1) \\
           .shuffle_grouping("source")
    builder.set_bolt("join", make_join_bolt, parallelism=8) \\
           .direct_grouping("dispatch", stream="index") \\
           .direct_grouping("dispatch", stream="probe")
    builder.set_bolt("sink", make_sink).global_grouping("join", "results")
    topology = builder.build()

Groupings decide which task(s) of a subscribing bolt receive each tuple:

* ``shuffle`` — deterministic round-robin per producing task;
* ``all`` — every task (broadcast);
* ``global`` — task 0;
* ``direct`` — the task index chosen by the producer at emit time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.storm.components import Bolt, Spout

BoltFactory = Callable[[int], Bolt]


class Grouping:
    """Strategy mapping one emitted tuple to destination task indices."""

    kind = "abstract"

    def targets(
        self,
        values: Tuple[Any, ...],
        source_task: int,
        num_tasks: int,
        direct_task: Optional[int],
        sequence: int,
    ) -> Sequence[int]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class ShuffleGrouping(Grouping):
    """Deterministic round-robin over destination tasks."""

    kind = "shuffle"

    def targets(self, values, source_task, num_tasks, direct_task, sequence):
        return (sequence % num_tasks,)


class AllGrouping(Grouping):
    """Broadcast to every task of the subscriber."""

    kind = "all"

    def targets(self, values, source_task, num_tasks, direct_task, sequence):
        return tuple(range(num_tasks))


class GlobalGrouping(Grouping):
    """Everything to task 0."""

    kind = "global"

    def targets(self, values, source_task, num_tasks, direct_task, sequence):
        return (0,)


class DirectGrouping(Grouping):
    """The producer names the destination task at emit time."""

    kind = "direct"

    def targets(self, values, source_task, num_tasks, direct_task, sequence):
        if direct_task is None:
            raise ValueError("direct-grouped stream requires direct_task at emit")
        if not 0 <= direct_task < num_tasks:
            raise ValueError(
                f"direct_task {direct_task} out of range for {num_tasks} tasks"
            )
        return (direct_task,)


@dataclass(frozen=True)
class Subscription:
    """One edge of the topology: (source, stream) consumed by a bolt."""

    source: str
    stream: str
    destination: str
    grouping: Grouping


class BoltDeclarer:
    """Fluent grouping declarations for one bolt (Storm-style)."""

    def __init__(self, builder: "TopologyBuilder", name: str):
        self._builder = builder
        self._name = name

    def _subscribe(self, source: str, stream: str, grouping: Grouping) -> "BoltDeclarer":
        self._builder._subscriptions.append(
            Subscription(source, stream, self._name, grouping)
        )
        return self

    def shuffle_grouping(self, source: str, stream: str = "default") -> "BoltDeclarer":
        return self._subscribe(source, stream, ShuffleGrouping())

    def all_grouping(self, source: str, stream: str = "default") -> "BoltDeclarer":
        return self._subscribe(source, stream, AllGrouping())

    def global_grouping(self, source: str, stream: str = "default") -> "BoltDeclarer":
        return self._subscribe(source, stream, GlobalGrouping())

    def direct_grouping(self, source: str, stream: str = "default") -> "BoltDeclarer":
        return self._subscribe(source, stream, DirectGrouping())


@dataclass
class Topology:
    """A validated, immutable topology ready for :class:`LocalCluster`."""

    spouts: Dict[str, Spout]
    bolts: Dict[str, BoltFactory]
    parallelism: Dict[str, int]
    subscriptions: List[Subscription]

    def subscribers(self, source: str, stream: str) -> List[Subscription]:
        return [
            s
            for s in self.subscriptions
            if s.source == source and s.stream == stream
        ]

    def components(self) -> List[str]:
        return list(self.spouts) + list(self.bolts)


class TopologyBuilder:
    """Declare spouts, bolts and groupings, then :meth:`build`."""

    def __init__(self) -> None:
        self._spouts: Dict[str, Spout] = {}
        self._bolts: Dict[str, BoltFactory] = {}
        self._parallelism: Dict[str, int] = {}
        self._subscriptions: List[Subscription] = []

    def set_spout(self, name: str, spout: Spout) -> None:
        """Register a spout (spouts always run as a single task — the
        routing schemes under evaluation need a totally ordered input)."""
        self._check_fresh(name)
        self._spouts[name] = spout
        self._parallelism[name] = 1

    def set_bolt(
        self, name: str, factory: BoltFactory, parallelism: int = 1
    ) -> BoltDeclarer:
        self._check_fresh(name)
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self._bolts[name] = factory
        self._parallelism[name] = parallelism
        return BoltDeclarer(self, name)

    def build(self) -> Topology:
        """Validate wiring and freeze the topology."""
        names = set(self._spouts) | set(self._bolts)
        for sub in self._subscriptions:
            if sub.source not in names:
                raise ValueError(f"subscription from unknown component {sub.source!r}")
            if sub.destination not in self._bolts:
                raise ValueError(f"subscription to unknown bolt {sub.destination!r}")
        for bolt in self._bolts:
            if not any(s.destination == bolt for s in self._subscriptions):
                raise ValueError(f"bolt {bolt!r} subscribes to nothing")
        return Topology(
            spouts=dict(self._spouts),
            bolts=dict(self._bolts),
            parallelism=dict(self._parallelism),
            subscriptions=list(self._subscriptions),
        )

    def _check_fresh(self, name: str) -> None:
        if name in self._spouts or name in self._bolts:
            raise ValueError(f"component {name!r} already declared")
