"""A Storm-like distributed stream-processing simulator.

The paper evaluates on Apache Storm: a topology of spouts and bolts,
each component running as parallel *tasks*, connected by stream
*groupings*. This subpackage reproduces that execution model as a
deterministic discrete-event simulator:

* :mod:`repro.storm.topology` — declare components, parallelism and
  groupings (shuffle / all / direct / global), Storm-style.
* :mod:`repro.storm.components` — ``Spout`` / ``Bolt`` base classes and
  the ``OutputCollector``.
* :mod:`repro.storm.cluster` — ``LocalCluster``: the event loop. Each
  task is single-threaded; a tuple's processing occupies its task for
  ``work_units × seconds_per_unit`` of simulated time, so queueing,
  bottlenecks and load imbalance emerge exactly as on a real cluster.
* :mod:`repro.storm.costmodel` — the work-unit prices bolts charge for
  their operations (token comparisons, postings scanned, inserts, …).
* :mod:`repro.storm.network` — per-channel message/byte accounting and
  delivery latency.
* :mod:`repro.storm.metrics` — counters, busy time, queue peaks and
  latency quantiles, aggregated into a ``ClusterReport``.

Why a simulator (and not PyFlink/real Storm): the reproduction bands for
this paper note that a Python-runtime throughput evaluation would be
unrepresentative. The simulator instead charges each algorithm its
*operation counts* — candidates generated, tokens merged, postings
touched, messages shipped — which are exactly the quantities the paper's
algorithmic contributions reduce. Relative throughput, communication
cost and load balance are therefore preserved; see DESIGN.md §5.
"""

from repro.storm.cluster import LocalCluster
from repro.storm.components import Bolt, OutputCollector, Spout
from repro.storm.costmodel import CostModel
from repro.storm.metrics import ClusterReport, MetricsRegistry, TaskMetrics
from repro.storm.topology import Grouping, Topology, TopologyBuilder
from repro.storm.tuples import StormTuple

__all__ = [
    "Bolt",
    "ClusterReport",
    "CostModel",
    "Grouping",
    "LocalCluster",
    "MetricsRegistry",
    "OutputCollector",
    "Spout",
    "StormTuple",
    "TaskMetrics",
    "Topology",
    "TopologyBuilder",
]
