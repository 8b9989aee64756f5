"""Length partitioning: statistics, join-cost estimation and the
load-aware partitioner (the paper's contribution for load balance).

The length-based distribution framework assigns each join worker a
contiguous range of record lengths. Because real corpora have heavily
skewed length distributions, equal-width ranges produce terrible
balance; the paper instead estimates the *local join cost* each length
contributes and chooses boundaries that minimize the maximum per-worker
cost. See :mod:`repro.partition.length_partition`.
"""

from repro.partition.cost import JoinCostEstimator
from repro.partition.length_partition import (
    LengthPartition,
    load_aware_partition,
    quantile_partition,
    uniform_partition,
)
from repro.partition.stats import LengthHistogram

__all__ = [
    "JoinCostEstimator",
    "LengthHistogram",
    "LengthPartition",
    "load_aware_partition",
    "quantile_partition",
    "uniform_partition",
]
