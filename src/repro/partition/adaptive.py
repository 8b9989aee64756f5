"""Adaptive length partitioning for drifting streams.

The paper plans its load-aware partition from stream statistics; on a
long-running stream those statistics drift (breaking news changes
document lengths, seasonal query patterns shift), silently degrading a
static plan's balance. This module is the natural extension:

* :class:`RollingLengthHistogram` — an exponentially decayed length
  histogram, so recent records dominate the estimate;
* :class:`AdaptiveLengthPartitioner` — periodically re-estimates the
  current plan's bottleneck under the rolling histogram and replans
  when the projected imbalance exceeds a trigger, reporting the
  estimated *migration cost* (index postings that change owner) so a
  deployment can weigh replan benefit against movement.

Experiment E14 (``benchmarks/test_e14_adaptive_partition.py``) shows a
static plan collapsing under a mid-stream length shift and the adaptive
replan restoring balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.partition.cost import JoinCostEstimator
from repro.partition.length_partition import LengthPartition, load_aware_partition
from repro.partition.stats import LengthHistogram
from repro.similarity.functions import SimilarityFunction


class RollingLengthHistogram:
    """Length histogram with exponential decay (recent records dominate).

    Each observation carries weight ``g^t`` with ``g = 2^(1/half_life)``;
    dividing by the current weight makes older observations decay by
    half every ``half_life`` records. Weights are rescaled before they
    overflow, so the structure runs indefinitely.
    """

    def __init__(self, half_life: int = 2000):
        if half_life < 1:
            raise ValueError(f"half_life must be >= 1, got {half_life}")
        self.half_life = half_life
        self._growth = 2.0 ** (1.0 / half_life)
        self._weights: Dict[int, float] = {}
        self._current = 1.0
        self._observations = 0

    def observe(self, length: int) -> None:
        if length < 1:
            raise ValueError(f"record length must be >= 1, got {length}")
        self._weights[length] = self._weights.get(length, 0.0) + self._current
        self._current *= self._growth
        self._observations += 1
        if self._current > 1e12:
            scale = 1.0 / self._current
            self._weights = {
                l: w * scale for l, w in self._weights.items() if w * scale > 1e-15
            }
            self._current = 1.0

    @property
    def observations(self) -> int:
        """Total records observed (undecayed count)."""
        return self._observations

    def snapshot(self, scale_to: int = 10_000) -> LengthHistogram:
        """A plain histogram of the decayed distribution.

        Weights are normalized and scaled to ``scale_to`` synthetic
        records so the cost estimator sees a realistic magnitude.
        """
        total = sum(self._weights.values())
        histogram = LengthHistogram()
        if total <= 0:
            return histogram
        for length, weight in self._weights.items():
            count = round(weight / total * scale_to)
            if count > 0:
                histogram.observe(length, count)
        return histogram


@dataclass(frozen=True)
class ReplanDecision:
    """What the adaptive partitioner decided at a checkpoint."""

    replanned: bool
    projected_imbalance: float
    partition: LengthPartition
    #: Fraction of (estimated) index postings whose owner changes.
    migration_fraction: float = 0.0


class AdaptiveLengthPartitioner:
    """Drift-aware wrapper around the load-aware planner.

    Feed every record's length to :meth:`observe`; every
    ``check_interval`` records the partitioner projects the *current*
    plan's max/avg cost ratio under the rolling histogram and replans
    when it exceeds ``imbalance_trigger``.
    """

    def __init__(
        self,
        func: SimilarityFunction,
        num_workers: int,
        vocabulary_size: int = 10_000,
        half_life: int = 2000,
        check_interval: int = 1000,
        imbalance_trigger: float = 1.5,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if check_interval < 1:
            raise ValueError(f"check_interval must be >= 1, got {check_interval}")
        if imbalance_trigger <= 1.0:
            raise ValueError(
                f"imbalance_trigger must exceed 1.0, got {imbalance_trigger}"
            )
        self.func = func
        self.num_workers = num_workers
        self.vocabulary_size = vocabulary_size
        self.check_interval = check_interval
        self.imbalance_trigger = imbalance_trigger
        self.rolling = RollingLengthHistogram(half_life)
        self.partition: Optional[LengthPartition] = None
        self.replans = 0

    def observe(self, length: int) -> Optional[ReplanDecision]:
        """Track one record; returns a decision at checkpoints."""
        self.rolling.observe(length)
        if self.rolling.observations % self.check_interval:
            return None
        return self.checkpoint()

    def checkpoint(self) -> ReplanDecision:
        """Evaluate drift now; replan if the projection is imbalanced."""
        histogram = self.rolling.snapshot()
        if histogram.total == 0:
            raise ValueError("cannot checkpoint before observing any record")
        estimator = JoinCostEstimator(
            histogram, self.func, vocabulary_size=self.vocabulary_size
        )
        if self.partition is None:
            self.partition = load_aware_partition(estimator, self.num_workers)
            self.replans += 1
            return ReplanDecision(True, 1.0, self.partition)

        projected = self._imbalance(estimator, self.partition)
        if projected <= self.imbalance_trigger:
            return ReplanDecision(False, projected, self.partition)

        new_partition = load_aware_partition(estimator, self.num_workers)
        migration = migration_fraction(
            self.partition, new_partition, histogram, self.func
        )
        self.partition = new_partition
        self.replans += 1
        return ReplanDecision(True, projected, new_partition, migration)

    def _imbalance(
        self, estimator: JoinCostEstimator, partition: LengthPartition
    ) -> float:
        """Projected max/avg worker cost of a plan under the histogram.

        Lengths outside the plan's span clamp to the edge workers
        (:meth:`LengthPartition.owner_of`), so the first/last ranges are
        widened to the estimator's domain before costing — this is
        exactly how drift overloads an edge worker.
        """
        last = len(partition.ranges) - 1
        costs = []
        for index, (lo, hi) in enumerate(partition.ranges):
            effective_lo = 1 if index == 0 else lo
            effective_hi = estimator.max_length if index == last else hi
            costs.append(estimator.cost(effective_lo, effective_hi))
        average = sum(costs) / len(costs)
        return max(costs) / average if average > 0 else 1.0


def migration_fraction(
    old: LengthPartition,
    new: LengthPartition,
    histogram: LengthHistogram,
    func: SimilarityFunction,
) -> float:
    """Estimated fraction of live index postings that change owner.

    A record's postings live at its length's owner; postings move when
    the two plans assign the length to different workers. Weighted by
    per-record prefix length (the posting count).
    """
    moved = 0.0
    total = 0.0
    for length in histogram.lengths():
        weight = histogram.count(length) * func.index_prefix_length(length)
        total += weight
        if old.owner_of(length) != new.owner_of(length):
            moved += weight
    return moved / total if total > 0 else 0.0
