"""Arrival processes: how record timestamps are spaced in event time.

The distributed experiments measure *sustainable throughput* — the
highest input rate the topology absorbs without unbounded queue growth —
so the arrival process matters. Three standard processes are provided;
all are deterministic under a fixed seed.
"""

from __future__ import annotations

import random
from typing import Iterator


class ConstantRate:
    """Evenly spaced arrivals at ``rate`` records per second."""

    def __init__(self, rate: float):
        if not rate > 0:  # NaN too
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)

    def timestamps(self) -> Iterator[float]:
        """Yield 0, 1/rate, 2/rate, … indefinitely."""
        step = 1.0 / self.rate
        t = 0.0
        i = 0
        while True:
            yield t
            i += 1
            t = i * step  # multiply, don't accumulate: no float drift

    def __repr__(self) -> str:
        return f"ConstantRate({self.rate})"


class PoissonArrivals:
    """Memoryless arrivals with exponential inter-arrival gaps."""

    def __init__(self, rate: float, seed: int = 0):
        if not rate > 0:  # NaN too
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.seed = seed

    def timestamps(self) -> Iterator[float]:
        rng = random.Random(self.seed)
        t = 0.0
        while True:
            yield t
            t += rng.expovariate(self.rate)

    def __repr__(self) -> str:
        return f"PoissonArrivals({self.rate}, seed={self.seed})"


class BurstyArrivals:
    """Alternating high-rate bursts and quiet gaps.

    Models flash-crowd input (the near-duplicate-detection motivation:
    breaking news produces bursts of highly similar documents). During a
    burst of ``burst_len`` records arrivals are spaced at ``burst_rate``;
    between bursts there is a gap of ``gap`` seconds.
    """

    def __init__(self, burst_rate: float, burst_len: int, gap: float, seed: int = 0):
        if not (burst_rate > 0 and burst_len > 0 and gap >= 0):  # NaN too
            raise ValueError(
                f"invalid bursty parameters: rate={burst_rate}, "
                f"len={burst_len}, gap={gap}"
            )
        self.burst_rate = float(burst_rate)
        self.burst_len = int(burst_len)
        self.gap = float(gap)
        self.seed = seed

    def timestamps(self) -> Iterator[float]:
        rng = random.Random(self.seed)
        t = 0.0
        step = 1.0 / self.burst_rate
        while True:
            for _ in range(self.burst_len):
                yield t
                t += step
            # Jitter the gap slightly so bursts don't phase-lock with
            # any periodic behaviour in the consumer.
            t += self.gap * (0.5 + rng.random())

    def __repr__(self) -> str:
        return (
            f"BurstyArrivals(burst_rate={self.burst_rate}, "
            f"burst_len={self.burst_len}, gap={self.gap}, seed={self.seed})"
        )
