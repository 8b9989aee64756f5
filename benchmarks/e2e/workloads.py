"""The four benchmark workloads: generator constants and join semantics.

Each workload is one seeded synthetic corpus plus the ``repro join``
flags that give it its shape. All run Jaccard at threshold 0.8 with
``--rate 1000`` (timestamps 1 ms apart), so a 10 s window holds 10 000
live records. The reasons each workload exists are recorded in
``BENCHMARK.json`` and the README; the constants live here so the seed
reaches nothing but the generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

SIMILARITY = "jaccard"
THRESHOLD = 0.8
RATE = 1000.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: Builder name in ``repro.datasets`` and its keyword arguments.
    corpus: str
    records: int
    vocabulary_size: int
    duplicate_rate: float
    #: Zipf exponent of token frequencies (1.05 is the builders' default).
    skew: float = 1.05
    window_seconds: float = math.inf
    distribution: str = "length"

    def generate(self, seed: int, scale: float = 1.0):
        """The seeded stream, ``records * scale`` long."""
        import repro.datasets as datasets

        builder = getattr(datasets, f"synthetic_{self.corpus}")
        return builder(
            max(1, round(self.records * scale)),
            seed=seed,
            rate=RATE,
            vocabulary_size=self.vocabulary_size,
            duplicate_rate=self.duplicate_rate,
            skew=self.skew,
        )

    def semantics_flags(self) -> List[str]:
        """Flags understood by both ``repro join`` and ``child_single.py``:
        the job's meaning, not how it is sharded."""
        flags = [
            "--similarity", SIMILARITY,
            "--threshold", str(THRESHOLD),
            "--rate", str(RATE),
        ]
        if math.isfinite(self.window_seconds):
            flags += ["--window", str(self.window_seconds)]
        return flags

    def join_flags(self) -> List[str]:
        """``repro join`` flags: semantics plus the routing scheme."""
        flags = self.semantics_flags()
        if self.distribution != "length":
            flags += ["--distribution", self.distribution]
        return flags

    def config(self):
        """The ``JoinConfig`` the CLI builds for this workload under
        ``--parallel`` with default shards and batch size."""
        from repro.core.config import JoinConfig

        return JoinConfig(
            similarity=SIMILARITY,
            threshold=THRESHOLD,
            num_workers=8,
            distribution=self.distribution,
            window_seconds=self.window_seconds,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("aol_dense", "aol", 20_000, 800, 0.15, skew=1.2),
        Workload("enron_long", "enron", 5_000, 8_000, 0.10),
        Workload("tweet_window", "tweet", 16_000, 1_200, 0.25,
                 window_seconds=10.0),
        Workload("dblp_prefix", "dblp", 10_000, 1_200, 0.08,
                 distribution="prefix"),
    )
}
