"""Inside the load-aware length partitioner.

The ENRON-like corpus has a log-normal length distribution: most mails
are short, a long tail is huge. Equal-width partitions put nearly all
records (and nearly all join cost) on one worker. This example plans
partitions three ways for the same stream, prints the ranges with their
estimated costs, then validates the estimates against a real simulated
run's per-worker busy times.

Run:  python examples/partition_planning.py
"""

from repro import DistributedStreamJoin, JoinConfig
from repro.bench.report import format_table
from repro.datasets import synthetic_enron
from repro.partition import (
    JoinCostEstimator,
    LengthHistogram,
    load_aware_partition,
    quantile_partition,
    uniform_partition,
)
from repro.similarity.functions import Jaccard

K = 6
THRESHOLD = 0.8


def describe(label, partition, estimator):
    costs = [estimator.cost(lo, hi) for lo, hi in partition.ranges]
    total = sum(costs)
    rows = [
        {
            "worker": i,
            "lengths": f"[{lo}, {hi}]",
            "est. cost share": f"{cost / total:6.1%}",
        }
        for i, ((lo, hi), cost) in enumerate(zip(partition.ranges, costs))
    ]
    print(format_table(rows, title=f"\n{label} (est. max/avg = "
                                   f"{max(costs) / (total / len(costs)):.2f})"))


def main() -> None:
    stream = synthetic_enron(6_000, seed=3)
    lengths = [len(tokens) for tokens in stream.corpus]
    histogram = LengthHistogram.from_lengths(lengths)
    print(f"lengths: min={histogram.min_length} max={histogram.max_length} "
          f"median≈{sorted(lengths)[len(lengths) // 2]}")

    func = Jaccard(THRESHOLD)
    vocabulary = len({t for tokens in stream.corpus for t in tokens})
    estimator = JoinCostEstimator(histogram, func, vocabulary_size=vocabulary)

    plans = {
        "uniform": uniform_partition(histogram.min_length, histogram.max_length, K),
        "quantile": quantile_partition(histogram, K),
        "load-aware": load_aware_partition(estimator, K),
    }
    for label, partition in plans.items():
        describe(label, partition, estimator)

    # Validate: run the simulator with each plan and compare real balance.
    print("\nmeasured per-worker balance from full simulated runs:")
    for partitioning in ("uniform", "quantile", "load_aware"):
        config = JoinConfig(
            threshold=THRESHOLD, num_workers=K,
            distribution="length", partitioning=partitioning,
        )
        report = DistributedStreamJoin(config).run(stream)
        print(f"  {partitioning:10s} max/avg busy = {report.load_balance:.2f}  "
              f"throughput = {report.throughput:,.0f} rec/s")


if __name__ == "__main__":
    main()
