"""Choosing a deployment for a query-log similarity service.

A data-integration team wants on-line detection of similar search
queries (spelling variants, reorderings) over an AOL-like stream. This
example compares the three distribution schemes at the same threshold
and parallelism — the decision the paper's evaluation is about — and
prints the deployment trade-off table.

Run:  python examples/query_log_join.py
"""

from repro.bench.harness import run_methods, standard_configs
from repro.bench.report import format_table
from repro.datasets import synthetic_aol


def main() -> None:
    stream = synthetic_aol(15_000, seed=7, duplicate_rate=0.2)
    stats = stream.statistics()
    print(f"stream: {stats.num_records} queries, avg {stats.avg_size:.1f} tokens\n")

    configs = standard_configs(
        num_workers=8,
        threshold=0.8,
        include=["BRD", "PRE", "LEN-U", "LEN"],
    )
    reports = run_methods(stream, configs)

    rows = []
    for label, report in reports.items():
        rows.append(
            {
                "method": label,
                "similar pairs": report.results,
                "throughput rec/s": round(report.throughput),
                "msgs/record": round(report.messages_per_record, 2),
                "bytes/record": round(report.bytes_per_record, 1),
                "balance max/avg": round(report.load_balance, 2),
                "p95 ms": round(report.cluster.latency_p95 * 1e3, 3),
            }
        )
    print(format_table(rows, title="Deployment comparison (k=8, θ=0.8)"))

    best = max(reports, key=lambda label: reports[label].throughput)
    print(f"\nAll methods return identical pair sets; pick by cost: "
          f"highest sustainable throughput here is {best}.")
    print("Broadcast pays k messages per record; prefix replicates the "
          "index; length-based ships one index copy plus a few probes.")


if __name__ == "__main__":
    main()
