"""``repro bench``: the method suite on one synthetic corpus."""

from __future__ import annotations

import sys

from repro.bench.harness import run_methods, standard_configs
from repro.bench.report import bench_summary, format_table, write_bench_summary
from repro.cli.common import (
    archive_capture,
    bad_trace_sample,
    make_observer,
    write_artifacts,
)
from repro.datasets.corpora import CORPUS_BUILDERS
from repro.obs.baseline import bench_fingerprint, write_fingerprint
from repro.obs.exporters import metrics_to_json


def run(args) -> int:
    if bad_trace_sample(args):
        return 2
    try:
        if args.records < 1:
            # An empty stream would print a table of zeros and archive
            # five empty runs.
            raise ValueError(f"records must be >= 1, got {args.records}")
        configs = standard_configs(
            num_workers=args.workers,
            threshold=args.threshold,
            dispatcher_parallelism=args.dispatchers,
        )
        stream = CORPUS_BUILDERS[args.corpus](
            args.records, seed=args.seed, vocabulary_size=args.vocabulary
        )
    except ValueError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    observers = {label: make_observer(args) for label in configs}
    reports = run_methods(
        stream, configs, observer_factory=lambda label: observers[label]
    )
    rows = []
    for label, report in reports.items():
        row = report.summary()
        row["method"] = label
        rows.append(row)
    print(format_table(rows, title=f"{args.corpus} n={args.records} "
                                   f"θ={args.threshold} k={args.workers}"))
    for label, report in reports.items():
        write_artifacts(observers[label], report, args, label=label)

    bench_config = {
        "corpus": args.corpus,
        "records": args.records,
        "threshold": args.threshold,
        "workers": args.workers,
        "dispatchers": args.dispatchers,
        "seed": args.seed,
    }
    if args.summary_out:
        path = write_bench_summary(
            args.summary_out, bench_summary(reports, **bench_config)
        )
        print(f"summary: -> {path}")
    if args.write_baseline:
        dumps = {
            label: metrics_to_json(report.obs)
            for label, report in reports.items()
        }
        current = bench_fingerprint(dumps, config=bench_config)
        print(f"baseline: -> {write_fingerprint(args.write_baseline, current)}")
    archive_capture(args, lambda archive, digest: [
        archive.record_cluster_run(
            report, configs[label], command="bench",
            argv=getattr(args, "argv_raw", None), seed=args.seed,
            input_digest=digest,
        )
        for label, report in reports.items()
    ], stream)
    return 0
