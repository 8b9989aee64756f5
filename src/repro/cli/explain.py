"""``repro explain``: attribute the throughput gap between two methods."""

from __future__ import annotations

import json
import sys

from repro.bench.harness import run_methods, standard_configs
from repro.datasets.corpora import CORPUS_BUILDERS
from repro.obs.attribution import attribute_gap, render_attribution
from repro.obs.exporters import metrics_to_json
from repro.storm.costmodel import CostModel


def run(args) -> int:
    if args.method_a == args.method_b:
        print("explain: the two methods must differ", file=sys.stderr)
        return 2
    try:
        if args.records < 1:
            # No record, no busy time: the gap has nothing to attribute.
            raise ValueError(f"records must be >= 1, got {args.records}")
        stream = CORPUS_BUILDERS[args.corpus](args.records, seed=args.seed)
        configs = standard_configs(
            num_workers=args.workers,
            threshold=args.threshold,
            dispatcher_parallelism=args.dispatchers,
            include=[args.method_a, args.method_b],
        )
    except ValueError as error:
        print(f"explain: {error}", file=sys.stderr)
        return 2
    reports = run_methods(stream, configs)
    result = attribute_gap(
        metrics_to_json(reports[args.method_a].obs),
        metrics_to_json(reports[args.method_b].obs),
        CostModel(),
    )
    if args.json:
        print(json.dumps(result, indent=1, sort_keys=True))
    else:
        print(f"{args.corpus} n={args.records} θ={args.threshold} "
              f"k={args.workers} seed={args.seed}")
        print(render_attribution(result))
    return 0
