"""``repro trace``: one instrumented simulated join and where its
records spend their time, or the same analysis (or ``--smoke`` gate)
over a record-trace artefact."""

from __future__ import annotations

import contextlib
import json
import os
import sys
import tempfile
from typing import List

from repro.bench.harness import verify_instrumented_headlines
from repro.bench.report import format_table
from repro.cli.common import bad_trace_sample, make_observer, write_artifacts
from repro.cli.readers import artefact_header, other_family, overhead_line
from repro.core.config import JoinConfig
from repro.core.join import DistributedStreamJoin
from repro.datasets.corpora import CORPUS_BUILDERS
from repro.datasets.loader import load_token_file
from repro.obs.exporters import load_metrics_json
from repro.obs.health import load_health_jsonl, validate_health_lines
from repro.obs.observer import RunObserver
from repro.obs.rectrace import (
    latency_digest,
    load_rectrace_jsonl,
    rectrace_smoke,
    slowest_records,
    split_rectrace,
    validate_rectrace_lines,
)


def run(args) -> int:
    if bad_trace_sample(args):
        return 2
    if args.input is not None:
        if other_family("trace", args.input, "rectrace"):
            return 2
        if artefact_header(args.input) is not None:
            return _trace_rectrace(args)
    if args.smoke:
        return _trace_smoke(args)
    try:
        config = JoinConfig(
            similarity=args.similarity,
            threshold=args.threshold,
            num_workers=args.workers,
            distribution=args.distribution,
            expiry=args.expiry,
            dispatcher_parallelism=args.dispatchers,
        )
        if args.input is not None:
            stream, _ = load_token_file(args.input, rate=args.rate)
        else:
            stream = CORPUS_BUILDERS[args.corpus](args.records, seed=args.seed)
    except (OSError, ValueError) as error:
        print(f"trace: {error}", file=sys.stderr)
        return 2
    observer = make_observer(args)
    report = DistributedStreamJoin(config).run(stream, observer=observer)
    # --json keeps stdout one JSON document; the human output moves to
    # stderr.
    human = sys.stderr if args.json else sys.stdout
    print(format_table([report.summary()],
                       title=f"{stream.name} n={len(stream)} "
                             f"θ={args.threshold} k={args.workers}"),
          file=human)
    _render_rectrace(args, observer.trace, stream.name)
    with contextlib.redirect_stdout(human):
        print("\nbusy/idle timeline (cost-model charges over simulated time)")
        print(observer.timeline.render())
        write_artifacts(observer, report, args)
    return 0


def _trace_rectrace(args) -> int:
    """``repro trace FILE``: analyze (or smoke-gate) a record-trace
    artefact written by ``--trace-out``."""
    try:
        rows = load_rectrace_jsonl(args.input)
    except (OSError, ValueError) as error:
        print(f"trace: {error}", file=sys.stderr)
        return 2

    if args.smoke:
        failures = rectrace_smoke(rows)
        if failures:
            for failure in failures:
                print(f"trace smoke FAIL: {failure}", file=sys.stderr)
            return 1
    else:
        errors = validate_rectrace_lines(rows)
        if errors:
            for error in errors:
                print(f"trace: {args.input}: {error}", file=sys.stderr)
            return 2
    _render_rectrace(args, rows, args.input)
    return 0


def _render_rectrace(args, rows, source: str) -> None:
    """Print a rectrace document — a loaded file or a simulated run's
    in-memory one: ``--chrome`` export, then the smoke verdict, the
    ``--json`` digest, or the per-stage digest and slowest records."""
    from repro.obs.chrome import rectrace_to_chrome, write_chrome

    header, events = split_rectrace(rows)
    if args.chrome:
        count = write_chrome(args.chrome, rectrace_to_chrome(rows))
        print(f"chrome: {count} events -> {args.chrome}",
              file=sys.stderr if args.json else sys.stdout)
    if args.smoke:
        print(f"trace smoke ok: {header['traced']} records, "
              f"{len(events)} events, executor={header['executor']} "
              f"workers={header['workers']} sample={header['sample']} "
              f"wall={header['wall_s']:.4f}s")
        return

    digest = latency_digest(events)
    slow = slowest_records(events, top=args.top)
    if args.json:
        print(json.dumps(
            {"header": header, "stages": digest, "slowest": slow},
            indent=1, sort_keys=True,
        ))
        return

    print(f"{source}: {header['traced']} traced records "
          f"({header['events']} events), executor={header['executor']} "
          f"workers={header['workers']} shards={header['shards']} "
          f"sample={header['sample']} wall={header['wall_s']:.4f}s")
    print(overhead_line(header))
    stage_rows = [
        {
            "stage": stage,
            "count": entry["count"],
            "mean_ms": round(entry["mean_s"] * 1e3, 4),
            "p50_ms": round(entry["p50_s"] * 1e3, 4),
            "p95_ms": round(entry["p95_s"] * 1e3, 4),
            "p99_ms": round(entry["p99_s"] * 1e3, 4),
        }
        for stage, entry in digest.items()
    ]
    print(format_table(
        stage_rows,
        title="\nper-stage latency (e2e = first stamp -> last stamp)",
    ))
    if slow:
        print(format_table([
            {
                "rid": entry["rid"],
                "e2e_ms": round(entry["e2e_s"] * 1e3, 4),
                "events": entry["events"],
                "shards": ",".join(str(s) for s in entry["shards"]) or "-",
            }
            for entry in slow
        ], title=f"\nslowest {len(slow)} records"))


def _trace_smoke(args) -> int:
    """Tiny end-to-end run asserting the observability path works.

    Deterministic given ``--seed``; traces every record; exits
    non-zero with a reason when the trace, metrics or health dump is
    empty, corrupt, schema-invalid, or inconsistent with the cluster
    report. CI runs this.
    """
    try:
        config = JoinConfig(
            threshold=args.threshold,
            num_workers=min(args.workers, 2),
            distribution=args.distribution,
        )
    except ValueError as error:
        print(f"trace: {error}", file=sys.stderr)
        return 2
    stream = CORPUS_BUILDERS[args.corpus](min(args.records, 150), seed=args.seed)
    observer = RunObserver.create(trace_sample=1, timeline=True, health=True)
    report = DistributedStreamJoin(config).run(stream, observer=observer)

    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as scratch:
        trace_path = args.trace_out or os.path.join(scratch, "smoke.trace.jsonl")
        metrics_base = args.metrics_out or os.path.join(scratch, "smoke.metrics")
        health_path = args.health_out or os.path.join(scratch, "smoke.health.jsonl")
        observer.write_trace(trace_path)
        json_path, prom_path = observer.write_metrics(metrics_base)
        observer.write_health(health_path)

        events: List[dict] = []
        try:
            rows = load_rectrace_jsonl(trace_path)
        except ValueError as error:
            failures.append(str(error))
        else:
            trace_failures = rectrace_smoke(rows)
            failures.extend(trace_failures)
            if not trace_failures:
                events = split_rectrace(rows)[1]
                seen = {row["event"] for row in events}
                for event in ("emit", "dispatch", "join", "sink"):
                    if event not in seen:
                        failures.append(f"no event covers stage {event!r}")

        try:
            health_rows = load_health_jsonl(health_path)
        except ValueError as error:
            failures.append(str(error))
        else:
            failures.extend(validate_health_lines(health_rows))

        try:
            dump = load_metrics_json(json_path)
        except ValueError as error:
            failures.append(str(error))
            dump = None
        if dump is not None and not dump.get("metrics"):
            failures.append("metrics dump has no metric families")
        prom_text = open(prom_path, encoding="utf-8").read()
        if "# TYPE" not in prom_text:
            failures.append("prometheus dump has no TYPE lines")

        try:
            verify_instrumented_headlines(report)
        except AssertionError as error:
            failures.append(str(error))

    if failures:
        for failure in failures:
            print(f"smoke FAIL: {failure}", file=sys.stderr)
        return 1
    health_counts = observer.health.counts()
    print(f"smoke ok: {len(events)} trace events over "
          f"{len({row['rid'] for row in events})} records, "
          f"{len(dump['metrics'])} metric families, "
          f"{sum(health_counts.values())} health events, report consistent "
          f"(seed {args.seed}, {report.cluster.records} records, "
          f"{report.results} results)")
    return 0
