"""``repro join``: the streaming join over a token file, on the
simulated cluster or (``--parallel``) on real cores."""

from __future__ import annotations

import math
import sys
import time

from repro.bench.report import format_table
from repro.cli.common import (
    archive_capture,
    bad_trace_sample,
    make_observer,
    trace_line,
    trace_sample,
    write_artifacts,
)
from repro.core.config import JoinConfig
from repro.core.join import DistributedStreamJoin
from repro.datasets.loader import load_token_file
from repro.obs.baseline import fingerprint_from_metrics, write_fingerprint
from repro.obs.exporters import metrics_to_json, write_metrics


def run(args) -> int:
    if args.workers < 1:
        print(f"join: --workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    if args.shards is not None and args.shards < 1:
        print(f"join: --shards must be >= 1, got {args.shards}",
              file=sys.stderr)
        return 2
    if args.spans_sample < 1:
        print(f"join: --spans-sample must be >= 1, got {args.spans_sample}",
              file=sys.stderr)
        return 2
    if args.spans_out and not args.parallel:
        print("join: --spans-out requires --parallel (wall-clock spans "
              "come from the multi-core runtime; the simulated cluster "
              "has --trace-out)", file=sys.stderr)
        return 2
    if args.telemetry_out and not args.parallel:
        print("join: --telemetry-out requires --parallel (live heartbeats "
              "come from the multi-core runtime's worker processes; the "
              "simulated cluster has --health-out)", file=sys.stderr)
        return 2
    if bad_trace_sample(args):
        return 2
    if args.heartbeat_interval is not None:
        if not args.parallel:
            print("join: --heartbeat-interval requires --parallel (it sets "
                  "the worker heartbeat sampling cadence)", file=sys.stderr)
            return 2
        if (
            not math.isfinite(args.heartbeat_interval)
            or args.heartbeat_interval <= 0
        ):
            print(f"join: --heartbeat-interval must be a positive finite "
                  f"number of seconds, got {args.heartbeat_interval}",
                  file=sys.stderr)
            return 2
    try:
        config = JoinConfig(
            similarity=args.similarity,
            threshold=args.threshold,
            num_workers=(
                args.shards
                if args.parallel and args.shards is not None
                else args.workers
            ),
            distribution=args.distribution,
            partitioning=args.partitioning,
            use_bundles=args.bundles,
            window_seconds=args.window,
            expiry=args.expiry,
            dispatcher_parallelism=args.dispatchers,
            collect_pairs=args.pairs,
            **(
                {"batch_size": args.batch_size}
                if args.batch_size is not None
                else {}
            ),
        )
        # Only the stream: the dictionary is never read, and dropping
        # it here keeps it out of the forked workers.
        stream = load_token_file(
            args.input, rate=args.rate, max_records=args.max_records
        )[0]
    except (ValueError, OSError) as error:
        # JoinConfig's and the loader's pointed validation errors (bad
        # --threshold, --batch-size, --shards, --window, --rate,
        # --max-records) and a missing or unreadable input become clean
        # exit-code-2 diagnostics instead of tracebacks.
        print(f"join: {error}", file=sys.stderr)
        return 2
    if args.parallel:
        return _join_parallel(args, config, stream)
    observer = make_observer(args)
    started = time.perf_counter()
    report = DistributedStreamJoin(config).run(stream, observer=observer)
    wall_s = time.perf_counter() - started
    print(format_table([report.summary()]))
    if args.pairs and report.pairs is not None:
        # Ties in the parallel path's canonical order, not the
        # engines' emission order.
        ordered = sorted(report.pairs, key=lambda p: (-p[2], p[0], p[1]))
        for later, earlier, similarity in ordered:
            print(f"{similarity:.4f}\t{earlier}\t{later}")
    write_artifacts(observer, report, args)
    if args.fingerprint_out:
        path = write_fingerprint(
            args.fingerprint_out, fingerprint_from_metrics(metrics_to_json(report.obs))
        )
        print(f"fingerprint: -> {path}")
    archive_capture(args, lambda archive, digest: archive.record_cluster_run(
        report, config, wall_s=wall_s, argv=getattr(args, "argv_raw", None),
        input_digest=digest,
    ), stream)
    return 0


def _join_parallel(args, config: JoinConfig, stream) -> int:
    """``repro join --parallel``: the multi-core runtime.

    The exit-2 rejections here are the flags that *genuinely* conflict
    with the multi-core driver: ``--bundles`` (the bundle engine needs
    home-worker probe reuse the sharded driver never sees) and
    ``--dispatchers`` (every worker routes for itself).
    Everything else composes: ``--metrics-out`` exports the per-worker
    wall-clock telemetry, ``--spans-out`` the wall-clock span
    pipeline, ``--trace-out`` the distributed record-trace artefact
    (rid-sampled, analyzed by ``repro trace FILE``), and
    ``--timeline``/``--health-out``/``--fingerprint-out`` ride on the
    merged result.
    """
    if args.bundles:
        print("join: --parallel does not support --bundles (the bundle "
              "engine reuses home-worker probe results the sharded driver "
              "never sees)", file=sys.stderr)
        return 2
    if args.dispatchers > 1:
        print("join: --parallel workers route for themselves; "
              "--dispatchers does not apply", file=sys.stderr)
        return 2
    from repro.parallel import ParallelJoinRunner, ParallelWorkerError

    trace = args.trace_out is not None or args.trace_sample is not None
    runner = ParallelJoinRunner(
        config,
        workers=args.workers,
        spans_sample=args.spans_sample if args.spans_out else 0,
        trace_sample=trace_sample(args) if trace else 0,
        telemetry_out=args.telemetry_out,
        heartbeat_interval=args.heartbeat_interval,
    )
    # Nothing reads the rows unless --pairs asked for them: otherwise
    # the run is count-only, and no row is emitted, shipped or held.
    try:
        result = runner.run(stream, collect=config.collect_pairs)
    except ParallelWorkerError as error:
        # Workers build the records, so a bad stream fails there: one
        # line names the worker (first line) and what it raised (last).
        lines = str(error).strip().splitlines()
        summary = lines[0] if len(lines) == 1 else f"{lines[0]} {lines[-1]}"
        print(f"join: {summary}", file=sys.stderr)
        return 1
    print(format_table([{
        "method": config.method_label,
        "workers": result.workers,
        "shards": result.num_shards,
        "start": result.start_method,
        "batch": result.batch_size,
        "records": result.records,
        "results": result.results,
        "wall_s": round(result.wall_s, 4),
        "records_per_s": round(result.throughput, 1),
    }]))
    if args.pairs:
        _, later, earlier, _, similarity = result.matches.columns
        order = range(len(similarity))  # stable: ties keep canonical order
        for i in sorted(order, key=similarity.__getitem__, reverse=True):
            print(f"{similarity[i]:.4f}\t{earlier[i]}\t{later[i]}")
    if args.timeline:
        print(result.timeline().render())
    if args.metrics_out:
        paths = write_metrics(result.metrics_registry(), args.metrics_out)
        print(f"metrics: -> {', '.join(paths)}")
    if args.spans_out:
        lines = result.write_spans(args.spans_out)
        coverage = result.phase_totals()["driver_coverage"]
        print(f"spans: {lines} lines -> {args.spans_out} "
              f"(driver coverage {coverage:.1%})")
    if args.trace_out and result.trace_header is not None:
        lines = result.write_rectrace(args.trace_out)
        print(trace_line(args.trace_out, lines, result.trace_header))
    if result.telemetry is not None:
        samples = result.telemetry_samples()
        health_events = sum(
            1 for row in result.telemetry if row.get("kind") == "health"
        )
        destination = (
            f" -> {args.telemetry_out}" if args.telemetry_out else ""
        )
        print(f"telemetry: {len(result.telemetry)} lines{destination} "
              f"({samples} samples, {health_events} health events)")
    if args.health_out:
        monitor = result.health()
        lines = monitor.write_jsonl(args.health_out)
        print(f"health: {lines} lines -> {args.health_out}")
        if monitor.events:
            print(monitor.render())
    if args.fingerprint_out:
        path = write_fingerprint(args.fingerprint_out, result.fingerprint())
        print(f"fingerprint: -> {path}")
    archive_capture(args, lambda archive, digest: archive.record_parallel_run(
        result, argv=getattr(args, "argv_raw", None), input_digest=digest,
    ), stream)
    return 0
