"""Command-line interface: ``python -m repro <command>``.

Eleven commands cover the workflows a downstream user needs:

``join``
    Run the distributed streaming join over a token file (one record
    per line, whitespace-separated tokens); print the report and,
    optionally, the similar pairs. ``--trace-out``/``--metrics-out``/
    ``--health-out`` dump the run's record trace (rectrace JSONL, on
    either runtime), metrics (JSON + Prometheus) and online health
    events (JSONL).
``bench``
    Compare the method suite (BRD/PRE/LEN-U/LEN/LEN+BUN) on a synthetic
    corpus, print the standard table and write the machine-readable
    ``BENCH_summary.json``; the same dump flags write one artefact set
    per method. ``--write-baseline`` archives the suite's run
    fingerprints for ``repro diff`` to gate against a stored one.
    Whole-join timings are ``benchmarks/e2e/run.py``.
``trace``
    Run one instrumented simulated join (synthetic corpus or token
    file) and show where records spend their time: the record trace's
    per-stage p50/p95/p99 latency digest, slowest records, ``--json``,
    ``--chrome`` Perfetto export, then the per-task busy timeline.
    ``--smoke`` runs a tiny end-to-end check that the trace, metrics
    and health dumps are non-empty, schema-valid and consistent with
    the report — CI's observability gate. Given a record-trace artefact
    (``--trace-out`` of either runtime) instead, analyzes it the same
    way, or gates it with ``--smoke``; any other artefact is a pointed
    error naming the command that reads it.
``spans``
    Analyze a wall-clock spans file written by ``join --parallel
    --spans-out``: per-actor phase breakdown, the critical path
    through the run's driver windows, and an ASCII stage waterfall;
    ``--chrome`` exports the same file as a Perfetto-loadable
    trace-event timeline. ``--smoke`` gates the file instead (parses,
    expected phases present, phase totals bounded by wall time) —
    CI's parallel observability gate.
``top``
    Live ANSI view of a running (or finished) parallel join: tail a
    ``join --parallel --telemetry-out`` file and repaint per-worker
    throughput sparklines, phase mix and health flags — no curses
    dependency, works over ssh and in CI logs.
``telemetry``
    Post-hoc analyzer for a telemetry file, mirroring the ``spans``
    UX: per-worker sample digest, peak throughput, health event
    counts. ``--smoke`` gates the file instead (schema-valid, closed
    by a final row without an error, every worker sampled) — CI's
    live-telemetry gate.
``diff``
    Compare two run artefacts (metrics dumps or stored fingerprints)
    under the regression-gate policy: exact on deterministic counters,
    tolerance-banded and direction-aware on float headlines. Exits
    non-zero on regression — CI's baseline gate.
``explain``
    Run two methods over the same stream and decompose the throughput
    gap into replication, skew, filtering and verification
    contributions that provably sum to the measured gap.
``generate``
    Write a synthetic corpus (AOL/TWEET/DBLP/ENRON-like) to a token
    file for use with ``join``.
``stats``
    Print a token file's corpus statistics, with how many records
    repeat an earlier record's exact token set (and, given ``--window``
    and ``--rate``, the share of those whose earlier copy is still
    inside the window).
``history``
    Query the persistent run archive (``.repro/archive.db``, a SQLite
    flight recorder every ``join``/``bench`` invocation appends to
    unless ``--no-archive`` is given or ``REPRO_ARCHIVE`` is set
    empty): ``list`` recent runs, ``show`` everything archived about
    one, ``compare`` two under the ``diff`` regression policy,
    ``trend`` a metric across runs as a sparkline with its fitted
    slope, ``check`` the newest run against the rolling median of its
    comparable predecessors (exit 1 on regression — the longitudinal
    CI gate). Only runs archived live are stored, so every run carries
    the config, seed and input digest that comparability needs; an
    archive at an older schema is refused (exit 2), never upgraded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
import time
from typing import List, Optional

from repro.bench.harness import (
    run_methods,
    standard_configs,
    verify_instrumented_headlines,
)
from repro.bench.report import bench_summary, format_table, write_bench_summary
from repro.core.config import JoinConfig
from repro.core.join import DistributedStreamJoin
from repro.datasets.corpora import CORPUS_BUILDERS
from repro.datasets.loader import load_token_file, save_token_file
from repro.obs import RunObserver
from repro.obs.attribution import attribute_gap, render_attribution
from repro.obs.artefact import artefact_family
from repro.obs.baseline import (
    bench_fingerprint,
    compare_fingerprints,
    load_fingerprint,
    render_verdict,
    write_fingerprint,
)
from repro.obs.exporters import load_metrics_json, metrics_to_json, write_metrics
from repro.obs.health import load_health_jsonl, validate_health_lines
from repro.obs.rectrace import (
    DEFAULT_TRACE_SAMPLE,
    latency_digest,
    load_rectrace_jsonl,
    rectrace_smoke,
    slowest_records,
    split_rectrace,
    validate_rectrace_lines,
)
from repro.storm.costmodel import CostModel

METHOD_LABELS = ("BRD", "PRE", "LEN-U", "LEN", "LEN+BUN")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed streaming set similarity join (ICDE 2020 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    join = commands.add_parser("join", help="join a token file")
    join.add_argument("input", help="token file: one record per line")
    join.add_argument("--similarity", default="jaccard",
                      choices=["jaccard", "cosine", "dice", "overlap"])
    join.add_argument("--threshold", type=float, default=0.8)
    join.add_argument("--workers", type=int, default=8)
    join.add_argument("--distribution", default="length",
                      choices=["length", "prefix", "broadcast"])
    join.add_argument("--partitioning", default="load_aware",
                      choices=["load_aware", "uniform", "quantile"])
    join.add_argument("--bundles", action="store_true")
    join.add_argument("--window", type=float, default=math.inf,
                      help="sliding window in seconds (default: unbounded)")
    join.add_argument("--expiry", default="lazy", choices=["lazy", "eager"],
                      help="window expiration strategy: lazy reclaims "
                           "postings as probes touch them, eager evicts "
                           "on arrival via an expiration heap "
                           "(default: lazy)")
    join.add_argument("--rate", type=float, default=1000.0,
                      help="arrival rate, records/second")
    join.add_argument("--dispatchers", type=int, default=1)
    join.add_argument("--max-records", type=int, default=None)
    join.add_argument("--pairs", action="store_true",
                      help="print every similar pair")
    join.add_argument("--parallel", action="store_true",
                      help="run on real cores (repro.parallel) instead of "
                           "the simulated cluster; --workers then counts "
                           "worker processes and --shards logical engine "
                           "shards")
    join.add_argument("--shards", type=int, default=None,
                      help="logical shard count in --parallel mode "
                           "(default: --workers, one engine per process; "
                           "observables depend on shards and never on "
                           "--workers, so pin --shards to compare "
                           "fingerprints across worker counts)")
    join.add_argument("--batch-size", type=int, default=None,
                      help="records per batch in --parallel mode: one "
                           "shard's unit of work inside a worker, with one "
                           "meter flush and at most one match ship "
                           "(default: 512)")
    join.add_argument("--fingerprint-out", default=None, metavar="PATH",
                      help="write the run's fingerprint for `repro diff`")
    join.add_argument("--spans-out", default=None, metavar="PATH",
                      help="write wall-clock spans (driver + workers) as "
                           "JSONL; requires --parallel")
    join.add_argument("--spans-sample", type=int, default=1, metavar="N",
                      help="record batch-scoped spans for every Nth batch "
                           "of each shard (deterministic, seeded by batch "
                           "index; default 1 = every batch)")
    join.add_argument("--telemetry-out", default=None, metavar="PATH",
                      help="stream live worker heartbeats (rolling "
                           "counters + online health) as JSONL; requires "
                           "--parallel; tail it with `repro top`")
    join.add_argument("--heartbeat-interval", type=float, default=None,
                      metavar="SECONDS",
                      help="worker telemetry sampling interval in seconds "
                           "(default 0.25); requires --parallel; implies "
                           "live telemetry collection")
    join.add_argument("--no-archive", action="store_true",
                      help="do not record this run in the persistent "
                           "archive (.repro/archive.db; see `repro "
                           "history`)")
    _add_obs_flags(join)

    bench = commands.add_parser("bench", help="compare methods on a synthetic corpus")
    bench.add_argument("--corpus", default="TWEET", choices=sorted(CORPUS_BUILDERS))
    bench.add_argument("--records", type=int, default=5000)
    bench.add_argument("--threshold", type=float, default=0.8)
    bench.add_argument("--workers", type=int, default=8)
    bench.add_argument("--dispatchers", type=int, default=4)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--vocabulary", type=int, default=None)
    bench.add_argument("--summary-out", default="BENCH_summary.json",
                       metavar="PATH",
                       help="machine-readable summary destination "
                            "(default: BENCH_summary.json in the current "
                            "directory; empty string disables)")
    bench.add_argument("--write-baseline", default=None, metavar="PATH",
                       help="archive the suite's run fingerprints as a "
                            "baseline for `repro diff`")
    bench.add_argument("--no-archive", action="store_true",
                       help="do not record this run in the persistent "
                            "archive (.repro/archive.db; see `repro "
                            "history`)")
    _add_obs_flags(bench)

    trace = commands.add_parser(
        "trace", help="run one instrumented join and show where time goes"
    )
    trace.add_argument("input", nargs="?", default=None,
                       help="token file (omit to use a synthetic corpus)")
    trace.add_argument("--corpus", default="AOL", choices=sorted(CORPUS_BUILDERS))
    trace.add_argument("--records", type=int, default=500)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--similarity", default="jaccard",
                       choices=["jaccard", "cosine", "dice", "overlap"])
    trace.add_argument("--threshold", type=float, default=0.8)
    trace.add_argument("--workers", type=int, default=4)
    trace.add_argument("--distribution", default="length",
                       choices=["length", "prefix", "broadcast"])
    trace.add_argument("--dispatchers", type=int, default=1)
    trace.add_argument("--expiry", default="lazy", choices=["lazy", "eager"],
                       help="window expiration strategy for the join "
                            "engines (default: lazy)")
    trace.add_argument("--rate", type=float, default=1000.0)
    trace.add_argument("--top", type=int, default=5,
                       help="slowest traces to break down")
    trace.add_argument("--smoke", action="store_true",
                       help="tiny end-to-end run tracing every record; "
                            "validate trace+metrics+health dumps (on a "
                            "record-trace file: schema + structure gate); "
                            "exit 1 on failure")
    trace.add_argument("--json", action="store_true",
                       help="emit the latency digest and slowest records "
                            "as JSON")
    trace.add_argument("--chrome", default=None, metavar="PATH",
                       help="export the record trace as a Chrome "
                            "trace-event JSON timeline (load in "
                            "ui.perfetto.dev)")
    _add_obs_flags(trace)

    spans = commands.add_parser(
        "spans", help="analyze a wall-clock spans file (join --parallel --spans-out)"
    )
    spans.add_argument("input", help="spans JSONL file")
    spans.add_argument("--smoke", action="store_true",
                       help="gate the file instead of analyzing it: parses, "
                            "expected phases present, phase totals bounded "
                            "by wall time; exit 1 on failure")
    spans.add_argument("--json", action="store_true",
                       help="print the machine-readable phase_totals and "
                            "critical path only")
    spans.add_argument("--chrome", default=None, metavar="PATH",
                       help="export a Chrome trace-event JSON timeline "
                            "(load in ui.perfetto.dev)")
    spans.add_argument("--width", type=int, default=60,
                       help="waterfall width in time buckets (default 60)")

    top = commands.add_parser(
        "top", help="live view of a parallel join (tails --telemetry-out)"
    )
    top.add_argument("input",
                     help="telemetry JSONL file (may still be being written "
                          "by a running join)")
    top.add_argument("--once", action="store_true",
                     help="render one frame from the file's current "
                          "contents and exit (no repainting)")
    top.add_argument("--refresh", type=float, default=0.5, metavar="SECONDS",
                     help="seconds between repaints (default 0.5)")
    top.add_argument("--duration", type=float, default=None, metavar="SECONDS",
                     help="stop after this many seconds (default: follow "
                          "until the run's final row)")

    telemetry = commands.add_parser(
        "telemetry",
        help="analyze a telemetry file (join --parallel --telemetry-out)",
    )
    telemetry.add_argument("input", help="telemetry JSONL file")
    telemetry.add_argument("--smoke", action="store_true",
                           help="gate the file instead of analyzing it: "
                                "schema-valid, closed by a final row, at "
                                "least one sample per worker; exit 1 on "
                                "failure")
    telemetry.add_argument("--json", action="store_true",
                           help="print the machine-readable summary only")

    diff = commands.add_parser(
        "diff", help="regression-gate two run artefacts (dumps or fingerprints)"
    )
    diff.add_argument("baseline",
                      help="baseline: a metrics dump (.json) or a stored "
                           "fingerprint / bench baseline")
    diff.add_argument("current", help="current run artefact, same formats")
    diff.add_argument("--rel-tol", type=float, default=1e-6,
                      help="relative tolerance for banded headline metrics "
                           "(default 1e-6; inf gates exact metrics only)")
    diff.add_argument("--json", action="store_true",
                      help="print the machine-readable verdict only")

    explain = commands.add_parser(
        "explain", help="attribute the throughput gap between two methods"
    )
    explain.add_argument("method_a", choices=METHOD_LABELS,
                         help="baseline method (the slower side of the claim)")
    explain.add_argument("method_b", choices=METHOD_LABELS,
                         help="method whose advantage to explain")
    explain.add_argument("--corpus", default="AOL", choices=sorted(CORPUS_BUILDERS))
    explain.add_argument("--records", type=int, default=2000)
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument("--threshold", type=float, default=0.8)
    explain.add_argument("--workers", type=int, default=8)
    explain.add_argument("--dispatchers", type=int, default=1)
    explain.add_argument("--json", action="store_true",
                         help="print the attribution as JSON")

    generate = commands.add_parser("generate", help="write a synthetic corpus")
    generate.add_argument("output", help="destination token file")
    generate.add_argument("--corpus", default="TWEET", choices=sorted(CORPUS_BUILDERS))
    generate.add_argument("--records", type=int, default=1000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--duplicate-rate", type=float, default=None)

    stats = commands.add_parser("stats", help="describe a token file")
    stats.add_argument("input")
    stats.add_argument("--max-records", type=int, default=None)
    stats.add_argument("--window", type=float, default=math.inf,
                       help="with --rate, as for join: also report the "
                            "share of repeats whose earlier copy is still "
                            "inside this window (seconds)")
    stats.add_argument("--rate", type=float, default=1000.0,
                       help="arrival rate, records/second")

    history = commands.add_parser(
        "history",
        help="query the persistent run archive (.repro/archive.db)",
    )
    hsub = history.add_subparsers(dest="history_command", required=True)

    def _history_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--db", default=None, metavar="PATH",
                         help="archive database (default: $REPRO_ARCHIVE "
                              "or .repro/archive.db)")

    def _history_filters(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--command", dest="filter_command", default=None,
                         metavar="CMD",
                         help="filter by archiving command (join, bench)")
        sub.add_argument("--method", default=None,
                         help="filter by method label (LEN, PRE, ...)")
        sub.add_argument("--workers", type=int, default=None)

    hlist = hsub.add_parser("list", help="newest archived runs, one per line")
    _history_common(hlist)
    _history_filters(hlist)
    hlist.add_argument("--limit", type=int, default=20)
    hlist.add_argument("--json", action="store_true",
                       help="print the raw run rows as JSON")

    hshow = hsub.add_parser("show", help="everything archived about one run")
    _history_common(hshow)
    hshow.add_argument("run", help="run id, or 'last'")
    hshow.add_argument("--json", action="store_true")

    hcompare = hsub.add_parser(
        "compare",
        help="regression-gate one archived run against another "
             "(`repro diff` policy on their stored fingerprints)",
    )
    _history_common(hcompare)
    hcompare.add_argument("baseline", help="baseline run id")
    hcompare.add_argument("current", help="current run id, or 'last'")
    hcompare.add_argument("--rel-tol", type=float, default=1e-6,
                          help="relative tolerance for banded headline "
                               "metrics (default 1e-6; inf: exact only)")
    hcompare.add_argument("--json", action="store_true")

    htrend = hsub.add_parser(
        "trend", help="one metric across runs: sparkline + fitted slope"
    )
    _history_common(htrend)
    _history_filters(htrend)
    htrend.add_argument("--metric", required=True,
                        help="a run column (wall_s, throughput, "
                             "peak_rss_bytes), fingerprint counter "
                             "(run_results, op:probe) or stage digest "
                             "(stage:e2e:p95_s)")
    htrend.add_argument("--last", type=int, default=20,
                        help="most recent matching runs to plot "
                             "(default 20)")
    htrend.add_argument("--json", action="store_true")

    hcheck = hsub.add_parser(
        "check",
        help="gate a run against the rolling median of its comparable "
             "predecessors; exit 1 on regression",
    )
    _history_common(hcheck)
    hcheck.add_argument("run", nargs="?", default=None,
                        help="run id to gate (default: the newest run)")
    hcheck.add_argument("--metric", action="append", default=None,
                        metavar="NAME",
                        help="metric to gate (repeatable; default: every "
                             "deterministic counter the run carries)")
    hcheck.add_argument("--last", type=int, default=3,
                        help="comparable prior runs forming the rolling "
                             "median; fewer than this skips the gate "
                             "(default 3)")
    hcheck.add_argument("--tolerance", type=float, default=0.1,
                        help="relative band for non-exact metrics; a "
                             "change exactly at the tolerance passes "
                             "(default 0.1; inf gates exact metrics only)")
    hcheck.add_argument("--json", action="store_true")
    return parser


def _add_obs_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument("--trace-out", default=None, metavar="PATH",
                         help="write the record trace (rectrace JSONL, "
                              "analyzed by `repro trace FILE`)")
    command.add_argument("--metrics-out", default=None, metavar="BASE",
                         help="write the metrics registry to BASE.json "
                              "and BASE.prom")
    command.add_argument("--trace-sample", type=int, default=None,
                         metavar="N",
                         help="trace records whose rid %% N == 0 "
                              "(deterministic; default "
                              f"{DEFAULT_TRACE_SAMPLE}); on join "
                              "--parallel it switches tracing on even "
                              "without --trace-out")
    command.add_argument("--timeline", action="store_true",
                         help="print the per-task busy/idle timeline")
    command.add_argument("--health-out", default=None, metavar="PATH",
                         help="run the online health detectors and write "
                              "their events as JSONL")


def _bad_trace_sample(args) -> bool:
    """Print the pointed error for a non-positive ``--trace-sample``."""
    if args.trace_sample is not None and args.trace_sample < 1:
        print(f"{args.command}: --trace-sample must be >= 1, got "
              f"{args.trace_sample}", file=sys.stderr)
        return True
    return False


def _trace_sample(args) -> int:
    """The rid stride ``--trace-sample`` asked for, or the default."""
    return args.trace_sample if args.trace_sample is not None else DEFAULT_TRACE_SAMPLE


def _make_observer(args) -> Optional[RunObserver]:
    """An observer matching the obs flags (None if nothing requested)."""
    want_trace = args.trace_out is not None or args.command == "trace"
    want_health = args.health_out is not None
    if not (want_trace or args.timeline or args.metrics_out or want_health):
        return None
    return RunObserver.create(
        trace_sample=_trace_sample(args) if want_trace else 0,
        timeline=args.timeline or args.command == "trace",
        health=want_health,
    )


def _trace_line(path: str, lines: int, header) -> str:
    return (f"trace: {lines} lines -> {path} ({header['traced']} records, "
            f"{header['events']} events, sample {header['sample']})")


def _write_artifacts(observer, report, args, label: str = "") -> None:
    """Write/print whatever the obs flags asked for."""
    suffix = f".{label}" if label else ""
    if args.trace_out and observer is not None and observer.trace is not None:
        path = _suffixed(args.trace_out, suffix)
        lines = observer.write_trace(path)
        print(_trace_line(path, lines, observer.trace[0]))
    if args.metrics_out:
        base = _suffixed(args.metrics_out, suffix)
        if observer is not None and observer.registry is not None:
            paths = observer.write_metrics(base)
        else:
            paths = write_metrics(report.obs, base)
        print(f"metrics: -> {', '.join(paths)}")
    if args.health_out and observer is not None and observer.health is not None:
        path = _suffixed(args.health_out, suffix)
        lines = observer.write_health(path)
        print(f"health: {lines} lines -> {path}")
        if observer.health.events:
            print(observer.health.render())
    if args.timeline and observer is not None and observer.timeline is not None:
        print(observer.timeline.render())


def _suffixed(path: str, suffix: str) -> str:
    if not suffix:
        return path
    root, ext = os.path.splitext(path)
    return f"{root}{suffix}{ext}"


def _archive_capture(args, record, stream=None) -> None:
    """Append a finished run to the persistent archive.

    ``record`` receives an open :class:`RunArchive` and the
    :func:`stream_digest` of the joined ``stream`` (``None`` without
    one) and returns the new run id (or a list of them). Archiving is
    best-effort by design: a full disk, a locked database or a
    future-schema file must never fail the join/bench that just
    succeeded, so every error degrades to a one-line stderr warning.
    """
    if getattr(args, "no_archive", False):
        return
    from repro.obs.archive import RunArchive, default_archive_path, stream_digest

    path = default_archive_path()
    if path is None:
        return
    try:
        with RunArchive(path) as archive:
            run_ids = record(
                archive, None if stream is None else stream_digest(stream)
            )
    except Exception as error:
        print(f"archive: capture skipped ({error})", file=sys.stderr)
        return
    if isinstance(run_ids, int):
        run_ids = [run_ids]
    label = "run" if len(run_ids) == 1 else "runs"
    print(f"archive: {label} {','.join(str(i) for i in run_ids)} -> {path}")


def _cmd_join(args) -> int:
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
    if _bad_trace_sample(args):
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
    observer = _make_observer(args)
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
    _write_artifacts(observer, report, args)
    if args.fingerprint_out:
        from repro.obs.baseline import fingerprint_from_metrics

        path = write_fingerprint(
            args.fingerprint_out, fingerprint_from_metrics(metrics_to_json(report.obs))
        )
        print(f"fingerprint: -> {path}")
    _archive_capture(args, lambda archive, digest: archive.record_cluster_run(
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
        trace_sample=_trace_sample(args) if trace else 0,
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
        print(_trace_line(args.trace_out, lines, result.trace_header))
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
    _archive_capture(args, lambda archive, digest: archive.record_parallel_run(
        result, argv=getattr(args, "argv_raw", None), input_digest=digest,
    ), stream)
    return 0


def _cmd_bench(args) -> int:
    if _bad_trace_sample(args):
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
    observers = {label: _make_observer(args) for label in configs}
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
        _write_artifacts(observers[label], report, args, label=label)

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
    _archive_capture(args, lambda archive, digest: [
        archive.record_cluster_run(
            report, configs[label], command="bench",
            argv=getattr(args, "argv_raw", None), seed=args.seed,
            input_digest=digest,
        )
        for label, report in reports.items()
    ], stream)
    return 0


def _artefact_header(path: str) -> Optional[dict]:
    """``path``'s first non-empty line when it is a JSONL artefact
    header (``kind: "header"``), else ``None``.

    Token files can't parse as JSON objects, so the sniff cleanly
    separates ``repro trace CORPUS`` (a simulated join) from ``repro
    trace ARTEFACT.jsonl`` (analysis, or a pointed error)."""
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except ValueError:
                    return None
                if isinstance(row, dict) and row.get("kind") == "header":
                    return row
                return None
    except OSError:
        return None
    return None


#: Each artefact family: what it is, and what reads it.
_ARTEFACT_FAMILIES = {
    "rectrace": ("a record trace (--trace-out)", "read it with `repro trace`"),
    "spans": ("a spans artefact (--spans-out)", "read it with `repro spans`"),
    "telemetry": ("a telemetry artefact (--telemetry-out)",
                  "read it with `repro telemetry` or `repro top`"),
    "health": ("a health-event artefact (--health-out)", "the run that "
               "wrote it printed its events; `repro trace --smoke` checks the format"),
}


def _other_family(command: str, path: str, family: str) -> bool:
    """True, after one stderr line naming what it is and what reads
    it, when ``path`` opens with an artefact header not of ``family``.
    A headerless file is the reader's own loader's to judge."""
    header = _artefact_header(path)
    found = artefact_family([header]) if header else family
    if found == family:
        return False
    if found is None:
        why = f"a JSONL artefact but not {_ARTEFACT_FAMILIES[family][0]}"
    else:
        why = "{}; {}".format(*_ARTEFACT_FAMILIES[found])
    print(f"{command}: {path} is {why}", file=sys.stderr)
    return True


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
    print(_overhead_line(header))
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


def _cmd_trace(args) -> int:
    if _bad_trace_sample(args):
        return 2
    if args.input is not None:
        if _other_family("trace", args.input, "rectrace"):
            return 2
        if _artefact_header(args.input) is not None:
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
    observer = _make_observer(args)
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
        _write_artifacts(observer, report, args)
    return 0


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


def write_chrome_spans(path: str, rows) -> int:
    """Export a loaded spans artefact as a Chrome trace-event file."""
    from repro.obs.chrome import spans_to_chrome, write_chrome

    return write_chrome(path, spans_to_chrome(rows))


def _overhead_line(header) -> str:
    """The event log's self-reported cost, from a spans or rectrace
    header's ``overhead`` block (simulated runs, rectrace files written
    before the block existed, and zero-wall runs read ``n/a``)."""
    overhead = header.get("overhead")
    if not overhead or not header["wall_s"]:
        return "recorder overhead: n/a"
    overhead_s = overhead.get("driver", {}).get("estimated_s", 0.0) + sum(
        entry.get("estimated_s", 0.0)
        for entry in overhead.get("workers", {}).values()
    )
    return (f"recorder overhead: ~{overhead_s * 1e3:.3f}ms total "
            f"({overhead_s / header['wall_s']:.2%} of wall)")


def _cmd_spans(args) -> int:
    """``repro spans``: analyze (or smoke-gate) a wall-clock spans file."""
    from repro.obs.spans import (
        critical_path,
        load_spans_jsonl,
        phase_totals,
        smoke_check,
        split_rows,
        validate_span_lines,
        waterfall,
    )

    if args.width < 10:
        print(f"spans: --width must be >= 10, got {args.width}",
              file=sys.stderr)
        return 2
    if _other_family("spans", args.input, "spans"):
        return 2
    try:
        rows = load_spans_jsonl(args.input)
    except (OSError, ValueError) as error:
        print(f"spans: {error}", file=sys.stderr)
        return 2

    if args.smoke:
        failures = smoke_check(rows)
        if failures:
            for failure in failures:
                print(f"spans smoke FAIL: {failure}", file=sys.stderr)
            return 1
        header, span_rows = split_rows(rows)
        totals = phase_totals(rows)
        if args.chrome:
            count = write_chrome_spans(args.chrome, rows)
            print(f"chrome: {count} events -> {args.chrome}")
        print(f"spans smoke ok: {len(span_rows)} spans, "
              f"executor={header['executor']} workers={header['workers']} "
              f"wall={header['wall_s']:.4f}s "
              f"driver coverage {totals['driver_coverage']:.1%}")
        return 0

    errors = validate_span_lines(rows)
    if errors:
        for error in errors:
            print(f"spans: {args.input}: {error}", file=sys.stderr)
        return 2

    if args.chrome:
        count = write_chrome_spans(args.chrome, rows)
        print(f"chrome: {count} events -> {args.chrome}")

    totals = phase_totals(rows)
    path = critical_path(rows)
    if args.json:
        print(json.dumps(
            {"phase_totals": totals, "critical_path": path},
            indent=1, sort_keys=True,
        ))
        return 0

    header, span_rows = split_rows(rows)
    print(f"{args.input}: {len(span_rows)} spans, "
          f"executor={header['executor']} workers={header['workers']} "
          f"shards={header['shards']} sample={header['sample']} "
          f"wall={header['wall_s']:.4f}s")
    print(_overhead_line(header))

    wall = totals["wall_s"]
    driver_rows = [
        {
            "phase": phase,
            "seconds": seconds,
            "share": f"{seconds / wall:.1%}" if wall else "-",
        }
        for phase, seconds in totals["driver"].items()
    ]
    print(format_table(
        driver_rows,
        title=f"\ndriver phases (coverage {totals['driver_coverage']:.1%}"
              f" of wall)",
    ))
    if totals["workers"]:
        worker_rows = []
        for worker, entry in totals["workers"].items():
            row = {"worker": worker, **entry}
            row["exec_s"] = round(sum(entry.values()), 6)
            worker_rows.append(row)
        print(format_table(
            worker_rows,
            title="\nper-worker phases (route is the worker's own walk "
                  "over the records between batches; pipe_write its "
                  "per-batch result ship)",
        ))
    if path:
        print(format_table([
            {
                "stage": entry["stage"],
                "start": entry["start"],
                "seconds": entry["seconds"],
                "critical": entry["critical"],
                "busy_s": entry["busy_s"],
                "util": f"{entry['utilisation']:.0%}",
            }
            for entry in path
        ], title="\ncritical path (driver windows; critical = the actor "
                 "bounding each window)"))
    print("\nstage waterfall (wall time; task -1 is the driver)")
    print(waterfall(rows, width=args.width))
    return 0


def _cmd_top(args) -> int:
    """``repro top``: curses-free live view over a telemetry stream.

    Tails the JSONL file a running ``join --parallel --telemetry-out``
    is appending to (every row is line-flushed, so tailing sees samples
    as they land), repainting one plain-text frame per refresh with an
    ANSI clear on TTYs. Exits when the run writes its final row, when
    ``--duration`` elapses, or immediately after one frame with
    ``--once``.
    """
    import time as _time

    from repro.obs.timeseries import TelemetryView

    for flag, value in (("--refresh", args.refresh),
                        ("--duration", args.duration)):
        if value is not None and not (math.isfinite(value) and value > 0):
            print(f"top: {flag} must be finite and > 0, got {value}",
                  file=sys.stderr)
            return 2
    if _other_family("top", args.input, "telemetry"):
        return 2
    try:
        handle = open(args.input, "r", encoding="utf-8")
    except OSError as error:
        print(f"top: {error}", file=sys.stderr)
        return 2

    view = TelemetryView()
    pending = ""

    def pump() -> None:
        """Consume every complete line appended since the last call
        (a partially written final line stays buffered)."""
        nonlocal pending
        chunk = handle.read()
        if chunk:
            pending += chunk
        while "\n" in pending:
            line, pending = pending.split("\n", 1)
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            view.feed(row)

    started = _time.monotonic()
    try:
        with handle:
            while True:
                pump()
                frame = view.render()
                if args.once:
                    print(frame)
                    return 0
                if sys.stdout.isatty():  # pragma: no cover - interactive only
                    print(f"\x1b[2J\x1b[H{frame}", flush=True)
                else:
                    print(frame, end="\n\n", flush=True)
                if view.final is not None:
                    return 0
                if (
                    args.duration is not None
                    and _time.monotonic() - started >= args.duration
                ):
                    return 0
                _time.sleep(args.refresh)
    except KeyboardInterrupt:
        # Ctrl-C is the normal way to leave a live monitor, not an error.
        print()
        return 0


def _cmd_telemetry(args) -> int:
    """``repro telemetry``: analyze (or smoke-gate) a telemetry file."""
    from repro.obs.timeseries import (
        load_telemetry_jsonl,
        split_telemetry,
        telemetry_smoke,
        telemetry_summary,
        validate_telemetry_lines,
    )

    if _other_family("telemetry", args.input, "telemetry"):
        return 2
    try:
        rows = load_telemetry_jsonl(args.input)
    except (OSError, ValueError) as error:
        print(f"telemetry: {error}", file=sys.stderr)
        return 2

    if args.smoke:
        failures = telemetry_smoke(rows)
        if failures:
            for failure in failures:
                print(f"telemetry smoke FAIL: {failure}", file=sys.stderr)
            return 1
        header, body = split_telemetry(rows)
        samples = sum(1 for row in body if row.get("kind") == "sample")
        final = next(row for row in body if row.get("kind") == "final")
        print(f"telemetry smoke ok: {samples} samples from "
              f"{header['workers']} workers, interval {header['interval']}s, "
              f"wall {final['wall_s']:.4f}s")
        return 0

    errors = validate_telemetry_lines(rows)
    if errors:
        for error in errors:
            print(f"telemetry: {args.input}: {error}", file=sys.stderr)
        return 2

    summary = telemetry_summary(rows)
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
        return 0

    header, body = split_telemetry(rows)
    final = summary["final"]
    print(f"{args.input}: {sum(1 for r in body if r.get('kind') == 'sample')} "
          f"samples, executor={summary['executor']} "
          f"workers={header['workers']} interval={summary['interval']}s"
          + (f" wall={final['wall_s']:.4f}s" if final else " (no final row)"))
    worker_rows = []
    for worker, entry in summary["workers"].items():
        worker_rows.append({
            "worker": worker,
            "samples": entry["samples"],
            "records": entry["records"],
            "matches": entry["matches"],
            "busy_s": round(entry["busy_s"], 4),
            "postings": entry["live_postings"],
            "rss_mb": round(entry["rss_bytes"] / (1024 * 1024), 1),
            "peak_rec_per_s": entry["peak_records_per_s"],
        })
    if worker_rows:
        print(format_table(worker_rows, title="\nper-worker telemetry "
                                              "(latest sample + peak rate)"))
    health = summary["health_events"]
    if health:
        flags = ", ".join(
            f"{count} {severity}" for severity, count in sorted(health.items())
        )
        print(f"\nhealth events: {flags}")
        for row in body:
            if row.get("kind") == "health":
                print(f"[{row['severity']:>8}] t={row['time']:.4f}s "
                      f"{row['detector']}: {row['message']}")
    else:
        print("\nhealth events: none")
    return 0


def _cmd_diff(args) -> int:
    try:
        baseline = load_fingerprint(args.baseline)
        current = load_fingerprint(args.current)
        verdict = compare_fingerprints(baseline, current, rel_tol=args.rel_tol)
    except (OSError, ValueError) as error:
        print(f"diff: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(verdict, indent=1, sort_keys=True))
    else:
        print(render_verdict(verdict))
    return 0 if verdict["status"] == "ok" else 1


def _cmd_explain(args) -> int:
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


def _cmd_generate(args) -> int:
    builder = CORPUS_BUILDERS[args.corpus]
    kwargs = {"seed": args.seed}
    if args.duplicate_rate is not None:
        kwargs["duplicate_rate"] = args.duplicate_rate
    try:
        stream = builder(args.records, **kwargs)
    except ValueError as error:  # bad --records or --duplicate-rate
        print(f"generate: {error}", file=sys.stderr)
        return 2
    try:
        count = save_token_file(args.output, stream)
    except OSError as error:
        print(f"generate: {error}", file=sys.stderr)
        return 2
    print(f"wrote {count} records to {args.output}")
    return 0


def _cmd_stats(args) -> int:
    from repro.streams.stream import count_repeats
    from repro.streams.window import SlidingWindow

    try:
        window = SlidingWindow(args.window)
        stream = load_token_file(
            args.input, rate=args.rate, max_records=args.max_records
        )[0]
    except (OSError, ValueError) as error:
        print(f"stats: {error}", file=sys.stderr)
        return 2
    row = stream.statistics().as_row()
    # Records repeating an earlier record's exact token set (DESIGN §9.2).
    repeats, in_window = count_repeats(stream, window)
    row["repeats"] = repeats
    if window.bounded:
        row["in_window_pct"] = (
            round(100.0 * in_window / repeats, 1) if repeats else 0.0
        )
    print(format_table([row]))
    return 0


def _cmd_history(args) -> int:
    """``repro history``: the longitudinal view over the run archive."""
    from repro.obs.archive import (
        DEFAULT_ARCHIVE_PATH,
        RunArchive,
        default_archive_path,
    )

    # --db wins; otherwise the auto-capture location, falling back to
    # the well-known default even when REPRO_ARCHIVE disables capture
    # (reading an existing archive is always allowed).
    path = args.db or default_archive_path() or DEFAULT_ARCHIVE_PATH
    handler = _HISTORY_COMMANDS[args.history_command]
    for flag in ("limit", "last"):  # run counts; SQLite reads LIMIT -1 as "all"
        count = getattr(args, flag, None)
        if count is not None and count < 1:
            print(f"history: --{flag} must be >= 1, got {count}",
                  file=sys.stderr)
            return 2
    try:
        with RunArchive(path, create=False) as archive:
            return handler(args, archive)
    except ValueError as error:  # ArchiveError, or a gate's bad tolerance
        print(f"history: {error}", file=sys.stderr)
        return 2


def _resolve_run(archive, token: str) -> int:
    """A run id argument: a number or the literal ``last``."""
    from repro.obs.archive import ArchiveError

    if token == "last":
        run_id = archive.latest_run_id()
        if run_id is None:
            raise ArchiveError(f"{archive.path}: archive is empty")
        return run_id
    try:
        return int(token)
    except ValueError:
        raise ArchiveError(
            f"bad run id {token!r} (expected a number or 'last')"
        ) from None


def _history_list(args, archive) -> int:
    runs = archive.list_runs(
        command=args.filter_command, method=args.method,
        workers=args.workers, limit=args.limit,
    )
    if args.json:
        print(json.dumps(runs, indent=1, sort_keys=True))
        return 0
    if not runs:
        print("history: no archived runs match")
        return 0
    rows = []
    for run in runs:
        sha = (run["git_sha"] or "")[:8]
        if sha and run["git_dirty"]:
            sha += "*"
        rows.append({
            "run": run["id"],
            "when": time.strftime(
                "%Y-%m-%d %H:%M", time.localtime(run["created_utc"])
            ),
            "command": run["command"],
            "method": run["method"] or "-",
            "workers": run["workers"] if run["workers"] is not None else "-",
            "shards": run["shards"] if run["shards"] is not None else "-",
            "records": run["records"] if run["records"] is not None else "-",
            "results": run["results"] if run["results"] is not None else "-",
            "wall_s": (
                round(run["wall_s"], 4) if run["wall_s"] is not None else "-"
            ),
            "sha": sha or "-",
        })
    print(format_table(rows))
    return 0


def _history_show(args, archive) -> int:
    summary = archive.run_summary(_resolve_run(archive, args.run))
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
        return 0
    run = summary["run"]
    print(f"run {run['id']}: {run['command']} "
          f"method={run['method'] or '-'} "
          f"workers={run['workers']} shards={run['shards']}")
    when = time.strftime(
        "%Y-%m-%d %H:%M:%S", time.localtime(run["created_utc"])
    )
    sha = (run["git_sha"] or "none")[:12] + ("*" if run["git_dirty"] else "")
    print(f"  when {when}  git {sha}  host {run['host']} "
          f"({run['platform']}, python {run['python']}, {run['cpus']} cpus)")
    wall = f"{run['wall_s']:.4f}s" if run["wall_s"] is not None else "-"
    rss = (
        f"{run['peak_rss_bytes'] / 1e6:.1f}MB"
        if run["peak_rss_bytes"] else "-"
    )
    print(f"  records {run['records']}  results {run['results']}  "
          f"wall {wall}  peak rss {rss}")
    if run["argv"]:
        print(f"  argv {' '.join(json.loads(run['argv']))}")
    if run["config_json"]:
        config = json.loads(run["config_json"])
        keys = ("similarity", "threshold", "distribution", "partitioning",
                "window_seconds", "expiry", "batch_size")
        print("  config " + " ".join(
            f"{key}={config[key]}" for key in keys if key in config
        ))
    observables = summary["observables"]
    for kind in ("exact", "banded", "signal", "worker"):
        values = observables.get(kind)
        if not values:
            continue
        print(f"  {kind}:")
        for name, value in sorted(values.items()):
            print(f"    {name} = {value:g}")
    if summary["stages"]:
        print("  stage latency:")
        for stage, entry in sorted(summary["stages"].items()):
            print(f"    {stage}: n={entry['count']} "
                  f"mean={entry['mean_s'] * 1e3:.3f}ms "
                  f"p50={entry['p50_s'] * 1e3:.3f}ms "
                  f"p95={entry['p95_s'] * 1e3:.3f}ms "
                  f"p99={entry['p99_s'] * 1e3:.3f}ms")
    if summary["span_totals"]:
        print("  span totals:")
        for actor, phases in sorted(summary["span_totals"].items()):
            mix = " ".join(
                f"{phase}={seconds:.4f}s"
                for phase, seconds in sorted(phases.items())
            )
            print(f"    {actor}: {mix}")
    if summary["health"]:
        print(f"  health events ({len(summary['health'])}):")
        for event in summary["health"]:
            print(f"    [{event['severity']}] {event['detector']} "
                  f"t={event['time_s']}: {event['message']}")
    return 0


def _history_compare(args, archive) -> int:
    baseline_id = _resolve_run(archive, args.baseline)
    current_id = _resolve_run(archive, args.current)
    baseline = archive.fingerprint(baseline_id)
    current = archive.fingerprint(current_id)
    verdict = compare_fingerprints(baseline, current, rel_tol=args.rel_tol)
    if args.json:
        print(json.dumps(verdict, indent=1, sort_keys=True))
    else:
        print(f"comparing run {baseline_id} (baseline) vs run {current_id}")
        print(render_verdict(verdict))
    return 0 if verdict["status"] == "ok" else 1


def _history_trend(args, archive) -> int:
    from repro.obs.archive import linear_slope
    from repro.obs.timeseries import sparkline

    points = archive.metric_series(
        args.metric, command=args.filter_command, method=args.method,
        workers=args.workers, last=args.last,
    )
    values = [value for _run_id, value in points]
    slope = linear_slope(values)
    if args.json:
        print(json.dumps({
            "metric": args.metric,
            "points": [
                {"run": run_id, "value": value} for run_id, value in points
            ],
            "min": min(values) if values else None,
            "max": max(values) if values else None,
            "slope": slope,
        }, indent=1, sort_keys=True))
        return 0
    if not points:
        print(f"history: no archived runs carry metric {args.metric!r}")
        return 0
    low = min(values)
    spark = sparkline([value - low for value in values], width=len(values))
    print(f"{args.metric}  {spark}  last={values[-1]:g}  "
          f"min={low:g} max={max(values):g}  "
          f"slope={slope:+.4g}/run  ({len(values)} runs: "
          f"{points[0][0]}..{points[-1][0]})")
    return 0


def _history_check(args, archive) -> int:
    from repro.obs.archive import render_check

    run_id = _resolve_run(archive, args.run) if args.run is not None else None
    verdict = archive.check(
        run_id, metrics=args.metric, last=args.last,
        tolerance=args.tolerance,
    )
    if args.json:
        print(json.dumps(verdict, indent=1, sort_keys=True))
    else:
        print(render_check(verdict))
    return 1 if verdict["status"] == "regression" else 0


_HISTORY_COMMANDS = {
    "list": _history_list,
    "show": _history_show,
    "compare": _history_compare,
    "trend": _history_trend,
    "check": _history_check,
}


_COMMANDS = {
    "join": _cmd_join,
    "bench": _cmd_bench,
    "trace": _cmd_trace,
    "spans": _cmd_spans,
    "top": _cmd_top,
    "telemetry": _cmd_telemetry,
    "diff": _cmd_diff,
    "explain": _cmd_explain,
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "history": _cmd_history,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # The raw argv is archived with each run as provenance.
    args.argv_raw = list(argv) if argv is not None else sys.argv[1:]
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # The reader closed stdout early (``repro join --pairs | head``):
        # stop quietly, like a filter killed by SIGPIPE. Point stdout at
        # the null device so the exit-time flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE: what a shell reports for that kill


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
