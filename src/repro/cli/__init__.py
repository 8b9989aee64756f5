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

This package holds the parser (every command's flags) and :func:`main`.
Each command is its own module, ``repro.cli.<command>``, with a
``run(args) -> int``; helpers shared by the commands that run a join
are :mod:`repro.cli.common`, and those shared by the artefact readers
:mod:`repro.cli.readers`. :func:`main` imports only the chosen
command's module, so a run compiles the parser and that command's code,
not every command's.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
from typing import List, Optional

from repro.datasets.corpora import CORPUS_BUILDERS
from repro.obs.rectrace import DEFAULT_TRACE_SAMPLE

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


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # The raw argv is archived with each run as provenance.
    args.argv_raw = list(argv) if argv is not None else sys.argv[1:]
    # Only the chosen command's module is imported (and so compiled).
    command = importlib.import_module(f"{__name__}.{args.command}")
    try:
        return command.run(args)
    except BrokenPipeError:
        # The reader closed stdout early (``repro join --pairs | head``):
        # stop quietly, like a filter killed by SIGPIPE. Point stdout at
        # the null device so the exit-time flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE: what a shell reports for that kill
