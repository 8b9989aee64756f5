"""``repro history``: the longitudinal view over the run archive."""

from __future__ import annotations

import json
import sys
import time

from repro.bench.report import format_table
from repro.obs.archive import (
    DEFAULT_ARCHIVE_PATH,
    ArchiveError,
    RunArchive,
    default_archive_path,
    linear_slope,
    render_check,
)
from repro.obs.baseline import compare_fingerprints, render_verdict
from repro.obs.timeseries import sparkline


def run(args) -> int:
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
