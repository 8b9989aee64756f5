"""``repro telemetry``: analyze (or smoke-gate) a telemetry file."""

from __future__ import annotations

import json
import sys

from repro.bench.report import format_table
from repro.cli.readers import other_family
from repro.obs.timeseries import (
    load_telemetry_jsonl,
    split_telemetry,
    telemetry_smoke,
    telemetry_summary,
    validate_telemetry_lines,
)


def run(args) -> int:
    if other_family("telemetry", args.input, "telemetry"):
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
