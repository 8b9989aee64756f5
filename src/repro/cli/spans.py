"""``repro spans``: analyze (or smoke-gate) a wall-clock spans file."""

from __future__ import annotations

import json
import sys

from repro.bench.report import format_table
from repro.cli.readers import other_family, overhead_line
from repro.obs.chrome import spans_to_chrome, write_chrome
from repro.obs.spans import (
    critical_path,
    load_spans_jsonl,
    phase_totals,
    smoke_check,
    split_rows,
    validate_span_lines,
    waterfall,
)


def write_chrome_spans(path: str, rows) -> int:
    """Export a loaded spans artefact as a Chrome trace-event file."""
    return write_chrome(path, spans_to_chrome(rows))


def run(args) -> int:
    if args.width < 10:
        print(f"spans: --width must be >= 10, got {args.width}",
              file=sys.stderr)
        return 2
    if other_family("spans", args.input, "spans"):
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
    print(overhead_line(header))

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
