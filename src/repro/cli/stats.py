"""``repro stats``: describe a token file."""

from __future__ import annotations

import sys

from repro.bench.report import format_table
from repro.datasets.loader import load_token_file
from repro.streams.stream import count_repeats
from repro.streams.window import SlidingWindow


def run(args) -> int:
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
