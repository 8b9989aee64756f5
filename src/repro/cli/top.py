"""``repro top``: curses-free live view over a telemetry stream."""

from __future__ import annotations

import json
import math
import sys
import time

from repro.cli.readers import other_family
from repro.obs.timeseries import TelemetryView


def run(args) -> int:
    """Tails the JSONL file a running ``join --parallel --telemetry-out``
    is appending to (every row is line-flushed, so tailing sees samples
    as they land), repainting one plain-text frame per refresh with an
    ANSI clear on TTYs. Exits when the run writes its final row, when
    ``--duration`` elapses, or immediately after one frame with
    ``--once``.
    """
    for flag, value in (("--refresh", args.refresh),
                        ("--duration", args.duration)):
        if value is not None and not (math.isfinite(value) and value > 0):
            print(f"top: {flag} must be finite and > 0, got {value}",
                  file=sys.stderr)
            return 2
    if other_family("top", args.input, "telemetry"):
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

    started = time.monotonic()
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
                    and time.monotonic() - started >= args.duration
                ):
                    return 0
                time.sleep(args.refresh)
    except KeyboardInterrupt:
        # Ctrl-C is the normal way to leave a live monitor, not an error.
        print()
        return 0
