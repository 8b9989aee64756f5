"""Helpers the commands that run a join share: the obs flags, the
artefacts they ask for, and the run archive's best-effort capture."""

from __future__ import annotations

import os
import sys
from typing import Optional

from repro.obs.exporters import write_metrics
from repro.obs.observer import RunObserver
from repro.obs.rectrace import DEFAULT_TRACE_SAMPLE


def bad_trace_sample(args) -> bool:
    """Print the pointed error for a non-positive ``--trace-sample``."""
    if args.trace_sample is not None and args.trace_sample < 1:
        print(f"{args.command}: --trace-sample must be >= 1, got "
              f"{args.trace_sample}", file=sys.stderr)
        return True
    return False


def trace_sample(args) -> int:
    """The rid stride ``--trace-sample`` asked for, or the default."""
    return args.trace_sample if args.trace_sample is not None else DEFAULT_TRACE_SAMPLE


def make_observer(args) -> Optional[RunObserver]:
    """An observer matching the obs flags (None if nothing requested)."""
    want_trace = args.trace_out is not None or args.command == "trace"
    want_health = args.health_out is not None
    if not (want_trace or args.timeline or args.metrics_out or want_health):
        return None
    return RunObserver.create(
        trace_sample=trace_sample(args) if want_trace else 0,
        timeline=args.timeline or args.command == "trace",
        health=want_health,
    )


def trace_line(path: str, lines: int, header) -> str:
    return (f"trace: {lines} lines -> {path} ({header['traced']} records, "
            f"{header['events']} events, sample {header['sample']})")


def write_artifacts(observer, report, args, label: str = "") -> None:
    """Write/print whatever the obs flags asked for."""
    suffix = f".{label}" if label else ""
    if args.trace_out and observer is not None and observer.trace is not None:
        path = _suffixed(args.trace_out, suffix)
        lines = observer.write_trace(path)
        print(trace_line(path, lines, observer.trace[0]))
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


def archive_capture(args, record, stream=None) -> None:
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
