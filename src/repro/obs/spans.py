"""Wall-clock spans: where the real time of a parallel run goes.

The obs stack so far explains *logical* cost — metered operations over
the simulated clock. The multiprocessing runtime (``repro.parallel``)
spends real seconds in places the meters cannot see: walking the
records, probing, flushing meters, shipping result rows, merging. This
module is the wall-clock counterpart of the simulated busy/idle
timeline (:mod:`repro.obs.timeline`): the span vocabulary (the
batch-scoped rows of the per-actor
:class:`~repro.obs.eventlog.EventLog` that driver and workers thread
through their hot paths), the canonical JSONL artefact
(``--spans-out``) and its schema, and the analysis behind ``python -m
repro spans`` — per-worker phase breakdowns, a per-window critical
path, and an ASCII waterfall reusing
:class:`~repro.obs.timeline.TimelineRecorder`.

Design constraints, in order:

* **Overhead must be budgeted, not assumed.** Recording a span is five
  array-slot stores into preallocated typed arrays — no allocation, no
  dict, no object per span. The log measures its own per-record cost
  at startup (a short calibration burst) and the file header reports
  ``count x mean cost``, so a reader can subtract the instrument from
  the measurement.
* **Determinism where it can exist.** Durations are wall time and vary
  run to run, but span *structure* — how many spans of which phase hit
  which shard — is a pure function of the shard plan and batch size,
  independent of the worker count (the same argument as the match/meter
  equality in DESIGN §10.3). ``--spans-sample N`` downsamples by batch
  *index* (every Nth batch of each shard), never by wall clock, so
  sampling preserves that determinism.
* **One clock.** All timestamps are ``time.monotonic()``, which is
  CLOCK_MONOTONIC system-wide on POSIX and therefore comparable across
  the driver and forked workers; the artefact rebases everything to the
  run start so spans read as seconds into the run.

Phases (the driver records the driver set with ``worker == -1``)::

    setup       plan shards from the corpus head, spawn workers (each is
                handed the stream and the plan as start-up arguments)
    drain       the driver waiting on every worker's pipe and consuming
                its frames, until the last worker's summary
    merge       canonical match sort + meter summation
    route       a worker's own walk over the published records between
                two batches: plan lookups, fanout tally, buffer appends
    probe       probe calls of one batch (accumulated, tiled from the
                batch start — probes and inserts interleave per record,
                so positions within a batch are approximate while the
                per-phase *totals* are exact)
    insert      insert calls of one batch (tiled after probe)
    meter_flush the one charge_many/event_many flush per batch
    pipe_write  a worker shipping one batch's match rows — only batches
                that produced rows have one (none in a count-only run)

No worker phase contains the emit: a collecting worker appends a
probe's rows to its emit buffer after the probe's end stamp, so that
time is the part of a batch no span covers (a count-only run has no
emit). A file naming any other phase is refused.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.artefact import check_fields, load_jsonl_objects, split_document
from repro.obs.timeline import TimelineRecorder

SPANS_SCHEMA_VERSION = 1

#: Phase names in stage-byte order (the stage byte of a batch-scoped
#: row of the event log; an id never leaves its run — the ``phase``
#: field of every JSONL span line carries the name).
PHASES = (
    "setup",
    "pipe_write",
    "drain",
    "merge",
    "probe",
    "insert",
    "meter_flush",
    "route",
)
PHASE_ID: Dict[str, int] = {name: i for i, name in enumerate(PHASES)}

#: What each actor records in every run, in reporting order.
DRIVER_PHASES = ("setup", "drain", "merge")
WORKER_PHASES = ("route", "probe", "insert", "meter_flush")
#: A worker's per-batch result ship, only in a run that produced rows,
#: so reported when a worker has it.
SHIP_PHASES = ("pipe_write",)

#: Worker id of driver-recorded spans.
DRIVER = -1

#: Required fields of a span line and their types (header line aside).
SPAN_SCHEMA: Dict[str, type] = {
    "kind": str,      # "span"
    "phase": str,     # one of PHASES
    "worker": int,    # -1 for the driver
    "shard": int,     # -1 when the span is not shard-attributed
    "batch": int,     # per-shard batch index (-1 when not batch-scoped)
    "start": float,   # seconds since run start (monotonic, rebased)
    "end": float,
}


# -- the JSONL artefact ------------------------------------------------------

def load_spans_jsonl(path: str) -> List[Dict[str, object]]:
    """All lines of a span dump as dicts (pointed errors on corruption)."""
    return load_jsonl_objects(path, "span")


def validate_span_lines(rows: Iterable[Dict[str, object]]) -> List[str]:
    """Schema errors of a whole span dump (empty list = valid)."""
    errors: List[str] = []
    rows = list(rows)
    if not rows:
        return ["empty spans file"]
    header = rows[0]
    if header.get("kind") != "header":
        errors.append("first line is not a header")
    else:
        if header.get("schema") != SPANS_SCHEMA_VERSION:
            errors.append(f"unsupported spans schema {header.get('schema')!r}")
        for key in ("wall_s", "executor", "workers", "shards", "sample", "overhead"):
            if key not in header:
                errors.append(f"header: missing field {key!r}")
    for index, row in enumerate(rows[1:]):
        if row.get("kind") != "span":
            errors.append(f"line {index + 2}: kind is not 'span'")
            continue
        errors.extend(
            f"span {index}: {error}" for error in check_fields(row, SPAN_SCHEMA)
        )
        phase = row.get("phase")
        if isinstance(phase, str) and phase not in PHASE_ID:
            errors.append(f"span {index}: unknown phase {phase!r}")
        start, end = row.get("start"), row.get("end")
        if (
            isinstance(start, (int, float))
            and isinstance(end, (int, float))
            and end < start
        ):
            errors.append(f"span {index}: ends before it starts ({start} > {end})")
    return errors


def split_rows(
    rows: Sequence[Dict[str, object]],
) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """(header, span rows) of a loaded dump; raises on a missing header."""
    return split_document(rows, "spans", "span")


# -- analysis ---------------------------------------------------------------

def _sum_phase(spans, phase: str, worker: Optional[int] = None) -> float:
    total = 0.0
    for row in spans:
        if row["phase"] != phase:
            continue
        if worker is not None and row["worker"] != worker:
            continue
        total += row["end"] - row["start"]
    return total


def phase_totals(rows: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Per-actor seconds by phase, plus the driver's wall coverage.

    The driver's windows (``setup``/``drain``/``merge``) tile the run,
    so their sum over the wall time — ``driver_coverage`` — measures
    how much of the run the span pipeline accounts for (the bench gate
    wants it within 5% of 1). Each worker's dict holds its phases plus
    ``pipe_write`` when some worker shipped rows. Worker phase totals
    are reported as recorded (with ``sample > 1`` they undercount by
    design — the header says so).
    """
    header, spans = split_rows(rows)
    wall = float(header.get("wall_s", 0.0)) or 0.0
    by_workers = {row["phase"] for row in spans if row["worker"] != DRIVER}
    worker_phases = WORKER_PHASES + tuple(
        phase for phase in SHIP_PHASES if phase in by_workers
    )

    driver = {phase: _sum_phase(spans, phase, DRIVER) for phase in DRIVER_PHASES}
    covered = sum(driver.values())

    workers: Dict[str, Dict[str, float]] = {}
    for row in spans:
        worker = row["worker"]
        if worker == DRIVER:
            continue
        entry = workers.setdefault(
            str(worker), {phase: 0.0 for phase in worker_phases}
        )
        entry[row["phase"]] += row["end"] - row["start"]

    return {
        "wall_s": wall,
        "driver": {phase: round(seconds, 6) for phase, seconds in driver.items()},
        "driver_covered_s": round(covered, 6),
        "driver_coverage": round(covered / wall, 4) if wall > 0 else 0.0,
        "workers": {
            worker: {phase: round(value, 6) for phase, value in entry.items()}
            for worker, entry in sorted(workers.items(), key=lambda kv: int(kv[0]))
        },
    }


def _clip(spans, worker, lo: float, hi: float) -> float:
    """Summed overlap of a worker's spans with [lo, hi]."""
    total = 0.0
    for row in spans:
        if row["worker"] != worker:
            continue
        overlap = min(row["end"], hi) - max(row["start"], lo)
        if overlap > 0:
            total += overlap
    return total


def critical_path(rows: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """The run as a chain of driver windows, each attributed to the
    actor that bounds it.

    Algorithm: the driver's ``setup → drain → merge`` spans partition
    the run into serial windows (they cannot overlap — the driver is
    one thread). The critical actor of ``setup`` and ``merge`` is the
    driver (no concurrent work exists); that of ``drain`` is the
    straggler worker the driver is blocked on — whichever worker's
    spans, clipped to the window, cover most of it. Summing the window
    durations reproduces the covered wall time, so the chain *is* a
    critical path: shortening a window's critical actor shortens the
    run.
    """
    header, spans = split_rows(rows)
    workers = sorted(
        {row["worker"] for row in spans if row["worker"] != DRIVER}
    )
    out: List[Dict[str, object]] = []
    for stage in DRIVER_PHASES:
        stage_spans = [
            row for row in spans if row["worker"] == DRIVER and row["phase"] == stage
        ]
        if not stage_spans:
            continue
        lo = min(row["start"] for row in stage_spans)
        hi = max(row["end"] for row in stage_spans)
        duration = sum(row["end"] - row["start"] for row in stage_spans)
        critical, busy = "driver", duration
        if stage == "drain" and workers:
            clipped = {
                worker: _clip(spans, worker, lo, hi)
                for worker in workers
            }
            straggler = max(clipped, key=lambda w: (clipped[w], -w))
            critical, busy = f"worker {straggler}", clipped[straggler]
        out.append(
            {
                "stage": stage,
                "start": round(lo, 6),
                "seconds": round(duration, 6),
                "critical": critical,
                "busy_s": round(busy, 6),
                "utilisation": round(busy / duration, 4) if duration > 0 else 0.0,
            }
        )
    return out


def waterfall(rows: Sequence[Dict[str, object]], width: int = 60) -> str:
    """ASCII stage waterfall: one timeline row per (phase, actor).

    Reuses :class:`~repro.obs.timeline.TimelineRecorder` — component is
    the phase name, task the worker id (-1 = driver), the time axis is
    wall seconds since run start."""
    header, spans = split_rows(rows)
    recorder = TimelineRecorder()
    for row in sorted(spans, key=lambda r: (r["phase"], r["worker"], r["start"])):
        start, end = row["start"], row["end"]
        if end < start:
            continue
        recorder.record(row["phase"], row["worker"], start, end)
    wall = float(header.get("wall_s", 0.0)) or 0.0
    if wall > recorder.horizon:
        recorder.horizon = wall
    return recorder.render(width=width, axis="wall")


def smoke_check(rows: Sequence[Dict[str, object]]) -> List[str]:
    """The ``repro spans --smoke`` gate: schema-valid, every expected
    phase present, the driver recording driver phases only, and no
    actor's phase totals exceeding the wall time. Returns failure
    strings (empty = pass)."""
    failures = validate_span_lines(rows)
    if failures:
        return failures
    header, spans = split_rows(rows)
    wall = float(header.get("wall_s", 0.0))
    if wall <= 0:
        failures.append(f"header wall_s is not positive: {wall}")
        return failures
    present = {row["phase"] for row in spans}
    expected = set(DRIVER_PHASES)
    if int(header.get("batches", 1)):
        expected |= {"probe", "insert", "meter_flush"}
    for phase in sorted(expected):
        if phase not in present:
            failures.append(f"no span covers phase {phase!r}")
    for phase in sorted(
        {row["phase"] for row in spans if row["worker"] == DRIVER}
        - set(DRIVER_PHASES)
    ):
        failures.append(f"driver recorded {phase!r}, a worker phase")

    budget = wall * 1.02 + 1e-6
    totals = phase_totals(rows)
    covered = totals["driver_covered_s"]
    if covered > budget:
        failures.append(
            f"driver phase totals ({covered:.6f}s) exceed wall time ({wall:.6f}s)"
        )
    for worker, entry in totals["workers"].items():
        exec_total = sum(entry.values())
        if exec_total > budget:
            failures.append(
                f"worker {worker} phase totals ({exec_total:.6f}s) exceed "
                f"wall time ({wall:.6f}s)"
            )
    return failures
