"""Record tracing: follow one record through either runtime.

Spans (:mod:`repro.obs.spans`) explain where a parallel run's *actors*
spend wall time; this module explains what a single *record*
experiences — the probe→emit→insert path a sampled record takes on
every shard it reaches, stamped inside the workers and reassembled by
the driver into per-record event trees and per-stage latency digests.
The simulated cluster (:mod:`repro.storm.cluster`) writes the same
artefact on its simulated clock: its join task *t* is worker and shard
*t*, and its source, dispatch and sink tasks are actor ``-1`` — the
role the driver plays in the parallel runtime (DESIGN §8.1).

Design constraints, mirroring the span pipeline:

* **No trace context is passed around.** Sampling is a pure function
  of the record id — ``rid % sample == 0`` — so every worker agrees on
  the traced set on its own. The traced-rid set is therefore identical
  across worker counts, batch sizes and executors, and so is each
  record's event *structure* (which events hit which shard): events
  per rid are determined by the shard plan alone (one
  ``probe``/``insert`` per PROBE/INDEX op; one ``match_emit`` per probe
  that found matches).
* **O(1) recording.** A trace event is a record-scoped row of the
  actor's :class:`~repro.obs.eventlog.EventLog` — the same five
  preallocated typed-array columns the spans use (stage u8, shard i32,
  key i64 = rid, start/end f64): no allocation, no dict, no object per
  event — shipped inside the worker's run-end summary frame.
* **One clock.** All stamps are ``time.monotonic()`` (CLOCK_MONOTONIC
  system-wide on POSIX, comparable across processes of one host); the
  driver rebases everything to the run start, exactly like spans.
* **Observables are untouched.** The instrumented batch path issues
  the identical engine and meter calls in identical order; the
  differential grid pins match rows, meter totals and fingerprints
  bit-identical with tracing on or off at any sampling rate.

The artefact (``--trace-out``, built by :func:`rectrace_header`
whichever runtime ran) is JSONL: one header line (``artefact:
"rectrace"`` — what ``repro trace FILE`` sniffs for), then one event
object per line; a file naming an event outside :data:`TRACE_EVENTS`
is refused. The derived stage ``e2e`` (first stamp to last stamp per
record) joins the recorded events in the latency digest. The header
digest (:func:`latency_digest`) and the metrics export
(:func:`latency_metrics`) reduce the same per-stage durations through
the one latency reservoir, :class:`~repro.obs.registry.Histogram`, so
they report identical quantiles.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.artefact import check_fields, load_jsonl_objects, split_document
from repro.obs.registry import Histogram

RECTRACE_SCHEMA_VERSION = 1

#: The artefact discriminator carried in the header line; ``repro
#: trace FILE`` sniffs for it to tell a rectrace artefact from a token
#: file.
RECTRACE_ARTEFACT = "rectrace"

#: Event names in stage-byte order (the low bits of the stage byte of
#: a record-scoped row of the event log; an id never leaves its run —
#: the ``event`` field of every JSONL event line carries the name).
#: Workers stamp ``probe`` / ``insert`` / ``match_emit``. The simulated
#: cluster stamps the last five plus ``probe`` / ``insert``: a
#: zero-width ``emit`` at the source, a ``queue`` wait (delivery →
#: service start) when a hop waited, and one service window per hop
#: named after its component.
TRACE_EVENTS = (
    "probe",
    "insert",
    "match_emit",
    "emit",
    "queue",
    "dispatch",
    "join",
    "sink",
)
EVENT_ID: Dict[str, int] = {name: i for i, name in enumerate(TRACE_EVENTS)}

#: Stages of the latency digest: every event plus the derived ``e2e``
#: (first stamp → last stamp per record).
TRACE_STAGES = TRACE_EVENTS + ("e2e",)

#: Default deterministic sampling stride: trace every record whose rid
#: is a multiple of 16 (~6% of a dense rid space) — cheap enough to
#: leave on, dense enough that short runs still trace several records.
DEFAULT_TRACE_SAMPLE = 16

#: Required fields of an event line and their types (header aside).
EVENT_SCHEMA: Dict[str, type] = {
    "kind": str,    # "event"
    "event": str,   # one of TRACE_EVENTS
    "rid": int,     # the traced record id
    "worker": int,  # -1: the driver, or a simulated source/dispatch/sink
    "shard": int,   # -1 when the event is not shard-attributed
    "start": float, # seconds since run start (simulated on the simulator)
    "end": float,
}


# -- the JSONL artefact ------------------------------------------------------

def load_rectrace_jsonl(path: str) -> List[Dict[str, object]]:
    """All lines of a rectrace dump as dicts (pointed errors)."""
    return load_jsonl_objects(path, "trace")


def validate_rectrace_lines(rows: Iterable[Dict[str, object]]) -> List[str]:
    """Schema errors of a whole rectrace dump (empty list = valid)."""
    errors: List[str] = []
    rows = list(rows)
    if not rows:
        return ["empty rectrace file"]
    header = rows[0]
    if header.get("kind") != "header":
        errors.append("first line is not a header")
    else:
        if header.get("artefact") != RECTRACE_ARTEFACT:
            errors.append(
                f"header artefact is {header.get('artefact')!r}, "
                f"expected {RECTRACE_ARTEFACT!r}"
            )
        if header.get("schema") != RECTRACE_SCHEMA_VERSION:
            errors.append(f"unsupported rectrace schema {header.get('schema')!r}")
        for key in ("wall_s", "executor", "workers", "shards", "sample",
                    "records", "traced", "stages"):
            if key not in header:
                errors.append(f"header: missing field {key!r}")
    sample = header.get("sample")
    for index, row in enumerate(rows[1:]):
        if row.get("kind") != "event":
            errors.append(f"line {index + 2}: kind is not 'event'")
            continue
        errors.extend(
            f"event {index}: {error}" for error in check_fields(row, EVENT_SCHEMA)
        )
        event = row.get("event")
        if isinstance(event, str) and event not in EVENT_ID:
            errors.append(f"event {index}: unknown event {event!r}")
        rid = row.get("rid")
        if (
            isinstance(rid, int)
            and isinstance(sample, int)
            and sample >= 1
            and rid % sample != 0
        ):
            errors.append(
                f"event {index}: rid {rid} is not a multiple of the "
                f"header's sample stride {sample}"
            )
        start, end = row.get("start"), row.get("end")
        if (
            isinstance(start, (int, float))
            and isinstance(end, (int, float))
            and end < start
        ):
            errors.append(f"event {index}: ends before it starts ({start} > {end})")
    return errors


def rectrace_header(
    rows: List[Dict[str, object]],
    shape: Dict[str, object],
    records: int,
    sample: int,
    overhead: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The header line of a rectrace document, for either runtime.

    Sorts ``rows`` (event dicts, :func:`~repro.obs.eventlog.log_rows`
    shape) in place into per-record stamp order — the order the file
    is written in — and digests them. ``shape`` carries the run-shape
    fields (``wall_s``, ``executor``, ``workers``, ``shards`` and, on
    the parallel runtime, ``batch_size``); ``overhead``
    is the event log's self-measured cost, absent on the simulator,
    whose clock the recorder does not advance."""
    rows.sort(key=lambda r: (r["rid"], r["start"], r["end"], r["worker"]))
    header: Dict[str, object] = {
        "kind": "header",
        "artefact": RECTRACE_ARTEFACT,
        "schema": RECTRACE_SCHEMA_VERSION,
        **shape,
        "records": records,
        "sample": sample,
        "traced": len({row["rid"] for row in rows}),
        "events": len(rows),
        "stages": latency_digest(rows),
    }
    if overhead is not None:
        header["overhead"] = overhead
    return header


def split_rectrace(
    rows: Sequence[Dict[str, object]],
) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """(header, event rows) of a loaded dump; raises without a header."""
    return split_document(rows, "rectrace", "event")


# -- analysis ---------------------------------------------------------------

def record_trees(
    rows: Sequence[Dict[str, object]],
) -> Dict[int, List[Dict[str, object]]]:
    """Per-record event trees: rid → its events in stamp order.

    Accepts either the full document or just event rows; ties on
    ``start`` break by event id, so a record's tree reads in
    pipeline order (probe, insert, match_emit)."""
    trees: Dict[int, List[Dict[str, object]]] = {}
    for row in rows:
        if row.get("kind") != "event":
            continue
        trees.setdefault(row["rid"], []).append(row)
    for events in trees.values():
        events.sort(key=lambda r: (r["start"], EVENT_ID[r["event"]], r["shard"]))
    return trees


def stage_durations(
    rows: Sequence[Dict[str, object]],
) -> Dict[str, List[float]]:
    """Per-stage duration samples: every recorded event contributes
    its own width, and each record its ``e2e`` (first stamp to last
    stamp)."""
    durations: Dict[str, List[float]] = {stage: [] for stage in TRACE_STAGES}
    bounds: Dict[int, Tuple[float, float]] = {}
    for row in rows:
        if row.get("kind") != "event":
            continue
        start, end = row["start"], row["end"]
        durations[row["event"]].append(end - start)
        rid = row["rid"]
        lo, hi = bounds.get(rid, (start, end))
        bounds[rid] = (min(lo, start), max(hi, end))
    for lo, hi in bounds.values():
        durations["e2e"].append(hi - lo)
    return durations


def latency_digest(
    rows: Sequence[Dict[str, object]],
) -> Dict[str, Dict[str, object]]:
    """p50/p95/p99 per-stage digest, each stage reduced through one
    :class:`~repro.obs.registry.Histogram` — the reservoir
    :func:`latency_metrics` exports. Stages with no samples are
    omitted."""
    digest: Dict[str, Dict[str, object]] = {}
    for stage, samples in stage_durations(rows).items():
        if not samples:
            continue
        histogram = Histogram()
        for value in samples:
            histogram.observe(value)
        digest[stage] = {
            "count": histogram.count,
            "mean_s": round(histogram.mean(), 9),
            "p50_s": round(histogram.quantile(0.50), 9),
            "p95_s": round(histogram.quantile(0.95), 9),
            "p99_s": round(histogram.quantile(0.99), 9),
        }
    return digest


def latency_metrics(rows: Sequence[Dict[str, object]], registry) -> None:
    """Fold per-stage latencies into ``registry`` as labeled
    histograms (``rectrace_stage_latency_seconds{stage=...}``), ready
    for the JSON/Prometheus exporters alongside the per-worker
    gauges — the same reductions :func:`latency_digest` writes into
    the artefact header."""
    for stage, samples in stage_durations(rows).items():
        if not samples:
            continue
        histogram = registry.histogram(
            "rectrace_stage_latency_seconds",
            help="per-record stage latency from the record trace",
            stage=stage,
        )
        for value in samples:
            histogram.observe(value)


def rectrace_smoke(rows: Sequence[Dict[str, object]]) -> List[str]:
    """The ``repro trace FILE --smoke`` gate: schema-valid, at least
    one traced record, every expected stage present and every stamp
    inside the run's wall time. Returns failure strings (empty =
    pass)."""
    failures = validate_rectrace_lines(rows)
    if failures:
        return failures
    header, events = split_rectrace(rows)
    wall = float(header.get("wall_s", 0.0))
    if wall <= 0:
        failures.append(f"header wall_s is not positive: {wall}")
        return failures
    trees = record_trees(events)
    if not trees:
        failures.append("no records were traced (sample stride too sparse?)")
        return failures
    if header.get("traced") != len(trees):
        failures.append(
            f"header says {header.get('traced')} traced records, "
            f"events cover {len(trees)}"
        )
    present = {row["event"] for row in events}
    for event in ("insert", "probe"):
        if event not in present:
            failures.append(f"no event covers stage {event!r}")
    budget = wall * 1.02 + 1e-6
    for row in events:
        if row["end"] > budget:
            failures.append(
                f"event {row['event']} of rid {row['rid']} ends at "
                f"{row['end']:.6f}s, past the wall time ({wall:.6f}s)"
            )
            break
    return failures


def slowest_records(
    rows: Sequence[Dict[str, object]], top: int = 5
) -> List[Dict[str, object]]:
    """The ``top`` traced records by end-to-end latency, each with a
    per-stage second breakdown and its shard-hop path."""
    out: List[Dict[str, object]] = []
    for rid, tree in record_trees(rows).items():
        lo = min(row["start"] for row in tree)
        hi = max(row["end"] for row in tree)
        stages: Dict[str, float] = {}
        for row in tree:
            stages[row["event"]] = (
                stages.get(row["event"], 0.0) + row["end"] - row["start"]
            )
        shards = sorted({row["shard"] for row in tree if row["shard"] >= 0})
        out.append(
            {
                "rid": rid,
                "e2e_s": round(hi - lo, 9),
                "events": len(tree),
                "shards": shards,
                "stages": {k: round(v, 9) for k, v in sorted(stages.items())},
            }
        )
    out.sort(key=lambda r: (-r["e2e_s"], r["rid"]))
    return out[:top]
