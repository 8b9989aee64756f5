"""Tuple tracing: sampled per-tuple spans across every topology hop.

A *trace* follows one source record (keyed by its rid) through the
topology: the spout emission, the dispatcher hop, the join-bolt hop
(with child spans for the probe/verify and index phases) and the sink
hop. Every span carries simulated-clock timestamps split into queue
wait (delivery → service start) and service time (start → end), so a
trace shows exactly where a tuple's end-to-end latency went.

Sampling is deterministic — :class:`TraceSampler` keeps every
``stride``-th rid — so two runs of the same topology produce identical
traces, like everything else in the simulator.

Spans are dumped as JSONL (one JSON object per line) with a leading
header line (``kind: "header"``) naming the run's topology and
sampling; :func:`validate_span` checks the schema the smoke test and
CI rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.artefact import check_fields, load_jsonl_objects, write_jsonl
from repro.records import Record

#: Required fields of a span line and their types.
TRACE_SCHEMA: Dict[str, type] = {
    "kind": str,        # "span"
    "trace": int,       # rid of the traced source record
    "name": str,        # "emit" | "hop" | child-span names ("probe", ...)
    "component": str,
    "task": int,
    "stream": str,
    "enter": float,     # simulated time the tuple reached the task
    "start": float,     # simulated time service began
    "end": float,       # simulated time service finished
}


class TraceSampler:
    """Deterministic head sampler: keep rids divisible by ``stride``.

    ``stride=1`` traces everything; ``stride=100`` traces 1% of
    records. Unlike random sampling this is reproducible and spreads
    sampled records uniformly over the run.
    """

    def __init__(self, stride: int = 1):
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.stride = stride

    def sampled(self, trace_id: int) -> bool:
        return trace_id % self.stride == 0

    def describe(self) -> Dict[str, object]:
        return {"sampler": "stride", "stride": self.stride}


@dataclass
class Span:
    """One hop (or phase within a hop) of one traced tuple."""

    trace: int
    name: str
    component: str
    task: int
    stream: str
    enter: float
    start: float
    end: float
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def queue_wait(self) -> float:
        return self.start - self.enter

    @property
    def service(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "kind": "span",
            "trace": self.trace,
            "name": self.name,
            "component": self.component,
            "task": self.task,
            "stream": self.stream,
            "enter": self.enter,
            "start": self.start,
            "end": self.end,
            "queue_wait": self.queue_wait,
            "service": self.service,
        }
        if self.notes:
            row["notes"] = self.notes
        return row


def default_trace_key(stream: str, values: Tuple[object, ...]) -> Optional[int]:
    """Map a tuple to the rid of the source record it belongs to.

    Work/record tuples carry the :class:`Record` itself; result tuples
    carry the probing record's rid first; watermark and other control
    tuples are untraceable (``None``).
    """
    if stream == "wm":
        return None
    for value in values:
        if isinstance(value, Record):
            return value.rid
    if stream == "results" and values and isinstance(values[0], int):
        return values[0]
    return None


class TupleTracer:
    """Collects sampled spans; the cluster drives it, bolts annotate it."""

    def __init__(self, sampler: Optional[TraceSampler] = None):
        self.sampler = sampler if sampler is not None else TraceSampler()
        self.spans: List[Span] = []
        self.header: Dict[str, object] = {}

    def sampled(self, trace_id: Optional[int]) -> bool:
        return trace_id is not None and self.sampler.sampled(trace_id)

    def record(self, span: Span) -> None:
        self.spans.append(span)

    def hop(
        self,
        trace: int,
        component: str,
        task: int,
        stream: str,
        enter: float,
        start: float,
        end: float,
        name: str = "hop",
        notes: Optional[Dict[str, object]] = None,
    ) -> Span:
        span = Span(
            trace, name, component, task, stream, enter, start, end, notes or {}
        )
        self.spans.append(span)
        return span

    # -- reading ------------------------------------------------------------
    def traces(self) -> Dict[int, List[Span]]:
        """Spans grouped by trace id, each group in recorded order."""
        grouped: Dict[int, List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.trace, []).append(span)
        return grouped

    def trace_latency(self, trace: int) -> float:
        """First-enter → last-end simulated time of one trace."""
        spans = [s for s in self.spans if s.trace == trace]
        if not spans:
            return 0.0
        return max(s.end for s in spans) - min(s.enter for s in spans)

    # -- output -------------------------------------------------------------
    def write_jsonl(self, path: str) -> int:
        """Dump header + spans, one JSON object per line; return #lines."""
        header = {"kind": "header", "schema": 1, **self.sampler.describe()}
        header.update(self.header)
        return write_jsonl(path, header, (s.as_dict() for s in self.spans))


def validate_span(row: Dict[str, object]) -> List[str]:
    """Schema errors of one span line (empty list = valid)."""
    errors = check_fields(row, TRACE_SCHEMA)
    if not errors:
        if row["enter"] > row["start"] or row["start"] > row["end"]:
            errors.append(
                f"timestamps not monotone: enter={row['enter']} "
                f"start={row['start']} end={row['end']}"
            )
    return errors


def validate_trace_lines(rows: Iterable[Dict[str, object]]) -> List[str]:
    """Validate a whole dump: header first, schema-valid spans, and
    non-decreasing span order within each trace."""
    errors: List[str] = []
    rows = list(rows)
    if not rows:
        return ["empty trace file"]
    if rows[0].get("kind") != "header":
        errors.append("first line is not a header")
    spans = [row for row in rows if row.get("kind") == "span"]
    if not spans:
        errors.append("no spans in trace")
    last_enter: Dict[object, float] = {}
    for index, row in enumerate(spans):
        row_errors = validate_span(row)
        errors.extend(f"span {index}: {e}" for e in row_errors)
        if row_errors:
            continue
        # Hop spans of one trace must advance in simulated time; child
        # spans (notes of a hop) share their hop's window.
        if row["name"] in ("emit", "hop"):
            trace = row["trace"]
            if trace in last_enter and row["enter"] < last_enter[trace]:
                errors.append(
                    f"span {index}: trace {trace} moved backwards "
                    f"({row['enter']} < {last_enter[trace]})"
                )
            last_enter[trace] = row["enter"]
    return errors


def load_trace_jsonl(path: str) -> List[Dict[str, object]]:
    """All lines of a JSONL trace dump as dicts.

    A line that is not a JSON object (truncated write, corrupted file)
    raises ``ValueError`` naming the file and line number, so callers —
    the smoke gate in particular — can fail with a pointed message
    instead of a raw traceback.
    """
    return load_jsonl_objects(path, "trace", snippet=True)
