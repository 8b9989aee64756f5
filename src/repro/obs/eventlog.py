"""One columnar event log per actor: the recorder behind spans *and*
record traces.

The driver and every worker of a parallel run stamp wall-clock windows
into one :class:`EventLog` — five preallocated typed-array columns
(``stage u8, shard i32, key i64, start f64, end f64``), so a stamp is
five slot stores plus an index bump: no allocation, no dict, no object
per row. A row is one of two scopes, told apart by the top bit of its
stage byte:

* **batch-scoped** (a *span*, :mod:`repro.obs.spans`): ``stage`` is a
  :data:`~repro.obs.spans.PHASE_ID` value and ``key`` the per-shard
  batch sequence (``-1`` when the span is not batch-scoped);
* **record-scoped** (a *trace event*, :mod:`repro.obs.rectrace`):
  ``stage`` is :data:`RECORD_SCOPE` ``|`` an
  :data:`~repro.obs.rectrace.EVENT_ID` value and ``key`` the rid.

Two deterministic strides thin what is recorded, each a pure function
of an index and never of the wall clock: ``spans_sample`` keeps every
Nth batch of each shard (:meth:`EventLog.keep`), ``trace_sample``
traces every rid that is a multiple of it (:meth:`EventLog.selected`);
``0`` switches a scope off. Because the rid stride is a pure function
of the rid, every worker agrees on the traced set without being told
it.

A worker's log ships back after its loop inside its pickled run-end
summary (the ``TAG_DONE`` frame: the columns as they are, each
``array`` pickled as its raw bytes); the driver turns every actor's columns into the two JSONL artefacts
with :func:`log_rows`. The log measures its own per-stamp cost at
construction (the fastest of a few short bursts,
:func:`measure_record_cost`), so
both artefact headers can report ``count x mean cost`` and a reader
can subtract the instrument from the measurement. An uninstrumented
run builds no log at all.
"""

from __future__ import annotations

import time
from array import array
from typing import Dict, List, Tuple

from repro.obs.rectrace import TRACE_EVENTS
from repro.obs.spans import DRIVER, PHASES

__all__ = ["RECORD_SCOPE", "EventLog", "measure_record_cost", "log_rows"]

#: Stage-byte bit marking a record-scoped row (a trace event keyed by
#: rid); clear on a batch-scoped row (a span keyed by batch sequence).
RECORD_SCOPE = 0x80

#: Calls the startup overhead measurement makes, split into
#: ``_CALIBRATION_BURSTS`` equal bursts.
_CALIBRATION_CALLS = 512
_CALIBRATION_BURSTS = 8

Columns = Tuple[array, array, array, array, array]


class EventLog:
    """Append-only log over preallocated typed-array columns."""

    __slots__ = (
        "spans_sample",
        "trace_sample",
        "capacity",
        "record_cost_s",
        "_n",
        "_stages",
        "_shards",
        "_keys",
        "_starts",
        "_ends",
        "_phase_s",
        "_summed",
    )

    def __init__(
        self,
        spans_sample: int = 0,
        trace_sample: int = 0,
        capacity: int = 1024,
        measure: bool = True,
    ):
        if spans_sample < 0:
            raise ValueError(f"spans_sample must be >= 0, got {spans_sample}")
        if trace_sample < 0:
            raise ValueError(f"trace_sample must be >= 0, got {trace_sample}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.spans_sample = spans_sample
        self.trace_sample = trace_sample
        self.capacity = capacity
        self._n = 0
        self._stages = array("B", bytes(capacity))
        self._shards = array("i", bytes(4 * capacity))
        self._keys = array("q", bytes(8 * capacity))
        self._starts = array("d", bytes(8 * capacity))
        self._ends = array("d", bytes(8 * capacity))
        #: Running per-phase totals and the row count they cover — what
        #: lets :meth:`phase_seconds` sum only the rows since its last
        #: call.
        self._phase_s = [0.0] * len(PHASES)
        self._summed = 0
        #: Mean seconds one :meth:`record` call costs on this host,
        #: measured at startup (0.0 when ``measure=False`` — the
        #: calibration scratch log uses that to avoid recursion).
        self.record_cost_s = measure_record_cost() if measure else 0.0

    def record(
        self, stage: int, start: float, end: float, shard: int = -1, key: int = -1
    ) -> None:
        """Append one row: ``stage`` is a ``PHASE_ID`` value (``key`` =
        batch sequence) or ``RECORD_SCOPE | EVENT_ID`` (``key`` = rid)."""
        n = self._n
        if n >= self.capacity:
            self._grow()
        self._stages[n] = stage
        self._shards[n] = shard
        self._keys[n] = key
        self._starts[n] = start
        self._ends[n] = end
        self._n = n + 1

    def _grow(self) -> None:
        extra = self.capacity
        self._stages.extend(bytes(extra))
        self._shards.extend(array("i", bytes(4 * extra)))
        self._keys.extend(array("q", bytes(8 * extra)))
        self._starts.extend(array("d", bytes(8 * extra)))
        self._ends.extend(array("d", bytes(8 * extra)))
        self.capacity += extra

    def keep(self, batch_index: int) -> bool:
        """Whether batch-scoped rows of this batch are recorded: every
        ``spans_sample``-th batch index, none with spans off."""
        return self.spans_sample > 0 and batch_index % self.spans_sample == 0

    def selected(self, rid: int) -> bool:
        """Whether ``rid`` is in the traced set — a pure function of
        the rid, identical on every actor at the same stride."""
        return self.trace_sample > 0 and rid % self.trace_sample == 0

    def __len__(self) -> int:
        return self._n

    def columns(self) -> Columns:
        """The populated column slices (what the run-end summary carries)."""
        n = self._n
        return (
            self._stages[:n],
            self._shards[:n],
            self._keys[:n],
            self._starts[:n],
            self._ends[:n],
        )

    def counts(self) -> Tuple[int, int]:
        """``(spans, events)`` — rows per scope."""
        events = sum(stage >> 7 for stage in self._stages[: self._n])
        return self._n - events, events

    def phase_seconds(self) -> List[float]:
        """Summed span duration per phase id (indexed like ``PHASES``).

        Incremental: each call adds only the rows appended since the
        previous one to the running totals, in append order — so the
        result is float-equal to a from-scratch pass, and a heartbeat
        emitter calling this once per interval costs O(new rows), not
        O(run length)."""
        totals = self._phase_s
        stages, starts, ends = self._stages, self._starts, self._ends
        for i in range(self._summed, self._n):
            stage = stages[i]
            if stage < RECORD_SCOPE:
                totals[stage] += ends[i] - starts[i]
        self._summed = self._n
        return list(totals)


def measure_record_cost(calls: int = _CALIBRATION_CALLS) -> float:
    """Seconds per :meth:`EventLog.record` call, measured on a scratch
    log: the fastest of ``_CALIBRATION_BURSTS`` short bursts sharing
    the ``calls`` budget (default 512 calls in all, well under a
    millisecond, so paying it once per log at startup is negligible
    next to what it lets the artefact headers report). A process
    descheduled mid-burst — a freshly forked worker on a busy host —
    inflates that burst's mean fifty-fold; preemption only ever adds
    time, so the minimum over bursts is the estimate it cannot reach
    unless it hits every one."""
    burst = max(1, calls // _CALIBRATION_BURSTS)
    scratch = EventLog(capacity=max(burst, calls), measure=False)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(max(1, calls // burst)):
        t0 = clock()
        for i in range(burst):
            scratch.record(0, 0.0, 0.0, i, i)
        best = min(best, clock() - t0)
    return best / burst


def log_rows(
    columns: Columns, base: float = 0.0, worker: int = DRIVER
) -> Tuple[List[Dict[str, object]], List[Dict[str, object]]]:
    """One actor's columns (a live log's or a decoded wire frame's) →
    ``(span rows, event rows)`` in JSONL shape, rebased to ``base``,
    each in stamp order."""
    spans: List[Dict[str, object]] = []
    events: List[Dict[str, object]] = []
    for stage, shard, key, start, end in zip(*columns):
        start, end = round(start - base, 9), round(end - base, 9)
        if stage & RECORD_SCOPE:
            events.append(
                {
                    "kind": "event",
                    "event": TRACE_EVENTS[stage ^ RECORD_SCOPE],
                    "rid": key,
                    "worker": worker,
                    "shard": shard,
                    "start": start,
                    "end": end,
                }
            )
        else:
            spans.append(
                {
                    "kind": "span",
                    "phase": PHASES[stage],
                    "worker": worker,
                    "shard": shard,
                    "batch": key,
                    "start": start,
                    "end": end,
                }
            )
    return spans, events
