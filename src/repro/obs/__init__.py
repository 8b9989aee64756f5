"""Observability: structured metrics, record tracing and profiling.

This package is the measurement surface of the whole system. The
simulator (``repro.storm``), the join bolts (``repro.core``) and the
bench harness (``repro.bench``) all publish into it, and every
experiment number is recomputable from its exports:

* :mod:`repro.obs.registry` — named counters, gauges and histograms
  with labeled dimensions (component, task, method, corpus);
* :mod:`repro.obs.exporters` — JSON and Prometheus text dumps of a
  registry, plus loaders for the dumped formats;
* :mod:`repro.obs.timeline` — per-task busy/idle timelines over
  simulated time, rendered as bucketed utilisation series;
* :mod:`repro.obs.health` — online health detectors (backpressure,
  stragglers, routing blow-up, window-expiration lag) emitting
  deterministic severity-tagged events during a run;
* :mod:`repro.obs.baseline` — schema-versioned run fingerprints and
  tolerance-banded comparison against a stored baseline (the
  ``repro diff`` regression gate);
* :mod:`repro.obs.attribution` — decomposition of the throughput gap
  between two methods into per-cost-category contributions (the
  ``repro explain`` command);
* :mod:`repro.obs.eventlog` — the one recorder of the multiprocessing
  runtime (``repro.parallel``) and of the simulated cluster's record
  traces: a budgeted-overhead columnar event log per actor that holds
  wall-clock spans (batch-scoped rows) and record-trace events
  (record-scoped rows) alike, two deterministic sampling strides, and
  the split into the two artefacts below;
* :mod:`repro.obs.artefact` — the one JSONL artefact path: writer,
  loader, header/body splitter and field-type checker behind every
  family's ``write`` / ``load`` / ``validate``;
* :mod:`repro.obs.spans` — the wall-clock span vocabulary and the
  ``--spans-out`` JSONL artefact: schema, per-phase totals and the
  critical-path / waterfall analysis behind ``repro spans``;
* :mod:`repro.obs.timeseries` — live in-flight telemetry: the
  driver-side aggregation of worker heartbeat frames into rolling
  per-worker series, online health feeding, the ``--telemetry-out``
  JSONL artefact and the analysis/rendering behind ``repro top`` and
  ``repro telemetry``;
* :mod:`repro.obs.rectrace` — per-record tracing for both runtimes:
  the event vocabulary driver, workers and simulated tasks stamp, the
  one ``--trace-out`` JSONL artefact, its header builder and schema,
  per-stage latency digests and the ``repro trace`` smoke gate;
* :mod:`repro.obs.chrome` — Chrome trace-event export of span and
  record-trace artefacts (Perfetto-loadable timelines behind the
  ``--chrome`` flags);
* :mod:`repro.obs.observer` — the bundle handed to a cluster run to
  switch any of the above on.
"""

from repro.obs.chrome import (
    rectrace_to_chrome,
    spans_to_chrome,
    validate_chrome,
    write_chrome,
)

from repro.obs.artefact import write_jsonl
from repro.obs.attribution import attribute_gap, busy_decomposition
from repro.obs.baseline import (
    compare_fingerprints,
    fingerprint_from_metrics,
    load_fingerprint,
    write_fingerprint,
)
from repro.obs.eventlog import EventLog
from repro.obs.exporters import (
    load_metrics_json,
    metrics_to_json,
    metrics_to_prometheus,
    write_metrics,
)
from repro.obs.health import (
    HealthEvent,
    HealthMonitor,
    HealthThresholds,
    load_health_jsonl,
    validate_health_lines,
)
from repro.obs.observer import RunObserver
from repro.obs.rectrace import (
    DEFAULT_TRACE_SAMPLE,
    EVENT_SCHEMA,
    TRACE_EVENTS,
    TRACE_STAGES,
    latency_digest,
    latency_metrics,
    load_rectrace_jsonl,
    record_trees,
    rectrace_smoke,
    slowest_records,
    validate_rectrace_lines,
)
from repro.obs.registry import Counter, Gauge, Histogram, ObsRegistry
from repro.obs.spans import (
    PHASES,
    SPAN_SCHEMA,
    critical_path,
    load_spans_jsonl,
    phase_totals,
    smoke_check,
    validate_span_lines,
    waterfall,
)
from repro.obs.timeline import TimelineRecorder
from repro.obs.timeseries import (
    DEFAULT_HEARTBEAT_INTERVAL,
    SAMPLE_SCHEMA,
    TelemetryRecorder,
    TelemetryView,
    load_telemetry_jsonl,
    telemetry_smoke,
    telemetry_summary,
    validate_telemetry_lines,
)

__all__ = [
    "Counter",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_TRACE_SAMPLE",
    "EVENT_SCHEMA",
    "EventLog",
    "Gauge",
    "HealthEvent",
    "HealthMonitor",
    "HealthThresholds",
    "Histogram",
    "ObsRegistry",
    "PHASES",
    "RunObserver",
    "SAMPLE_SCHEMA",
    "SPAN_SCHEMA",
    "TelemetryRecorder",
    "TelemetryView",
    "TimelineRecorder",
    "TRACE_EVENTS",
    "TRACE_STAGES",
    "attribute_gap",
    "busy_decomposition",
    "compare_fingerprints",
    "critical_path",
    "fingerprint_from_metrics",
    "latency_digest",
    "latency_metrics",
    "load_fingerprint",
    "load_health_jsonl",
    "load_metrics_json",
    "load_rectrace_jsonl",
    "load_spans_jsonl",
    "load_telemetry_jsonl",
    "metrics_to_json",
    "metrics_to_prometheus",
    "phase_totals",
    "record_trees",
    "rectrace_smoke",
    "rectrace_to_chrome",
    "slowest_records",
    "smoke_check",
    "spans_to_chrome",
    "telemetry_smoke",
    "telemetry_summary",
    "validate_chrome",
    "validate_health_lines",
    "validate_rectrace_lines",
    "validate_telemetry_lines",
    "validate_span_lines",
    "waterfall",
    "write_chrome",
    "write_fingerprint",
    "write_jsonl",
    "write_metrics",
]
