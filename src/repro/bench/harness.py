"""Method suites and the loop that runs them over one stream."""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence

from repro.bench.report import headline_from_metrics
from repro.core.config import JoinConfig
from repro.core.join import DistributedStreamJoin, JoinRunReport
from repro.obs.exporters import metrics_to_json
from repro.obs.observer import RunObserver
from repro.storm.costmodel import CostModel, NetworkModel
from repro.streams.stream import RecordStream


def standard_configs(
    num_workers: int = 8,
    threshold: float = 0.8,
    similarity: str = "jaccard",
    window_seconds: float = math.inf,
    include: Optional[Sequence[str]] = None,
    **overrides,
) -> Dict[str, JoinConfig]:
    """The method suite every comparative experiment runs.

    ===========  ======================================================
    label        scheme
    ===========  ======================================================
    ``BRD``      broadcast probing (naive baseline)
    ``PRE``      prefix-based distribution (offline-style baseline)
    ``LEN-U``    length-based, uniform partitions
    ``LEN``      length-based, load-aware partitions (paper, no bundles)
    ``LEN+BUN``  full system: load-aware + bundles + batch verification
    ===========  ======================================================

    ``include`` restricts the suite; extra keyword arguments override
    every config (e.g. ``collect_pairs=True`` in tests).
    """
    base = dict(
        threshold=threshold,
        similarity=similarity,
        num_workers=num_workers,
        window_seconds=window_seconds,
        **overrides,
    )
    suite = {
        "BRD": JoinConfig(distribution="broadcast", **base),
        "PRE": JoinConfig(distribution="prefix", **base),
        "LEN-U": JoinConfig(distribution="length", partitioning="uniform", **base),
        "LEN": JoinConfig(distribution="length", partitioning="load_aware", **base),
        "LEN+BUN": JoinConfig(
            distribution="length",
            partitioning="load_aware",
            use_bundles=True,
            bundle_threshold=max(0.9, threshold),
            **base,
        ),
    }
    if include is not None:
        unknown = set(include) - set(suite)
        if unknown:
            raise ValueError(f"unknown method labels: {sorted(unknown)}")
        suite = {label: suite[label] for label in include}
    return suite


def run_methods(
    stream: RecordStream,
    configs: Dict[str, JoinConfig],
    cost: Optional[CostModel] = None,
    network: Optional[NetworkModel] = None,
    observer_factory: Optional[Callable[[str], Optional[RunObserver]]] = None,
) -> Dict[str, JoinRunReport]:
    """Run every config over the same stream; reports keyed by label.

    ``observer_factory`` (label → observer) switches on tracing or a
    profiling timeline per method run; each report's observer is
    reachable via its ``obs`` registry either way.
    """
    reports: Dict[str, JoinRunReport] = {}
    for label, config in configs.items():
        observer = observer_factory(label) if observer_factory else None
        reports[label] = DistributedStreamJoin(
            config, cost=cost, network=network
        ).run(stream, observer=observer)
    return reports


def verify_instrumented_headlines(report: JoinRunReport) -> Dict[str, float]:
    """Recompute the E2/E4/E5 headlines from the run's metrics export
    and assert they match the cluster report exactly.

    Every experiment table goes through the report; this check (used
    by tests and the smoke command) proves the exported registry is
    the same instrumented path, not a diverging copy.
    """
    recomputed = headline_from_metrics(metrics_to_json(report.obs))
    expected = {
        "records": float(report.cluster.records),
        "throughput": report.cluster.capacity_throughput,
        "messages_per_record": report.cluster.messages_per_record,
        "bytes_per_record": report.cluster.bytes_per_record,
        "load_balance": report.cluster.load_balance,
    }
    mismatches = {
        key: (recomputed[key], expected[key])
        for key in expected
        if recomputed[key] != expected[key]
    }
    if mismatches:
        raise AssertionError(
            f"metrics-derived headlines diverge from the report: {mismatches}"
        )
    return recomputed

