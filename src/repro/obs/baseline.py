"""Run fingerprints and the regression gate behind ``repro diff``.

A *fingerprint* is a small, schema-versioned digest of one run's
metrics dump: every counter family (deterministic in this simulator —
operation counts are a pure function of config, seed and code) recorded
under an **exact** policy, and the float headline gauges (throughput,
makespan, load balance — anything derived from cost-model timing) under
a **tolerance-banded, direction-aware** policy. Comparing the
fingerprint of a fresh run against a stored baseline answers the CI
question "did this change alter what the system *does* or only how the
report prints it?" with a machine-readable verdict:

* any drift in an exact metric fails — counts changing means the
  algorithm changed;
* a banded metric failing means performance regressed past the
  tolerance *in its bad direction* (throughput down, makespan up);
  improvements beyond the band are reported but pass.

The module reads metric dumps directly (via
:mod:`repro.obs.exporters`) so it stays below :mod:`repro.bench` in the
layering; the bench harness and the CLI build on it.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Tuple

FINGERPRINT_SCHEMA_VERSION = 1
DEFAULT_REL_TOL = 1e-6

#: Gauges that are integral/deterministic and therefore held exact.
EXACT_GAUGES = ("run_records", "run_results")

#: Float headline gauges, held banded in the direction
#: :func:`metric_policy` reads from their names. Per-component busy
#: sums (``component_busy_seconds:<name>``, added dynamically) are
#: lower-is-better too — they catch a slowdown in any component, even
#: one that is not the current bottleneck.
BANDED_GAUGES = (
    "run_capacity_throughput", "run_achieved_throughput",
    "run_makespan_seconds", "run_load_balance", "max_task_busy_seconds",
)

#: Archived run columns that are deterministic given config + seed,
#: and therefore exact when a gate names them.
EXACT_COLUMNS = frozenset({"records", "results"})

#: Metric-name suffixes where larger is better (everything else that
#: is not exact defaults to lower-is-better: wall times, latencies,
#: RSS, overhead fractions).
_HIGHER_BETTER_SUFFIXES = (
    "speedup", "throughput", "recall", "precision", "efficiency",
    "per_s",
)


def metric_policy(metric: str, exact_names: Iterable[str] = ()) -> str:
    """``"exact"``, ``"higher_better"`` or ``"lower_better"``.

    A metric held exact by its run (``exact_names``), an ``op:``
    counter or a deterministic run column is exact; names that read
    like rates/speedups/throughputs are higher-better; everything else
    — wall times, latencies, RSS, makespans — is lower-better.
    """
    if metric in exact_names or metric.startswith("op:") or metric in EXACT_COLUMNS:
        return "exact"
    if any(metric.endswith(suffix) for suffix in _HIGHER_BETTER_SUFFIXES):
        return "higher_better"
    return "lower_better"


def fingerprint_from_metrics(dump: Dict[str, object]) -> Dict[str, object]:
    """Digest one metrics dump (see :func:`~repro.obs.exporters.metrics_to_json`).

    Layout::

        {"schema": 1,
         "labels": {"method": "LEN", "corpus": "aol"},
         "exact":  {"op:posting_scan": {"total": 812.0, "series": 4}, ...},
         "banded": {"run_capacity_throughput": 39001.2, ...}}
    """
    metrics: Dict[str, Dict[str, object]] = dump.get("metrics", {})  # type: ignore[assignment]
    exact: Dict[str, Dict[str, float]] = {}
    for name in sorted(metrics):
        family = metrics[name]
        if family.get("kind") != "counter":
            continue
        series = family.get("series", [])
        exact[name] = {
            "total": sum(_num(row.get("value", 0.0)) for row in series),
            "series": len(series),
        }
    for name in EXACT_GAUGES:
        value = _gauge_value(metrics, name)
        if value is not None:
            exact[name] = {"total": value, "series": 1}

    banded: Dict[str, float] = {}
    for name in BANDED_GAUGES:
        if name == "max_task_busy_seconds":
            continue
        value = _gauge_value(metrics, name)
        if value is not None:
            banded[name] = value
    by_component: Dict[str, float] = {}
    max_busy: Optional[float] = None
    for row in metrics.get("task_busy_seconds", {}).get("series", []):
        value = _num(row.get("value", 0.0))
        component = row.get("labels", {}).get("component", "")
        by_component[component] = by_component.get(component, 0.0) + value
        max_busy = value if max_busy is None else max(max_busy, value)
    if max_busy is not None:
        banded["max_task_busy_seconds"] = max_busy
    for component in sorted(by_component):
        banded[f"component_busy_seconds:{component}"] = by_component[component]

    return {
        "schema": FINGERPRINT_SCHEMA_VERSION,
        "labels": dict(dump.get("labels", {})),  # type: ignore[arg-type]
        "exact": exact,
        "banded": banded,
    }


def check_tolerance(name: str, tolerance: float) -> None:
    """A gate's relative tolerance is >= 0 and not NaN, which would
    pass everything; ``inf`` gates exact metrics only."""
    if not tolerance >= 0:
        raise ValueError(f"{name} must be >= 0, got {tolerance}")


def judge(
    policy: str, baseline: object, current: object, tolerance: float
) -> Optional[Tuple[str, Optional[float]]]:
    """The one verdict rule behind ``repro diff`` and ``history check``.

    ``policy`` is ``"exact"``, ``"higher_better"`` or ``"lower_better"``.
    Returns ``None`` when ``current`` passes unremarked, else
    ``(outcome, relative_change)`` with ``outcome`` ``"failure"`` or
    ``"improvement"``. Exact values fail on any difference (no relative
    change is reported for them); banded values are remarked on only
    when their relative change exceeds ``tolerance`` — a change exactly
    at the tolerance passes — and fail only in the policy's bad
    direction.
    """
    if policy == "exact":
        return None if baseline == current else ("failure", None)
    rel = _relative_change(baseline, current)  # type: ignore[arg-type]
    if abs(rel) <= tolerance:
        return None
    worse = rel < 0 if policy == "higher_better" else rel > 0
    return ("failure" if worse else "improvement", rel)


def file_outcome(
    verdict: Dict[str, object], metric: str, policy: str,
    baseline: object, current: object, tolerance: float,
    context: str = "", **extra: object,
) -> None:
    """Judge one metric and file any failure or improvement into
    ``verdict`` — the one entry builder behind ``repro diff`` and
    ``history check``. ``context`` names the baseline in failure
    messages (empty for a second artefact); ``extra`` rides on the
    entry. Exact values may be fingerprint entries
    (``{"total", "series"}``) or bare numbers."""
    judged = judge(policy, baseline, current, tolerance)
    if judged is None:
        return
    outcome, rel = judged
    entry = {
        "metric": metric, "policy": "exact" if policy == "exact" else "banded",
        "baseline": baseline, "current": current, **extra,
    }
    if policy == "exact":
        change = f"drifted{context}: {_shown(baseline)} -> {_shown(current)}"
    else:
        entry["relative_change"] = rel
        change = (
            f"regressed {abs(rel):.3%}{context} (tolerance {tolerance:.1e})"
            if outcome == "failure" else f"improved {abs(rel):.3%}"
        ) + f": {baseline:g} -> {current:g}"
    entry["message"] = f"{entry['policy']} metric {metric!r} {change}"
    verdict["failures" if outcome == "failure" else "improvements"].append(entry)  # type: ignore[index]


def compare_fingerprints(
    baseline: Dict[str, object],
    current: Dict[str, object],
    rel_tol: float = DEFAULT_REL_TOL,
) -> Dict[str, object]:
    """Compare two fingerprints (or two suite baselines); return the
    machine-readable verdict.

    Verdict layout::

        {"status": "ok" | "regression",
         "checks": 37, "rel_tol": 1e-06,
         "failures":     [{"metric": ..., "policy": "exact" | "banded",
                           "baseline": ..., "current": ...,
                           "message": "..."}, ...],
         "improvements": [{"metric": ..., ...}, ...]}

    Exact metrics fail on any difference (including a metric appearing
    or disappearing); banded metrics fail only when the relative change
    exceeds ``rel_tol`` in the direction :func:`metric_policy` calls
    bad. A suite is compared as one fingerprint (see
    :func:`_flatten_suite`); a suite against a single-run fingerprint
    raises :class:`ValueError`, as does a negative or NaN ``rel_tol``.
    """
    check_tolerance("rel_tol", rel_tol)
    if ("methods" in baseline) != ("methods" in current):
        raise ValueError(
            "cannot compare a suite baseline against a single-run fingerprint"
        )
    if "methods" in baseline:
        baseline, current = _flatten_suite(baseline), _flatten_suite(current)
    verdict: Dict[str, object] = {
        "status": "ok", "checks": 0, "rel_tol": rel_tol,
        "failures": [], "improvements": [],
    }
    failures: List[Dict[str, object]] = verdict["failures"]  # type: ignore[assignment]
    checks = 0

    if baseline.get("schema") != current.get("schema"):
        failures.append({
            "metric": "schema", "policy": "exact",
            "baseline": baseline.get("schema"), "current": current.get("schema"),
            "message": "fingerprint schema version changed",
        })

    base_labels: Dict[str, str] = baseline.get("labels", {})  # type: ignore[assignment]
    cur_labels: Dict[str, str] = current.get("labels", {})  # type: ignore[assignment]
    for key in sorted(set(base_labels) | set(cur_labels)):
        checks += 1
        if base_labels.get(key) != cur_labels.get(key):
            failures.append({
                "metric": f"label:{key}", "policy": "exact",
                "baseline": base_labels.get(key), "current": cur_labels.get(key),
                "message": f"run label {key!r} differs: these runs are not comparable",
            })

    for section in ("exact", "banded"):
        base: Dict[str, object] = baseline.get(section, {})  # type: ignore[assignment]
        cur: Dict[str, object] = current.get(section, {})  # type: ignore[assignment]
        for name in sorted(set(base) | set(cur)):
            checks += 1
            if name not in base or name not in cur:
                failures.append({
                    "metric": name, "policy": section,
                    "baseline": base.get(name), "current": cur.get(name),
                    "message": f"{section} metric {name!r} "
                               + ("appeared" if name not in base else "disappeared"),
                })
            elif section == "exact":
                file_outcome(verdict, name, "exact", base[name], cur[name], rel_tol)
            else:
                file_outcome(
                    verdict, name, metric_policy(name),
                    _num(base[name]), _num(cur[name]), rel_tol,
                )

    verdict["checks"] = checks
    if failures:
        verdict["status"] = "regression"
    return verdict


# -- bench-suite fingerprints (one file, one fingerprint per method) ---------
def bench_fingerprint(
    dumps: Dict[str, Dict[str, object]], config: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """A suite baseline: per-method fingerprints plus the bench config."""
    return {
        "schema": FINGERPRINT_SCHEMA_VERSION,
        "kind": "bench-baseline",
        "config": dict(config or {}),
        "methods": {
            label: fingerprint_from_metrics(dump)
            for label, dump in sorted(dumps.items())
        },
    }


def _flatten_suite(suite: Dict[str, object]) -> Dict[str, object]:
    """A suite baseline as one fingerprint: the bench config becomes
    the labels and each method's metric ``m`` is named ``<method>/m``,
    so a missing method shows up as its metrics disappearing."""
    flat: Dict[str, Dict[str, object]] = {"exact": {}, "banded": {}}
    methods: Dict[str, Dict[str, Dict[str, object]]] = suite["methods"]  # type: ignore[assignment]
    for label, fingerprint in methods.items():
        for section, values in flat.items():
            for name, value in fingerprint.get(section, {}).items():
                values[f"{label}/{name}"] = value
    return {
        "schema": suite.get("schema"),
        "labels": dict(suite.get("config") or {}),  # type: ignore[arg-type]
        **flat,
    }


# -- files -------------------------------------------------------------------
def write_fingerprint(path: str, fingerprint: Dict[str, object]) -> str:
    """Write a fingerprint (or suite baseline) deterministically."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(fingerprint, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def load_fingerprint(path: str) -> Dict[str, object]:
    """Load a fingerprint, a suite baseline, *or* a raw metrics dump.

    Metrics dumps are fingerprinted on the fly, so ``repro diff`` takes
    either artefact on either side.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not a fingerprint (expected a JSON object)")
    if "metrics" in data:  # a raw metrics dump
        from repro.obs.exporters import SCHEMA_VERSION

        if data.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"{path}: unsupported metrics schema {data.get('schema')!r}"
            )
        return fingerprint_from_metrics(data)
    if data.get("schema") != FINGERPRINT_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported fingerprint schema {data.get('schema')!r}"
        )
    if "methods" not in data and ("exact" not in data or "banded" not in data):
        raise ValueError(
            f"{path}: not a fingerprint (missing 'exact'/'banded' or 'methods')"
        )
    return data


def verdict_lines(verdict: Dict[str, object]) -> List[str]:
    """One ``FAIL`` line per failure, then one ``ok`` line per
    improvement — the body both gates' plain-text verdicts share."""
    lines: List[str] = []
    for tag, key in (("FAIL", "failures"), ("  ok", "improvements")):
        for entry in verdict[key]:  # type: ignore[union-attr]
            lines.append(f"{tag} {entry['message']}")
    return lines


def render_verdict(verdict: Dict[str, object]) -> str:
    """Plain-text verdict for terminals (the JSON form is canonical)."""
    lines = verdict_lines(verdict)
    lines.append(
        f"diff: {verdict['status']} "
        f"({verdict['checks']} checks, {len(verdict['failures'])} failures, "
        f"{len(verdict['improvements'])} improvements, "
        f"rel_tol {verdict['rel_tol']:g})"
    )
    return "\n".join(lines)


def _gauge_value(
    metrics: Dict[str, Dict[str, object]], name: str
) -> Optional[float]:
    series = metrics.get(name, {}).get("series", [])
    return _num(series[0].get("value", 0.0)) if series else None


def _shown(value: object) -> str:
    """An exact value for a message: ``total×series`` for a
    fingerprint entry, ``%g`` for a bare number."""
    if isinstance(value, dict):
        return f"{value['total']:g}×{value['series']}"
    return f"{value:g}"


def _num(value: object) -> float:
    """Undo the exporter's non-finite-float string encoding."""
    return float(value)


def _relative_change(baseline: float, current: float) -> float:
    if baseline == current:  # covers inf == inf and 0 == 0
        return 0.0
    if not (math.isfinite(baseline) and math.isfinite(current)):
        return math.copysign(math.inf, current - baseline)
    if baseline == 0.0:
        return math.copysign(math.inf, current)
    return (current - baseline) / abs(baseline)
