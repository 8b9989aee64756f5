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
from typing import Dict, List, Optional, Tuple

FINGERPRINT_SCHEMA_VERSION = 1
DEFAULT_REL_TOL = 1e-6

#: Gauges that are integral/deterministic and therefore held exact.
EXACT_GAUGES = ("run_records", "run_results")

#: Float headline gauges and the direction in which change is *bad*.
#: Per-component busy sums (``component_busy_seconds:<name>``, added
#: dynamically) default to lower-is-better — they catch a slowdown in
#: any component, even one that is not the current bottleneck.
BANDED_GAUGES: Dict[str, str] = {
    "run_capacity_throughput": "higher_better",
    "run_achieved_throughput": "higher_better",
    "run_makespan_seconds": "lower_better",
    "run_load_balance": "lower_better",
    "max_task_busy_seconds": "lower_better",
}


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


def compare_fingerprints(
    baseline: Dict[str, object],
    current: Dict[str, object],
    rel_tol: float = DEFAULT_REL_TOL,
) -> Dict[str, object]:
    """Compare two fingerprints; return the machine-readable verdict.

    Verdict layout::

        {"status": "ok" | "regression",
         "checks": 37, "rel_tol": 1e-06,
         "failures":     [{"metric": ..., "policy": "exact" | "banded",
                           "baseline": ..., "current": ...,
                           "message": "..."}, ...],
         "improvements": [{"metric": ..., ...}, ...]}

    Exact metrics fail on any difference (including a metric appearing
    or disappearing); banded metrics fail only when the relative change
    exceeds ``rel_tol`` in the metric's bad direction.
    """
    failures: List[Dict[str, object]] = []
    improvements: List[Dict[str, object]] = []
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

    base_exact: Dict[str, Dict[str, float]] = baseline.get("exact", {})  # type: ignore[assignment]
    cur_exact: Dict[str, Dict[str, float]] = current.get("exact", {})  # type: ignore[assignment]
    for name in sorted(set(base_exact) | set(cur_exact)):
        checks += 1
        b, c = base_exact.get(name), cur_exact.get(name)
        if b is None or c is None:
            failures.append({
                "metric": name, "policy": "exact", "baseline": b, "current": c,
                "message": f"exact metric {name!r} "
                           + ("appeared" if b is None else "disappeared"),
            })
        elif judge("exact", b, c, rel_tol):
            failures.append({
                "metric": name, "policy": "exact", "baseline": b, "current": c,
                "message": f"exact metric {name!r} drifted: "
                           f"{b['total']:g}×{b['series']} -> {c['total']:g}×{c['series']}",
            })

    base_banded: Dict[str, float] = baseline.get("banded", {})  # type: ignore[assignment]
    cur_banded: Dict[str, float] = current.get("banded", {})  # type: ignore[assignment]
    for name in sorted(set(base_banded) | set(cur_banded)):
        checks += 1
        if name not in base_banded or name not in cur_banded:
            failures.append({
                "metric": name, "policy": "banded",
                "baseline": base_banded.get(name), "current": cur_banded.get(name),
                "message": f"banded metric {name!r} "
                           + ("appeared" if name not in base_banded else "disappeared"),
            })
            continue
        b, c = _num(base_banded[name]), _num(cur_banded[name])
        judged = judge(BANDED_GAUGES.get(name, "lower_better"), b, c, rel_tol)
        if judged is None:
            continue
        outcome, rel = judged
        entry = {
            "metric": name, "policy": "banded",
            "baseline": b, "current": c, "relative_change": rel,
        }
        if outcome == "failure":
            entry["message"] = (
                f"banded metric {name!r} regressed {abs(rel):.3%} "
                f"(tolerance {rel_tol:.1e}): {b:g} -> {c:g}"
            )
            failures.append(entry)
        else:
            entry["message"] = (
                f"banded metric {name!r} improved {abs(rel):.3%}: {b:g} -> {c:g}"
            )
            improvements.append(entry)

    return {
        "status": "regression" if failures else "ok",
        "checks": checks,
        "rel_tol": rel_tol,
        "failures": failures,
        "improvements": improvements,
    }


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


def compare_bench_fingerprints(
    baseline: Dict[str, object],
    current: Dict[str, object],
    rel_tol: float = DEFAULT_REL_TOL,
) -> Dict[str, object]:
    """Per-method comparison of two suite baselines, merged verdict."""
    base_methods: Dict[str, Dict[str, object]] = baseline.get("methods", {})  # type: ignore[assignment]
    cur_methods: Dict[str, Dict[str, object]] = current.get("methods", {})  # type: ignore[assignment]
    methods: Dict[str, object] = {}
    failures: List[Dict[str, object]] = []
    improvements: List[Dict[str, object]] = []
    checks = 0
    for label in sorted(set(base_methods) | set(cur_methods)):
        if label not in base_methods or label not in cur_methods:
            checks += 1
            failures.append({
                "metric": f"method:{label}", "policy": "exact",
                "baseline": label in base_methods, "current": label in cur_methods,
                "message": f"method {label!r} "
                           + ("appeared" if label not in base_methods else "disappeared"),
            })
            continue
        verdict = compare_fingerprints(
            base_methods[label], cur_methods[label], rel_tol=rel_tol
        )
        methods[label] = verdict
        checks += verdict["checks"]
        for entry in verdict["failures"]:
            failures.append({**entry, "method": label})
        for entry in verdict["improvements"]:
            improvements.append({**entry, "method": label})
    if baseline.get("config") and current.get("config"):
        checks += 1
        if baseline["config"] != current["config"]:
            failures.append({
                "metric": "config", "policy": "exact",
                "baseline": baseline["config"], "current": current["config"],
                "message": "bench configs differ: these baselines are not comparable",
            })
    return {
        "status": "regression" if failures else "ok",
        "checks": checks,
        "rel_tol": rel_tol,
        "failures": failures,
        "improvements": improvements,
        "methods": methods,
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


def compare_loaded(
    baseline: Dict[str, object],
    current: Dict[str, object],
    rel_tol: float = DEFAULT_REL_TOL,
) -> Dict[str, object]:
    """Dispatch to the single-run or suite comparison by shape."""
    suite_b, suite_c = "methods" in baseline, "methods" in current
    if suite_b != suite_c:
        raise ValueError(
            "cannot compare a suite baseline against a single-run fingerprint"
        )
    if suite_b:
        return compare_bench_fingerprints(baseline, current, rel_tol=rel_tol)
    return compare_fingerprints(baseline, current, rel_tol=rel_tol)


def verdict_lines(verdict: Dict[str, object]) -> List[str]:
    """One ``FAIL`` line per failure, then one ``ok`` line per
    improvement — the body both gates' plain-text verdicts share."""
    lines: List[str] = []
    for tag, key in (("FAIL", "failures"), ("  ok", "improvements")):
        for entry in verdict[key]:  # type: ignore[union-attr]
            prefix = f"[{entry['method']}] " if "method" in entry else ""
            lines.append(f"{tag} {prefix}{entry['message']}")
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
