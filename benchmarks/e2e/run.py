"""End-to-end benchmark of a whole ``repro join``.

    python3 benchmarks/e2e/run.py --seed 20200420

generates each workload from the seed, runs it, checks the outputs and
prints every metric named in ``BENCHMARK.json`` as one
``workload metric value unit`` line, plus ``out/result.json`` and one
``out/trace-<workload>.jsonl`` per workload. See README.md beside this
file for what the metrics mean.

    --workload NAME...   only these workloads (default: all four)
    --trace 0|1          0: end-to-end metrics only; 1: per-layer metrics
                         only. With one workload this also prints the
                         result as one JSON object on the last line.
    --seconds S          measure timed rounds for S seconds, never fewer
                         than five rounds (default 15)
    --repeats R          exactly R timed rounds instead
    --scale X            multiply every record count by X
    --aa                 run the end-to-end pass twice and print how far
                         the two sets of medians are apart
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import e2e  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 20200420
DEFAULT_SECONDS = 15.0
#: Timed rounds behind ``runtime.join_wall_s`` etc. in a ``--trace 1`` run.
TRACE_ROUNDS = 2


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _fmt(value: Optional[float]) -> str:
    return "null" if value is None else repr(value)


def end_to_end_pass(name: str, args, tmp: Path, spec: dict) -> dict:
    """The end-to-end pass on one workload (a short one under ``--trace
    1``, which only needs it for the ``runtime.*`` metrics); prints the
    end-to-end metric lines and starts the workload's result."""
    ops = e2e.Ops()
    if args.trace != 1:
        measured = e2e.run_pass(
            WORKLOADS[name], args.seed, args.scale, tmp, ops,
            seconds=args.seconds, repeats=args.repeats,
        )
    else:
        measured = e2e.run_pass(
            WORKLOADS[name], args.seed, args.scale, tmp, ops, seconds=0.0,
            repeats=TRACE_ROUNDS, setup_repeats=1,
        )
    result: dict = {
        "records": measured.prepared.records,
        "workers": measured.workers,
        "host_cpus": e2e.host_cpus(),
        "complete": bool(measured.join and measured.single),
        "samples": {
            "join": [dataclasses.asdict(s) for s in measured.join],
            "single": [dataclasses.asdict(s) for s in measured.single],
            "setup_s": measured.setup,
            "calibrations": measured.calibrations,
        },
    }
    if args.trace != 1 and result["complete"]:
        values = measured.metrics()
        raw = measured.metrics(normalised=False)
        samples = measured.sample_values()
        result["end_to_end"] = {}
        for metric in spec["end_to_end"]:
            key, unit = metric["name"], metric["unit"]
            spread = e2e.iqr(samples[key])
            result["end_to_end"][key] = {
                "value": values[key], "unit": unit, "raw": raw[key],
                "n": len(samples[key]), "iqr": spread,
            }
            print(f"{name} {key} {_fmt(values[key])} {unit} "
                  f"n={len(samples[key])} iqr={spread:.4g}")
    return {"result": result, "ops": ops, "measured": measured}


def traced_pass(name: str, state: dict, out_dir: Path, spec: dict) -> None:
    """The traced pass on one workload; prints the per-layer metric lines."""
    import layers

    result, ops = state["result"], state["ops"]
    traced = layers.traced_pass(state["measured"], out_dir)
    ops.record(
        f"{name} replay == run_serial",
        "" if traced.replay_ok or traced.serial is None
        else "replay rows or meter totals differ from run_serial's",
    )
    for error in traced.errors:
        print(f"{name}: layer failed: {error}", file=sys.stderr)
    unknown = set(traced.metrics) - {m["name"] for m in spec["per_layer"]}
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    result["per_layer"] = {}
    for metric in spec["per_layer"]:
        key, unit = metric["name"], metric["unit"]
        value = traced.metrics.get(key)
        result["per_layer"][key] = {"value": value, "unit": unit}
        print(f"{name} {key} {_fmt(value)} {unit}")
    result["replay_shares"] = traced.replay_shares


def run_all(args, spec: dict) -> Dict[str, dict]:
    """Every end-to-end pass first, then every traced pass: the traced
    pass imports the program and grows this process, and a child's peak
    RSS cannot be told from its parent's once the parent is the larger."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=out_dir) as tmp:
        states = {
            name: end_to_end_pass(name, args, Path(tmp), spec)
            for name in args.workload
        }
        for name, state in states.items():
            if args.trace != 0 and state["result"]["complete"]:
                traced_pass(name, state, out_dir, spec)
    results = {}
    for name, state in states.items():
        result, ops = state["result"], state["ops"]
        result["ops_attempted"] = ops.attempted
        result["ops_failed"] = ops.failed
        result["failures"] = ops.failures
        print(f"{name} ops_attempted {ops.attempted} count")
        print(f"{name} ops_failed {ops.failed} count")
        print(f"{name} error_rate {ops.failed / ops.attempted!r} fraction")
        for failure in ops.failures:
            print(f"{name}: FAILED {failure}", file=sys.stderr)
        results[name] = result
    return results


def print_aa(first: Dict[str, dict], second: Dict[str, dict], spec: dict) -> bool:
    """Relative distance of the two sets' medians, raw and host-normalised,
    against each metric's bound. Returns whether all are inside."""
    inside = True
    for label, results in (("first", first), ("second", second)):
        calibrations = [
            c for r in results.values() for c in r["samples"]["calibrations"]
        ]
        some = next(iter(results.values()))
        print(f"{label} set: host_cpus {some['host_cpus']} "
              f"workers {some['workers']} "
              f"host.calib_s {statistics.median(calibrations):.4f} "
              f"host.speed_spread {max(calibrations) / min(calibrations):.2f}")
    print("workload metric unit bound raw_diff normalised_diff verdict")
    for name in first:
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a, b = first[name]["end_to_end"][key], second[name]["end_to_end"][key]
            raw = abs(b["raw"] - a["raw"]) / a["raw"]
            normalised = abs(b["value"] - a["value"]) / a["value"]
            ok = normalised <= metric["bound"]
            inside = inside and ok
            print(f"{name} {key} {metric['unit']} {metric['bound']:.2f} "
                  f"{raw:.4f} {normalised:.4f} {'ok' if ok else 'OUTSIDE'}")
    return inside


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument("--aa", action="store_true")
    args = parser.parse_args(argv)

    if not (e2e.SRC / "repro").is_dir():
        print(f"run.py: no program to measure at {e2e.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(e2e.SRC))
    spec = load_spec()

    if args.aa:
        args.trace = 0
        first = run_all(args, spec)
        second = run_all(args, spec)
        sets = [first, second]
        inside = print_aa(first, second, spec)
        failed = sum(r["ops_failed"] for s in sets for r in s.values())
        complete = all(r["complete"] for s in sets for r in s.values())
        return 0 if inside and complete and not failed else 1

    results = run_all(args, spec)
    (Path(args.out) / "result.json").write_text(json.dumps({
        "seed": args.seed, "scale": args.scale, "workloads": results,
    }, indent=1))
    correct = all(r["complete"] and not r["ops_failed"] for r in results.values())

    if args.trace is not None and len(results) == 1:
        (result,) = results.values()
        section = result.get("end_to_end" if args.trace == 0 else "per_layer", {})
        print(json.dumps({
            "correct": correct,
            "attempted": result["ops_attempted"],
            "failed": result["ops_failed"],
            "metrics": {
                key: {"value": m["value"], "unit": m["unit"]}
                for key, m in section.items()
            },
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
