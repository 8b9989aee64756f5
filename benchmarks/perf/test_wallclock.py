"""Wall-clock perf suite: columnar fast path vs. reference engine.

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only): these
runs take seconds and report real time, which only means something on a
quiet machine. Run them with ``pytest benchmarks/perf`` — or get the
same payload from ``python -m repro bench --wallclock``.

Assertions here are about *correctness* (the cross-engine equality
checks must hold at full calibrated scale) plus one deliberately loose
sanity bound on the headline ratio; the precise ≥3× acceptance number
lives in ``BENCH_wallclock.json`` and DESIGN §9, regenerated on a quiet
host rather than asserted in CI.
"""

import json

from repro.bench.wallclock import (
    PROBE_SPEEDUP_TARGET,
    correctness_ok,
    render_wallclock,
    wallclock_suite,
)


def test_wallclock_full_scale(benchmark, emit):
    payload = benchmark.pedantic(
        lambda: wallclock_suite(repeats=2), rounds=1, iterations=1
    )
    emit(render_wallclock(payload))
    assert correctness_ok(payload), (
        "cross-engine mismatch:\n" + json.dumps(
            {name: entry["correctness"]
             for name, entry in payload["corpora"].items()},
            indent=1,
        )
    )
    headline = payload["headline"]
    emit(f"headline probe speedup x{headline['probe_speedup']:.2f} "
         f"(acceptance target x{PROBE_SPEEDUP_TARGET:.1f})")
    # Loose floor only: CI runners are noisy. The committed
    # BENCH_wallclock.json reads 3.50x.
    assert headline["probe_speedup"] > 1.0


def test_wallclock_scaled_smoke(emit):
    """The scale knob keeps correctness intact at smoke sizes."""
    payload = wallclock_suite(repeats=1, scale=0.1)
    emit(render_wallclock(payload))
    assert correctness_ok(payload)
    for entry in payload["corpora"].values():
        assert entry["results"] > 0  # the scaled stream still joins
    micro = payload["verify_micro"]
    assert micro["pairs"] > 0 and micro["token_comparisons"] > 0
