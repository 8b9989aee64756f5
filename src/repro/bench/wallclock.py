"""Wall-clock microbenchmarks: columnar fast path vs. reference engine.

Everything else in the repository measures *metered* work — cost-model
units over the Storm simulator, deliberately independent of host speed.
This module is the one place that measures real time: it drives the
columnar :class:`~repro.core.local_join.StreamingSetJoin` and the
retained pre-columnar
:class:`~repro.core.reference.ReferenceStreamingSetJoin` over identical
bench-calibrated streams and times the two hot phases separately
(methodology in DESIGN §9):

* **insert phase** — index every record (builds the full posting index);
* **probe phase** — probe every record against the fixed, fully-built
  index (no interleaved mutation, so the number is a clean per-probe
  cost).

Phases are timed best-of-``repeats`` on fresh engines (best, not mean:
the minimum is the least noise-contaminated estimate of the true cost
on a time-shared machine). Every run also cross-checks correctness —
identical match multisets, identical :class:`WorkMeter` operation and
event totals, identical ``live_postings`` — so a wall-clock win can
never hide a semantic drift. A small ``verify_pair`` microbenchmark
rides along to put the shared verification primitive's cost on record.

The suite writes ``BENCH_wallclock.json`` (see :func:`wallclock_suite`
for the schema) via ``python -m repro bench --wallclock``. The headline
is the probe-phase speedup on the AOL bench configuration; CI treats a
correctness mismatch as failure but never the timings themselves
(shared runners are too noisy to gate on).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import JoinConfig
from repro.core.local_join import StreamingSetJoin
from repro.core.metering import WorkMeter
from repro.core.reference import ReferenceStreamingSetJoin
from repro.datasets.corpora import synthetic_aol, synthetic_tweet
from repro.parallel.runtime import ParallelJoinRunner, run_serial
from repro.parallel.worker import peak_rss_bytes
from repro.records import Record
from repro.similarity.functions import get_similarity
from repro.similarity.verification import verify_pair
from repro.sketch.analysis import expected_recall, recall_lower_bound
from repro.sketch.engine import SketchStreamingSetJoin
from repro.sketch.minhash import MinHashScheme

#: The paper-start-date seed used by every calibrated bench workload.
SEED = 20200420

#: Probe-phase speedup the columnar engine must deliver on the AOL
#: bench configuration (the suite's headline acceptance target).
PROBE_SPEEDUP_TARGET = 3.0

#: Worker counts of the multi-core scaling sweep (capped at the CLI's
#: ``--workers``; 1 is always measured — it is the speedup baseline).
SCALING_WORKER_COUNTS = (1, 2, 4, 8)

#: Combined (insert+probe) wall-clock speedup the parallel runtime
#: targets at 4 workers over 1 worker, on hosts with >= 4 cores.
PARALLEL_SPEEDUP_TARGET = 1.6

#: Maximum acceptable wall-clock overhead of heartbeat telemetry at the
#: default sampling interval (fraction over the telemetry-off wall).
TELEMETRY_OVERHEAD_TARGET = 0.05

#: Maximum acceptable wall-clock overhead of record tracing at the
#: default sampling stride (fraction over the tracing-off wall).
TRACE_OVERHEAD_TARGET = 0.05

#: Maximum acceptable cost of archiving a finished run into the
#: persistent flight recorder, as a fraction of the run's own wall
#: time (the archive write happens after the join completes, so the
#: fraction is purely additive latency).
ARCHIVE_OVERHEAD_TARGET = 0.05

#: The headline corpus (density-calibrated like ``benchmarks.common``:
#: the paper's postings-per-token density at laptop-scale record
#: counts).
HEADLINE_CORPUS = "AOL"

#: (perms, bands) grid the sketch frontier sweeps. Rows per band =
#: perms // bands; fewer rows per band means more collisions (higher
#: recall, more verification work), more permutations mean slower
#: sketching but a finer similarity estimate.
SKETCH_FRONTIER_GRID: Tuple[Tuple[int, int], ...] = (
    (16, 4), (32, 4), (64, 4), (64, 8), (128, 4),
)

#: Minimum measured recall a grid config must reach to qualify for the
#: sketch headline.
SKETCH_RECALL_TARGET = 0.95

#: Probe-phase speedup over the exact columnar engine the qualifying
#: sketch config must deliver (the frontier's acceptance gate).
SKETCH_SPEEDUP_TARGET = 2.0


def _aol_stream(n: int, seed: int):
    return synthetic_aol(n, seed=seed, vocabulary_size=800, duplicate_rate=0.15)


def _tweet_stream(n: int, seed: int):
    return synthetic_tweet(n, seed=seed, vocabulary_size=1_200, duplicate_rate=0.25)


#: corpus name → (records, generator, generator description). Sizes are
#: chosen so the whole suite stays under ~30 s on a laptop while the
#: reference probe phase is long enough (hundreds of ms) to time
#: reliably.
WALLCLOCK_CORPORA: Dict[str, Tuple[int, Callable, Dict[str, object]]] = {
    "AOL": (
        15_000,
        _aol_stream,
        {"vocabulary_size": 800, "duplicate_rate": 0.15},
    ),
    "TWEET": (
        10_000,
        _tweet_stream,
        {"vocabulary_size": 1_200, "duplicate_rate": 0.25},
    ),
}


def _match_key(probe_rid: int, match) -> Tuple[int, int, float, int]:
    return (probe_rid, match.partner.rid, round(match.similarity, 12), match.overlap)


def _run_engine(
    engine_cls,
    records: List[Record],
    similarity: str,
    threshold: float,
    repeats: int,
    expiry: str = "lazy",
) -> Dict[str, object]:
    """Time insert/probe phases best-of-``repeats`` on fresh engines.

    The timed probe loop only takes ``len()`` of each result list so the
    measurement is the engine's cost, not the harness's: per-match
    bookkeeping is a constant absolute cost on both engines and would
    otherwise compress the reported ratio. The correctness artefacts
    (match keys, meter totals, live postings) come from one extra
    untimed pass on a fresh engine.
    """
    best_insert = best_probe = float("inf")
    results = 0
    for _ in range(repeats):
        func = get_similarity(similarity, threshold)
        engine = engine_cls(func, meter=WorkMeter(), expiry=expiry)
        probe = engine.probe
        t0 = time.perf_counter()
        for record in records:
            engine.insert(record)
        t1 = time.perf_counter()
        results = 0
        t2 = time.perf_counter()
        for record in records:
            results += len(probe(record))
        t3 = time.perf_counter()
        best_insert = min(best_insert, t1 - t0)
        best_probe = min(best_probe, t3 - t2)

    func = get_similarity(similarity, threshold)
    meter = WorkMeter()
    engine = engine_cls(func, meter=meter, expiry=expiry)
    for record in records:
        engine.insert(record)
    matches: List[Tuple[int, int, float, int]] = []
    for record in records:
        for match in engine.probe(record):
            matches.append(_match_key(record.rid, match))
    matches.sort()
    assert results == len(matches), (
        f"timed pass saw {results} results, correctness pass {len(matches)}"
    )
    return {
        "insert_s": best_insert,
        "probe_s": best_probe,
        "matches": matches,
        "operations": dict(meter.operations),
        "events": dict(meter.events),
        "live_postings": engine.live_postings,
    }


def _verify_micro(records: List[Record], threshold: float, repeats: int) -> Dict:
    """Microbenchmark of the shared ``verify_pair`` primitive.

    Times from-scratch merges over a deterministic sample of
    length-compatible record pairs — the irreducible verification cost
    both engines pay per admitted candidate.
    """
    func = get_similarity("jaccard", threshold)
    pairs = []
    nonempty = [r for r in records if r.size]
    for i in range(0, min(len(nonempty) - 1, 4_000), 2):
        r, s = nonempty[i], nonempty[i + 1]
        lo, hi = func.length_bounds(r.size)
        if lo <= s.size <= hi:
            pairs.append((r.tokens, s.tokens, func.min_overlap(r.size, s.size)))
    if not pairs:
        return {"pairs": 0}
    best = float("inf")
    comparisons = 0
    for _ in range(repeats):
        comparisons = 0
        t0 = time.perf_counter()
        for r_tokens, s_tokens, required in pairs:
            comparisons += verify_pair(r_tokens, s_tokens, required)[1]
        best = min(best, time.perf_counter() - t0)
    return {
        "pairs": len(pairs),
        "token_comparisons": comparisons,
        "best_s": best,
        "verifications_per_s": round(len(pairs) / best) if best > 0 else None,
    }


def _run_sketch_engine(
    records: List[Record],
    similarity: str,
    threshold: float,
    repeats: int,
    perms: int,
    bands: int,
) -> Dict[str, object]:
    """:func:`_run_engine`'s twin for the sketch tier.

    A fresh :class:`MinHashScheme` per repeat keeps the timing honest:
    the insert phase pays the cold signature computation (the memo
    helps only within a run, exactly as in streaming use)."""
    best_insert = best_probe = float("inf")
    results = 0
    for _ in range(repeats):
        func = get_similarity(similarity, threshold)
        engine = SketchStreamingSetJoin(
            func, scheme=MinHashScheme(perms=perms, bands=bands),
            meter=WorkMeter(),
        )
        probe = engine.probe
        t0 = time.perf_counter()
        for record in records:
            engine.insert(record)
        t1 = time.perf_counter()
        results = 0
        t2 = time.perf_counter()
        for record in records:
            results += len(probe(record))
        t3 = time.perf_counter()
        best_insert = min(best_insert, t1 - t0)
        best_probe = min(best_probe, t3 - t2)

    func = get_similarity(similarity, threshold)
    engine = SketchStreamingSetJoin(
        func, scheme=MinHashScheme(perms=perms, bands=bands),
        meter=WorkMeter(),
    )
    for record in records:
        engine.insert(record)
    matches: List[Tuple[int, int, float, int]] = []
    for record in records:
        for match in engine.probe(record):
            matches.append(_match_key(record.rid, match))
    matches.sort()
    assert results == len(matches), (
        f"timed pass saw {results} results, correctness pass {len(matches)}"
    )
    return {
        "insert_s": best_insert,
        "probe_s": best_probe,
        "matches": matches,
        "live_postings": engine.live_postings,
    }


def _frontier_pairs(matches) -> Dict[Tuple[int, int], float]:
    """Distinct non-self unordered pairs (with similarity) of an
    insert-all-then-probe-all match list."""
    pairs: Dict[Tuple[int, int], float] = {}
    for probe_rid, partner_rid, similarity, _overlap in matches:
        if probe_rid == partner_rid:
            continue
        key = (
            (probe_rid, partner_rid)
            if probe_rid < partner_rid
            else (partner_rid, probe_rid)
        )
        pairs[key] = similarity
    return pairs


def _frontier_run(corpus: str, n: int, seed: int, similarity: str,
                  threshold: float, repeats: int,
                  perms: Optional[int], bands: Optional[int]) -> Dict[str, object]:
    """One frontier mode: regenerate the corpus, run the engine, reduce
    the match list to the JSON-safe summary both transports share."""
    _, generator, _ = WALLCLOCK_CORPORA[corpus]
    records = list(generator(n, seed))
    if perms is None:
        out = _run_engine(
            StreamingSetJoin, records, similarity, threshold, repeats
        )
    else:
        out = _run_sketch_engine(
            records, similarity, threshold, repeats, perms, bands
        )
    return {
        "insert_s": out["insert_s"],
        "probe_s": out["probe_s"],
        "results": len(out["matches"]),
        "pairs": sorted(_frontier_pairs(out["matches"]).items()),
        "peak_rss_bytes": peak_rss_bytes(),
    }


def _frontier_child_main() -> None:
    """Child-process entry for a frontier mode (``python -c`` target).

    Reads one JSON parameter object from stdin and writes the result
    JSON to stdout. Running each mode in a fresh interpreter is what
    makes ``peak_rss_bytes`` meaningful per mode: ``ru_maxrss`` is a
    process-lifetime high-water mark, so measuring the exact index and
    the sketch tiers in one process would report the exact index's
    peak for everyone. (A plain subprocess rather than a spawn-context
    worker so the parent's ``__main__`` module is never re-imported —
    the section then works identically from the CLI, pytest or a
    script.)"""
    params = json.loads(sys.stdin.read())
    out = _frontier_run(
        params["corpus"], params["n"], params["seed"], params["similarity"],
        params["threshold"], params["repeats"], params["perms"],
        params["bands"],
    )
    sys.stdout.write(json.dumps(out))


def _frontier_mode(corpus: str, n: int, seed: int, similarity: str,
                   threshold: float, repeats: int,
                   perms: Optional[int] = None,
                   bands: Optional[int] = None) -> Dict[str, object]:
    """Run one frontier mode, preferring process isolation for RSS.

    Falls back to in-process measurement (flagged ``isolated: False``
    — its peak RSS then reflects the whole suite, not the mode) if
    subprocesses are unavailable or the child fails."""
    params = json.dumps({
        "corpus": corpus, "n": n, "seed": seed, "similarity": similarity,
        "threshold": threshold, "repeats": repeats,
        "perms": perms, "bands": bands,
    })
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro.bench.wallclock import _frontier_child_main; "
             "_frontier_child_main()"],
            input=params.encode(), capture_output=True, env=env,
        )
        if proc.returncode != 0:
            raise OSError(
                f"frontier child exited {proc.returncode}: "
                f"{proc.stderr.decode(errors='replace')[-500:]}"
            )
        out = json.loads(proc.stdout.decode())
        out["isolated"] = True
        return out
    except (OSError, ValueError, subprocess.SubprocessError):
        out = _frontier_run(
            corpus, n, seed, similarity, threshold, repeats, perms, bands
        )
        out["isolated"] = False
        return out


def sketch_frontier_section(
    repeats: int = 3,
    similarity: str = "jaccard",
    threshold: float = 0.8,
    seed: int = SEED,
    scale: float = 1.0,
    corpus: str = HEADLINE_CORPUS,
    grid: Tuple[Tuple[int, int], ...] = SKETCH_FRONTIER_GRID,
) -> Dict[str, object]:
    """The speed-vs-recall frontier (``sketch.frontier`` in the payload).

    Sweeps the (perms, bands) grid over the headline corpus, measuring
    each config's insert/probe wall time (best-of-``repeats``, same
    methodology as the exact engines) against the exact columnar
    engine, plus:

    * **measured recall/precision** — the config's distinct non-self
      pair set against the exact engine's (precision must be exactly
      1.0: candidates pass the same ``verify_pair``);
    * **analytic expectation** — :func:`expected_recall` and the
      4-sigma :func:`recall_lower_bound` over the exact pairs'
      similarities, so the measurement is checked against the banding
      model ``1-(1-s^rows)^bands``;
    * **peak RSS per mode** — each mode runs in its own spawned
      process (sketch state is tiny; the number shows it);
    * **determinism** — the headline config's streaming observables
      (operation/event totals, match rows) are bit-identical between
      :func:`run_serial` and the inline runner at 1 and 2 workers.

    The headline is the fastest grid config whose measured recall
    reaches :data:`SKETCH_RECALL_TARGET`; the gate is
    :data:`SKETCH_SPEEDUP_TARGET` x probe speedup at that recall.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    base_n, generator, gen_config = WALLCLOCK_CORPORA[corpus]
    n = max(100, int(base_n * scale))

    exact = _frontier_mode(corpus, n, seed, similarity, threshold, repeats)
    exact_pairs = {tuple(key): sim for key, sim in exact["pairs"]}
    exact_keys = frozenset(exact_pairs)
    similarities = list(exact_pairs.values())

    section: Dict[str, object] = {
        "corpus": corpus,
        "records": n,
        "generator": dict(gen_config),
        "threshold": threshold,
        "repeats": repeats,
        "recall_target": SKETCH_RECALL_TARGET,
        "speedup_target": SKETCH_SPEEDUP_TARGET,
        "exact": {
            "insert_s": round(exact["insert_s"], 6),
            "probe_s": round(exact["probe_s"], 6),
            "results": exact["results"],
            "pairs": len(exact_keys),
            "peak_rss_bytes": exact["peak_rss_bytes"],
            "isolated": exact["isolated"],
        },
        "grid": {},
    }

    precision_one = True
    recall_above_bound = True
    for perms, bands in grid:
        run = _frontier_mode(
            corpus, n, seed, similarity, threshold, repeats, perms, bands
        )
        keys = frozenset(tuple(key) for key, _sim in run["pairs"])
        true_positives = len(keys & exact_keys)
        recall = true_positives / len(exact_keys) if exact_keys else 1.0
        precision = true_positives / len(keys) if keys else 1.0
        rows = perms // bands
        bound = recall_lower_bound(similarities, rows, bands)
        precision_one = precision_one and precision == 1.0
        recall_above_bound = recall_above_bound and recall >= bound
        section["grid"][f"{perms}x{bands}"] = {
            "perms": perms,
            "bands": bands,
            "rows": rows,
            "insert_s": round(run["insert_s"], 6),
            "probe_s": round(run["probe_s"], 6),
            "probe_speedup": round(exact["probe_s"] / run["probe_s"], 3),
            "insert_speedup": round(exact["insert_s"] / run["insert_s"], 3),
            "results": run["results"],
            "pairs": len(keys),
            "recall": round(recall, 6),
            "precision": round(precision, 6),
            "expected_recall": round(
                expected_recall(similarities, rows, bands), 6
            ),
            "recall_lower_bound": round(bound, 6),
            "peak_rss_bytes": run["peak_rss_bytes"],
            "rss_vs_exact": round(
                run["peak_rss_bytes"] / exact["peak_rss_bytes"], 3
            ) if exact["peak_rss_bytes"] else None,
            "isolated": run["isolated"],
        }

    qualifying = [
        (name, entry) for name, entry in section["grid"].items()
        if entry["recall"] >= SKETCH_RECALL_TARGET
    ]
    if qualifying:
        name, entry = max(qualifying, key=lambda item: item[1]["probe_speedup"])
    else:  # nothing reached the recall floor: report the closest miss
        name, entry = max(
            section["grid"].items(), key=lambda item: item[1]["recall"]
        )
    section["headline"] = {
        "config": name,
        "probe_speedup": entry["probe_speedup"],
        "recall": entry["recall"],
        "precision": entry["precision"],
        "recall_target": SKETCH_RECALL_TARGET,
        "speedup_target": SKETCH_SPEEDUP_TARGET,
        "meets_target": (
            entry["recall"] >= SKETCH_RECALL_TARGET
            and entry["probe_speedup"] >= SKETCH_SPEEDUP_TARGET
            and entry["precision"] == 1.0
        ),
    }

    # Streaming determinism: the headline config's observables must not
    # depend on how the work is executed (serial vs inline-sharded).
    perms, bands = entry["perms"], entry["bands"]
    config = JoinConfig(
        mode="approx", perms=perms, bands=bands,
        similarity=similarity, threshold=threshold,
    )
    stream = generator(n, seed)
    serial = run_serial(config, stream)
    observables_identical = True
    matches_identical = True
    for workers in (1, 2):
        result = ParallelJoinRunner(
            config, workers=workers, executor="inline"
        ).run(stream)
        observables_identical = observables_identical and (
            result.operations == serial.operations
            and result.events == serial.events
        )
        matches_identical = matches_identical and (
            sorted(result.matches) == sorted(serial.matches)
        )
    section["determinism"] = {
        "config": name,
        "workers": [1, 2],
        "observables_identical": observables_identical,
        "matches_identical": matches_identical,
    }
    section["correctness"] = {
        "precision_one": precision_one,
        "recall_above_bound": recall_above_bound,
        "observables_identical": observables_identical,
        "matches_identical": matches_identical,
    }
    return section


def parallel_scaling_section(
    max_workers: int = 8,
    repeats: int = 3,
    similarity: str = "jaccard",
    threshold: float = 0.8,
    seed: int = SEED,
    scale: float = 1.0,
    corpus: str = HEADLINE_CORPUS,
    batch_size: Optional[int] = None,
) -> Dict[str, object]:
    """The multi-core scaling sweep (``parallel.scaling`` in the payload).

    One calibrated streaming workload (probe-and-insert over the
    headline corpus, length-routed over the default shard count) is run
    through :class:`~repro.parallel.runtime.ParallelJoinRunner` at each
    worker count of :data:`SCALING_WORKER_COUNTS` up to ``max_workers``,
    best-of-``repeats`` wall time per count. Every run's observables
    (match rows, operation and event totals) are diffed against
    :func:`~repro.parallel.runtime.run_serial` ground truth — the
    correctness booleans CI gates on. Timings are reported, never
    gated: ``host_cpus`` is recorded so a single-core runner's flat
    curve reads as what it is, and the 4-worker speedup target is only
    meaningful on hosts with >= 4 cores.

    Runs record wall-clock spans (:mod:`repro.obs.spans`), and each
    worker-count entry embeds the best run's ``phase_totals`` — where
    the wall time went (driver setup/drain/merge, per-worker
    route/probe/insert) — so phase shares are tracked run-over-run in
    ``BENCH_wallclock.json``. The span recorder's measured overhead is
    a few microseconds per batch (reported in the totals' source
    header), far below run-to-run noise.
    """
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    counts = [w for w in SCALING_WORKER_COUNTS if w <= max_workers]
    if not counts:
        counts = [1]
    base_n, generator, _ = WALLCLOCK_CORPORA[corpus]
    n = max(100, int(base_n * scale))
    records = list(generator(n, seed))
    config = JoinConfig(similarity=similarity, threshold=threshold)
    if batch_size is not None:
        config = config.replace(batch_size=batch_size)

    serial = run_serial(config, records)
    section: Dict[str, object] = {
        "corpus": corpus,
        "records": n,
        "shards": serial.num_shards,
        "batch_size": config.batch_size,
        "host_cpus": os.cpu_count(),
        "workers": {},
    }
    baseline_wall: Optional[float] = None
    for workers in counts:
        runner = ParallelJoinRunner(config, workers=workers, spans=True)
        best = None
        for _ in range(repeats):
            result = runner.run(records)
            if best is None or result.wall_s < best.wall_s:
                best = result
        correctness = {
            "matches_equal": best.matches == serial.matches,
            "operations_equal": best.operations == serial.operations,
            "events_equal": best.events == serial.events,
        }
        if baseline_wall is None:
            baseline_wall = best.wall_s
        speedup = baseline_wall / best.wall_s if best.wall_s > 0 else 0.0
        section["workers"][str(workers)] = {
            "wall_s": round(best.wall_s, 6),
            "throughput_rps": round(best.throughput, 1),
            "speedup": round(speedup, 3),
            "efficiency": round(speedup / workers, 3),
            "busy_s": [round(s["busy_s"], 6) for s in best.worker_stats],
            "correctness": correctness,
            "phase_totals": best.phase_totals(),
        }
    at4 = section["workers"].get("4")
    section["target"] = PARALLEL_SPEEDUP_TARGET
    section["speedup_at_4"] = at4["speedup"] if at4 else None
    section["meets_target"] = (
        at4["speedup"] >= PARALLEL_SPEEDUP_TARGET if at4 else None
    )
    cpus = os.cpu_count() or 1
    if cpus < 4:
        section["note"] = (
            f"host has {cpus} CPU core(s): the {PARALLEL_SPEEDUP_TARGET}x "
            "4-worker target is calibrated for >= 4 cores; timings here "
            "measure runtime overhead, not scaling"
        )
    return section


def telemetry_overhead_section(
    workers: int = 2,
    repeats: int = 3,
    similarity: str = "jaccard",
    threshold: float = 0.8,
    seed: int = SEED,
    scale: float = 1.0,
    corpus: str = HEADLINE_CORPUS,
    batch_size: Optional[int] = None,
) -> Dict[str, object]:
    """Heartbeat-telemetry overhead check (``parallel.telemetry``).

    The same calibrated workload the scaling sweep uses is run through
    the process executor twice — telemetry off, then telemetry on at
    the default :data:`~repro.obs.timeseries.DEFAULT_HEARTBEAT_INTERVAL`
    — best-of-``repeats`` each. ``overhead_fraction`` is the relative
    wall-clock cost of the heartbeat channel (``on/off - 1``; negative
    values are run-to-run noise, reported as measured). The telemetry-on
    run's observables are diffed against
    :func:`~repro.parallel.runtime.run_serial` ground truth —
    ``correctness`` is the differential guarantee CI gates on, the
    timing target (:data:`TELEMETRY_OVERHEAD_TARGET`) is reported but
    never gated (shared runners are too noisy).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    from repro.obs.timeseries import DEFAULT_HEARTBEAT_INTERVAL

    base_n, generator, _ = WALLCLOCK_CORPORA[corpus]
    n = max(100, int(base_n * scale))
    records = list(generator(n, seed))
    config = JoinConfig(similarity=similarity, threshold=threshold)
    if batch_size is not None:
        config = config.replace(batch_size=batch_size)
    serial = run_serial(config, records)

    # Interleave off/on pairs (not all-off-then-all-on) so slow drift
    # on a time-shared host cancels instead of biasing the ratio.
    off = on = None
    for _ in range(repeats):
        result = ParallelJoinRunner(config, workers=workers).run(records)
        if off is None or result.wall_s < off.wall_s:
            off = result
        result = ParallelJoinRunner(
            config, workers=workers, telemetry=True
        ).run(records)
        if on is None or result.wall_s < on.wall_s:
            on = result
    # From the rounded fields, so a reader of the payload recomputes
    # exactly this fraction.
    wall_off_s = round(off.wall_s, 6)
    wall_on_s = round(on.wall_s, 6)
    overhead = wall_on_s / wall_off_s - 1.0 if wall_off_s > 0 else 0.0
    samples = on.telemetry_samples()
    dropped = sum(
        int(stats.get("heartbeats_dropped", 0) or 0)
        for stats in on.worker_stats
    )
    health_events = sum(
        1 for row in (on.telemetry or []) if row.get("kind") == "health"
    )
    return {
        "corpus": corpus,
        "records": n,
        "workers": workers,
        "interval_s": DEFAULT_HEARTBEAT_INTERVAL,
        "wall_off_s": wall_off_s,
        "wall_on_s": wall_on_s,
        "overhead_fraction": round(overhead, 4),
        "target": TELEMETRY_OVERHEAD_TARGET,
        "meets_target": overhead <= TELEMETRY_OVERHEAD_TARGET,
        "samples": samples,
        "dropped": dropped,
        "health_events": health_events,
        "correctness": {
            "matches_equal": on.matches == serial.matches,
            "operations_equal": on.operations == serial.operations,
            "events_equal": on.events == serial.events,
        },
    }


def trace_overhead_section(
    workers: int = 2,
    repeats: int = 3,
    similarity: str = "jaccard",
    threshold: float = 0.8,
    seed: int = SEED,
    scale: float = 1.0,
    corpus: str = HEADLINE_CORPUS,
    batch_size: Optional[int] = None,
) -> Dict[str, object]:
    """Record-tracing overhead + latency digest (``parallel.latency``).

    Mirrors :func:`telemetry_overhead_section`: the calibrated workload
    runs through the process executor in interleaved off/on pairs —
    tracing off, then tracing on at the default
    :data:`~repro.obs.rectrace.DEFAULT_TRACE_SAMPLE` stride —
    best-of-``repeats`` each. ``overhead_fraction`` is the relative
    wall-clock cost of stamping and shipping the trace (``on/off -
    1``). The traced run also contributes the per-stage p50/p95/p99
    latency digest (``stages``) — the committed benchmark's record of
    what a sampled record experiences end to end. ``correctness`` diffs
    the traced run against :func:`~repro.parallel.runtime.run_serial`
    ground truth and is folded into :func:`correctness_ok`; the timing
    target (:data:`TRACE_OVERHEAD_TARGET`) is reported but never gated
    (shared runners are too noisy).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    from repro.obs.rectrace import DEFAULT_TRACE_SAMPLE

    base_n, generator, _ = WALLCLOCK_CORPORA[corpus]
    n = max(100, int(base_n * scale))
    records = list(generator(n, seed))
    config = JoinConfig(similarity=similarity, threshold=threshold)
    if batch_size is not None:
        config = config.replace(batch_size=batch_size)
    serial = run_serial(config, records)

    # Interleaved off/on pairs, same drift-cancelling discipline as the
    # telemetry section.
    off = on = None
    for _ in range(repeats):
        result = ParallelJoinRunner(config, workers=workers).run(records)
        if off is None or result.wall_s < off.wall_s:
            off = result
        result = ParallelJoinRunner(
            config, workers=workers, trace=True
        ).run(records)
        if on is None or result.wall_s < on.wall_s:
            on = result
    # From the rounded fields, so a reader of the payload recomputes
    # exactly this fraction.
    wall_off_s = round(off.wall_s, 6)
    wall_on_s = round(on.wall_s, 6)
    overhead = wall_on_s / wall_off_s - 1.0 if wall_off_s > 0 else 0.0
    header = on.trace_header or {}
    return {
        "corpus": corpus,
        "records": n,
        "workers": workers,
        "sample": DEFAULT_TRACE_SAMPLE,
        "wall_off_s": wall_off_s,
        "wall_on_s": wall_on_s,
        "overhead_fraction": round(overhead, 4),
        "target": TRACE_OVERHEAD_TARGET,
        "meets_target": overhead <= TRACE_OVERHEAD_TARGET,
        "traced": header.get("traced", 0),
        "events": header.get("events", 0),
        "stages": header.get("stages", {}),
        "correctness": {
            "matches_equal": on.matches == serial.matches,
            "operations_equal": on.operations == serial.operations,
            "events_equal": on.events == serial.events,
        },
    }


def archive_overhead_section(
    workers: int = 2,
    repeats: int = 3,
    similarity: str = "jaccard",
    threshold: float = 0.8,
    seed: int = SEED,
    scale: float = 1.0,
    corpus: str = HEADLINE_CORPUS,
    batch_size: Optional[int] = None,
) -> Dict[str, object]:
    """Flight-recorder cost + fidelity check (``parallel.archive``).

    The calibrated workload runs once through the process executor,
    then the finished result is archived into a throwaway SQLite
    database best-of-``repeats`` times — exactly what the CLI's
    auto-capture does after every ``repro join --parallel``.
    ``overhead_fraction`` is ``archive_write_s / wall_run_s``: the
    archive write happens after the join finishes, so the fraction is
    purely additive latency on the invocation. ``correctness`` checks
    the run against :func:`~repro.parallel.runtime.run_serial` ground
    truth AND that the fingerprint reconstructed from the database is
    bit-identical to the in-memory one (``fingerprint_roundtrip``) —
    folded into :func:`correctness_ok`. The timing target
    (:data:`ARCHIVE_OVERHEAD_TARGET`) is reported but never gated.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    import tempfile

    from repro.obs.archive import RunArchive

    base_n, generator, _ = WALLCLOCK_CORPORA[corpus]
    n = max(100, int(base_n * scale))
    records = list(generator(n, seed))
    config = JoinConfig(similarity=similarity, threshold=threshold)
    if batch_size is not None:
        config = config.replace(batch_size=batch_size)
    serial = run_serial(config, records)
    result = None
    for _ in range(repeats):
        candidate = ParallelJoinRunner(config, workers=workers).run(records)
        if result is None or candidate.wall_s < result.wall_s:
            result = candidate

    write_s = None
    run_id = None
    roundtrip = False
    observables = 0
    with tempfile.TemporaryDirectory() as scratch:
        with RunArchive(os.path.join(scratch, "archive.db")) as archive:
            for _ in range(repeats):
                started = time.perf_counter()
                run_id = archive.record_parallel_run(
                    result, source="bench-overhead", seed=seed
                )
                elapsed = time.perf_counter() - started
                if write_s is None or elapsed < write_s:
                    write_s = elapsed
            stored = archive.fingerprint(run_id)
            roundtrip = stored == result.fingerprint()
            observables = len(stored["exact"]) + len(stored["banded"])
    # From the rounded fields, so a reader of the payload recomputes
    # exactly this fraction.
    wall_run_s = round(result.wall_s, 6)
    archive_write_s = round(write_s, 6)
    overhead = archive_write_s / wall_run_s if wall_run_s > 0 else 0.0
    return {
        "corpus": corpus,
        "records": n,
        "workers": workers,
        "wall_run_s": wall_run_s,
        "archive_write_s": archive_write_s,
        "overhead_fraction": round(overhead, 4),
        "target": ARCHIVE_OVERHEAD_TARGET,
        "meets_target": overhead <= ARCHIVE_OVERHEAD_TARGET,
        "archived_observables": observables,
        "correctness": {
            "matches_equal": result.matches == serial.matches,
            "operations_equal": result.operations == serial.operations,
            "events_equal": result.events == serial.events,
            "fingerprint_roundtrip": roundtrip,
        },
    }


def transport_comparison_section(
    workers: int = 2,
    repeats: int = 3,
    similarity: str = "jaccard",
    threshold: float = 0.8,
    seed: int = SEED,
    scale: float = 1.0,
    corpus: str = HEADLINE_CORPUS,
    batch_size: Optional[int] = None,
) -> Dict[str, object]:
    """Pipe vs. shared-memory transport A/B (``parallel.transport``).

    The calibrated workload runs through the process executor in
    interleaved pipe/shm pairs (drift on a time-shared host cancels
    instead of biasing the ratio). A transport carries results only —
    records are handed to the workers at start-up — so each reports
    just its best wall time, and ``shm_wins`` says whether shm's was
    the smaller. Observables of both runs are diffed against
    :func:`~repro.parallel.runtime.run_serial` ground truth and folded
    into :func:`correctness_ok`; like every wall-clock number, the
    timings themselves are reported, never gated, in CI.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    from repro.parallel.shm import shm_supported

    ok, reason = shm_supported()
    if not ok:
        return {"supported": False, "reason": reason}
    base_n, generator, _ = WALLCLOCK_CORPORA[corpus]
    n = max(100, int(base_n * scale))
    records = list(generator(n, seed))
    config = JoinConfig(similarity=similarity, threshold=threshold)
    if batch_size is not None:
        config = config.replace(batch_size=batch_size)
    serial = run_serial(config, records)

    best: Dict[str, object] = {}
    for _ in range(repeats):
        for transport in ("pipe", "shm"):
            result = ParallelJoinRunner(
                config, workers=workers, transport=transport
            ).run(records)
            if transport not in best or result.wall_s < best[transport].wall_s:
                best[transport] = result

    section: Dict[str, object] = {
        "supported": True,
        "corpus": corpus,
        "records": n,
        "workers": workers,
        "batch_size": config.batch_size,
    }
    for transport in ("pipe", "shm"):
        result = best[transport]
        section[transport] = {
            "wall_s": round(result.wall_s, 6),
            "correctness": {
                "matches_equal": result.matches == serial.matches,
                "operations_equal": result.operations == serial.operations,
                "events_equal": result.events == serial.events,
            },
        }
    section["shm_wins"] = best["shm"].wall_s < best["pipe"].wall_s
    return section


def wallclock_suite(
    corpora: Optional[List[str]] = None,
    repeats: int = 3,
    similarity: str = "jaccard",
    threshold: float = 0.8,
    seed: int = SEED,
    scale: float = 1.0,
    workers: Optional[int] = None,
    batch_size: Optional[int] = None,
) -> Dict[str, object]:
    """Run the wall-clock comparison; return the report payload.

    Parameters
    ----------
    corpora:
        Corpus names from :data:`WALLCLOCK_CORPORA` (default: all).
    repeats:
        Repeats per engine/phase; the best time is reported.
    scale:
        Multiplier on the calibrated record counts (CI smoke runs can
        pass < 1 for speed; the headline target is calibrated at 1.0).
    workers:
        When set, also run the multi-core scaling sweep up to this many
        worker processes and attach it as ``payload["parallel"]
        ["scaling"]`` (see :func:`parallel_scaling_section`), plus the
        heartbeat-telemetry overhead check as ``payload["parallel"]
        ["telemetry"]`` (see :func:`telemetry_overhead_section`) and
        the record-tracing overhead + per-stage latency digest as
        ``payload["parallel"]["latency"]`` (see
        :func:`trace_overhead_section`).
    batch_size:
        IPC batch size for the scaling sweep (default:
        ``JoinConfig.batch_size``).

    The returned payload (serialised as ``BENCH_wallclock.json``)::

        {
          "schema": "repro/wallclock/v1",
          "similarity": ..., "threshold": ..., "seed": ..., "repeats": ...,
          "corpora": {
            "<name>": {
              "records": ..., "generator": {...},
              "reference": {"insert_s": ..., "probe_s": ...},
              "columnar":  {"insert_s": ..., "probe_s": ...},
              "probe_speedup": ..., "insert_speedup": ...,
              "combined_speedup": ..., "results": ...,
              "posting_scans": ..., "candidate_admits": ..., "result_emits": ...,
              "correctness": {"matches_equal": ..., "operations_equal": ...,
                              "events_equal": ..., "live_postings_equal": ...}
            }, ...
          },
          "verify_micro": {...},
          "headline": {"corpus": "AOL", "probe_speedup": ...,
                       "target": 3.0, "meets_target": ...}
        }
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    names = list(corpora) if corpora is not None else list(WALLCLOCK_CORPORA)
    unknown = [name for name in names if name not in WALLCLOCK_CORPORA]
    if unknown:
        raise ValueError(
            f"unknown wallclock corpora {unknown}; "
            f"available: {sorted(WALLCLOCK_CORPORA)}"
        )
    payload: Dict[str, object] = {
        "schema": "repro/wallclock/v1",
        "similarity": similarity,
        "threshold": threshold,
        "seed": seed,
        "repeats": repeats,
        "scale": scale,
        "corpora": {},
    }
    verify_records: List[Record] = []
    for name in names:
        base_n, generator, gen_config = WALLCLOCK_CORPORA[name]
        n = max(100, int(base_n * scale))
        records = list(generator(n, seed))
        if not verify_records:
            verify_records = records
        reference = _run_engine(
            ReferenceStreamingSetJoin, records, similarity, threshold, repeats
        )
        columnar = _run_engine(
            StreamingSetJoin, records, similarity, threshold, repeats
        )
        correctness = {
            "matches_equal": reference["matches"] == columnar["matches"],
            "operations_equal": reference["operations"] == columnar["operations"],
            "events_equal": reference["events"] == columnar["events"],
            "live_postings_equal":
                reference["live_postings"] == columnar["live_postings"],
        }
        operations = columnar["operations"]
        payload["corpora"][name] = {
            "records": n,
            "generator": dict(gen_config),
            "reference": {
                "insert_s": round(reference["insert_s"], 6),
                "probe_s": round(reference["probe_s"], 6),
            },
            "columnar": {
                "insert_s": round(columnar["insert_s"], 6),
                "probe_s": round(columnar["probe_s"], 6),
            },
            "probe_speedup": round(
                reference["probe_s"] / columnar["probe_s"], 3
            ),
            "insert_speedup": round(
                reference["insert_s"] / columnar["insert_s"], 3
            ),
            "combined_speedup": round(
                (reference["insert_s"] + reference["probe_s"])
                / (columnar["insert_s"] + columnar["probe_s"]),
                3,
            ),
            "results": len(columnar["matches"]),
            "posting_scans": int(operations.get("posting_scan", 0)),
            "candidate_admits": int(operations.get("candidate_admit", 0)),
            "result_emits": int(operations.get("result_emit", 0)),
            "correctness": correctness,
        }
    payload["verify_micro"] = _verify_micro(verify_records, threshold, repeats)
    frontier_corpus = (
        HEADLINE_CORPUS if HEADLINE_CORPUS in payload["corpora"] else names[0]
    )
    payload["sketch"] = {
        "frontier": sketch_frontier_section(
            repeats=repeats,
            similarity=similarity,
            threshold=threshold,
            seed=seed,
            scale=scale,
            corpus=frontier_corpus,
        ),
    }
    headline_corpus = (
        HEADLINE_CORPUS if HEADLINE_CORPUS in payload["corpora"] else names[0]
    )
    headline_entry = payload["corpora"][headline_corpus]
    payload["headline"] = {
        "corpus": headline_corpus,
        "probe_speedup": headline_entry["probe_speedup"],
        "target": PROBE_SPEEDUP_TARGET,
        "meets_target": headline_entry["probe_speedup"] >= PROBE_SPEEDUP_TARGET,
    }
    if workers is not None:
        payload["parallel"] = {
            "scaling": parallel_scaling_section(
                max_workers=workers,
                repeats=repeats,
                similarity=similarity,
                threshold=threshold,
                seed=seed,
                scale=scale,
                batch_size=batch_size,
            ),
            # The overhead sections report a *difference* of two nearby
            # wall times, so their noise floor is higher than a raw
            # timing's: give them at least 5 interleaved repeats each
            # (an extra repeat pair costs ~2 x one 2-worker run).
            "telemetry": telemetry_overhead_section(
                workers=min(2, workers),
                repeats=max(repeats, 5),
                similarity=similarity,
                threshold=threshold,
                seed=seed,
                scale=scale,
                batch_size=batch_size,
            ),
            "latency": trace_overhead_section(
                workers=min(2, workers),
                repeats=max(repeats, 5),
                similarity=similarity,
                threshold=threshold,
                seed=seed,
                scale=scale,
                batch_size=batch_size,
            ),
            "transport": transport_comparison_section(
                workers=min(2, workers),
                repeats=max(repeats, 5),
                similarity=similarity,
                threshold=threshold,
                seed=seed,
                scale=scale,
                batch_size=batch_size,
            ),
            # Archiving is a single post-run write, not an in-loop
            # perturbation, so plain ``repeats`` is enough.
            "archive": archive_overhead_section(
                workers=min(2, workers),
                repeats=repeats,
                similarity=similarity,
                threshold=threshold,
                seed=seed,
                scale=scale,
                batch_size=batch_size,
            ),
        }
    return payload


def correctness_ok(payload: Dict[str, object]) -> bool:
    """True when every corpus passed every cross-engine equality check
    — including, when present, the scaling sweep's parallel-vs-serial
    diffs at every worker count."""
    engines_ok = all(
        all(entry["correctness"].values())
        for entry in payload["corpora"].values()
    )
    scaling = payload.get("parallel", {}).get("scaling", {})
    parallel_ok = all(
        all(entry["correctness"].values())
        for entry in scaling.get("workers", {}).values()
    )
    telemetry = payload.get("parallel", {}).get("telemetry")
    telemetry_ok = (
        all(telemetry["correctness"].values()) if telemetry else True
    )
    latency = payload.get("parallel", {}).get("latency")
    latency_ok = (
        all(latency["correctness"].values()) if latency else True
    )
    archive = payload.get("parallel", {}).get("archive")
    archive_ok = (
        all(archive["correctness"].values()) if archive else True
    )
    transport = payload.get("parallel", {}).get("transport")
    transport_ok = (
        all(
            all(transport[name]["correctness"].values())
            for name in ("pipe", "shm")
        )
        if transport and transport.get("supported")
        else True
    )
    frontier = payload.get("sketch", {}).get("frontier")
    frontier_ok = (
        all(frontier["correctness"].values()) if frontier else True
    )
    return (
        engines_ok and parallel_ok and telemetry_ok and latency_ok
        and archive_ok and transport_ok and frontier_ok
    )


def render_wallclock(payload: Dict[str, object]) -> str:
    """Human-readable summary table of a wallclock payload."""
    lines = [
        f"wallclock: {payload['similarity']} θ={payload['threshold']} "
        f"seed={payload['seed']} repeats={payload['repeats']}"
    ]
    for name, entry in payload["corpora"].items():
        ref, col = entry["reference"], entry["columnar"]
        ok = all(entry["correctness"].values())
        lines.append(
            f"  {name:6s} n={entry['records']:<6d} "
            f"probe {ref['probe_s']*1e3:8.1f}ms -> {col['probe_s']*1e3:7.1f}ms "
            f"(x{entry['probe_speedup']:.2f})  "
            f"insert {ref['insert_s']*1e3:6.1f}ms -> {col['insert_s']*1e3:6.1f}ms "
            f"(x{entry['insert_speedup']:.2f})  "
            f"correctness {'ok' if ok else 'MISMATCH'}"
        )
    headline = payload["headline"]
    lines.append(
        f"  headline: {headline['corpus']} probe x{headline['probe_speedup']:.2f} "
        f"(target x{headline['target']:.1f}: "
        f"{'met' if headline['meets_target'] else 'NOT met'})"
    )
    frontier = payload.get("sketch", {}).get("frontier")
    if frontier:
        lines.append(
            f"  sketch frontier: {frontier['corpus']} "
            f"n={frontier['records']} exact probe "
            f"{frontier['exact']['probe_s']*1e3:.1f}ms "
            f"({frontier['exact']['pairs']} pairs)"
        )
        for name, entry in frontier["grid"].items():
            lines.append(
                f"    {name:>6s}  probe {entry['probe_s']*1e3:7.1f}ms "
                f"(x{entry['probe_speedup']:.2f})  "
                f"recall {entry['recall']:.4f} "
                f"(expected {entry['expected_recall']:.4f})  "
                f"precision {entry['precision']:.4f}  "
                f"rss x{entry['rss_vs_exact']:.2f}"
            )
        sk = frontier["headline"]
        ok = all(frontier["correctness"].values())
        lines.append(
            f"    headline: {sk['config']} x{sk['probe_speedup']:.2f} probe "
            f"at recall {sk['recall']:.4f} "
            f"(targets x{sk['speedup_target']:.1f} at "
            f">= {sk['recall_target']:.2f}: "
            f"{'met' if sk['meets_target'] else 'NOT met'})  "
            f"correctness {'ok' if ok else 'MISMATCH'}"
        )
    scaling = payload.get("parallel", {}).get("scaling")
    if scaling:
        lines.append(
            f"  parallel scaling: {scaling['corpus']} n={scaling['records']} "
            f"shards={scaling['shards']} batch={scaling['batch_size']} "
            f"host_cpus={scaling['host_cpus']}"
        )
        for workers, entry in scaling["workers"].items():
            ok = all(entry["correctness"].values())
            totals = entry.get("phase_totals")
            coverage = (
                f"  spans cover {totals['driver_coverage']:.0%}"
                if totals else ""
            )
            lines.append(
                f"    workers={workers:>2s}  wall {entry['wall_s']*1e3:8.1f}ms  "
                f"{entry['throughput_rps']:9.0f} rec/s  "
                f"speedup x{entry['speedup']:.2f}  "
                f"eff {entry['efficiency']:.2f}  "
                f"correctness {'ok' if ok else 'MISMATCH'}{coverage}"
            )
        if scaling.get("note"):
            lines.append(f"    note: {scaling['note']}")
    telemetry = payload.get("parallel", {}).get("telemetry")
    if telemetry:
        ok = all(telemetry["correctness"].values())
        lines.append(
            f"  telemetry overhead: workers={telemetry['workers']} "
            f"interval={telemetry['interval_s']}s  "
            f"wall {telemetry['wall_off_s']*1e3:.1f}ms -> "
            f"{telemetry['wall_on_s']*1e3:.1f}ms "
            f"({telemetry['overhead_fraction']:+.1%}, "
            f"target <= {telemetry['target']:.0%}: "
            f"{'met' if telemetry['meets_target'] else 'NOT met'})  "
            f"{telemetry['samples']} samples, {telemetry['dropped']} dropped  "
            f"correctness {'ok' if ok else 'MISMATCH'}"
        )
    latency = payload.get("parallel", {}).get("latency")
    if latency:
        ok = all(latency["correctness"].values())
        e2e = latency.get("stages", {}).get("e2e", {})
        digest = (
            f"e2e p50 {e2e['p50_s']*1e3:.1f}ms p99 {e2e['p99_s']*1e3:.1f}ms  "
            if e2e else ""
        )
        lines.append(
            f"  trace overhead: workers={latency['workers']} "
            f"sample={latency['sample']}  "
            f"wall {latency['wall_off_s']*1e3:.1f}ms -> "
            f"{latency['wall_on_s']*1e3:.1f}ms "
            f"({latency['overhead_fraction']:+.1%}, "
            f"target <= {latency['target']:.0%}: "
            f"{'met' if latency['meets_target'] else 'NOT met'})  "
            f"{latency['traced']} records traced  {digest}"
            f"correctness {'ok' if ok else 'MISMATCH'}"
        )
    transport = payload.get("parallel", {}).get("transport")
    if transport:
        if not transport.get("supported"):
            lines.append(
                f"  transport: shm unsupported ({transport.get('reason')})"
            )
        else:
            ok = all(
                all(transport[name]["correctness"].values())
                for name in ("pipe", "shm")
            )
            lines.append(
                f"  transport: workers={transport['workers']} "
                f"batch={transport['batch_size']}  "
                f"wall pipe {transport['pipe']['wall_s']*1e3:.1f}ms / "
                f"shm {transport['shm']['wall_s']*1e3:.1f}ms  "
                f"correctness {'ok' if ok else 'MISMATCH'}"
            )
    archive = payload.get("parallel", {}).get("archive")
    if archive:
        ok = all(archive["correctness"].values())
        lines.append(
            f"  archive overhead: workers={archive['workers']}  "
            f"run {archive['wall_run_s']*1e3:.1f}ms + "
            f"write {archive['archive_write_s']*1e3:.1f}ms "
            f"({archive['overhead_fraction']:+.1%}, "
            f"target <= {archive['target']:.0%}: "
            f"{'met' if archive['meets_target'] else 'NOT met'})  "
            f"{archive['archived_observables']} observables  "
            f"correctness {'ok' if ok else 'MISMATCH'}"
        )
    return "\n".join(lines)
