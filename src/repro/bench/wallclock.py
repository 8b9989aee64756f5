"""Wall-clock engine A/B: columnar fast path vs. reference engine.

The simulator's suites measure *metered* work — cost-model units,
deliberately independent of host speed — and ``benchmarks/e2e`` times
whole ``repro join`` processes. This module times the one thing neither
sees: the columnar :class:`~repro.core.local_join.StreamingSetJoin`
against the retained pre-columnar
:class:`~repro.core.reference.ReferenceStreamingSetJoin` over identical
bench-calibrated streams, the two hot phases separately (methodology in
DESIGN §9):

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

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.local_join import StreamingSetJoin
from repro.core.metering import WorkMeter
from repro.core.reference import ReferenceStreamingSetJoin
from repro.datasets.corpora import synthetic_aol, synthetic_tweet
from repro.records import Record
from repro.similarity.functions import get_similarity
from repro.similarity.verification import verify_pair

#: The paper-start-date seed used by every calibrated bench workload.
SEED = 20200420

#: Probe-phase speedup the columnar engine must deliver on the AOL
#: bench configuration (the suite's headline acceptance target).
PROBE_SPEEDUP_TARGET = 3.0

#: The headline corpus (density-calibrated like ``benchmarks.common``:
#: the paper's postings-per-token density at laptop-scale record
#: counts).
HEADLINE_CORPUS = "AOL"


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


def wallclock_suite(
    corpora: Optional[List[str]] = None,
    repeats: int = 3,
    similarity: str = "jaccard",
    threshold: float = 0.8,
    seed: int = SEED,
    scale: float = 1.0,
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
    return payload


def correctness_ok(payload: Dict[str, object]) -> bool:
    """True when every corpus passed every cross-engine equality check."""
    return all(
        all(entry["correctness"].values())
        for entry in payload["corpora"].values()
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
    return "\n".join(lines)
