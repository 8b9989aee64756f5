"""Benchmark set-up for one workload, as its own process.

``python child_setup.py --workload NAME --seed N --scale X --token-file F
--result-out R``: generate the corpus from the seed, write the token file
the program will read, and run correctness tier (a) — a brute-force join
of the first ``ORACLE_RECORDS`` records must agree pair for pair with the
single engine and with ``run_serial`` under the workload's window and
distribution. Writes ``{"records", "oracle_error"}`` to ``--result-out``.

Set-up lives in a child so the parent stays small: on Linux a child's
``ru_maxrss`` starts from its parent's peak RSS, and the parent must not
put a floor under the memory it measures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Set, Tuple

from workloads import RATE, SIMILARITY, THRESHOLD, WORKLOADS, Workload

#: The brute-force join is quadratic and set-up is repeated within a run;
#: this is what a run can afford (``naive_join`` needs 25 s for 2 000
#: ``enron_long`` records).
ORACLE_RECORDS = 1000


def brute_force_pairs(records, window_seconds: float) -> Set[Tuple[int, int]]:
    """Every ``(earlier, later)`` pair with Jaccard >= threshold inside the
    window — no index, no prefix filter; only the size bound
    ``|a ∩ b| <= min(|a|, |b|)`` skips intersections that cannot reach the
    threshold."""
    sets = [(r.rid, r.timestamp, frozenset(r.tokens)) for r in records]
    cut = THRESHOLD - 1e-12
    pairs = set()
    for j, (rid_b, ts_b, b) in enumerate(sets):
        nb = len(b)
        for rid_a, ts_a, a in sets[:j]:
            na = len(a)
            if not na or not nb or ts_b - ts_a > window_seconds:
                continue
            if (na if na < nb else nb) / (nb if na < nb else na) < cut:
                continue
            inter = len(a & b)
            if inter / (na + nb - inter) >= cut:
                pairs.add((rid_a, rid_b))
    return pairs


def oracle_check(workload: Workload, token_file: Path) -> str:
    """Tier (a). Returns "" or what disagreed."""
    from repro.core.local_join import StreamingSetJoin
    from repro.datasets.loader import load_token_file
    from repro.parallel.runtime import run_serial
    from repro.similarity.functions import get_similarity
    from repro.streams.window import SlidingWindow

    stream, _ = load_token_file(
        token_file, rate=RATE, max_records=ORACLE_RECORDS
    )
    records = list(stream)
    expected = brute_force_pairs(records, workload.window_seconds)

    engine = StreamingSetJoin(
        get_similarity(SIMILARITY, THRESHOLD),
        window=SlidingWindow(workload.window_seconds),
    )
    single = set()
    for record in records:
        single.update((m.partner.rid, record.rid) for m in engine.probe(record))
        engine.insert(record)

    serial = {
        (earlier, later)
        for _ts, later, earlier, _ov, _sim in
        run_serial(workload.config(), stream).matches
    }
    for label, got in (("single engine", single), ("run_serial", serial)):
        if got != expected:
            return (
                f"{label} disagrees with brute force on the first "
                f"{len(records)} records: {len(got - expected)} spurious, "
                f"{len(expected - got)} missed"
            )
    return ""


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--token-file", required=True)
    parser.add_argument("--result-out", required=True)
    args = parser.parse_args(argv)

    from repro.datasets.loader import save_token_file

    workload = WORKLOADS[args.workload]
    token_file = Path(args.token_file)
    records = save_token_file(
        token_file, workload.generate(args.seed, args.scale)
    )
    result = {
        "records": records,
        "oracle_error": oracle_check(workload, token_file),
    }
    Path(args.result_out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
