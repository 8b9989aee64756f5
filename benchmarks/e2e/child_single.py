"""The single-threaded baseline of the same job, as its own process.

``python child_single.py FILE --result-out PATH [semantics flags]``:
import, ``load_token_file``, one unsharded ``StreamingSetJoin`` with the
workload's similarity / threshold / window, then ``probe`` and ``insert``
per record — what ``build_shard_engine`` returns for shard 0 of 1 under
length routing (the distribution scheme is a sharding concern and does
not exist at one shard). The parent times this process from spawn to
exit exactly as it times ``repro join``.

Writes ``{"run_records", "run_results"}`` to ``--result-out``; with
``--pairs-digest`` also a digest of the ``(earlier, later)`` pairs, which
the parent compares with the digest of the join's ``--pairs`` output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Iterable, List, Optional, Tuple

_MASK64 = (1 << 64) - 1


def pairs_digest(pairs: Iterable[Tuple[int, int]]) -> str:
    """Order-independent digest of ``(earlier, later)`` rid pairs: how many
    there are and the sum of one 64-bit hash per pair. A pair reported
    twice changes it; the order of reporting does not, so it can be taken
    over a stream without holding or sorting the pairs."""
    count = total = 0
    for earlier, later in pairs:
        # splitmix64-style finaliser over the packed pair; stdlib hashlib
        # would cost the (deliberately small) parent several MiB.
        x = (earlier * 0x9E3779B97F4A7C15 + later + 1) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        total = (total + (x ^ (x >> 31))) & _MASK64
        count += 1
    return f"{count}:{total:016x}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input")
    parser.add_argument("--result-out", required=True)
    parser.add_argument("--similarity", default="jaccard")
    parser.add_argument("--threshold", type=float, default=0.8)
    parser.add_argument("--window", type=float, default=math.inf)
    parser.add_argument("--rate", type=float, default=1000.0)
    parser.add_argument("--pairs-digest", action="store_true")
    args = parser.parse_args(argv)

    from repro.core.local_join import StreamingSetJoin
    from repro.datasets.loader import load_token_file
    from repro.similarity.functions import get_similarity
    from repro.streams.window import SlidingWindow

    stream, _dictionary = load_token_file(args.input, rate=args.rate)
    engine = StreamingSetJoin(
        get_similarity(args.similarity, args.threshold),
        window=SlidingWindow(args.window),
    )
    records = results = 0
    pairs: List[Tuple[int, int]] = []
    for record in stream:
        found = engine.probe(record)
        engine.insert(record)
        records += 1
        results += len(found)
        if args.pairs_digest:
            rid = record.rid
            pairs.extend((m.partner.rid, rid) for m in found)

    out = {"run_records": records, "run_results": results}
    if args.pairs_digest:
        out["pairs_digest"] = pairs_digest(pairs)
    with open(args.result_out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
