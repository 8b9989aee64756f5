"""Back-fill the committed seed archive from the committed wall-clock
report.

Run from the repository root::

    PYTHONPATH=src python benchmarks/baselines/seed_archive.py

Regenerates ``benchmarks/baselines/archive.db`` by ingesting the
checked-in ``BENCH_wallclock.json`` through the same
:meth:`~repro.obs.archive.RunArchive.ingest_path` adapter the CLI
uses, then asserts the headline numbers round-trip exactly — the seed
database is only worth committing if it is a faithful copy of the
report it came from.

CI copies this database to ``.repro/archive.db`` before the perf-smoke
wall-clock run so ``repro history check`` has a comparable baseline to
gate the fresh run's deterministic counters against.
"""

from __future__ import annotations

import json
import os
import sys

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.obs.archive import RunArchive  # noqa: E402


def main() -> int:
    wallclock_path = os.path.join(REPO_ROOT, "BENCH_wallclock.json")
    db_path = os.path.join(os.path.dirname(__file__), "archive.db")
    if os.path.exists(db_path):
        os.remove(db_path)

    with RunArchive(db_path) as archive:
        (run_id, _family), = archive.ingest_path(
            wallclock_path, argv=["seed_archive"]
        )
        print(f"seeded run {run_id} -> {db_path}")

        # The seed is only committed if the headline numbers survive
        # the trip through SQLite bit-for-bit.
        with open(wallclock_path, encoding="utf-8") as handle:
            wallclock = json.load(handle)
        headline = wallclock["headline"]
        corpus = wallclock["corpora"][headline["corpus"]]
        checks = {"headline.probe_speedup": headline["probe_speedup"]}
        for leaf in ("records", "results", "posting_scans"):
            checks[f"corpora.{headline['corpus']}.{leaf}"] = corpus[leaf]
        for metric, expected in checks.items():
            stored = archive.metric_value(run_id, metric)
            if stored != expected:
                print(f"seed FAILED round-trip: {metric} stored {stored!r} "
                      f"!= report {expected!r}", file=sys.stderr)
                return 1
            print(f"  {metric} = {stored:g} (round-trips exactly)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
