"""In-memory spans recorded from the benchmark's own files.

A span is ``{id, name, start, end, parent, workload}`` (plus ``shard`` on
per-shard calls). Spans nest by construction — ``span()`` is a context
manager and the parent is whatever span was open when it started — are
kept in memory, and are written to ``trace-<workload>.jsonl`` when the
pass ends. A span's *self time* is its duration minus its children's.

``NullRecorder`` has the same interface and records nothing; running the
same code under both gives the tracing overhead.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Recorder:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[dict] = []
        self._open: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, shard: Optional[int] = None) -> Iterator[None]:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter() - self._origin,
            "end": None,
            "parent": self._open[-1] if self._open else -1,
            "workload": self.workload,
        }
        if shard is not None:
            span["shard"] = shard
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield
        finally:
            self._open.pop()
            span["end"] = time.perf_counter() - self._origin

    # -- reading -------------------------------------------------------------
    def self_by_name(self, root: int) -> Dict[str, float]:
        """Self time (duration minus direct children's) summed by span
        name over the closed subtree under ``root``, root excluded."""
        own: Dict[int, float] = {root: 0.0}
        for s in self.spans[root + 1:]:  # ids ascend: parents come first
            if s["parent"] in own:
                duration = s["end"] - s["start"]
                own[s["id"]] = duration
                own[s["parent"]] -= duration
        del own[root]
        totals: Dict[str, float] = defaultdict(float)
        for span_id, seconds in own.items():
            totals[self.spans[span_id]["name"]] += seconds
        return dict(totals)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class NullRecorder:
    @contextmanager
    def span(self, name: str, shard: Optional[int] = None) -> Iterator[None]:
        yield
