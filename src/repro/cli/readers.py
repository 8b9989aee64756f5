"""Helpers the artefact readers (``trace``, ``spans``, ``top``,
``telemetry``) share: sniffing which artefact a file is, and the event
log's self-reported cost line."""

from __future__ import annotations

import json
import sys
from typing import Optional

from repro.obs.artefact import artefact_family


def artefact_header(path: str) -> Optional[dict]:
    """``path``'s first non-empty line when it is a JSONL artefact
    header (``kind: "header"``), else ``None``.

    Token files can't parse as JSON objects, so the sniff cleanly
    separates ``repro trace CORPUS`` (a simulated join) from ``repro
    trace ARTEFACT.jsonl`` (analysis, or a pointed error)."""
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except ValueError:
                    return None
                if isinstance(row, dict) and row.get("kind") == "header":
                    return row
                return None
    except OSError:
        return None
    return None


#: Each artefact family: what it is, and what reads it.
_ARTEFACT_FAMILIES = {
    "rectrace": ("a record trace (--trace-out)", "read it with `repro trace`"),
    "spans": ("a spans artefact (--spans-out)", "read it with `repro spans`"),
    "telemetry": ("a telemetry artefact (--telemetry-out)",
                  "read it with `repro telemetry` or `repro top`"),
    "health": ("a health-event artefact (--health-out)", "the run that "
               "wrote it printed its events; `repro trace --smoke` checks the format"),
}


def other_family(command: str, path: str, family: str) -> bool:
    """True, after one stderr line naming what it is and what reads
    it, when ``path`` opens with an artefact header not of ``family``.
    A headerless file is the reader's own loader's to judge."""
    header = artefact_header(path)
    found = artefact_family([header]) if header else family
    if found == family:
        return False
    if found is None:
        why = f"a JSONL artefact but not {_ARTEFACT_FAMILIES[family][0]}"
    else:
        why = "{}; {}".format(*_ARTEFACT_FAMILIES[found])
    print(f"{command}: {path} is {why}", file=sys.stderr)
    return True


def overhead_line(header) -> str:
    """The event log's self-reported cost, from a spans or rectrace
    header's ``overhead`` block (simulated runs, rectrace files written
    before the block existed, and zero-wall runs read ``n/a``)."""
    overhead = header.get("overhead")
    if not overhead or not header["wall_s"]:
        return "recorder overhead: n/a"
    overhead_s = overhead.get("driver", {}).get("estimated_s", 0.0) + sum(
        entry.get("estimated_s", 0.0)
        for entry in overhead.get("workers", {}).values()
    )
    return (f"recorder overhead: ~{overhead_s * 1e3:.3f}ms total "
            f"({overhead_s / header['wall_s']:.2%} of wall)")
