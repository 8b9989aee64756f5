"""The one JSONL artefact path: write, load, split, check.

Every artefact the runtimes write — span dumps, record traces, live
telemetry, health events — is line-delimited JSON with a
header object first. The mechanics they share live here, once:
:func:`write_jsonl` is the writer behind every post-run dump,
:func:`load_jsonl_objects` the loader (a truncated or corrupted file
fails with one pointed, consistent ``file:line`` message),
:func:`split_document` the header/body splitter and
:func:`check_fields` the field-type checker behind every
``validate_*_lines``. What stays in the family modules is vocabulary,
schema and analysis.

:func:`artefact_family` sniffs which family a loaded dump belongs to
from its header line, which is what lets each analyzer command name
the command that reads a file given to the wrong one.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "ArtefactError",
    "write_jsonl",
    "load_jsonl_objects",
    "split_document",
    "check_fields",
    "artefact_family",
]


class ArtefactError(ValueError):
    """A JSONL artefact could not be parsed (corrupt or truncated).

    Subclasses ``ValueError`` so every pre-existing caller that caught
    the loaders' ``ValueError`` keeps working unchanged.
    """


def write_jsonl(
    path: str, header: Dict[str, object], rows: Iterable[Dict[str, object]]
) -> int:
    """Header line + one object per line, keys sorted; returns #lines."""
    count = 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
            count += 1
    return count


def load_jsonl_objects(path: str, noun: str) -> List[Dict[str, object]]:
    """All lines of a JSONL artefact as dicts, with pointed errors.

    ``noun`` names the line kind in error messages ("span", "trace",
    "telemetry", "health"), preserving each analyzer's historical
    wording.
    """
    rows: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as error:
                raise ArtefactError(
                    f"{path}:{number}: corrupt {noun} line ({error})"
                ) from error
            if not isinstance(row, dict):
                raise ArtefactError(f"{path}:{number}: {noun} line is not an object")
            rows.append(row)
    return rows


def split_document(
    rows: Sequence[Dict[str, object]], noun: str, kind: Optional[str] = None
) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """(header, body rows) of a loaded dump; raises ``ValueError`` on a
    missing header. ``kind`` keeps only body rows of that kind (a spans
    dump's ``"span"`` rows, a rectrace dump's ``"event"`` rows)."""
    if not rows or rows[0].get("kind") != "header":
        raise ValueError(f"{noun} dump has no header line")
    return rows[0], [
        row for row in rows[1:] if kind is None or row.get("kind") == kind
    ]


def check_fields(row: Dict[str, object], schema: Dict[str, type]) -> List[str]:
    """Type errors of one row against ``schema`` (field → ``str`` /
    ``int`` / ``float``; empty list = valid). A ``float`` field accepts
    any real number, and ``bool`` never passes for a number — JSON
    ``true`` is not a count."""
    errors: List[str] = []
    for key, expected in schema.items():
        if key not in row:
            errors.append(f"missing field {key!r}")
            continue
        value = row[key]
        if expected is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"field {key!r} not numeric: {value!r}")
        elif expected is int:
            if not isinstance(value, int) or isinstance(value, bool):
                errors.append(f"field {key!r} not an int: {value!r}")
        elif not isinstance(value, expected):
            errors.append(f"field {key!r} not {expected.__name__}: {value!r}")
    return errors


def artefact_family(rows: List[Dict[str, object]]) -> Optional[str]:
    """Which artefact family a loaded JSONL dump belongs to.

    Every family writes a ``kind: "header"`` first line; what differs
    is the header's field set, exactly what each analyzer's validator
    keys on: record traces stamp ``artefact="rectrace"`` explicitly,
    span headers carry the capture ``overhead``, telemetry headers the
    heartbeat ``interval``, health headers the detector ``thresholds``
    (and nothing run-shaped). Returns ``None`` when nothing matches.
    """
    if not rows:
        return None
    header = rows[0]
    if header.get("kind") != "header":
        return None
    if header.get("artefact") == "rectrace":
        return "rectrace"
    if "overhead" in header:
        return "spans"
    if "interval" in header:
        return "telemetry"
    if "thresholds" in header:
        return "health"
    return None
