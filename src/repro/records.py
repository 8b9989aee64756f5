"""Fundamental value types shared by every layer of the library.

This module sits at the bottom of the dependency graph — it imports
nothing from :mod:`repro` — so streams, routing, the simulator and the
core join can all share :class:`Record` without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from operator import lt
from typing import Tuple


@dataclass(frozen=True, slots=True)
class Record:
    """One streaming record: a canonical token set plus arrival metadata.

    Slotted: a record carries its four fields and no ``__dict__``, so
    a stream of short records is held in about two thirds of the
    memory (89 B a record against 131 B, tokens excluded). It stays
    frozen, hashable, comparable, picklable and
    ``dataclasses.replace``-able.

    Construction checks the canonical order (:func:`check_canonical`).
    A :class:`~repro.streams.stream.RecordStream` checks its corpus
    once, when it is built, and its walk builds records with
    :func:`trusted_record`, which skips the check.

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
        check_canonical(self.rid, self.tokens)

    @property
    def size(self) -> int:
        """Number of tokens (the record's *length* in the paper's sense)."""
        return len(self.tokens)

    def prefix(self, length: int) -> Tuple[int, ...]:
        """The first ``length`` tokens in the global order."""
        return self.tokens[:length]


def check_canonical(rid: int, tokens: Tuple[int, ...]) -> None:
    """Raise the pointed ``ValueError`` unless ``tokens`` is strictly
    ascending: the one order check, wherever a record's tokens enter."""
    if not all(map(lt, tokens, islice(tokens, 1, None))):
        raise ValueError(
            f"Record {rid}: tokens must be strictly ascending "
            f"(canonical form), got {tokens!r}"
        )


_new = object.__new__
#: Each field's setter past the frozen ``__setattr__``: its slot
#: descriptor, a third faster than ``object.__setattr__``.
_set_rid, _set_tokens, _set_timestamp, _set_source = (
    getattr(Record, name).__set__
    for name in ("rid", "tokens", "timestamp", "source")
)


def trusted_record(
    rid: int, tokens: Tuple[int, ...], timestamp: float, source: str
) -> Record:
    """A :class:`Record` built without the order check, for tokens
    already checked canonical (a :class:`RecordStream`'s walk): the
    same object ``Record(...)`` builds, at a fraction of the cost."""
    record = _new(Record)
    _set_rid(record, rid)
    _set_tokens(record, tokens)
    _set_timestamp(record, timestamp)
    _set_source(record, source)
    return record


def pair_key(a: Record, b: Record) -> Tuple[int, int]:
    """Order-independent identity of a result pair, keyed by record ids."""
    return (a.rid, b.rid) if a.rid < b.rid else (b.rid, a.rid)
