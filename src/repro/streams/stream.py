"""Record streams: pairing token sets with arrival timestamps."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.records import Record
from repro.streams.arrival import ConstantRate
from repro.streams.window import SlidingWindow


class RecordStream:
    """A finite, replayable stream of :class:`~repro.records.Record`.

    Combines a corpus of canonical token arrays with an arrival process.
    Iterating the stream yields records in timestamp order with ids
    assigned in arrival order — the contract every consumer in this
    library relies on. Records are built as they are yielded, and every
    iteration yields the same ones (arrival processes are replayable),
    so the stream itself is what the parallel runtime hands its workers.

    Parameters
    ----------
    corpus:
        Canonical token arrays (sorted int tuples), one per record.
    arrivals:
        Any object with a ``timestamps() -> Iterator[float]`` method;
        defaults to 1000 records/second constant rate.
    name:
        Label used in reports.
    """

    def __init__(
        self,
        corpus: Sequence[Tuple[int, ...]],
        arrivals=None,
        name: str = "stream",
        sources: Optional[Sequence[str]] = None,
    ):
        self._corpus = list(corpus)
        self._arrivals = arrivals if arrivals is not None else ConstantRate(1000.0)
        self.name = name
        if sources is not None and len(sources) != len(self._corpus):
            raise ValueError(
                f"sources length {len(sources)} != corpus length {len(self._corpus)}"
            )
        self._sources = list(sources) if sources is not None else None

    def __len__(self) -> int:
        return len(self._corpus)

    def __iter__(self) -> Iterator[Record]:
        times = self._arrivals.timestamps()
        last = float("-inf")
        for rid, tokens in enumerate(self._corpus):
            t = next(times)
            if t < last:
                raise ValueError(
                    f"arrival process went backwards: {t} after {last}"
                )
            last = t
            source = self._sources[rid] if self._sources is not None else ""
            yield Record(rid=rid, tokens=tuple(tokens), timestamp=t, source=source)

    # -- convenience -------------------------------------------------------
    def records(self) -> List[Record]:
        """Materialize the whole stream (small corpora / tests)."""
        return list(self)

    @property
    def corpus(self) -> List[Tuple[int, ...]]:
        """A copy of the underlying canonical token arrays (arrival
        order). For a prefix use :meth:`head`, for the count ``len``."""
        return list(self._corpus)

    def head(self, n: int) -> List[Tuple[int, ...]]:
        """The first ``n`` token arrays: a sample that copies ``n``
        references, not the whole corpus, and builds no record."""
        return self._corpus[:n]

    def take(self, n: int) -> "RecordStream":
        """A stream over the first ``n`` records with the same arrivals."""
        sources = self._sources[:n] if self._sources is not None else None
        return RecordStream(self._corpus[:n], self._arrivals, name=self.name,
                            sources=sources)

    def statistics(self) -> "StreamStatistics":
        """Length distribution and vocabulary statistics of the corpus."""
        sizes = [len(tokens) for tokens in self._corpus]
        vocabulary = set()
        total_tokens = 0
        for tokens in self._corpus:
            vocabulary.update(tokens)
            total_tokens += len(tokens)
        return StreamStatistics(
            name=self.name,
            num_records=len(self._corpus),
            vocabulary_size=len(vocabulary),
            total_tokens=total_tokens,
            min_size=min(sizes) if sizes else 0,
            max_size=max(sizes) if sizes else 0,
            avg_size=(total_tokens / len(sizes)) if sizes else 0.0,
        )


class StreamStatistics:
    """Summary statistics of a stream's corpus (experiment E1's rows)."""

    def __init__(
        self,
        name: str,
        num_records: int,
        vocabulary_size: int,
        total_tokens: int,
        min_size: int,
        max_size: int,
        avg_size: float,
    ):
        self.name = name
        self.num_records = num_records
        self.vocabulary_size = vocabulary_size
        self.total_tokens = total_tokens
        self.min_size = min_size
        self.max_size = max_size
        self.avg_size = avg_size

    def as_row(self) -> dict:
        """Row for the dataset-statistics table."""
        return {
            "dataset": self.name,
            "records": self.num_records,
            "vocabulary": self.vocabulary_size,
            "avg_len": round(self.avg_size, 2),
            "min_len": self.min_size,
            "max_len": self.max_size,
        }

    def __repr__(self) -> str:
        return (
            f"StreamStatistics({self.name!r}, n={self.num_records}, "
            f"|V|={self.vocabulary_size}, avg_len={self.avg_size:.2f})"
        )


def count_repeats(
    records: Iterable[Record], window: SlidingWindow,
) -> Tuple[int, int]:
    """``(repeats, in_window)``: how many records have the exact token
    set of an earlier record, and how many of those arrive while that
    set's latest earlier copy is still inside ``window`` (all of them
    when it is unbounded). Empty records are not counted."""
    latest: Dict[Tuple[int, ...], Record] = {}
    repeats = in_window = 0
    for record in records:
        if not record.tokens:
            continue
        earlier = latest.get(record.tokens)
        if earlier is not None:
            repeats += 1
            in_window += window.alive(earlier, record.timestamp)
        latest[record.tokens] = record
    return repeats, in_window


def materialize(records: Iterable[Record]) -> List[Record]:
    """Drain an iterable of records into a list (tiny helper for tests)."""
    return list(records)


class _FixedArrivals:
    """A recorded timestamp list as an arrival process. Module-level, so
    a stream built on it pickles (a ``spawn`` worker receives it)."""

    def __init__(self, times: List[float]):
        self._times = times

    def timestamps(self) -> Iterator[float]:
        return iter(self._times)


def from_records(records: Sequence[Record], name: str = "stream") -> RecordStream:
    """Rebuild a stream from existing records, preserving timestamps."""
    ordered = sorted(records, key=lambda r: (r.timestamp, r.rid))
    sources = [r.source for r in ordered]
    return RecordStream(
        [r.tokens for r in ordered],
        arrivals=_FixedArrivals([r.timestamp for r in ordered]),
        name=name,
        sources=sources if any(sources) else None,
    )
