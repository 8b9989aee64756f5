"""Loading and saving corpora as plain token files.

Format: one record per line, whitespace-separated raw tokens. Loading
builds a frequency-ranked :class:`~repro.similarity.ordering.TokenDictionary`
over the whole file (the global order prefix filtering needs) and
returns canonical records — the same pipeline a user would run on the
real AOL/DBLP/ENRON/TWEET dumps.

The file is read once, front to back, so a FIFO or ``/dev/stdin``
works. Tokens become provisional ids as each line is read, and only
the ids are kept — back to back in one flat list, with each row's end
in an ``array('q')`` — so one ``str`` per *distinct* token is alive,
not one per token in the file, and no per-row object exists until the
row's canonical tuple is built. At the end of the file the ids are
ranked by :meth:`TokenDictionary.from_frequency` and every row is
sliced out of the flat list and remapped through the returned rank,
last row first, each cut off the list once its tuple is built.
The result is identical to ``TokenDictionary.from_corpus`` followed by
``canonicalize`` over the held lines.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import count, filterfalse
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.similarity.ordering import TokenDictionary
from repro.streams.arrival import ConstantRate
from repro.streams.stream import RecordStream


def load_token_file(
    path: Union[str, Path],
    name: Optional[str] = None,
    rate: float = 1000.0,
    max_records: Optional[int] = None,
) -> Tuple[RecordStream, TokenDictionary]:
    """Read a token file into a canonical stream plus its dictionary.

    Blank lines are skipped. Records appear in file order; arrival
    timestamps are assigned at ``rate`` records/second. A non-positive
    ``rate`` or a ``max_records`` below 1 raises ``ValueError`` before
    the file is read.
    """
    arrivals = ConstantRate(rate)
    if max_records is not None and max_records < 1:
        raise ValueError(f"max_records must be >= 1, got {max_records}")
    path = Path(path)
    ids: Dict[str, int] = {}  # token -> provisional id, first encounter
    id_of = ids.__getitem__
    # Every row's ids back to back, and where each row ends: a list
    # (ids read back as the dict's own ints, no new int per read) and
    # an array (no int object per row).
    flat: List[int] = []
    ends = array("q")
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            tokens = dict.fromkeys(line.split())
            if not tokens:
                continue
            start = len(flat)
            try:
                flat.extend(map(id_of, tokens))
            except KeyError:  # new tokens: number them in line order
                del flat[start:]  # the known ids appended before the miss
                new = filterfalse(ids.__contains__, tokens)
                ids.update(zip(new, count(len(ids))))
                flat.extend(map(id_of, tokens))
            ends.append(len(flat))
            if max_records is not None and len(ends) >= max_records:
                break
    counts = Counter(flat)  # document frequency per id: rows hold no repeats
    frequency = Counter(dict(zip(ids, map(counts.__getitem__, ids.values()))))
    dictionary, rank = TokenDictionary.from_frequency(list(ids), frequency)
    del ids, id_of, counts, frequency
    ranked = rank.__getitem__
    # Last row first, cutting each off the flat list once it is built:
    # the list gives its memory back as the tuples take theirs.
    rows: List[Tuple[int, ...]] = [()] * len(ends)
    for i in reversed(range(len(ends))):
        start = ends[i - 1] if i else 0
        rows[i] = tuple(sorted(map(ranked, flat[start:])))
        del flat[start:]
    del flat, ends
    # Sorted distinct ranks: canonical by construction, so unchecked.
    stream = RecordStream.canonical(
        rows, arrivals=arrivals, name=name or path.stem
    )
    return stream, dictionary


def save_token_file(
    path: Union[str, Path],
    stream: RecordStream,
    dictionary: Optional[TokenDictionary] = None,
) -> int:
    """Write a stream to a token file; returns the number of records.

    With a dictionary, raw tokens are written; without one, numeric
    token ids are written (still loadable — ids become the raw tokens).
    """
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for tokens in stream.corpus:
            if dictionary is not None:
                fields = [str(dictionary.token_of(token)) for token in tokens]
            else:
                fields = [str(token) for token in tokens]
            handle.write(" ".join(fields) + "\n")
            count += 1
    return count
