"""Global token ordering: the dictionary that canonicalizes records.

Prefix filtering requires every record's tokens to be sorted by one
*fixed global total order*. Correctness holds for any consistent order;
*effectiveness* is best when rare tokens sort first, because then the
short prefixes carry the most selective tokens (classic document-
frequency-ascending ordering).

:class:`TokenDictionary` supports both regimes:

* **dynamic** — tokens get ids on first encounter (insertion order).
  Always consistent, hence always correct; used when no corpus pass is
  possible.
* **frequency-ranked** — after a pass over a corpus,
  :meth:`from_frequency` assigns ids so ascending id order equals
  ascending document frequency (ties broken by ``repr(token)`` for
  determinism). It is the one ranking: :meth:`from_corpus` and the
  one-pass file loader (:func:`repro.datasets.loader.load_token_file`)
  both count frequencies and call it. When no two tokens share a
  ``repr`` (true of any set of strings), the order depends only on
  the counts and the tokens, not on encounter order, so the two build
  identical dictionaries. Tokens first seen *after* ranking receive
  fresh ids above all ranked ids; they sort last, i.e. they are treated
  as frequent. That choice only affects pruning power, never
  correctness.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple


class TokenDictionary:
    """Bidirectional token ↔ id mapping defining the global token order.

    Examples
    --------
    >>> d = TokenDictionary()
    >>> d.canonicalize(["news", "data", "news", "join"])  # set semantics
    (0, 1, 2)
    >>> d.token_of(0)
    'news'
    """

    def __init__(self) -> None:
        self._id_of: Dict[Hashable, int] = {}
        self._token_of: List[Hashable] = []
        self._frequency: Counter = Counter()
        self._ranked = False

    # -- core mapping ------------------------------------------------------
    def id_of(self, token: Hashable) -> int:
        """Id of ``token``, assigning a fresh one on first encounter."""
        existing = self._id_of.get(token)
        if existing is not None:
            return existing
        new_id = len(self._token_of)
        self._id_of[token] = new_id
        self._token_of.append(token)
        return new_id

    def token_of(self, token_id: int) -> Hashable:
        """Inverse lookup; raises ``IndexError`` for unknown ids."""
        return self._token_of[token_id]

    def __len__(self) -> int:
        return len(self._token_of)

    def __contains__(self, token: Hashable) -> bool:
        return token in self._id_of

    @property
    def is_ranked(self) -> bool:
        """Whether ids currently reflect ascending global frequency."""
        return self._ranked

    # -- canonical records ---------------------------------------------------
    def canonicalize(self, tokens: Iterable[Hashable]) -> Tuple[int, ...]:
        """Map raw tokens to a sorted, duplicate-free id tuple.

        Duplicates are dropped (set semantics — the paper's model). Use
        :func:`repro.similarity.tokenizers.multiset` upstream if bag
        semantics are needed.
        """
        if not isinstance(tokens, (list, tuple)):
            tokens = tuple(tokens)  # the fallback below reads them again
        try:
            ids = set(map(self._id_of.__getitem__, tokens))
        except KeyError:  # a token never seen before: assign ids one by one
            ids = {self.id_of(token) for token in tokens}
        return tuple(sorted(ids))

    def decode(self, record: Iterable[int]) -> List[Hashable]:
        """Map a canonical id tuple back to raw tokens."""
        return [self._token_of[token_id] for token_id in record]

    # -- frequency ranking -----------------------------------------------
    @classmethod
    def from_frequency(
        cls, tokens: Sequence[Hashable], frequency: Counter
    ) -> Tuple["TokenDictionary", List[int]]:
        """The frequency-ranked dictionary over distinct ``tokens``.

        ``frequency`` maps each token to its document frequency and
        becomes the dictionary's own. Tokens that share a frequency and
        a ``repr`` keep their order in ``tokens``. Returns the dictionary and
        ``rank``, where ``rank[i]`` is the id of ``tokens[i]``: a caller
        that numbered tokens provisionally by their position in
        ``tokens`` remaps its records through it.
        """
        ordered = sorted(
            tokens, key=lambda token: (frequency.get(token, 0), repr(token))
        )
        dictionary = cls()
        dictionary._token_of = ordered
        dictionary._id_of = {token: rank for rank, token in enumerate(ordered)}
        dictionary._frequency = frequency
        dictionary._ranked = True
        return dictionary, list(map(dictionary._id_of.__getitem__, tokens))

    @classmethod
    def from_corpus(cls, corpus: Iterable[Iterable[Hashable]]) -> "TokenDictionary":
        """Build a frequency-ranked dictionary from raw token records."""
        frequency: Counter = Counter()
        for record in corpus:
            # Duplicate-free and in record order, so the counter's keys
            # end up in first-encounter order (the tie-break between
            # tokens that share a repr) without a per-token Python call.
            frequency.update(dict.fromkeys(record).keys())
        return cls.from_frequency(list(frequency), frequency)[0]
