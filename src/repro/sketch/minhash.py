"""Streaming MinHash signatures with LSH banding (DESIGN §15).

A record's signature is ``perms`` independent minimum hash values over
its token set: lane ``i`` applies the universal hash

    h_i(x) = (a_i * x + b_i) mod (2^61 - 1)

with per-lane parameters drawn from a seeded :class:`random.Random`, so
the whole scheme is a pure function of ``(perms, bands, seed)``.

Two facts keep it cheap in pure Python:

* **per-token hash caching** — token vocabularies are small relative to
  stream length, so lane hashes for a token are computed once and the
  signature of a record is an elementwise ``min`` over cached tuples;
* **per-record sketch caching** — streaming corpora are duplicate-heavy
  (the AOL generator re-emits whole token sets), so ``(signature,
  band keys)`` is memoised by the canonical token tuple and a repeated
  record costs one dict hit.

Band keys are Python ``hash`` values of the per-band row slices. Hashing
of ``int`` tuples is value-determined (``PYTHONHASHSEED`` only salts
``str``/``bytes``), so keys agree across processes.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Tuple, Union

from repro.records import Record

__all__ = ["DEFAULT_SEED", "MinHashScheme"]

#: Seed shared by every default-configured scheme in the repo (the
#: corpus seed of the committed benches, for artefact provenance).
DEFAULT_SEED = 20200420

#: Mersenne prime 2^61 - 1: modulus of the universal hash family. Large
#: enough that min-collisions between distinct tokens are negligible,
#: small enough that ``a * x + b`` stays a cheap machine-word-ish int.
_MERSENNE_P = (1 << 61) - 1

#: Entries kept in each memo before it is dropped wholesale — a safety
#: valve for adversarial streams of all-distinct records; observables
#: never depend on cache hits, only wall time does.
_CACHE_LIMIT = 1 << 20

Signature = Tuple[int, ...]
BandKeys = Tuple[int, ...]


class MinHashScheme:
    """A fixed family of ``perms`` hash lanes folded into ``bands`` bands.

    ``perms`` must be a positive multiple of ``bands``; each band covers
    ``rows = perms // bands`` consecutive lanes. Two records collide in
    band ``j`` iff their signatures agree on all of that band's rows —
    probability ``s^rows`` per band under the permutation model, hence
    ``1 - (1 - s^rows)^bands`` overall.
    """

    __slots__ = (
        "perms", "bands", "rows", "seed",
        "_a", "_b", "_token_memo", "_sketch_memo",
    )

    def __init__(self, perms: int = 64, bands: int = 8,
                 seed: int = DEFAULT_SEED):
        if perms < 1:
            raise ValueError(f"perms must be >= 1, got {perms}")
        if bands < 1:
            raise ValueError(f"bands must be >= 1, got {bands}")
        if perms % bands:
            raise ValueError(
                f"bands must divide perms evenly: {bands} bands over "
                f"{perms} permutations leaves a ragged band"
            )
        self.perms = perms
        self.bands = bands
        self.rows = perms // bands
        self.seed = seed
        rng = random.Random(seed)
        self._a = tuple(rng.randrange(1, _MERSENNE_P) for _ in range(perms))
        self._b = tuple(rng.randrange(0, _MERSENNE_P) for _ in range(perms))
        self._token_memo: Dict[int, Tuple[int, ...]] = {}
        self._sketch_memo: Dict[Tuple[int, ...], Tuple[Signature, BandKeys]] = {}

    # -- hashing -------------------------------------------------------------
    def token_hashes(self, token: int) -> Tuple[int, ...]:
        """All ``perms`` lane hashes of one token (memoised)."""
        memo = self._token_memo
        cached = memo.get(token)
        if cached is None:
            if len(memo) >= _CACHE_LIMIT:
                memo.clear()
            p = _MERSENNE_P
            cached = memo[token] = tuple(
                (a * token + b) % p for a, b in zip(self._a, self._b)
            )
        return cached

    def signature(self, record: Union[Record, Iterable[int]]) -> Signature:
        """The MinHash signature of a record (or raw token iterable)."""
        tokens = (
            record.tokens if isinstance(record, Record) else tuple(record)
        )
        return self.sketch(tokens)[0]

    def band_keys(self, signature: Signature) -> BandKeys:
        """One hashable key per band: ``hash`` of the band's row slice."""
        rows = self.rows
        return tuple(
            hash(signature[j * rows:(j + 1) * rows])
            for j in range(self.bands)
        )

    def sketch(self, tokens: Tuple[int, ...]) -> Tuple[Signature, BandKeys]:
        """``(signature, band_keys)`` for a canonical token tuple, memoised
        — the engine's hot path (one dict hit per repeated record)."""
        if not tokens:
            raise ValueError("cannot sketch an empty token set")
        memo = self._sketch_memo
        cached = memo.get(tokens)
        if cached is None:
            token_hashes = self.token_hashes
            if len(tokens) == 1:
                signature = token_hashes(tokens[0])
            else:
                signature = tuple(
                    map(min, *[token_hashes(token) for token in tokens])
                )
            if len(memo) >= _CACHE_LIMIT:
                memo.clear()
            cached = memo[tokens] = (signature, self.band_keys(signature))
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MinHashScheme(perms={self.perms}, bands={self.bands}, "
            f"seed={self.seed})"
        )

