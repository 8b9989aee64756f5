"""Prefix-based distribution: the offline scheme the paper argues against.

Offline distributed set-similarity joins partition by *signature*: each
worker owns a share of the token space, and a record is shipped to the
owner of every token in its prefix, where it is both indexed (under the
owned prefix tokens) and probed (against the owned postings). Any
qualifying pair shares a prefix token, so it is discovered at that
token's owner.

The price, highlighted by the paper:

* **replication** — a record with prefix length ``p`` is shipped to up
  to ``min(p, k)`` workers, and indexed at each;
* **duplicate candidate discovery** — a pair sharing several prefix
  tokens is discovered at several workers; the minimal-common-token
  rule (see :mod:`repro.core.dedup`) keeps output exactly-once but the
  filtering work is still repeated;
* **skew** — frequent prefix tokens concentrate load on their owners.

Token ownership uses a multiplicative hash so frequency rank doesn't
systematically collide with worker index.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from repro.records import Record
from repro.routing.base import Router, RoutingDecision
from repro.similarity.functions import SimilarityFunction

_KNUTH = 2654435761  # Knuth's multiplicative hashing constant (2^32 / φ)


def token_owner(token: int, num_workers: int) -> int:
    """The join task owning a token id (stable multiplicative hash)."""
    return ((token * _KNUTH) & 0xFFFFFFFF) % num_workers


class PrefixRouter(Router):
    """Ship each record to the owners of its prefix tokens."""

    name = "prefix"

    def __init__(self, num_workers: int, func: SimilarityFunction):
        super().__init__(num_workers)
        self.func = func
        #: ``token -> owner`` table, filled as tokens are first routed:
        #: a prefix token costs one lookup, not one hash, per record.
        self._owner = lru_cache(maxsize=None)(
            lambda token: token_owner(token, num_workers)
        )
        #: One decision object per distinct owner set: building the
        #: frozen dataclass costs more than the lookups that found it.
        self._decisions: Dict[Tuple[int, ...], RoutingDecision] = {}

    def __reduce__(self):
        # The owner memo wraps a closure and does not pickle; a copy in
        # another process (a ``spawn`` worker's plan) refills its own.
        return type(self), (self.num_workers, self.func)

    def route(self, record: Record) -> RoutingDecision:
        probe_len = self.func.probe_prefix_length(record.size)
        index_len = self.func.index_prefix_length(record.size)
        # In the streaming setting the two prefixes coincide; keep the
        # general computation so the scheme stays correct if a subclass
        # tightens one of them.
        width = max(probe_len, index_len)
        owners = tuple(sorted(set(map(self._owner, record.tokens[:width]))))
        decision = self._decisions.get(owners)
        if decision is None:
            targets = owners or (0,)
            decision = self._decisions[owners] = RoutingDecision(
                index_tasks=targets, probe_tasks=targets
            )
        return decision

    def routing_units(self, record: Record, cost) -> float:
        """Prefix routing hashes every prefix token."""
        width = self.func.probe_prefix_length(record.size)
        return cost.route_token * width
