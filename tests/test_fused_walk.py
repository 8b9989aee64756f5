"""The prefix scheme's one merge walk per candidate.

A token-filtered :class:`StreamingSetJoin` reports a pair iff it owns
the pair's minimal common prefix token, and finds that token with the
same merge that verifies the pair
(:func:`repro.core.dedup.verify_owned_pair`). The oracle is the
two-pass form: :class:`ReferenceStreamingSetJoin` with
:class:`PrefixDedupFilter` bolted on as a pair filter, which walks the
prefixes, charges the meter, and lets ``verify_pair`` start again from
``(0, 0)``. Both must agree on every observable after every record.
"""

import math
import random

import pytest

from repro.core.dedup import verify_owned_pair
from repro.core.local_join import StreamingSetJoin
from repro.core.metering import WorkMeter
from repro.core.reference import PrefixDedupFilter, ReferenceStreamingSetJoin
from repro.core.two_stream import cross_source_filter
from repro.records import Record, pair_key
from repro.routing.prefix_router import token_owner
from repro.similarity.functions import get_similarity
from repro.similarity.verification import verify_pair
from repro.streams.window import SlidingWindow


def prefix_stream(seed, n=140, universe=28, max_len=9, late_rate=0.2):
    """Small-universe stream with exact duplicates (a fifth of the
    records repeat an earlier token set), late arrivals (``late_rate``
    of them carry a timestamp behind their predecessor's) and two
    sources."""
    rng = random.Random(seed)
    records = []
    now = 0.0
    for rid in range(n):
        now += rng.random() * 0.4
        if records and rng.random() < 0.2:
            tokens = rng.choice(records).tokens
        else:
            tokens = tuple(sorted(
                rng.sample(range(universe), rng.randint(1, max_len))
            ))
        late = rng.random() * 1.5 if rng.random() < late_rate else 0.0
        records.append(Record(rid, tokens, max(0.0, now - late), "LR"[rid % 2]))
    return records


def fused_shard(func, window, expiry, cross, shard, shards):
    meter = WorkMeter()
    return StreamingSetJoin(
        func, window=window, meter=meter, expiry=expiry,
        token_filter=lambda t: token_owner(t, shards) == shard,
        pair_filter=cross_source_filter if cross else None,
    )


def two_pass_shard(func, window, expiry, cross, shard, shards):
    meter = WorkMeter()
    dedup = PrefixDedupFilter(shard, shards, func, meter)
    return ReferenceStreamingSetJoin(
        func, window=window, meter=meter, expiry=expiry,
        token_filter=lambda t: token_owner(t, shards) == shard,
        pair_filter=(
            (lambda r, s: cross_source_filter(r, s) and dedup(r, s))
            if cross else dedup
        ),
    )


def observe(engine, matches):
    return (
        sorted((m.partner.rid, round(m.similarity, 12), m.overlap)
               for m in matches),
        dict(engine.meter.operations),
        dict(engine.meter.events),
        engine.live_postings,
    )


def run_sharded(records, func, window_seconds, expiry, cross, shards):
    """Prefix-route ``records`` over ``shards`` fused and two-pass
    engines side by side, comparing every observable of every touched
    shard after every record. Returns the reported pairs, one entry
    per report."""
    window = SlidingWindow(window_seconds)
    fused = [fused_shard(func, window, expiry, cross, s, shards)
             for s in range(shards)]
    oracle = [two_pass_shard(func, window, expiry, cross, s, shards)
              for s in range(shards)]
    reported = []
    for record in records:
        width = func.probe_prefix_length(record.size)
        for s in sorted({token_owner(t, shards) for t in record.tokens[:width]}):
            got = fused[s].probe_and_insert(record)
            want = oracle[s].probe_and_insert(record)
            assert observe(fused[s], got) == observe(oracle[s], want), (
                f"rid {record.rid} at shard {s}/{shards}"
            )
            reported += [pair_key(record, m.partner) for m in got]
    return reported


SIMILARITIES = [
    ("jaccard", 0.5), ("jaccard", 0.8),
    ("cosine", 0.6), ("cosine", 0.85),
    ("dice", 0.6), ("dice", 0.85),
    ("overlap", 2), ("overlap", 4),
]


@pytest.mark.parametrize("shards", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("name,threshold", SIMILARITIES)
def test_fused_walk_equals_two_pass_oracle(name, threshold, shards):
    """(a) + (b): per-record equality with the oracle on every shard,
    and exactly-once output — the shards' reports are the unfiltered
    single engine's pair set with no pair twice."""
    func = get_similarity(name, threshold)
    seed = shards * 31 + len(name)
    compared = 0
    for window_seconds in (math.inf, 3.0):
        for expiry in ("lazy", "eager"):
            for cross in (False, True):
                reported = run_sharded(
                    prefix_stream(seed), func, window_seconds, expiry, cross,
                    shards,
                )
                assert len(reported) == len(set(reported)), "pair reported twice"
                # Which pairs a bounded window yields depends on which
                # lists earlier probes happened to sweep once records
                # arrive late (a strict-position-filter engine can lose
                # a pair whose first posting was collected), so the
                # pair *set* is compared on an in-order stream.
                in_order = prefix_stream(seed, late_rate=0.0)
                reported = run_sharded(
                    in_order, func, window_seconds, expiry, cross, shards
                )
                single = StreamingSetJoin(
                    func, window=SlidingWindow(window_seconds), expiry=expiry,
                    pair_filter=cross_source_filter if cross else None,
                )
                expected = [
                    pair_key(record, m.partner)
                    for record in in_order
                    for m in single.probe_and_insert(record)
                ]
                assert len(reported) == len(set(reported)), "pair reported twice"
                assert sorted(reported) == sorted(expected)
                compared += len(expected)
    assert compared > 50  # the grid cell saw real matches


class TestVerifyOwnedPair:
    """The walk itself against the two passes it replaces."""

    @staticmethod
    def two_pass(r, s, required, owns):
        a = b = walked = 0
        while True:
            walked += 1
            if r[a] == s[b]:
                break
            if r[a] < s[b]:
                a += 1
            else:
                b += 1
        if not owns(r[a]):
            return -1, walked, 0
        overlap, comparisons = verify_pair(r, s, required)
        return overlap, walked + comparisons, 1

    @pytest.mark.parametrize("seed", range(5))
    def test_random_pairs(self, seed):
        rng = random.Random(seed)
        aborted_early = 0
        for _ in range(2000):
            r = tuple(sorted(rng.sample(range(24), rng.randint(1, 12))))
            s = tuple(sorted(rng.sample(range(24), rng.randint(1, 12))))
            if not set(r) & set(s):
                continue
            required = rng.randint(0, 13)
            owns = (lambda t: t % 3 != 0) if rng.random() < 0.5 else (lambda t: True)
            got = verify_owned_pair(r, s, required, owns)
            assert got == self.two_pass(r, s, required, owns), (r, s, required)
            first = min(set(r) & set(s))
            aborted_early += (
                got[2] == 1
                and got[1] < 2 * (r.index(first) + s.index(first) + 1)
            )
        assert aborted_early > 100  # the bound-before-first-match case ran

    def test_bound_fires_before_first_common_token(self):
        """(c) Jaccard 0.8, sizes 5 and 6: ``required`` is 5, so the
        probe may skip no token, yet its first common token with the
        partner is its second. From-scratch verification gives up
        after one comparison; the dedup walk needs three to reach the
        common token. The engine charges 3 + 1 compares and counts one
        failed verification — the totals the two-pass engine produced
        (``token_compare`` 4, ``verifications`` 1, ``candidates`` 1)."""
        func = get_similarity("jaccard", 0.8)
        partner = Record(0, (2, 3, 4, 5, 6, 7), 0.0)
        probe = Record(1, (1, 3, 4, 5, 6), 1.0)
        assert func.min_overlap(5, 6) == 5
        assert verify_pair(probe.tokens, partner.tokens, 5) == (-1, 1)
        assert verify_owned_pair(
            probe.tokens, partner.tokens, 5, lambda t: True
        ) == (-1, 4, 1)
        for shards in (1, 2):
            owner = token_owner(3, shards)
            engines = [
                build(func, SlidingWindow(), "lazy", False, owner, shards)
                for build in (fused_shard, two_pass_shard)
            ]
            for engine in engines:
                engine.insert(partner)
                assert engine.probe(probe) == []
                assert engine.meter.operation("token_compare") == 4
                assert engine.meter.count("verifications") == 1
                assert engine.meter.count("candidates") == 1
                assert engine.meter.operation("result_emit") == 0

    def test_unowned_pair_is_charged_the_walk_only(self):
        func = get_similarity("jaccard", 0.5)
        partner = Record(0, (2, 3, 4, 5), 0.0)
        probe = Record(1, (1, 3, 4, 5), 1.0)
        # The pair's minimal common token is 3; this engine owns 4 only,
        # meets the pair there, and must leave it to 3's owner.
        engine = StreamingSetJoin(func, token_filter=lambda t: t == 4)
        engine.insert(partner)
        assert engine.probe(probe) == []
        assert engine.meter.operation("token_compare") == 3
        assert engine.meter.count("candidates") == 1
        assert engine.meter.count("verifications") == 0


def test_batched_buffers_the_dedup_compares():
    """(d) The dedup walk meters through the engine, so ``batched()``
    holds its compares back with everything else: the real meter is
    untouched until the block exits, then holds the unbatched totals."""
    func = get_similarity("jaccard", 0.5)
    records = prefix_stream(seed=5, n=60)
    unbatched = fused_shard(func, SlidingWindow(), "lazy", False, 0, 2)
    batched = fused_shard(func, SlidingWindow(), "lazy", False, 0, 2)
    for record in records:
        unbatched.probe_and_insert(record)
    real = batched.meter
    with batched.batched():
        for record in records:
            batched.probe_and_insert(record)
        assert batched.meter.operation("token_compare") > 0
        assert not real.operations and not real.events
    assert batched.meter is real
    assert dict(real.operations) == dict(unbatched.meter.operations)
    assert dict(real.events) == dict(unbatched.meter.events)
    assert real.count("candidates") > real.count("verifications") > 0
