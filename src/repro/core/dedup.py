"""Exactly-once output for the prefix-based distribution scheme.

Under prefix routing a pair sharing several prefix tokens is discovered
at the owner of each shared token, and *reported* only at the owner of
its **minimal common prefix token** in the global order. Every worker
can evaluate the rule locally, because prefix routing ships whole
records — and the merge that finds that token is the start of the
pair's verification, so a token-filtered
:class:`~repro.core.local_join.StreamingSetJoin` does both in one walk,
:func:`verify_owned_pair`. (The rule as a separate pass, the oracle
this walk is fuzzed against: :class:`repro.core.reference.PrefixDedupFilter`.)

The length-based scheme needs none of this — each record is indexed at
exactly one worker — which is one of the paper's arguments for it.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple


def verify_owned_pair(
    r: Sequence[int],
    s: Sequence[int],
    required: int,
    owns: Callable[[int], bool],
) -> Tuple[int, int, int]:
    """Dedup test and from-scratch verification of one candidate, as
    one merge walk; ``(overlap, comparisons, verifications)``.

    ``r`` and ``s`` must share a token (the posting hit that made the
    pair a candidate), so the merge from ``(0, 0)`` reaches their first
    common token without a bounds check. Unless ``owns`` that token the
    pair costs the walk and is not verified. Metered as the two passes
    were (DESIGN §9.7): the walk's steps, plus every step
    :func:`~repro.similarity.verification.verify_pair` makes from
    ``(0, 0)``. Until the first match each step advances one side, so
    ``(a, b)`` is reached after ``a + b`` comparisons, and with no
    match known verification's bound fails exactly when ``a > len(r) -
    required or b > len(s) - required``, which is monotone along the
    walk: the first loop stops where that first holds, and that many
    comparisons are what the failed verification is charged.
    ``overlap`` is ``-1`` below ``required``.
    """
    lr, ls = len(r), len(s)
    amax, bmax = lr - required, ls - required
    a = b = 0
    ta, tb = r[0], s[0]
    while ta != tb and a <= amax and b <= bmax:
        if ta < tb:
            a += 1
            ta = r[a]
        else:
            b += 1
            tb = s[b]
    aborted = -1 if a <= amax and b <= bmax else a + b
    while ta != tb:
        if ta < tb:
            a += 1
            ta = r[a]
        else:
            b += 1
            tb = s[b]
    walked = a + b + 1
    if not owns(ta):
        return -1, walked, 0
    if aborted >= 0:
        return -1, walked + aborted, 1
    a += 1
    b += 1
    o = 1
    comparisons = 2 * walked
    while a < lr and b < ls:
        ra = lr - a
        rb = ls - b
        if o + (ra if ra < rb else rb) < required:
            return -1, comparisons, 1
        comparisons += 1
        ta = r[a]
        tb = s[b]
        if ta == tb:
            o += 1
            a += 1
            b += 1
        elif ta < tb:
            a += 1
        else:
            b += 1
    return (o if o >= required else -1), comparisons, 1
