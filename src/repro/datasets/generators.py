"""Corpus generation: Zipfian vocabularies, length models, duplicates.

Three generator knobs map one-to-one onto the algorithmic behaviours
under study:

* **token skew** (Zipf exponent) — drives prefix-filter selectivity and
  the load skew that hurts prefix-based distribution;
* **length distribution** — drives the length partitioner;
* **near-duplicate rate** — drives bundle formation (a duplicate is a
  mutated copy of a recent record, modelling re-posted/quoted content).

Token ids are assigned *rare-first*: the rarest vocabulary entry gets
id 0, so ascending canonical order equals the document-frequency-
ascending global order that prefix filtering wants (see
:mod:`repro.similarity.ordering`).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.streams.arrival import ConstantRate
from repro.streams.stream import RecordStream

LengthModel = Callable[[random.Random], int]


class ZipfVocabulary:
    """Samples token ids from a Zipf(s) distribution over ``size`` tokens.

    Ids are rare-first: rank 0 (most frequent) maps to id ``size - 1``.
    """

    def __init__(self, size: int, skew: float = 1.05):
        if size < 1:
            raise ValueError(f"vocabulary size must be >= 1, got {size}")
        if skew <= 0:
            raise ValueError(f"skew must be positive, got {skew}")
        self.size = size
        self.skew = skew
        cumulative: List[float] = []
        total = 0.0
        for rank in range(1, size + 1):
            total += rank**-skew
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def sample(self, rng: random.Random) -> int:
        """One token id (rare-first numbering)."""
        rank = bisect_right(self._cumulative, rng.random() * self._total)
        rank = min(rank, self.size - 1)
        return self.size - 1 - rank

    def sample_set(self, rng: random.Random, count: int) -> Tuple[int, ...]:
        """``count`` distinct token ids, sorted ascending (canonical)."""
        count = min(count, self.size)
        chosen: set = set()
        # Rejection sampling; the tail is huge, so this terminates fast
        # except for count close to the vocabulary size, where we fall
        # back to uniform filling.
        attempts = 0
        while len(chosen) < count:
            chosen.add(self.sample(rng))
            attempts += 1
            if attempts > 50 * count:
                while len(chosen) < count:
                    chosen.add(rng.randrange(self.size))
        return tuple(sorted(chosen))


# -- length models --------------------------------------------------------------
def poisson_lengths(mean: float, lo: int, hi: int) -> LengthModel:
    """Shifted-Poisson lengths clipped to ``[lo, hi]`` (short records)."""

    def model(rng: random.Random) -> int:
        # Knuth's algorithm; mean is small here.
        threshold = math.exp(-mean)
        k, product = 0, rng.random()
        while product > threshold:
            k += 1
            product *= rng.random()
        return max(lo, min(hi, lo + k))

    return model


def normal_lengths(mean: float, stddev: float, lo: int, hi: int) -> LengthModel:
    """Rounded-normal lengths clipped to ``[lo, hi]``."""

    def model(rng: random.Random) -> int:
        return max(lo, min(hi, round(rng.gauss(mean, stddev))))

    return model


def lognormal_lengths(mu: float, sigma: float, lo: int, hi: int) -> LengthModel:
    """Log-normal lengths clipped to ``[lo, hi]`` (long-tailed documents)."""

    def model(rng: random.Random) -> int:
        return max(lo, min(hi, round(math.exp(rng.gauss(mu, sigma)))))

    return model


@dataclass
class CorpusSpec:
    """Full recipe for one synthetic corpus."""

    name: str
    vocabulary_size: int
    length_model: LengthModel
    skew: float = 1.05
    #: Probability that a record is a near-duplicate of a recent one.
    duplicate_rate: float = 0.10
    #: Fraction of duplicates that are *exact* copies (reposts/retweets);
    #: the rest are mutated.
    exact_duplicate_fraction: float = 0.5
    #: Per-token survival probability when mutating a duplicate.
    duplicate_keep: float = 0.9
    #: How far back (records) a duplicate may copy from.
    duplicate_horizon: int = 500


def generate_corpus(
    spec: CorpusSpec, n_records: int, seed: int = 0
) -> List[Tuple[int, ...]]:
    """Canonical token arrays for ``n_records`` records of a spec."""
    if n_records < 0:
        raise ValueError(f"n_records must be >= 0, got {n_records}")
    if not 0 <= spec.duplicate_rate <= 1:  # a probability; NaN too
        raise ValueError(
            f"duplicate_rate must be in [0, 1], got {spec.duplicate_rate}"
        )
    rng = random.Random(seed)
    vocabulary = ZipfVocabulary(spec.vocabulary_size, spec.skew)
    corpus: List[Tuple[int, ...]] = []
    for _ in range(n_records):
        if corpus and rng.random() < spec.duplicate_rate:
            corpus.append(_mutate(corpus, spec, vocabulary, rng))
        else:
            length = max(1, spec.length_model(rng))
            corpus.append(vocabulary.sample_set(rng, length))
    return corpus


def _mutate(
    corpus: List[Tuple[int, ...]],
    spec: CorpusSpec,
    vocabulary: ZipfVocabulary,
    rng: random.Random,
) -> Tuple[int, ...]:
    """A near-duplicate: copy a recent record, possibly verbatim
    (modelling reposts), otherwise drop/add a few tokens."""
    horizon = min(spec.duplicate_horizon, len(corpus))
    base = corpus[len(corpus) - 1 - rng.randrange(horizon)]
    if rng.random() < spec.exact_duplicate_fraction:
        return base
    kept = {token for token in base if rng.random() < spec.duplicate_keep}
    dropped = len(base) - len(kept)
    for _ in range(dropped if rng.random() < 0.5 else 0):
        kept.add(vocabulary.sample(rng))
    if not kept:
        kept.add(vocabulary.sample(rng))
    return tuple(sorted(kept))


def stream_from_spec(
    spec: CorpusSpec,
    n_records: int,
    seed: int = 0,
    rate: float = 1000.0,
    arrivals=None,
) -> RecordStream:
    """Generate a corpus and wrap it in a :class:`RecordStream`."""
    corpus = generate_corpus(spec, n_records, seed)
    if arrivals is None:
        arrivals = ConstantRate(rate)
    return RecordStream(corpus, arrivals=arrivals, name=spec.name)
