"""The four evaluation corpora, as synthetic equivalents.

Defaults follow the published statistics of the real corpora this
literature evaluates on (records here are token *sets*, so lengths are
distinct-token counts):

=========  ===========  =========  ==============================
corpus     avg length   shape      content modelled
=========  ===========  =========  ==============================
AOL        ~3           Poisson    web-search query log
TWEET      ~10          normal     short user posts, bursty dups
DBLP       ~13          normal     publication title + authors
ENRON      ~90          lognormal  mail bodies, long-tailed
=========  ===========  =========  ==============================

Every builder takes ``n_records``, a ``seed``, an optional input
``rate`` (records/second) or a full arrival process, and exposes the
generator knobs (``duplicate_rate``, ``skew``) for the ablation sweeps.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.datasets.generators import (
    CorpusSpec,
    lognormal_lengths,
    normal_lengths,
    poisson_lengths,
    stream_from_spec,
)
from repro.streams.stream import RecordStream


def synthetic_aol(
    n_records: int,
    seed: int = 0,
    rate: float = 1000.0,
    duplicate_rate: float = 0.12,
    skew: float = 1.05,
    vocabulary_size: Optional[int] = None,
    exact_duplicate_fraction: float = 0.5,
    arrivals=None,
) -> RecordStream:
    """Query-log-like corpus: very short records, large vocabulary."""
    spec = CorpusSpec(
        name="AOL",
        vocabulary_size=30_000 if vocabulary_size is None else vocabulary_size,
        length_model=poisson_lengths(mean=2.2, lo=1, hi=12),
        skew=skew,
        duplicate_rate=duplicate_rate,
        exact_duplicate_fraction=exact_duplicate_fraction,
    )
    return stream_from_spec(spec, n_records, seed, rate, arrivals)


def synthetic_tweet(
    n_records: int,
    seed: int = 0,
    rate: float = 1000.0,
    duplicate_rate: float = 0.15,
    skew: float = 1.05,
    vocabulary_size: Optional[int] = None,
    exact_duplicate_fraction: float = 0.5,
    arrivals=None,
) -> RecordStream:
    """Micro-blog-like corpus: short records, many near-duplicates
    (retweets/quotes) — the bundle technique's home turf."""
    spec = CorpusSpec(
        name="TWEET",
        vocabulary_size=50_000 if vocabulary_size is None else vocabulary_size,
        length_model=normal_lengths(mean=10.0, stddev=3.0, lo=3, hi=20),
        skew=skew,
        duplicate_rate=duplicate_rate,
        exact_duplicate_fraction=exact_duplicate_fraction,
    )
    return stream_from_spec(spec, n_records, seed, rate, arrivals)


def synthetic_dblp(
    n_records: int,
    seed: int = 0,
    rate: float = 1000.0,
    duplicate_rate: float = 0.06,
    skew: float = 1.05,
    vocabulary_size: Optional[int] = None,
    exact_duplicate_fraction: float = 0.5,
    arrivals=None,
) -> RecordStream:
    """Bibliographic corpus: moderate lengths, low duplicate rate."""
    spec = CorpusSpec(
        name="DBLP",
        vocabulary_size=40_000 if vocabulary_size is None else vocabulary_size,
        length_model=normal_lengths(mean=13.0, stddev=4.0, lo=4, hi=30),
        skew=skew,
        duplicate_rate=duplicate_rate,
        exact_duplicate_fraction=exact_duplicate_fraction,
    )
    return stream_from_spec(spec, n_records, seed, rate, arrivals)


def synthetic_enron(
    n_records: int,
    seed: int = 0,
    rate: float = 200.0,
    duplicate_rate: float = 0.08,
    skew: float = 1.05,
    vocabulary_size: Optional[int] = None,
    exact_duplicate_fraction: float = 0.5,
    arrivals=None,
) -> RecordStream:
    """Mail-body corpus: long, heavily skewed record lengths — the
    stress test for the length partitioner."""
    spec = CorpusSpec(
        name="ENRON",
        vocabulary_size=60_000 if vocabulary_size is None else vocabulary_size,
        length_model=lognormal_lengths(mu=4.4, sigma=0.55, lo=10, hi=400),
        skew=skew,
        duplicate_rate=duplicate_rate,
        exact_duplicate_fraction=exact_duplicate_fraction,
    )
    return stream_from_spec(spec, n_records, seed, rate, arrivals)


#: Name → builder registry used by the bench harness sweeps.
CORPUS_BUILDERS: Dict[str, Callable[..., RecordStream]] = {
    "AOL": synthetic_aol,
    "TWEET": synthetic_tweet,
    "DBLP": synthetic_dblp,
    "ENRON": synthetic_enron,
}
