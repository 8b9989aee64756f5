"""Set-similarity toolkit: similarity functions, filter bounds, token
ordering, tokenizers and verification primitives.

This subpackage is the algorithmic substrate of the reproduction. All
join algorithms in :mod:`repro.core` and all distribution schemes in
:mod:`repro.routing` are built on the exact pruning bounds defined here.

Records are represented as *canonical token arrays*: tuples of integer
token ids sorted ascending by a fixed global order (see
:class:`~repro.similarity.ordering.TokenDictionary`). Every function in
this subpackage assumes that representation.
"""

from repro.similarity.functions import (
    Cosine,
    Dice,
    Jaccard,
    Overlap,
    SimilarityFunction,
    get_similarity,
)
from repro.similarity.ordering import TokenDictionary
from repro.similarity.tokenizers import QGramTokenizer, WordTokenizer
from repro.similarity.verification import overlap_count, verify_pair

__all__ = [
    "Cosine",
    "Dice",
    "Jaccard",
    "Overlap",
    "QGramTokenizer",
    "SimilarityFunction",
    "TokenDictionary",
    "WordTokenizer",
    "get_similarity",
    "overlap_count",
    "verify_pair",
]
