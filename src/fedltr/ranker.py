"""Linear scoring model and deterministic ranking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import PackedQueries, Query


@dataclass(frozen=True)
class LinearRanker:
    """A linear ranker scoring documents by the inner product with `weights`."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError("weights must be a 1-d vector")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", w)

    @staticmethod
    def zeros(feature_dim: int) -> "LinearRanker":
        return LinearRanker(np.zeros(feature_dim))


@dataclass(frozen=True)
class RankedList:
    """A ranking of one query's documents.

    ``order[i]`` is the document index placed at position i+1 (positions are
    1-based, position 1 is best). ``positions`` is the inverse permutation:
    ``positions[d]`` is the 1-based position of document d.
    """

    order: np.ndarray
    positions: np.ndarray


def _order(scores: np.ndarray) -> np.ndarray:
    """Document indices by descending score along the last axis; ties
    break by ascending document index."""
    return np.argsort(-scores, axis=-1, kind="stable")


def rank(ranker: LinearRanker, query: Query) -> RankedList:
    """Rank a query's documents by score, descending.

    Ties break by ascending document index, so the permutation is
    deterministic and invariant to positive rescaling of the weights.
    """
    order = _order(query.features @ ranker.weights)
    positions = np.empty(query.n_docs, dtype=np.int64)
    positions[order] = np.arange(1, query.n_docs + 1)
    return RankedList(order=order, positions=positions)


def top_k(weights: np.ndarray, packed: PackedQueries, k: int) -> np.ndarray:
    """The first k positions of every query's ranking, as `rank` orders
    them, from one product and one sort over all queries.

    Row r holds document indices of query r, best first, min(k, longest
    query) of them; entries at or past a query's length are padding.
    """
    return _order(packed.padded(packed.features @ weights, -np.inf))[:, :k]
