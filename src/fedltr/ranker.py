"""Linear scoring model and deterministic ranking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, Query


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


def _order(scores: np.ndarray) -> np.ndarray:
    """Document indices by descending score along the last axis; ties
    break by ascending document index."""
    return np.argsort(-scores, axis=-1, kind="stable")


def rank(ranker: LinearRanker, query: Query) -> np.ndarray:
    """Rank a query's documents by score, descending: element d is the
    1-based position of document d, position 1 being best.

    Ties break by ascending document index, so the ranking is deterministic
    and invariant to positive rescaling of the weights.
    """
    positions = np.empty(query.n_docs, dtype=np.int64)
    positions[_order(query.features @ ranker.weights)] = np.arange(1, query.n_docs + 1)
    return positions


def top_k(weights: np.ndarray, dataset: Dataset, k: int) -> np.ndarray:
    """The first k positions of every query's ranking, as `rank` orders
    them, from one product and one sort over all queries.

    Row r holds document indices of query r, best first, min(k, longest
    query) of them; entries at or past a query's length are padding.
    """
    return _order(dataset.padded(dataset.features @ weights, -np.inf))[:, :k]
