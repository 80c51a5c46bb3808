"""Ranking quality metrics: NDCG, a full-information additive metric,
and its inverse-propensity-scored counterpart estimated from clicks."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .dataset import Dataset, PackedQueries, Query
from .ranker import LinearRanker, rank, top_k

# Graded relevance at or above this grade counts as relevant when the
# additive metrics binarize labels.
RELEVANCE_THRESHOLD = 3


def IDENTITY(ranks: np.ndarray) -> np.ndarray:
    """Per-position weight g(k) = k for additive rank metrics: the average
    relevant rank, lower is better."""
    return np.asarray(ranks, dtype=np.float64)


def DCG(ranks: np.ndarray) -> np.ndarray:
    """Per-position weight g(k) = 1 / log2(k + 1), higher is better."""
    return 1.0 / np.log2(np.asarray(ranks, dtype=np.float64) + 1.0)


def _dcg(grades: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """DCG of each row of `grades`, given in rank order, over the first
    lengths[i] entries of row i: gains 2^grade - 1, discounts 1/log2(i + 1)."""
    width = grades.shape[1]
    gains = np.where(np.arange(width) < lengths[:, None], 2.0 ** grades - 1.0, 0.0)
    discounts = 1.0 / np.log2(np.arange(2, width + 2, dtype=np.float64))
    # A row-times-column matmul takes each row's dot product exactly as the
    # 1-d product `gains @ discounts` does; a matrix-vector product may add
    # the terms in another order, so a DCG would depend on its batch.
    return np.matmul(gains[:, None, :], discounts[:, None])[:, 0, 0]


def dcg_at_k(labels_in_rank_order: np.ndarray, k: int) -> float:
    """DCG@k with gains 2^grade - 1 and discounts 1/log2(i + 1)."""
    labels = np.asarray(labels_in_rank_order, dtype=np.float64)[None, :k]
    return float(_dcg(labels, np.array([labels.shape[1]]))[0])


def _dcgs(weights: np.ndarray, packed: PackedQueries, k: int) -> tuple[np.ndarray, np.ndarray]:
    """DCG@k of every query of a packed dataset under the weights, and its
    ideal DCG@k, computed once per dataset and k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lengths = np.minimum(packed.lengths, k)
    labels = packed.padded(packed.labels.astype(np.float64), -np.inf)
    actual = _dcg(np.take_along_axis(labels, top_k(weights, packed, k), axis=1), lengths)
    ideal = packed.ideal_dcg.get(k)
    if ideal is None:
        ideal = packed.ideal_dcg[k] = _dcg(-np.sort(-labels, axis=1)[:, :k], lengths)
    return actual, ideal


def ndcg_at_k(ranker: LinearRanker, query: Query, k: int) -> float:
    """NDCG@k of the ranker on one query.

    Raises ValueError when the ideal DCG is zero (all labels zero), since
    the ratio is undefined there.
    """
    packed = Dataset(queries=(query,), feature_dim=query.features.shape[1]).packed
    actual, ideal = _dcgs(ranker.weights, packed, k)
    if ideal[0] == 0.0:
        raise ValueError(f"ideal DCG@{k} is zero for query {query.qid}")
    return float(actual[0] / ideal[0])


def mean_ndcg(ranker: LinearRanker, dataset: Dataset, k: int) -> float:
    """Mean NDCG@k over a dataset, skipping queries with zero ideal DCG."""
    actual, ideal = _dcgs(ranker.weights, dataset.packed, k)
    counted = ideal != 0.0
    if not np.any(counted):
        raise ValueError("no query has a nonzero ideal DCG")
    return float(np.mean(actual[counted] / ideal[counted]))


def full_info_metric(
    ranker: LinearRanker, query: Query, weights: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Sum of g(rank) over the query's relevant documents.

    Relevance is binarized at RELEVANCE_THRESHOLD. Needs the true labels,
    so it is only computable in simulation or on judged data.
    """
    ranking = rank(ranker, query)
    relevant = np.asarray(query.labels) >= RELEVANCE_THRESHOLD
    if not np.any(relevant):
        return 0.0
    return float(np.sum(weights(ranking.positions[relevant])))


def ips_click_metric(
    ranker: LinearRanker,
    query: Query,
    clicked: Sequence[int],
    propensities: Sequence[float],
    weights: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Inverse-propensity estimate of the additive metric from clicks.

    `clicked` holds document indices clicked in a logged impression and
    `propensities` the examination probability each had under the logging
    ranking. Each click contributes g(rank under `ranker`) / propensity.
    """
    clicked = np.asarray(clicked, dtype=np.int64)
    props = np.asarray(propensities, dtype=np.float64)
    if clicked.shape != props.shape:
        raise ValueError("clicked and propensities must have matching lengths")
    if clicked.size == 0:
        return 0.0
    if np.any(props <= 0.0):
        raise ValueError("propensities must be positive")
    ranking = rank(ranker, query)
    return float(np.sum(weights(ranking.positions[clicked]) / props))
