"""Ranking quality metrics: NDCG, a full-information additive metric,
and its inverse-propensity-scored counterpart estimated from clicks."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .dataset import Dataset, Query
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
    discounts = DCG(np.arange(1, width + 1))
    # A row-times-column matmul takes each row's dot product exactly as the
    # 1-d product `gains @ discounts` does; a matrix-vector product may add
    # the terms in another order, so a DCG would depend on its batch.
    return np.matmul(gains[:, None, :], discounts[:, None])[:, 0, 0]


def dcg_at_k(labels_in_rank_order: np.ndarray, k: int) -> float:
    """DCG@k with gains 2^grade - 1 and discounts 1/log2(i + 1)."""
    labels = np.asarray(labels_in_rank_order, dtype=np.float64)[None, :k]
    return float(_dcg(labels, np.array([labels.shape[1]]))[0])


def mean_ndcg(ranker: LinearRanker, dataset: Dataset, k: int) -> float:
    """Mean NDCG@k over a dataset, skipping queries with zero ideal DCG; on
    a one-query dataset, that query's NDCG@k."""
    lengths = np.minimum(dataset.lengths, k)
    labels = dataset.padded(dataset.labels.astype(np.float64), -np.inf)
    ideal = _dcg(-np.sort(-labels, axis=1)[:, :k], lengths)
    counted = ideal != 0.0
    if not np.any(counted):
        raise ValueError("no query has a nonzero ideal DCG")
    ranked = np.take_along_axis(labels, top_k(ranker.weights, dataset, k), axis=1)
    return float(np.mean(_dcg(ranked, lengths)[counted] / ideal[counted]))


def full_info_metric(
    ranker: LinearRanker, query: Query, weights: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Sum of g(rank) over the query's relevant documents.

    Relevance is binarized at RELEVANCE_THRESHOLD. Needs the true labels,
    so it is only computable in simulation or on judged data.
    """
    positions = rank(ranker, query)
    relevant = np.asarray(query.labels) >= RELEVANCE_THRESHOLD
    if not np.any(relevant):
        return 0.0
    return float(np.sum(weights(positions[relevant])))


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
    return float(np.sum(weights(rank(ranker, query)[clicked]) / props))
