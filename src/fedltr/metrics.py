"""Ranking quality metrics: NDCG, a full-information additive metric,
and its inverse-propensity-scored counterpart estimated from clicks."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .dataset import Dataset, Query
from .ranker import LinearRanker, rank

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


def dcg_at_k(labels_in_rank_order: np.ndarray, k: int) -> float:
    """DCG@k with gains 2^grade - 1 and discounts 1/log2(i + 1)."""
    labels = np.asarray(labels_in_rank_order, dtype=np.float64)[:k]
    gains = 2.0 ** labels - 1.0
    discounts = 1.0 / np.log2(np.arange(2, labels.size + 2, dtype=np.float64))
    return float(gains @ discounts)


def ndcg_at_k(ranker: LinearRanker, query: Query, k: int) -> float:
    """NDCG@k of the ranker on one query.

    Raises ValueError when the ideal DCG is zero (all labels zero), since
    the ratio is undefined there.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ranking = rank(ranker, query)
    labels = np.asarray(query.labels, dtype=np.float64)
    actual = dcg_at_k(labels[ranking.order], k)
    ideal = dcg_at_k(np.sort(labels)[::-1], k)
    if ideal == 0.0:
        raise ValueError(f"ideal DCG@{k} is zero for query {query.qid}")
    return actual / ideal


def mean_ndcg(ranker: LinearRanker, dataset: Dataset, k: int) -> float:
    """Mean NDCG@k over a dataset, skipping queries with zero ideal DCG."""
    values = []
    for query in dataset.queries:
        labels = np.asarray(query.labels, dtype=np.float64)
        if dcg_at_k(np.sort(labels)[::-1], k) == 0.0:
            continue
        values.append(ndcg_at_k(ranker, query, k))
    if not values:
        raise ValueError("no query has a nonzero ideal DCG")
    return float(np.mean(values))


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
