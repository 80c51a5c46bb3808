"""Full-information linear baseline trained with LambdaRank-style
pairwise gradients on the true relevance grades."""

from __future__ import annotations

import numpy as np

from .dataset import Dataset, Query
from .metrics import DCG, dcg_at_k
from .ranker import LinearRanker, rank

# exp() argument cap; larger score gaps already give a vanishing weight.
_EXP_CLIP = 50.0
# SGD step size, passes over the training queries, and the cutoff of the
# NDCG whose swap changes weight each pair.
LEARNING_RATE = 0.1
EPOCHS = 30
NDCG_K = 5


def lambda_gradient(model: LinearRanker, query: Query) -> np.ndarray:
    """Pairwise gradient over the query's (higher grade, lower grade) pairs.

    Each pair is weighted by the NDCG@NDCG_K change from swapping the two
    documents in the current ranking, damped by a sigmoid of the score
    gap. A descent step on this gradient widens correctly ordered pairs.
    """
    labels = query.labels
    scores = query.features @ model.weights
    positions = rank(model, query).astype(np.float64)
    gains = 2.0 ** labels.astype(np.float64) - 1.0
    discounts = np.where(positions <= NDCG_K, DCG(positions), 0.0)
    ideal = dcg_at_k(np.sort(labels)[::-1], NDCG_K)
    if ideal == 0.0:
        raise ValueError(f"query {query.qid} has zero ideal DCG")

    higher = labels[:, None] > labels[None, :]
    delta_ndcg = np.abs(
        (gains[:, None] - gains[None, :]) * (discounts[None, :] - discounts[:, None])
    ) / ideal
    score_gap = np.clip(scores[:, None] - scores[None, :], -_EXP_CLIP, _EXP_CLIP)
    lam = np.where(higher, -delta_ndcg / (1.0 + np.exp(score_gap)), 0.0)
    per_doc = lam.sum(axis=1) - lam.sum(axis=0)
    return query.features.T @ per_doc


def train_lambda_linear(train: Dataset, seed: int) -> LinearRanker:
    """Query-shuffled SGD from zero weights. Queries without two distinct
    grades are skipped."""
    w = np.zeros(train.feature_dim)
    trainable = [q for q in train.queries if np.unique(q.labels).size >= 2]
    if not trainable:
        raise ValueError("no query has two distinct grades")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    for _ in range(EPOCHS):
        for qi in rng.permutation(len(trainable)):
            w = w - LEARNING_RATE * lambda_gradient(LinearRanker(w), trainable[qi])
    return LinearRanker(w)
