"""Full-information linear baseline trained with LambdaRank-style
pairwise gradients on the true relevance grades."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, Query
from .federation import is_finite_real, is_integer
from .metrics import DCG, dcg_at_k
from .ranker import LinearRanker, rank

# exp() argument cap; larger score gaps already give a vanishing weight.
_EXP_CLIP = 50.0


@dataclass(frozen=True)
class LambdaConfig:
    learning_rate: float = 0.1
    epochs: int = 30
    ndcg_k: int = 5

    def __post_init__(self) -> None:
        if not is_finite_real(self.learning_rate):
            raise ValueError(
                f"learning_rate must be a finite real number, got {self.learning_rate!r}"
            )
        for name in ("epochs", "ndcg_k"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.ndcg_k < 1:
            raise ValueError("ndcg_k must be >= 1")


def lambda_gradient(model: LinearRanker, query: Query, cfg: LambdaConfig) -> np.ndarray:
    """Pairwise gradient over the query's (higher grade, lower grade) pairs.

    Each pair is weighted by the NDCG@k change from swapping the two
    documents in the current ranking, damped by a sigmoid of the score
    gap. A descent step on this gradient widens correctly ordered pairs.
    """
    labels = query.labels
    scores = query.features @ model.weights
    positions = rank(model, query).positions.astype(np.float64)
    gains = 2.0 ** labels.astype(np.float64) - 1.0
    discounts = np.where(positions <= cfg.ndcg_k, DCG(positions), 0.0)
    ideal = dcg_at_k(np.sort(labels)[::-1], cfg.ndcg_k)
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


def train_lambda_linear(train: Dataset, cfg: LambdaConfig, seed: int) -> LinearRanker:
    """Query-shuffled SGD from zero weights; epochs=0 returns the zero
    model untouched. Queries without two distinct grades are skipped."""
    w = np.zeros(train.feature_dim)
    trainable = [q for q in train.queries if np.unique(q.labels).size >= 2]
    if not trainable:
        raise ValueError("no query has two distinct grades")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    for _ in range(cfg.epochs):
        for qi in rng.permutation(len(trainable)):
            w = w - cfg.learning_rate * lambda_gradient(
                LinearRanker(w), trainable[qi], cfg
            )
    return LinearRanker(w)
