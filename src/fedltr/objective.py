"""Hinge-based rank surrogate, the propensity-weighted client loss, and
exact subgradients for linear rankers."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .clicksim import ClickRecord
from .dataset import Query
from .ranker import LinearRanker

# Maps (record, 1-based display position) to that click's propensity.
PropensityProvider = Callable[[ClickRecord, int], float]

# One clicked document: its query, its document index and its propensity.
ClickStep = tuple[Query, int, float]


def _margins(model: LinearRanker, query: Query, d: int) -> np.ndarray:
    """1 - (f(d) - f(d')) for every document d' of the query, d' = d included."""
    scores = query.features @ model.weights
    return 1.0 - (scores[d] - scores)


def hinge_sum(model: LinearRanker, query: Query, d: int) -> float:
    """Sum over the query's other documents of max(0, 1 - score margin).

    The margin is f(d) - f(d'); the self pair is excluded. Zero when d
    beats every other document by at least 1.
    """
    margins = _margins(model, query, d)
    margins[d] = 0.0
    return float(np.sum(np.maximum(margins, 0.0)))


def rank_upper_bound(model: LinearRanker, query: Query, d: int) -> float:
    """1 + hinge_sum: a differentiable upper bound on d's rank under the
    model. Tight (= 1) when d wins every pairwise margin by at least 1."""
    return 1.0 + hinge_sum(model, query, d)


def click_gradient(
    model: LinearRanker, query: Query, d: int, propensity: float
) -> np.ndarray:
    """Subgradient of hinge_sum(model, query, d) / propensity in the model
    weights. Pairs exactly at the hinge kink contribute zero."""
    if propensity <= 0.0:
        raise ValueError("propensity must be positive")
    active = _margins(model, query, d) > 0.0
    active[d] = False
    n_active = int(np.count_nonzero(active))
    if n_active == 0:
        return np.zeros(query.features.shape[1])
    summed = np.sum(query.features[active], axis=0)
    return -(n_active * query.features[d] - summed) / propensity


def click_steps(
    records: Sequence[tuple[ClickRecord, Query]], propensities: PropensityProvider
) -> list[ClickStep]:
    """One client's clicked documents as (query, doc, propensity) steps, in
    record order and display order within a record. Every propensity must
    be positive."""
    steps = []
    for record, query in records:
        for j in np.nonzero(record.clicks)[0]:
            p = float(propensities(record, int(j) + 1))
            if p <= 0.0:
                raise ValueError("clicked document has non-positive propensity")
            steps.append((query, int(record.displayed[j]), p))
    return steps


def client_loss(model: LinearRanker, steps: Sequence[ClickStep]) -> float:
    """Propensity-weighted hinge loss over a round's click steps.

    Sums hinge_sum / p over clicks, then divides by the number of distinct
    queries that received at least one click. Zero when nothing was clicked.
    """
    if not steps:
        return 0.0
    total = 0.0
    for query, d, p in steps:
        total += hinge_sum(model, query, d) / p
    return total / len({query.qid for query, _, _ in steps})
