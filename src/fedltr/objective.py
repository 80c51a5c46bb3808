"""Hinge-based rank surrogate, the propensity-weighted client loss, and
exact subgradients for linear rankers, batched over a round's clicks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clicksim import Impressions
from .dataset import Dataset, Query
from .ranker import LinearRanker


@dataclass(frozen=True)
class Clicks:
    """A round's clicked documents as flat arrays, one entry per click,
    ordered by client, then record, then display position.

    `client` indexes the round's clients 0..n_clients-1, `row` the query in
    the training set, `doc` the document within its query and
    `position` its 1-based display position. Every propensity is positive.
    """

    n_clients: int
    client: np.ndarray
    row: np.ndarray
    doc: np.ndarray
    position: np.ndarray
    propensity: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.propensity <= 0.0):
            raise ValueError("clicked document has non-positive propensity")


def round_clicks(impressions: Impressions, propensity: np.ndarray) -> Clicks:
    """The clicks of a round's impressions, each weighted by the arm's
    table at its user and display position: propensity[user, position - 1]."""
    record, slot = np.nonzero(impressions.clicked)
    client = impressions.client[record]
    return Clicks(
        n_clients=impressions.users.size,
        client=client,
        row=impressions.row[record],
        doc=impressions.docs[record, slot],
        position=slot + 1,
        propensity=propensity[impressions.users[client], slot],
    )


def _length_classes(lengths: np.ndarray) -> list:
    """Indices grouped by ceil(log2(length)), or one slice when all share a
    class. A batch padded to its longest query then pads each query to less
    than twice its length, where padding to the corpus's longest query can
    cost 40 times the work on a skewed corpus."""
    classes = np.ceil(np.log2(lengths))
    if np.all(classes == classes[:1]):
        return [slice(None)]
    order = np.argsort(classes, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(classes[order])) + 1)


def _margins(scores: np.ndarray, doc: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """1 - (f(d) - f(d')) for each line's clicked document d and every
    document d' of its query; 0 for d' = d and for padding."""
    line = np.arange(doc.size)
    margins = 1.0 - (scores[line, doc][:, None] - scores)
    margins[line, doc] = 0.0
    margins[~valid] = 0.0
    return margins


def _hinge_sums(scores: np.ndarray, doc: np.ndarray, valid: np.ndarray) -> np.ndarray:
    return np.sum(np.maximum(_margins(scores, doc, valid), 0.0), axis=1)


def click_gradients(
    corpus: Dataset,
    row: np.ndarray,
    doc: np.ndarray,
    weights: np.ndarray,
    propensity: np.ndarray,
) -> np.ndarray:
    """Subgradient of hinge_sum / propensity for a batch of clicks, line i
    at weights[i]: document doc[i] of query row[i] of the corpus."""
    grads = np.empty_like(weights)
    for group in _length_classes(corpus.lengths[row]):
        index, valid = corpus.doc_rows(row[group])
        picked = doc[group]
        # Document-major: features[j, i] is the j-th document of line i's query.
        features = corpus.features[index.T]
        scores = np.matmul(features.transpose(1, 0, 2), weights[group][:, :, None])[:, :, 0]
        active = _margins(scores, picked, valid) > 0.0
        clicked = features[picked, np.arange(picked.size)]
        # Zeroing inactive documents and summing over the document axis adds
        # the active rows in document order, exactly as summing the selected
        # rows of one query does. A segment sum such as np.add.reduceat adds
        # them in another order.
        features[~active.T] = 0.0
        summed = features.sum(axis=0)
        n_active = np.count_nonzero(active, axis=1)
        grads[group] = -(n_active[:, None] * clicked - summed) / propensity[group][:, None]
    return grads


def hinge_sum(model: LinearRanker, query: Query, d: int) -> float:
    """Sum over the query's other documents of max(0, 1 - score margin).

    The margin is f(d) - f(d'); the self pair is excluded. Zero when d
    beats every other document by at least 1.
    """
    scores = (query.features @ model.weights)[None]
    return float(_hinge_sums(scores, np.array([d]), np.ones(scores.shape, dtype=bool))[0])


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
    corpus = Dataset(queries=(query,), feature_dim=query.features.shape[1])
    return click_gradients(
        corpus, np.array([0]), np.array([d]), model.weights[None], np.array([propensity])
    )[0]


def client_loss(model: LinearRanker, corpus: Dataset, clicks: Clicks) -> np.ndarray:
    """Each client's propensity-weighted hinge loss over its clicks.

    Client i's loss sums hinge_sum / p over its clicks, then divides by the
    number of distinct queries it clicked; zero when it clicked nothing.
    One product scores the whole corpus at the model's weights.
    """
    scores = corpus.features @ model.weights
    hinges = np.empty(clicks.row.size)
    for group in _length_classes(corpus.lengths[clicks.row]):
        index, valid = corpus.doc_rows(clicks.row[group])
        hinges[group] = _hinge_sums(scores[index], clicks.doc[group], valid)
    # bincount adds each client's terms in click order, as a running sum does.
    totals = np.bincount(
        clicks.client, weights=hinges / clicks.propensity, minlength=clicks.n_clients
    )
    n_queries = corpus.n_queries
    pairs = np.unique(clicks.client * n_queries + clicks.row)
    distinct = np.bincount(pairs // n_queries, minlength=clicks.n_clients)
    return np.divide(totals, distinct, out=np.zeros(clicks.n_clients), where=distinct > 0)
