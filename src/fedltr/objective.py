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
    the training set and `doc` the document within its query. Every
    propensity is positive.
    """

    n_clients: int
    client: np.ndarray
    row: np.ndarray
    doc: np.ndarray
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
        propensity=propensity[impressions.users[client], slot],
    )


def batches(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The grouping rule of every batched pass: `order` sorts the lines by
    `keys`, the last primary as in np.lexsort, equal keys in ascending line
    order, and each run of equal keys starts at one of the positions `first`."""
    order = np.lexsort(keys)
    new = np.arange(order.size) == 0
    for key in keys:
        new[1:] |= key[order][1:] != key[order][:-1]
    return order, np.flatnonzero(new)


def _hinge_sums(scores, starts, lengths, doc) -> np.ndarray:
    """Sum of max(0, 1 - (f(d) - f(d'))) over each line i's clicked document
    d = doc[i] and the other documents d' of its query, scored
    scores[starts[i]:starts[i] + lengths[i]]: one flat pass over the pairs."""
    line = np.repeat(np.arange(doc.size), lengths)
    first = np.cumsum(lengths) - lengths
    rows = np.repeat(starts - first, lengths) + np.arange(line.size)
    margins = np.maximum(1.0 - (scores[starts + doc][line] - scores[rows]), 0.0)
    margins[first + doc] = 0.0
    # bincount adds each line's terms in document order, whatever the others.
    return np.bincount(line, weights=margins, minlength=doc.size)


def hinge_gradients(
    features: np.ndarray,
    weights: np.ndarray,
    index: np.ndarray,
    eligible: np.ndarray,
    doc: np.ndarray,
    propensity: np.ndarray,
) -> np.ndarray:
    """Subgradient of hinge_sum / propensity for a batch of clicks, line i
    at weights[i]. features[index[j, i]] is the j-th document of line i's
    query, padded with its first; doc[i] is the clicked one. eligible[i, j]
    is 1.0 for the query's other documents and 0.0 for the clicked one and
    the padding."""
    feats = features.take(index, axis=0)
    # numpy's own einsum loop sums each score over the features alone, so its
    # bits depend on neither the batch nor its padding, unlike a BLAS matmul.
    scores = np.einsum("dnf,nf->nd", feats, weights)
    line = np.arange(doc.size)
    active = (1.0 - (scores[line, doc][:, None] - scores) > 0.0) * eligible
    # Adds each line's active rows in document order, as summing the
    # selected rows of one query does; a pinned test checks it. A segment
    # sum such as np.add.reduceat adds them in another order. The exception
    # is one line of a one-feature corpus: numpy then sums its lone column
    # in an unrolled order.
    summed = np.einsum("nd,dnf->nf", active, feats)
    return -(active.sum(axis=1)[:, None] * feats[doc, line] - summed) / propensity[:, None]


def hinge_sum(model: LinearRanker, query: Query, d: int) -> float:
    """Sum over the query's other documents of max(0, 1 - score margin).

    The margin is f(d) - f(d'); the self pair is excluded, the others added
    in document order. Zero when d beats every other by at least 1.
    """
    scores = query.features @ model.weights
    return float(_hinge_sums(scores, np.array([0]), np.array([query.n_docs]), np.array([d]))[0])


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
    docs = np.arange(query.n_docs)
    lines = (docs[:, None], (docs != d)[None] * 1.0, np.array([d]), np.array([propensity]))
    return hinge_gradients(query.features, model.weights[None], *lines)[0]


def client_loss(model: LinearRanker, corpus: Dataset, clicks: Clicks) -> np.ndarray:
    """Each client's propensity-weighted hinge loss over its clicks.

    Client i's loss sums hinge_sum / p over its clicks, then divides by the
    number of distinct queries it clicked; zero when it clicked nothing.
    One product scores the whole corpus at the model's weights. A click's
    hinge adds its terms in document order, whatever the round's other clicks.
    """
    scores = corpus.features @ model.weights
    row = clicks.row
    hinges = _hinge_sums(scores, corpus.offsets[row], corpus.lengths[row], clicks.doc)
    # bincount adds each client's terms in click order, as a running sum does.
    totals = np.bincount(
        clicks.client, weights=hinges / clicks.propensity, minlength=clicks.n_clients
    )
    n_queries = corpus.n_queries
    pairs = np.unique(clicks.client * n_queries + clicks.row)
    distinct = np.bincount(pairs // n_queries, minlength=clicks.n_clients)
    return np.divide(totals, distinct, out=np.zeros(clicks.n_clients), where=distinct > 0)
