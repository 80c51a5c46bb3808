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


def _length_class(lengths: np.ndarray) -> np.ndarray:
    """ceil(log2(length)), the class a batch of queries is grouped by. A
    batch padded to its longest query pads each query to less than twice its
    length; padding to the corpus's longest can cost 40 times the work on a
    skewed corpus. Local SGD's index spans the round's widest clicked query,
    while its gathers and products stay per batch."""
    return np.ceil(np.log2(lengths))


def batches(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The grouping rule of every batched pass: `order` sorts the lines by
    `keys`, the last primary as in np.lexsort, equal keys in ascending line
    order, and each run of equal keys starts at one of the positions `first`."""
    order = np.lexsort(keys)
    new = np.arange(order.size) == 0
    for key in keys:
        new[1:] |= key[order][1:] != key[order][:-1]
    return order, np.flatnonzero(new)


def _hinge_sums(scores: np.ndarray, doc: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Sum of max(0, 1 - (f(d) - f(d'))) over each line's clicked document
    d and the other documents d' of its query, skipping the padding."""
    line = np.arange(doc.size)
    margins = 1.0 - (scores[line, doc][:, None] - scores)
    margins[line, doc] = 0.0
    margins[~valid] = 0.0
    return np.sum(np.maximum(margins, 0.0), axis=1)


def gradient_groups(corpus: Dataset, clicks: Clicks, visit: np.ndarray, step: np.ndarray) -> list:
    """Local SGD's lines batched for `hinge_gradients`: line l visits click
    visit[l] at its client's step step[l]. One group per (step, length
    class of the clicked query), in that order, keeps its lines' order. A
    group is (client, index, eligible, doc, propensity), the arguments of
    `hinge_gradients` after each line's client. One `doc_rows` call spans
    the round's widest clicked query; each group takes its lines cut to its
    own longest query, so the gathers and products stay per group.
    """
    order, first = batches(_length_class(corpus.lengths[clicks.row[visit]]), step)
    picked = visit[order]
    row, doc = clicks.row[picked], clicks.doc[picked]
    index, valid = corpus.doc_rows(row)
    # As floats: einsum casts a bool operand in buffers, two to three times slower.
    eligible = (valid & (np.arange(index.shape[1]) != doc[:, None])).astype(np.float64)
    width = np.maximum.reduceat(corpus.lengths[row], first)
    client, propensity = clicks.client[picked], clicks.propensity[picked]
    bounds = zip(first.tolist(), [*first[1:].tolist(), order.size], width.tolist())
    return [
        (client[lo:hi], index[lo:hi, :w].T, eligible[lo:hi, :w], doc[lo:hi], propensity[lo:hi])
        for lo, hi, w in bounds
    ]


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
    docs = np.arange(query.n_docs)
    lines = (docs[:, None], (docs != d)[None] * 1.0, np.array([d]), np.array([propensity]))
    return hinge_gradients(query.features, model.weights[None], *lines)[0]


def client_loss(model: LinearRanker, corpus: Dataset, clicks: Clicks) -> np.ndarray:
    """Each client's propensity-weighted hinge loss over its clicks.

    Client i's loss sums hinge_sum / p over its clicks, then divides by the
    number of distinct queries it clicked; zero when it clicked nothing.
    One product scores the whole corpus at the model's weights.
    """
    scores = corpus.features @ model.weights
    hinges = np.empty(clicks.row.size)
    order, first = batches(_length_class(corpus.lengths[clicks.row]))
    for group in np.split(order, first)[1:]:
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
