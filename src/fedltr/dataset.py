"""Learning-to-rank datasets: SVMLight/LETOR loading, preprocessing, synthetic generation."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .rules import check


@dataclass(frozen=True)
class Query:
    """A query with its candidate documents.

    Features are stored one row per document; ``labels[i]`` is the integer
    relevance grade of document ``i``. Row order is the file/generation order
    and is the tie-breaking order used by rankers.
    """

    qid: int
    features: np.ndarray  # shape (n_docs, feature_dim)
    labels: np.ndarray  # shape (n_docs,), grades in {0,...,4}

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError(f"query {self.qid}: features must be a 2-d array")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(f"query {self.qid}: features/labels length mismatch")
        if self.labels.shape[0] == 0:
            raise ValueError(f"query {self.qid}: query has no documents")

    @property
    def n_docs(self) -> int:
        return self.features.shape[0]


class Dataset:
    """An immutable collection of queries sharing one feature dimension,
    its documents in one flat array, query after query.

    Query r (the dataset's r-th query, id qids[r]) owns rows offsets[r] to
    offsets[r] + lengths[r] - 1 of `features` and `labels`, in document
    order. No query is padded and every query has a document. `queries`
    holds one Query per query whose arrays are views into the flat ones.
    `ideal_dcg` holds each query's ideal DCG@k per k once metrics has
    computed it.
    """

    def __init__(self, queries: Sequence[Query], feature_dim: int) -> None:
        # The empty leading arrays fix shape and dtype when there is no query.
        self.features = np.concatenate(
            [np.zeros((0, feature_dim))] + [q.features for q in queries]
        )
        self.labels = np.concatenate([np.zeros(0, dtype=np.int64)] + [q.labels for q in queries])
        self.qids = np.array([q.qid for q in queries], dtype=np.int64)
        self.lengths = np.array([q.n_docs for q in queries], dtype=np.int64)
        self.ideal_dcg: dict[int, np.ndarray] = {}

    @classmethod
    def from_arrays(
        cls, features: np.ndarray, labels: np.ndarray, qids: np.ndarray, lengths: np.ndarray
    ) -> Dataset:
        """A dataset of flat arrays laid out as the class describes."""
        dataset = cls.__new__(cls)
        dataset.__dict__.update(
            features=features, labels=labels, qids=qids, lengths=lengths, ideal_dcg={}
        )
        return dataset

    def __getstate__(self) -> dict:
        # Pickle the one copy of the documents, not the query views into it.
        return {name: value for name, value in self.__dict__.items() if name != "queries"}

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_queries(self) -> int:
        return self.lengths.size

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.cumsum(self.lengths) - self.lengths

    @cached_property
    def queries(self) -> tuple[Query, ...]:
        cuts = self.offsets[1:]
        return tuple(
            Query(qid=qid, features=features, labels=labels)
            for qid, features, labels in zip(
                self.qids.tolist(), np.split(self.features, cuts), np.split(self.labels, cuts)
            )
        )

    def doc_rows(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat row indices of the documents of `queries`, one query per
        line padded to the longest of them, and the mask of real documents.
        Padding entries point at the query's first document."""
        lengths = self.lengths[queries]
        j = np.arange(lengths.max(initial=0))
        valid = j < lengths[:, None]
        return self.offsets[queries][:, None] + np.where(valid, j, 0), valid

    def padded(self, values: np.ndarray, fill) -> np.ndarray:
        """Per-document `values` as a (query, document) matrix as wide as
        the longest query, `fill` past each query's end."""
        index, valid = self.doc_rows(np.arange(self.lengths.size))
        return np.where(valid, values[index], fill)

    def select(self, queries: np.ndarray) -> Dataset:
        """A copy of the queries at indices `queries`, in that order."""
        lengths = self.lengths[queries]
        starts = np.cumsum(lengths) - lengths
        docs = np.repeat(self.offsets[queries] - starts, lengths) + np.arange(lengths.sum())
        return Dataset.from_arrays(
            self.features[docs], self.labels[docs], self.qids[queries], lengths
        )


# str.translate table deleting every ASCII character but the colon and
# whitespace, which leaves the separators of a line's `idx:val` tokens.
_NOT_SEPARATOR = {c: None for c in range(128) if not (chr(c).isspace() or chr(c) == ":")}
# The largest index or qid the flat int64 arrays hold.
_INT64_MAX = 2**63 - 1


def _parse_tokens(lineno: int, tokens: list[str]) -> tuple[list[int], list[float]]:
    """The indices and values of one line's `idx:val` tokens, one token at
    a time; raises on the first bad token."""
    indices, values = [], []
    for tok in tokens:
        idx_s, _, val_s = tok.partition(":")
        try:
            idx = int(idx_s)
            val = float(val_s)
        except ValueError:
            raise ValueError(f"line {lineno}: bad feature {tok!r}") from None
        if idx < 1:
            raise ValueError(f"line {lineno}: feature indices are 1-based, got {idx}")
        if idx > _INT64_MAX:
            raise ValueError(f"line {lineno}: feature index {idx} is too large")
        if not math.isfinite(val):
            raise ValueError(f"line {lineno}: non-finite feature {tok!r}")
        indices.append(idx)
        values.append(val)
    return indices, values


def load_svmlight(path: str) -> Dataset:
    """Parse an SVMLight/LETOR file into a Dataset.

    Each line is ``<label> qid:<id> <idx>:<val> ...`` with 1-based feature
    indices; text after ``#`` is a comment. Documents are grouped by qid in
    file order, missing feature indices are filled with 0, a repeated index
    keeps its last value, and the feature dimension is the maximal index
    seen anywhere in the file.

    Only the label and qid are parsed one line at a time. Each line's
    tokens are converted in bulk into flat buffers and checked as a whole;
    a line that fails goes token by token, which raises its error.
    """
    queries: dict[int, int] = {}  # qid -> query number, in order of first appearance
    query_of_doc, labels = array("q"), array("q")
    ends = array("q")  # tokens read up to the end of each document
    index, values = array("q"), array("d")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(None, 2)
            if len(parts) < 2:
                raise ValueError(f"line {lineno}: expected '<label> qid:<id> ...'")
            try:
                label = int(parts[0])
            except ValueError:
                raise ValueError(f"line {lineno}: bad label {parts[0]!r}") from None
            if not parts[1].startswith("qid:"):
                raise ValueError(f"line {lineno}: missing qid field")
            try:
                qid = int(parts[1][4:])
            except ValueError:
                raise ValueError(f"line {lineno}: bad qid {parts[1]!r}") from None
            if abs(qid) > _INT64_MAX:
                raise ValueError(f"line {lineno}: qid {qid} is too large")
            tokens = parts[2] if len(parts) > 2 else ""
            done = len(values)
            try:
                pieces = tokens.replace(":", " ").split()
                n = len(tokens.split())
                # Every one of the n tokens is one nonempty index, a colon
                # and one nonempty value exactly when each token holds one
                # colon and there are two pieces per token.
                if 2 * n != len(pieces) or tokens.translate(_NOT_SEPARATOR).split() != [":"] * n:
                    raise ValueError("malformed token")
                index.extend(map(int, pieces[0::2]))
                values.extend(map(float, pieces[1::2]))
                # A nan or inf value makes the sum nan or inf.
                if min(index[done:], default=1) < 1 or not math.isfinite(sum(values[done:])):
                    raise ValueError("bad index or value")
            except (ValueError, OverflowError):
                # Rare lines (bad tokens or values, non-ASCII text, finite
                # values whose sum overflows) go token by token.
                del index[done:], values[done:]
                line_index, line_values = _parse_tokens(lineno, tokens.split())
                index.extend(line_index)
                values.extend(line_values)
            query_of_doc.append(queries.setdefault(qid, len(queries)))
            labels.append(label)
            ends.append(len(values))
    if not queries:
        raise ValueError(f"{path}: empty dataset")

    idx = np.frombuffer(index, dtype=np.int64)
    val = np.frombuffer(values, dtype=np.float64)
    query = np.frombuffer(query_of_doc, dtype=np.int64)
    doc_ends = np.frombuffer(ends, dtype=np.int64)
    n_docs, feature_dim = query.size, int(idx.max(initial=0))
    # Documents grouped by query, in file order within each query.
    order = np.argsort(query, kind="stable")
    row = np.empty(n_docs, dtype=np.int64)
    row[order] = np.arange(n_docs)
    # Each token's position in the flat (document, feature) array.
    position = np.repeat(row * feature_dim - 1, np.diff(doc_ends, prepend=0))
    position += idx
    # A line whose indices do not rise may repeat one: keep its last value.
    rising = idx[1:] > idx[:-1]
    starts = doc_ends[:-1]
    rising[starts[(starts > 0) & (starts < idx.size)] - 1] = True
    if not rising.all():
        _, first_from_end = np.unique(position[::-1], return_index=True)
        last = position.size - 1 - first_from_end
        position, val = position[last], val[last]
    features = np.zeros((n_docs, feature_dim), dtype=np.float64)
    np.put(features, position, val)
    return Dataset.from_arrays(
        features,
        np.frombuffer(labels, dtype=np.int64)[order],
        np.array(list(queries), dtype=np.int64),
        np.bincount(query, minlength=len(queries)),
    )


def write_svmlight(dataset: Dataset, path: str) -> None:
    """Write a Dataset in SVMLight/LETOR format (dense, full-precision floats)."""
    with open(path, "w", encoding="utf-8") as fh:
        for q in dataset.queries:
            for i in range(q.n_docs):
                feats = " ".join(
                    f"{j + 1}:{float(v)!r}" for j, v in enumerate(q.features[i])
                )
                fh.write(f"{int(q.labels[i])} qid:{q.qid} {feats}\n")


def filter_uniform_queries(dataset: Dataset) -> Dataset:
    """Drop queries whose documents all carry the same relevance grade."""
    if dataset.n_queries == 0:
        return dataset
    labels, offsets = dataset.labels, dataset.offsets
    mixed = np.maximum.reduceat(labels, offsets) != np.minimum.reduceat(labels, offsets)
    if mixed.all():
        return dataset
    return dataset.select(np.flatnonzero(mixed))


def normalize_query_level(dataset: Dataset) -> Dataset:
    """Min-max scale each feature to [0, 1] within each query.

    Constant features map to 0 (deterministic degenerate rule).
    """
    if dataset.n_queries == 0:
        return dataset
    features, offsets = dataset.features, dataset.offsets
    # Minima and maxima are exact whatever the order of reduction, so each
    # value is the one a per-query (x - lo) / span gives.
    lo = np.minimum.reduceat(features, offsets, axis=0)
    span = np.maximum.reduceat(features, offsets, axis=0) - lo
    query = np.repeat(np.arange(dataset.n_queries), dataset.lengths)
    positive = span > 0
    scaled = features - lo[query]
    scaled /= np.where(positive, span, 1.0)[query]
    scaled[~positive[query]] = 0.0
    return Dataset.from_arrays(scaled, dataset.labels, dataset.qids, dataset.lengths)


# Grade rule: grade = round(4 * sigmoid(scale * z + offset + noise)). The offset
# skews mass toward low grades, mimicking the irrelevant-heavy label balance of
# public LTR collections.
_GRADE_SCALE = 2.5
_GRADE_OFFSET = -0.75
# The value rule of every argument of generate_synthetic, the spec's
# `dataset.synthetic` section; see `rules`.
SYNTHETIC_RULES = {
    "queries": "integer [1, inf)",
    "docs_per_query": "integer [1, inf)",
    "feature_dim": "integer [1, inf)",
    "seed": "integer [0, inf)",
    "noise_sd": "real [0, inf)",
}
# The value rule of split's test fraction, the spec's `test_fraction`.
SPLIT_RULES = {"test_fraction": "real (0, 1)"}


def generate_synthetic(
    queries: int, docs_per_query: int, feature_dim: int, seed: int, noise_sd: float = 1.5
) -> Dataset:
    """Generate a learnable graded-relevance dataset from a hidden linear model.

    Features are uniform on [0, 1]; grades follow a noisy sigmoid of a hidden
    linear score, so every grade occurs with positive probability and a linear
    ranker can do well above random. Deterministic given the seed.
    """
    # Before any other name is bound, locals() holds just the arguments.
    check("dataset.synthetic", SYNTHETIC_RULES, locals())
    rng = np.random.default_rng(seed)
    hidden = rng.normal(size=feature_dim)
    # Std of (x - 1/2) @ hidden with x ~ U[0,1]^F, used to put the hidden score
    # on a fixed scale regardless of dimension.
    score_sd = max(np.sqrt(float(hidden @ hidden) / 12.0), 1e-12)
    features = np.empty((queries * docs_per_query, feature_dim))
    labels = np.empty(queries * docs_per_query, dtype=np.int64)
    for start in range(0, features.shape[0], docs_per_query):
        docs = slice(start, start + docs_per_query)
        features[docs] = x = rng.uniform(size=(docs_per_query, feature_dim))
        z = (x - 0.5) @ hidden / score_sd
        s = _GRADE_SCALE * z + _GRADE_OFFSET + rng.normal(0.0, noise_sd, size=docs_per_query)
        labels[docs] = np.clip(np.rint(4.0 / (1.0 + np.exp(-s))), 0, 4)
    return Dataset.from_arrays(
        features,
        labels,
        np.arange(1, queries + 1, dtype=np.int64),
        np.full(queries, docs_per_query, dtype=np.int64),
    )


def split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Query-level train/test split: disjoint, union = input, seed-deterministic.
    Both parts keep the input's query order, and neither may be empty."""
    check("", SPLIT_RULES, {"test_fraction": test_fraction})
    n = dataset.n_queries
    n_test = int(round(n * test_fraction))
    if not 0 < n_test < n:
        raise ValueError(
            f"the split of {n} queries at test_fraction {test_fraction!r} leaves "
            f"{n - n_test} train and {n_test} test queries; each part needs one"
        )
    rng = np.random.default_rng(seed)
    is_test = np.zeros(n, dtype=bool)
    is_test[rng.permutation(n)[:n_test]] = True
    return (
        dataset.select(np.flatnonzero(~is_test)),
        dataset.select(np.flatnonzero(is_test)),
    )
