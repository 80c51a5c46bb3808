"""Learning-to-rank datasets: SVMLight/LETOR loading, preprocessing, synthetic generation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


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


@dataclass(frozen=True)
class PackedQueries:
    """A dataset's documents in one flat array, query after query.

    Query r (the dataset's r-th query) owns rows offsets[r] to
    offsets[r] + lengths[r] - 1 of `features` and `labels`, in document
    order; `rows` maps a qid to r. No query is padded. `ideal_dcg` holds
    each query's ideal DCG@k per k once metrics has computed it.
    """

    features: np.ndarray  # shape (n_total_docs, feature_dim)
    labels: np.ndarray  # shape (n_total_docs,)
    offsets: np.ndarray  # shape (n_queries,)
    lengths: np.ndarray  # shape (n_queries,)
    rows: dict[int, int]
    ideal_dcg: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

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


@dataclass(frozen=True)
class Dataset:
    """An immutable collection of queries sharing one feature dimension."""

    queries: tuple[Query, ...]
    feature_dim: int

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    @cached_property
    def packed(self) -> PackedQueries:
        """The packed layout, built on first use: datasets that are only
        passed through loading, filtering and splitting are never packed."""
        lengths = np.array([q.n_docs for q in self.queries], dtype=np.int64)
        # The empty leading arrays fix shape and dtype when there is no query.
        return PackedQueries(
            features=np.concatenate(
                [np.zeros((0, self.feature_dim))] + [q.features for q in self.queries]
            ),
            labels=np.concatenate([np.zeros(0, dtype=np.int64)] + [q.labels for q in self.queries]),
            offsets=np.cumsum(lengths) - lengths,
            lengths=lengths,
            rows={q.qid: r for r, q in enumerate(self.queries)},
        )


def load_svmlight(path: str) -> Dataset:
    """Parse an SVMLight/LETOR file into a Dataset.

    Each line is ``<label> qid:<id> <idx>:<val> ...`` with 1-based feature
    indices; text after ``#`` is a comment. Documents are grouped by qid in
    file order, missing feature indices are filled with 0, and the feature
    dimension is the maximal index seen anywhere in the file.
    """
    # Documents grouped by qid, in order of the qid's first appearance.
    grouped: dict[int, list[tuple[int, list[tuple[int, float]]]]] = {}
    max_idx = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
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
            pairs: list[tuple[int, float]] = []
            for tok in parts[2:]:
                idx_s, _, val_s = tok.partition(":")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise ValueError(f"line {lineno}: bad feature {tok!r}") from None
                if idx < 1:
                    raise ValueError(f"line {lineno}: feature indices are 1-based, got {idx}")
                if not math.isfinite(val):
                    raise ValueError(f"line {lineno}: non-finite feature {tok!r}")
                pairs.append((idx, val))
                max_idx = max(max_idx, idx)
            grouped.setdefault(qid, []).append((label, pairs))

    if not grouped:
        raise ValueError(f"{path}: empty dataset")

    queries = []
    for qid, docs in grouped.items():
        feats = np.zeros((len(docs), max_idx), dtype=np.float64)
        labels = np.zeros(len(docs), dtype=np.int64)
        for i, (label, pairs) in enumerate(docs):
            labels[i] = label
            for idx, val in pairs:
                feats[i, idx - 1] = val
        queries.append(Query(qid=qid, features=feats, labels=labels))
    return Dataset(queries=tuple(queries), feature_dim=max_idx)


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
    kept = tuple(q for q in dataset.queries if np.unique(q.labels).size >= 2)
    return Dataset(queries=kept, feature_dim=dataset.feature_dim)


def normalize_query_level(dataset: Dataset) -> Dataset:
    """Min-max scale each feature to [0, 1] within each query.

    Constant features map to 0 (deterministic degenerate rule).
    """
    queries = []
    for q in dataset.queries:
        lo = q.features.min(axis=0)
        hi = q.features.max(axis=0)
        span = hi - lo
        safe = np.where(span > 0, span, 1.0)
        scaled = np.where(span > 0, (q.features - lo) / safe, 0.0)
        queries.append(Query(qid=q.qid, features=scaled, labels=q.labels.copy()))
    return Dataset(queries=tuple(queries), feature_dim=dataset.feature_dim)


# Grade rule: grade = round(4 * sigmoid(scale * z + offset + noise)). The offset
# skews mass toward low grades, mimicking the irrelevant-heavy label balance of
# public LTR collections.
_GRADE_SCALE = 2.5
_GRADE_OFFSET = -0.75


def generate_synthetic(
    num_queries: int,
    docs_per_query: int,
    feature_dim: int,
    seed: int,
    noise_sd: float = 1.5,
    return_hidden: bool = False,
) -> Dataset | tuple[Dataset, np.ndarray]:
    """Generate a learnable graded-relevance dataset from a hidden linear model.

    Features are uniform on [0, 1]; grades follow a noisy sigmoid of a hidden
    linear score, so every grade occurs with positive probability and a linear
    ranker can do well above random. Deterministic given the seed.

    With ``return_hidden=True`` also returns the hidden weight vector (used by
    oracle checks).
    """
    if num_queries < 1 or docs_per_query < 1 or feature_dim < 1:
        raise ValueError("all counts must be >= 1")
    rng = np.random.default_rng(seed)
    hidden = rng.normal(size=feature_dim)
    # Std of (x - 1/2) @ hidden with x ~ U[0,1]^F, used to put the hidden score
    # on a fixed scale regardless of dimension.
    score_sd = max(np.sqrt(float(hidden @ hidden) / 12.0), 1e-12)
    queries = []
    for qid in range(1, num_queries + 1):
        x = rng.uniform(size=(docs_per_query, feature_dim))
        z = (x - 0.5) @ hidden / score_sd
        s = _GRADE_SCALE * z + _GRADE_OFFSET + rng.normal(0.0, noise_sd, size=docs_per_query)
        grades = np.clip(np.rint(4.0 / (1.0 + np.exp(-s))), 0, 4).astype(np.int64)
        queries.append(Query(qid=qid, features=x, labels=grades))
    data = Dataset(queries=tuple(queries), feature_dim=feature_dim)
    if return_hidden:
        return data, hidden
    return data


def split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Query-level train/test split: disjoint, union = input, seed-deterministic."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if dataset.n_queries == 0:
        raise ValueError("cannot split an empty dataset")
    rng = np.random.default_rng(seed)
    n = dataset.n_queries
    n_test = int(round(n * test_fraction))
    perm = rng.permutation(n)
    test_idx = set(perm[:n_test].tolist())
    train_q = tuple(q for i, q in enumerate(dataset.queries) if i not in test_idx)
    test_q = tuple(q for i, q in enumerate(dataset.queries) if i in test_idx)
    return (
        Dataset(queries=train_q, feature_dim=dataset.feature_dim),
        Dataset(queries=test_q, feature_dim=dataset.feature_dim),
    )
