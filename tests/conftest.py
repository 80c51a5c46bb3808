"""Shared fixtures: a small fast corpus for unit tests and the standard
synthetic benchmark used by the acceptance suite."""

from __future__ import annotations

import pytest

import numpy as np

from fedltr.dataset import (
    Dataset,
    Query,
    filter_uniform_queries,
    generate_synthetic,
    normalize_query_level,
    split,
)


def prepare(dataset: Dataset) -> Dataset:
    return normalize_query_level(filter_uniform_queries(dataset))


@pytest.fixture(scope="session")
def small_corpus() -> Dataset:
    """80 queries x 10 docs x 15 features: enough structure to train on,
    fast enough for per-test runs."""
    return prepare(generate_synthetic(80, 10, 15, seed=3))


@pytest.fixture(scope="session")
def small_split(small_corpus: Dataset) -> tuple[Dataset, Dataset]:
    return split(small_corpus, 0.25, seed=3)


@pytest.fixture(scope="session")
def bench() -> tuple[Dataset, Dataset]:
    """The standard synthetic benchmark: 500 queries x 20 docs x 50
    features, filtered, query-level normalized, 80/20 query split."""
    data = prepare(generate_synthetic(500, 20, 50, seed=7, noise_sd=1.5))
    return split(data, 0.2, seed=7)


@pytest.fixture(scope="session")
def ragged() -> Dataset:
    """Queries of 5 to 40 documents, four ceil(log2(length)) classes, in
    shuffled length order: the batched kernels must neither pad every
    query to the longest nor depend on how queries are grouped."""
    rng = np.random.default_rng(17)
    lengths = rng.permutation([5, 6, 8, 9, 12, 16, 17, 25, 32, 33, 40])
    queries = tuple(
        Query(qid=10 + i, features=rng.normal(size=(n, 6)), labels=rng.integers(0, 5, size=n))
        for i, n in enumerate(lengths)
    )
    return Dataset(queries=queries, feature_dim=6)
