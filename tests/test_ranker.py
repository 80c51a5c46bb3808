"""Linear scoring and deterministic ranking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedltr.dataset import Query
from fedltr.ranker import LinearRanker, rank


def _query(features):
    features = np.asarray(features, dtype=np.float64)
    return Query(
        qid=1, features=features, labels=np.zeros(features.shape[0], dtype=np.int64)
    )


class TestLinearRanker:
    def test_weights_must_be_finite(self):
        with pytest.raises(ValueError):
            LinearRanker(np.array([1.0, np.nan]))

    def test_weights_must_be_a_vector(self):
        with pytest.raises(ValueError, match="^weights must be a 1-d vector$"):
            LinearRanker(np.zeros((2, 3)))


class TestRank:
    def test_sorts_by_score_descending(self):
        q = _query([[0.1], [0.9], [0.5]])
        np.testing.assert_array_equal(rank(LinearRanker(np.array([1.0])), q), [3, 1, 2])

    def test_ties_break_by_document_index(self):
        q = _query([[1.0], [1.0], [1.0]])
        np.testing.assert_array_equal(rank(LinearRanker(np.array([2.0])), q), [1, 2, 3])

    def test_single_document(self):
        np.testing.assert_array_equal(rank(LinearRanker(np.array([1.0])), _query([[0.3]])), [1])

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            q = _query(rng.normal(size=(6, 4)))
            w = rng.normal(size=4)
            base = rank(LinearRanker(w), q)
            for c in (0.5, 3.0, 1e6):
                np.testing.assert_array_equal(rank(LinearRanker(c * w), q), base)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
    def test_positions_invert_order(self, n_docs, seed):
        # Positions are the inverse of the order by descending score, ties
        # broken by ascending document index.
        rng = np.random.default_rng(seed)
        q = _query(rng.normal(size=(n_docs, 3)))
        w = rng.normal(size=3)
        positions = rank(LinearRanker(w), q)
        assert sorted(positions.tolist()) == list(range(1, n_docs + 1))
        order = np.argsort(-(q.features @ w), kind="stable")
        for position, doc in enumerate(order, start=1):
            assert positions[doc] == position
