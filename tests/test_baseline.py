"""Full-information pairwise baseline."""

import numpy as np
import pytest

from fedltr.baseline import EPOCHS, LEARNING_RATE, NDCG_K, lambda_gradient, train_lambda_linear
from fedltr.clicksim import train_logging_policy
from fedltr.dataset import Dataset, Query
from fedltr.metrics import mean_ndcg
from fedltr.ranker import LinearRanker


def _query(features, labels, qid=1):
    return Query(
        qid=qid,
        features=np.asarray(features, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int64),
    )


class TestLambdaConfig:
    def test_defaults(self):
        # The baseline's configuration is three constants.
        assert (LEARNING_RATE, EPOCHS, NDCG_K) == (0.1, 30, 5)


class TestLambdaGradient:
    def test_vanishes_as_margin_grows(self):
        # Correctly ordered pair: the sigmoid damping drives the pair weight
        # to zero as the score gap widens.
        q = _query([[1.0], [-1.0]], [3, 0])
        norms = [
            float(np.linalg.norm(lambda_gradient(LinearRanker(np.array([c])), q)))
            for c in (0.1, 1.0, 10.0, 100.0)
        ]
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-10

    def test_antisymmetric_under_grade_swap(self):
        # Same features, swapped grades, zero weights: the preferred
        # direction flips exactly.
        feats = [[1.0, 0.2], [0.3, 0.8]]
        g1 = lambda_gradient(LinearRanker.zeros(2), _query(feats, [3, 0]))
        g2 = lambda_gradient(LinearRanker.zeros(2), _query(feats, [0, 3]))
        np.testing.assert_allclose(g1, -g2)

    def test_zero_ideal_errors(self):
        q = _query([[1.0], [2.0]], [0, 0])
        with pytest.raises(ValueError, match="zero ideal"):
            lambda_gradient(LinearRanker.zeros(1), q)

    def test_step_tends_to_improve_ndcg(self):
        # A single descent step should help far more often than it hurts.
        rng = np.random.default_rng(17)
        better = worse = 0
        for _ in range(100):
            n = int(rng.integers(4, 9))
            q = _query(rng.normal(size=(n, 3)), rng.integers(0, 5, size=n))
            if np.unique(q.labels).size < 2:
                continue
            w = rng.normal(size=3) * 0.1
            corpus = Dataset(queries=(q,), feature_dim=3)
            before = mean_ndcg(LinearRanker(w), corpus, NDCG_K)
            stepped = w - 0.5 * lambda_gradient(LinearRanker(w), q)
            after = mean_ndcg(LinearRanker(stepped), corpus, NDCG_K)
            if after > before:
                better += 1
            elif after < before:
                worse += 1
        assert better > worse


class TestTrainLambdaLinear:
    def test_same_seed_identical_model(self, small_corpus):
        a = train_lambda_linear(small_corpus, seed=4)
        b = train_lambda_linear(small_corpus, seed=4)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_errors_without_trainable_queries(self):
        flat = Dataset(queries=(_query([[1.0], [2.0]], [2, 2]),), feature_dim=1)
        with pytest.raises(ValueError, match="two distinct grades"):
            train_lambda_linear(flat, seed=0)

    def test_beats_logging_policy(self, small_split):
        # Full supervision on true grades should clearly beat the pairwise
        # policy trained on a 1 % sample.
        train, test = small_split
        model = train_lambda_linear(train, seed=0)
        policy = train_logging_policy(train, seed=0)
        assert mean_ndcg(model, test, 5) > mean_ndcg(policy, test, 5)
