"""NDCG and the additive click-based metrics."""

import numpy as np
import pytest

from fedltr.dataset import Dataset, Query
from fedltr.metrics import (
    DCG,
    IDENTITY,
    dcg_at_k,
    full_info_metric,
    ips_click_metric,
    mean_ndcg,
    ndcg_at_k,
)
from fedltr.ranker import LinearRanker

# A 1-d identity ranker turns the first feature into the score, so document
# order is just descending feature value. All hand examples use it.
W1 = LinearRanker(np.array([1.0]))


def _query(values, labels, qid=1):
    return Query(
        qid=qid,
        features=np.asarray(values, dtype=np.float64).reshape(-1, 1),
        labels=np.asarray(labels, dtype=np.int64),
    )


def _unbatched_ndcg(model, query, k):
    """NDCG@k computed for one query on its own, with 1-d dot products: the
    arithmetic the batched kernel must reproduce bit for bit."""

    def dcg(labels):
        labels = labels[:k]
        return (2.0 ** labels - 1.0) @ (1.0 / np.log2(np.arange(2, labels.size + 2.0)))

    labels = query.labels.astype(np.float64)
    order = np.argsort(-(query.features @ model.weights), kind="stable")
    return dcg(labels[order]) / dcg(np.sort(labels)[::-1])


class TestWeightFn:
    def test_identity_is_rank(self):
        np.testing.assert_allclose(IDENTITY(np.array([1, 2, 5])), [1.0, 2.0, 5.0])

    def test_dcg_is_log_discount(self):
        np.testing.assert_allclose(DCG(np.array([1, 3])), [1.0, 0.5])


class TestNdcg:
    def test_perfect_ranking_is_one(self):
        q = _query([3.0, 2.0, 1.0], [3, 0, 0])
        assert ndcg_at_k(W1, q, 3) == 1.0

    def test_relevant_last_is_half(self):
        # Ranked labels [0, 0, 3]: DCG = 7/log2(4) = 3.5, ideal = 7.
        q = _query([3.0, 2.0, 1.0], [0, 0, 3])
        assert ndcg_at_k(W1, q, 3) == 0.5

    def test_single_document_is_one(self):
        q = _query([0.2], [1])
        assert ndcg_at_k(W1, q, 5) == 1.0

    def test_truncation_ignores_tail(self):
        # Grade-3 doc sits at rank 2, outside the k=1 cutoff.
        q = _query([2.0, 1.0], [0, 3])
        assert ndcg_at_k(W1, q, 1) == 0.0

    def test_zero_ideal_errors(self):
        q = _query([1.0, 2.0], [0, 0])
        with pytest.raises(ValueError, match="ideal DCG"):
            ndcg_at_k(W1, q, 5)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be"):
            ndcg_at_k(W1, _query([1.0], [1]), 0)

    def test_bounds_on_random_queries(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            q = Query(
                qid=1,
                features=rng.normal(size=(n, 3)),
                labels=rng.integers(0, 5, size=n),
            )
            if np.all(q.labels == 0):
                continue
            value = ndcg_at_k(LinearRanker(rng.normal(size=3)), q, 5)
            assert 0.0 <= value <= 1.0

    def test_dcg_single_relevant_at_rank_one(self):
        assert dcg_at_k(np.array([1]), 5) == 1.0


class TestMeanNdcg:
    def test_skips_zero_ideal_queries(self):
        good = _query([3.0, 2.0], [3, 0], qid=1)
        blank = _query([1.0, 2.0], [0, 0], qid=2)
        ds = Dataset(queries=(good, blank), feature_dim=1)
        assert mean_ndcg(W1, ds, 5) == ndcg_at_k(W1, good, 5)

    def test_errors_when_no_query_counts(self):
        blank = _query([1.0, 2.0], [0, 0])
        ds = Dataset(queries=(blank,), feature_dim=1)
        with pytest.raises(ValueError, match="no query"):
            mean_ndcg(W1, ds, 5)

    def test_averages_over_queries(self):
        q1 = _query([3.0, 2.0, 1.0], [3, 0, 0], qid=1)
        q2 = _query([3.0, 2.0, 1.0], [0, 0, 3], qid=2)
        ds = Dataset(queries=(q1, q2), feature_dim=1)
        assert mean_ndcg(W1, ds, 3) == pytest.approx(0.75)


    @pytest.mark.parametrize("k", [1, 3, 5, 10])
    def test_batched_mean_matches_per_query_mean(self, k):
        # 300 queries of 1 to 12 documents, so some are shorter than k, and
        # one without a relevant grade, which both skip.
        rng = np.random.default_rng(12)
        queries = tuple(
            Query(qid=i, features=rng.normal(size=(n, 3)), labels=rng.integers(1, 5, size=n))
            for i, n in enumerate(rng.integers(1, 13, size=300))
        ) + (Query(qid=99, features=rng.normal(size=(3, 3)), labels=np.zeros(3, dtype=np.int64)),)
        ds = Dataset(queries=queries, feature_dim=3)
        # Zero weights tie every score, so ranks fall back to document order.
        for model in (LinearRanker.zeros(3), LinearRanker(rng.normal(size=3))):
            per_query = [_unbatched_ndcg(model, q, k) for q in queries[:-1]]
            assert [ndcg_at_k(model, q, k) for q in queries[:-1]] == per_query
            assert mean_ndcg(model, ds, k) == float(np.mean(per_query))


class TestFullInfoMetric:
    def test_relevant_at_ranks_one_and_three(self):
        q = _query([3.0, 2.0, 1.0], [3, 0, 3])
        assert full_info_metric(W1, q, IDENTITY) == 4.0

    def test_no_relevant_documents_is_zero(self):
        q = _query([3.0, 2.0, 1.0], [0, 1, 2])
        assert full_info_metric(W1, q, IDENTITY) == 0.0

    def test_dcg_weighted_single_relevant_at_rank_one(self):
        q = _query([2.0, 1.0], [4, 0])
        assert full_info_metric(W1, q, DCG) == 1.0

    def test_threshold_binarizes_at_grade_three(self):
        q = _query([3.0, 2.0, 1.0], [2, 3, 4])
        # Only grades 3 and 4 count: ranks 2 and 3.
        assert full_info_metric(W1, q, IDENTITY) == 5.0


class TestIpsClickMetric:
    def test_one_click_at_rank_two_half_propensity(self):
        q = _query([2.0, 1.0], [0, 3])
        assert ips_click_metric(W1, q, [1], [0.5], IDENTITY) == 4.0

    def test_no_clicks_is_zero(self):
        q = _query([2.0, 1.0], [0, 3])
        assert ips_click_metric(W1, q, [], [], IDENTITY) == 0.0

    def test_two_clicks_unit_propensity(self):
        q = _query([3.0, 2.0, 1.0], [3, 0, 3])
        assert ips_click_metric(W1, q, [0, 2], [1.0, 1.0], IDENTITY) == 4.0

    def test_nonpositive_propensity_errors(self):
        q = _query([2.0, 1.0], [0, 3])
        with pytest.raises(ValueError, match="positive"):
            ips_click_metric(W1, q, [1], [0.0], IDENTITY)

    def test_length_mismatch_errors(self):
        q = _query([2.0, 1.0], [0, 3])
        with pytest.raises(ValueError, match="matching lengths"):
            ips_click_metric(W1, q, [0, 1], [1.0], IDENTITY)

    def test_full_click_unit_propensity_recovers_full_info(self):
        # Clicking exactly the relevant documents with propensity 1 makes
        # the IPS estimate equal the full-information metric, bit for bit.
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            q = Query(
                qid=1,
                features=rng.normal(size=(n, 4)),
                labels=rng.integers(0, 5, size=n),
            )
            model = LinearRanker(rng.normal(size=4))
            clicked = np.flatnonzero(np.asarray(q.labels) >= 3)
            props = np.ones(clicked.size)
            for weights in (IDENTITY, DCG):
                assert ips_click_metric(model, q, clicked, props, weights) == (
                    full_info_metric(model, q, weights)
                )
