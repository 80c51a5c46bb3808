"""Hinge rank surrogate, its subgradient, and the weighted client loss."""

import numpy as np
import pytest

from fedltr.clicksim import ClickRecord
from fedltr.dataset import Query
from fedltr.objective import (
    click_gradient,
    click_steps,
    client_loss,
    hinge_sum,
    rank_upper_bound,
)
from fedltr.ranker import LinearRanker, rank


def _query(features, labels=None, qid=1):
    features = np.asarray(features, dtype=np.float64)
    if labels is None:
        labels = np.zeros(features.shape[0], dtype=np.int64)
    return Query(qid=qid, features=features, labels=np.asarray(labels, dtype=np.int64))


def _record(query, clicks, gamma_s=1.0):
    n = query.n_docs
    positions = np.arange(1, n + 1, dtype=np.float64)
    return ClickRecord(
        query_id=query.qid,
        displayed=np.arange(n),
        clicks=np.asarray(clicks, dtype=bool),
        propensities=(1.0 / positions) ** gamma_s,
    )


class TestHingeSum:
    def test_two_documents_hand_example(self):
        # Scores 1.0 and -1.0: the winner's margin is 2 (no hinge), the
        # loser's is -2 so its hinge term is 1 - (-2) = 3.
        q = _query([[1.0], [-1.0]])
        model = LinearRanker(np.array([1.0]))
        assert hinge_sum(model, q, 0) == 0.0
        assert hinge_sum(model, q, 1) == 3.0

    def test_equal_scores_give_n_minus_one(self):
        for n in (2, 4, 7):
            q = _query(np.ones((n, 2)))
            model = LinearRanker(np.array([0.3, -0.2]))
            assert hinge_sum(model, q, 0) == float(n - 1)

    def test_single_document_is_zero(self):
        q = _query([[5.0]])
        assert hinge_sum(LinearRanker(np.array([2.0])), q, 0) == 0.0


class TestRankUpperBound:
    def test_tight_when_margins_exceed_one(self):
        q = _query([[3.0], [1.0], [0.5]])
        assert rank_upper_bound(LinearRanker(np.array([1.0])), q, 0) == 1.0

    def test_equal_scores_give_document_count(self):
        q = _query(np.ones((5, 2)))
        assert rank_upper_bound(LinearRanker(np.array([1.0, 1.0])), q, 2) == 5.0

    def test_bounds_true_rank_on_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            dim = int(rng.integers(2, 6))
            q = _query(rng.normal(size=(n, dim)) * rng.uniform(0.1, 5.0))
            model = LinearRanker(rng.normal(size=dim))
            positions = rank(model, q).positions
            for d in range(n):
                assert rank_upper_bound(model, q, d) >= positions[d]


class TestClickGradient:
    def test_hand_example_orthogonal_features(self):
        # w = 0 makes both scores 0; the single active pair has margin 1, and
        # d(h)/dw = -(x_d - x_d') / p = -([1,0] - [0,1]) / 0.5 = [-2, 2].
        q = _query([[1.0, 0.0], [0.0, 1.0]])
        model = LinearRanker.zeros(2)
        np.testing.assert_allclose(click_gradient(model, q, 0, 0.5), [-2.0, 2.0])

    def test_zero_when_all_margins_at_least_one(self):
        q = _query([[3.0], [1.0], [0.0]])
        model = LinearRanker(np.array([1.0]))
        np.testing.assert_array_equal(click_gradient(model, q, 0, 1.0), [0.0])

    def test_pair_exactly_at_kink_is_inactive(self):
        # Margin exactly 1 means hinge term 0 with subgradient 0 here.
        q = _query([[1.0], [0.0]])
        model = LinearRanker(np.array([1.0]))
        np.testing.assert_array_equal(click_gradient(model, q, 0, 1.0), [0.0])

    def test_homogeneous_in_inverse_propensity(self):
        rng = np.random.default_rng(21)
        q = _query(rng.normal(size=(6, 3)))
        model = LinearRanker(rng.normal(size=3))
        g1 = click_gradient(model, q, 2, 1.0)
        g_half = click_gradient(model, q, 2, 0.5)
        np.testing.assert_allclose(g_half, 2.0 * g1)

    def test_nonpositive_propensity_errors(self):
        q = _query([[1.0], [0.0]])
        with pytest.raises(ValueError, match="propensity"):
            click_gradient(LinearRanker(np.array([1.0])), q, 0, 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        q = _query(rng.normal(size=(5, 3)))
        model_w = rng.normal(size=3)
        p = 0.4
        g = click_gradient(LinearRanker(model_w), q, 1, p)
        delta = 1e-6
        fd = np.zeros(3)
        for i in range(3):
            hi = model_w.copy()
            lo = model_w.copy()
            hi[i] += delta
            lo[i] -= delta
            fd[i] = (
                hinge_sum(LinearRanker(hi), q, 1) - hinge_sum(LinearRanker(lo), q, 1)
            ) / (2.0 * delta * p)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


class TestClickSteps:
    def test_steps_follow_record_then_display_order(self):
        q1 = _query([[1.0], [-1.0], [0.0]], qid=1)
        q2 = _query([[1.0], [-1.0]], qid=2)
        records = ((_record(q1, [True, False, True]), q1), (_record(q2, [False, True]), q2))
        steps = click_steps(records, lambda r, pos: float(r.propensities[pos - 1]))
        assert [(q.qid, d, p) for q, d, p in steps] == [(1, 0, 1.0), (1, 2, 1.0 / 3.0), (2, 1, 0.5)]

    def test_no_clicks_gives_no_steps(self):
        q = _query([[1.0], [-1.0]])
        assert click_steps(((_record(q, [False, False]), q),), lambda r, pos: 1.0) == []


def _loss(model, records, provider):
    return client_loss(model, click_steps(records, provider))


class TestClientLoss:
    def test_single_click_unit_propensity(self):
        q = _query([[1.0], [-1.0]])
        record = _record(q, [False, True], gamma_s=0.0)
        assert _loss(LinearRanker(np.array([1.0])), ((record, q),), lambda r, pos: 1.0) == 3.0

    def test_half_propensity_doubles_loss(self):
        q = _query([[1.0], [-1.0]])
        record = _record(q, [False, True])
        assert _loss(LinearRanker(np.array([1.0])), ((record, q),), lambda r, pos: 0.5) == 6.0

    def test_no_clicks_is_zero(self):
        q = _query([[1.0], [-1.0]])
        record = _record(q, [False, False])
        assert _loss(LinearRanker(np.array([1.0])), ((record, q),), lambda r, pos: 1.0) == 0.0

    def test_normalizes_by_distinct_clicked_queries(self):
        q1 = _query([[1.0], [-1.0]], qid=1)
        q2 = _query([[1.0], [-1.0]], qid=2)
        records = (
            (_record(q1, [False, True], gamma_s=0.0), q1),
            (_record(q1, [False, True], gamma_s=0.0), q1),
            (_record(q2, [False, True], gamma_s=0.0), q2),
        )
        # Three clicked impressions over two distinct queries: 9 / 2.
        assert _loss(LinearRanker(np.array([1.0])), records, lambda r, pos: 1.0) == 4.5

    def test_homogeneous_in_inverse_propensity(self):
        rng = np.random.default_rng(31)
        q = _query(rng.normal(size=(4, 2)), qid=1)
        record = _record(q, [True, False, True, False])
        model = LinearRanker(rng.normal(size=2))
        base = _loss(model, ((record, q),), lambda r, pos: 1.0)
        halved = _loss(model, ((record, q),), lambda r, pos: 0.5)
        assert halved == pytest.approx(2.0 * base)

    def test_nonpositive_propensity_errors(self):
        q = _query([[1.0], [-1.0]])
        record = _record(q, [True, False])
        with pytest.raises(ValueError, match="non-positive"):
            _loss(LinearRanker(np.array([1.0])), ((record, q),), lambda r, pos: 0.0)
