"""Logging policy, user bias sampling, and position-based click generation."""

import numpy as np
import pytest

from fedltr.clicksim import (
    NOISE_CLICK_RATE,
    ClickRecord,
    LoggingPolicy,
    UserState,
    click_prob,
    collect_round_clicks,
    display_top_k,
    examination_prob,
    sample_user_bias,
    train_logging_policy,
)
from fedltr.dataset import Dataset, Query
from fedltr.metrics import mean_ndcg
from fedltr.ranker import LinearRanker

W1 = LinearRanker(np.array([1.0]))


def _query(values, labels, qid=1):
    return Query(
        qid=qid,
        features=np.asarray(values, dtype=np.float64).reshape(-1, 1),
        labels=np.asarray(labels, dtype=np.int64),
    )


def _displays(*queries, k):
    """What the identity logging policy W1 shows for the queries."""
    return display_top_k(LoggingPolicy(W1), Dataset(queries=queries, feature_dim=1), k)


def _impression(user, query, k, rng):
    """One impression of `query`, the only query of the user's pool."""
    return collect_round_clicks(user, _displays(query, k=k), 1, 1, rng)[0]


def _user(gamma_s=1.0, pool=(1,), uid=0, seed=0):
    return UserState(
        id=uid,
        gamma_s=gamma_s,
        query_pool=tuple(pool),
        rng_stream=np.random.default_rng(seed),
    )


class TestTrainLoggingPolicy:
    def test_same_seed_identical_weights(self, small_corpus):
        a = train_logging_policy(small_corpus, 0.1, seed=5)
        b = train_logging_policy(small_corpus, 0.1, seed=5)
        np.testing.assert_array_equal(a.ranker.weights, b.ranker.weights)

    def test_tiny_fraction_rounds_up_to_one_query(self, small_corpus):
        # ceil(0.01 * 80) = 1 sampled query; training must still work.
        policy = train_logging_policy(small_corpus, 0.01, seed=5)
        assert np.all(np.isfinite(policy.ranker.weights))
        assert np.any(policy.ranker.weights != 0.0)

    def test_trained_policy_beats_untrained(self, small_corpus):
        policy = train_logging_policy(small_corpus, 1.0, seed=5)
        trained = mean_ndcg(policy.ranker, small_corpus, 5)
        untrained = mean_ndcg(LinearRanker.zeros(small_corpus.feature_dim), small_corpus, 5)
        assert trained > untrained

    def test_fraction_out_of_range_errors(self, small_corpus):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="sample_fraction"):
                train_logging_policy(small_corpus, bad, seed=5)

    def test_display_top_k_follows_logging_order(self):
        q1 = _query([1.0, 3.0, 2.0], [0, 3, 0], qid=1)
        q2 = _query([5.0, 5.0], [4, 0], qid=2)
        displays = _displays(q1, q2, k=3)
        assert displays.rows == {1: 0, 2: 1}
        np.testing.assert_array_equal(displays.lengths, [3, 2])
        np.testing.assert_array_equal(displays.docs[0], [1, 2, 0])
        # Tied scores keep document order.
        np.testing.assert_array_equal(displays.docs[1, :2], [0, 1])
        np.testing.assert_array_equal(
            displays.click_rates[0], [1.0, NOISE_CLICK_RATE, NOISE_CLICK_RATE]
        )


class TestSampleUserBias:
    def test_sigma_zero_returns_gamma_exactly(self):
        rng = np.random.default_rng(0)
        assert sample_user_bias(1.3, 0.0, rng) == 1.3

    def test_draws_are_nonnegative(self):
        rng = np.random.default_rng(1)
        draws = [sample_user_bias(0.5, 0.5, rng) for _ in range(10_000)]
        assert min(draws) >= 0.0

    def test_mean_tracks_gamma(self):
        rng = np.random.default_rng(2)
        draws = [sample_user_bias(1.0, 0.1, rng) for _ in range(100_000)]
        assert 0.99 <= np.mean(draws) <= 1.01

    def test_negative_parameters_error(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="gamma"):
            sample_user_bias(-1.0, 0.1, rng)
        with pytest.raises(ValueError, match="sigma"):
            sample_user_bias(1.0, -0.1, rng)


class TestExaminationProb:
    def test_top_position_always_examined(self):
        for gamma_s in (0.0, 0.5, 1.0, 2.0):
            assert examination_prob(1, gamma_s) == 1.0

    def test_position_two_unit_bias(self):
        assert examination_prob(2, 1.0) == 0.5

    def test_position_four_squared_bias(self):
        assert examination_prob(4, 2.0) == 0.0625

    def test_zero_bias_examines_everything(self):
        for pos in range(1, 11):
            assert examination_prob(pos, 0.0) == 1.0

    def test_position_must_be_positive(self):
        with pytest.raises(ValueError, match="position"):
            examination_prob(0, 1.0)

    def test_nonincreasing_in_position(self):
        probs = [examination_prob(pos, 0.7) for pos in range(1, 11)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))


class TestClickProb:
    def test_relevant_top_position(self):
        assert click_prob(4, 1, 1.0) == 1.0

    def test_irrelevant_top_position_is_noise_rate(self):
        assert click_prob(1, 1, 1.0) == 0.1

    def test_relevant_position_two(self):
        assert click_prob(3, 2, 1.0) == 0.5

    def test_factorizes_into_examination_and_relevance(self):
        for grade in range(5):
            for pos in range(1, 11):
                for gamma_s in (0.0, 0.5, 1.0, 2.0):
                    rel = 1.0 if grade >= 3 else NOISE_CLICK_RATE
                    assert click_prob(grade, pos, gamma_s) == (
                        examination_prob(pos, gamma_s) * rel
                    )

    def test_nonincreasing_in_position(self):
        for grade in (0, 4):
            probs = [click_prob(grade, pos, 1.0) for pos in range(1, 11)]
            assert all(a >= b for a, b in zip(probs, probs[1:]))


class TestSimulateImpression:
    def test_zero_bias_gives_unit_propensities(self):
        q = _query([3.0, 2.0, 1.0], [3, 0, 0])
        record = _impression(_user(gamma_s=0.0), q, 3, np.random.default_rng(0))
        np.testing.assert_array_equal(record.propensities, [1.0, 1.0, 1.0])

    def test_displays_top_k_of_logging_order(self):
        q = _query([6.0, 5.0, 4.0, 3.0, 2.0, 1.0], [0, 0, 0, 0, 0, 3])
        record = _impression(_user(), q, 5, np.random.default_rng(0))
        np.testing.assert_array_equal(record.displayed, [0, 1, 2, 3, 4])
        # The document below the cutoff is never displayed, hence never clicked.
        assert 5 not in record.displayed

    def test_k_capped_at_document_count(self):
        q = _query([2.0, 1.0], [3, 0])
        record = _impression(_user(), q, 5, np.random.default_rng(0))
        assert len(record.displayed) == 2

    def test_k_must_be_positive(self):
        q = _query([1.0], [3])
        with pytest.raises(ValueError, match="k must be"):
            _impression(_user(), q, 0, np.random.default_rng(0))

    def test_empirical_click_rates_match_model(self):
        q = _query([5.0, 4.0, 3.0, 2.0, 1.0], [4, 3, 0, 0, 0])
        user = _user(gamma_s=1.0)
        displays = _displays(q, k=5)
        rng = np.random.default_rng(11)
        n = 20_000
        counts = np.zeros(5)
        for _ in range(n):
            counts += collect_round_clicks(user, displays, 1, 1, rng)[0].clicks
        expected = np.array([click_prob(g, p, 1.0) for g, p in zip([4, 3, 0, 0, 0], range(1, 6))])
        # Relevant doc at position 1 is clicked with probability exactly 1.
        assert counts[0] == n
        se = np.sqrt(expected[1:] * (1.0 - expected[1:]) / n)
        np.testing.assert_array_less(np.abs(counts[1:] / n - expected[1:]), 3.0 * se)


class TestCollectRoundClicks:
    def test_guaranteed_click_stops_after_one_impression(self):
        q = _query([1.0], [4])
        user = _user(gamma_s=0.0, pool=(1,))
        records = collect_round_clicks(user, _displays(q, k=1), 1, 50, np.random.default_rng(0))
        assert len(records) == 1
        assert records[0].n_clicks == 1
        assert user.capped_rounds == 0

    def test_click_quota_is_reached(self):
        q = _query([2.0, 1.0], [4, 3], qid=1)
        records = collect_round_clicks(
            _user(gamma_s=0.0), _displays(q, k=2), 10, 500, np.random.default_rng(3)
        )
        assert sum(r.n_clicks for r in records) >= 10

    def test_same_seed_identical_records(self):
        q1 = _query([3.0, 2.0, 1.0], [3, 0, 0], qid=1)
        q2 = _query([1.0, 2.0], [0, 4], qid=2)
        displays = _displays(q1, q2, k=3)
        runs = []
        for _ in range(2):
            user = _user(gamma_s=1.0, pool=(1, 2))
            runs.append(
                collect_round_clicks(user, displays, 5, 100, np.random.default_rng(9))
            )
        first, second = runs
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.query_id == b.query_id
            np.testing.assert_array_equal(a.displayed, b.displayed)
            np.testing.assert_array_equal(a.clicks, b.clicks)
            np.testing.assert_array_equal(a.propensities, b.propensities)

    def test_impression_cap_marks_round_capped(self):
        # k=1 allows at most one click per impression, so 3 impressions can
        # never reach a quota of 10.
        q = _query([2.0, 1.0], [0, 0])
        user = _user(gamma_s=1.0)
        records = collect_round_clicks(user, _displays(q, k=1), 10, 3, np.random.default_rng(0))
        assert len(records) == 3
        assert user.capped_rounds == 1

    def test_parameter_validation(self):
        q = _query([1.0], [3])
        user = _user()
        with pytest.raises(ValueError, match="m must be"):
            collect_round_clicks(user, _displays(q, k=1), 0, 5, np.random.default_rng(0))
        with pytest.raises(ValueError, match="max_impressions"):
            collect_round_clicks(user, _displays(q, k=1), 1, 0, np.random.default_rng(0))


class TestStateValidation:
    def test_negative_bias_rejected(self):
        with pytest.raises(ValueError, match="gamma_s"):
            _user(gamma_s=-0.5)

    def test_empty_query_pool_rejected(self):
        with pytest.raises(ValueError, match="query_pool"):
            _user(pool=())

    def test_click_record_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            ClickRecord(
                query_id=1,
                displayed=np.array([0, 1]),
                clicks=np.array([True]),
                propensities=np.array([1.0, 0.5]),
            )
