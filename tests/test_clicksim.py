"""Logging policy, user bias sampling, and position-based click generation."""

import numpy as np
import pytest

from fedltr.clicksim import (
    NOISE_CLICK_RATE,
    ClickRecord,
    UserState,
    click_given_examination,
    collect_round_clicks,
    display_top_k,
    examination_prob,
    round_impressions,
    sample_user_bias,
    train_logging_policy,
)
from fedltr import dataset as dataset_module
from fedltr.dataset import Dataset, Query, generate_synthetic
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
    return display_top_k(W1, Dataset(queries=queries, feature_dim=1), k)


def _collect(user, displays, m, max_impressions):
    """collect_round_clicks with the user's true examination curve."""
    exam = examination_prob(np.arange(1, displays.docs.shape[1] + 1), user.gamma_s)
    return collect_round_clicks(user, exam, displays, m, max_impressions)


def _impression(user, query, k):
    """One impression of `query`, the only query of the user's pool."""
    return _collect(user, _displays(query, k=k), 1, 1)[0]


def _user(gamma_s=1.0, pool=(0,), uid=0, seed=0):
    return UserState(
        id=uid,
        gamma_s=gamma_s,
        query_pool=tuple(pool),
        rng_stream=np.random.default_rng(seed),
    )


class TestTrainLoggingPolicy:
    def test_same_seed_identical_weights(self, small_corpus):
        a = train_logging_policy(small_corpus, seed=5)
        b = train_logging_policy(small_corpus, seed=5)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_tiny_fraction_rounds_up_to_one_query(self, small_corpus):
        # ceil(0.01 * 80) = 1 sampled query; training must still work.
        policy = train_logging_policy(small_corpus, seed=5)
        assert np.all(np.isfinite(policy.weights))
        assert np.any(policy.weights != 0.0)

    def test_trained_policy_beats_untrained(self, small_corpus):
        policy = train_logging_policy(small_corpus, seed=5)
        trained = mean_ndcg(policy, small_corpus, 5)
        untrained = mean_ndcg(LinearRanker.zeros(small_corpus.feature_dim), small_corpus, 5)
        assert trained > untrained

    def test_builds_query_views_only_for_its_sample(self, monkeypatch):
        # ceil(0.01 * 400) = 4 sampled queries of a corpus whose views have
        # never been built.
        corpus = generate_synthetic(400, 5, 3, seed=1)
        built = []

        def counting_query(**fields):
            built.append(fields["qid"])
            return Query(**fields)

        monkeypatch.setattr(dataset_module, "Query", counting_query)
        train_logging_policy(corpus, seed=5)
        assert len(built) == 4

    def test_display_top_k_follows_logging_order(self):
        q1 = _query([1.0, 3.0, 2.0], [0, 3, 0], qid=1)
        q2 = _query([5.0, 5.0], [4, 0], qid=2)
        displays = _displays(q1, q2, k=3)
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
    """The click probability of the position-based model (Joachims et al.,
    WSDM 2017): examination_prob times click_given_examination, the
    product collect_round_clicks draws with."""

    def test_relevant_top_position(self):
        assert examination_prob(1, 1.0) * click_given_examination(4) == 1.0

    def test_irrelevant_top_position_is_noise_rate(self):
        assert examination_prob(1, 1.0) * click_given_examination(1) == 0.1

    def test_relevant_position_two(self):
        assert examination_prob(2, 1.0) * click_given_examination(3) == 0.5

    def test_factorizes_into_examination_and_relevance(self):
        # Grades 0-4 displayed at positions 1-5: a user's examination row
        # times the displays' click rates is, position by position, the
        # examination there times the grade's click rate.
        q = _query([5.0, 4.0, 3.0, 2.0, 1.0], [0, 1, 2, 3, 4])
        rates = _displays(q, k=5).click_rates[0]
        rel = [NOISE_CLICK_RATE] * 3 + [1.0, 1.0]
        np.testing.assert_array_equal(rates, rel)
        for gamma_s in (0.0, 0.5, 1.0, 2.0):
            expected = [examination_prob(pos, gamma_s) * r for pos, r in zip(range(1, 6), rel)]
            np.testing.assert_array_equal(examination_prob(np.arange(1, 6), gamma_s) * rates, expected)

    def test_nonincreasing_in_position(self):
        for grade in (0, 4):
            probs = examination_prob(np.arange(1, 11), 1.0) * click_given_examination(grade)
            assert np.all(probs[:-1] >= probs[1:])


class TestSimulateImpression:
    def test_zero_bias_gives_unit_propensities(self):
        # A user without bias examines every position, so every relevant
        # document is clicked wherever it is shown.
        q = _query([3.0, 2.0, 1.0], [3, 4, 3])
        record = _impression(_user(gamma_s=0.0), q, 3)
        np.testing.assert_array_equal(record.clicks, [True, True, True])

    def test_clicks_follow_the_given_examination_row(self):
        # The row passed in, not the user's own bias, sets the examination:
        # a row that never examines position 2 never clicks it.
        q = _query([3.0, 2.0, 1.0], [3, 3, 3])
        displays = _displays(q, k=3)
        record = collect_round_clicks(
            _user(gamma_s=0.0), np.array([1.0, 0.0, 1.0]), displays, 1, 1
        )[0]
        np.testing.assert_array_equal(record.clicks, [True, False, True])

    def test_displays_top_k_of_logging_order(self):
        q = _query([6.0, 5.0, 4.0, 3.0, 2.0, 1.0], [0, 0, 0, 0, 0, 3])
        displays = _displays(q, k=5)
        record = _collect(_user(), displays, 1, 1)[0]
        displayed = displays.docs[record.row, : record.clicks.size]
        np.testing.assert_array_equal(displayed, [0, 1, 2, 3, 4])
        # The document below the cutoff is never displayed, hence never clicked.
        assert 5 not in displayed

    def test_k_capped_at_document_count(self):
        q = _query([2.0, 1.0], [3, 0])
        record = _impression(_user(), q, 5)
        assert len(record.clicks) == 2

    def test_empirical_click_rates_match_model(self):
        q = _query([5.0, 4.0, 3.0, 2.0, 1.0], [4, 3, 0, 0, 0])
        user = _user(gamma_s=1.0, seed=11)
        displays = _displays(q, k=5)
        n = 20_000
        counts = np.zeros(5)
        for _ in range(n):
            counts += _collect(user, displays, 1, 1)[0].clicks
        expected = examination_prob(np.arange(1, 6), 1.0) * click_given_examination([4, 3, 0, 0, 0])
        # Relevant doc at position 1 is clicked with probability exactly 1.
        assert counts[0] == n
        se = np.sqrt(expected[1:] * (1.0 - expected[1:]) / n)
        np.testing.assert_array_less(np.abs(counts[1:] / n - expected[1:]), 3.0 * se)


class TestCollectRoundClicks:
    def test_guaranteed_click_stops_after_one_impression(self):
        q = _query([1.0], [4])
        user = _user(gamma_s=0.0, pool=(0,))
        records = _collect(user, _displays(q, k=1), 1, 50)
        assert len(records) == 1
        assert records[0].n_clicks == 1
        assert user.capped_rounds == 0

    def test_click_quota_is_reached(self):
        q = _query([2.0, 1.0], [4, 3], qid=1)
        records = _collect(_user(gamma_s=0.0, seed=3), _displays(q, k=2), 10, 500)
        assert sum(r.n_clicks for r in records) >= 10

    def test_same_seed_identical_records(self):
        q1 = _query([3.0, 2.0, 1.0], [3, 0, 0], qid=1)
        q2 = _query([1.0, 2.0], [0, 4], qid=2)
        displays = _displays(q1, q2, k=3)
        runs = []
        for _ in range(2):
            user = _user(gamma_s=1.0, pool=(0, 1), seed=9)
            runs.append(_collect(user, displays, 5, 100))
        first, second = runs
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.row == b.row
            np.testing.assert_array_equal(a.clicks, b.clicks)

    def test_impression_cap_marks_round_capped(self):
        # k=1 allows at most one click per impression, so 3 impressions can
        # never reach a quota of 10.
        q = _query([2.0, 1.0], [0, 0])
        user = _user(gamma_s=1.0)
        records = _collect(user, _displays(q, k=1), 10, 3)
        assert len(records) == 3
        assert user.capped_rounds == 1


class TestRoundImpressions:
    def test_flattens_records_by_client_then_record(self):
        # W1 shows q1 as documents 0, 1, 2 and q2 as 1, 0.
        q1 = _query([3.0, 2.0, 1.0], [3, 0, 0], qid=1)
        q2 = _query([1.0, 2.0], [0, 4], qid=2)
        displays = _displays(q1, q2, k=3)
        records = [
            [
                ClickRecord(1, np.array([False, True])),
                ClickRecord(0, np.array([True, False, True])),
            ],
            [],
            [ClickRecord(0, np.zeros(3, dtype=bool))],
        ]
        impressions = round_impressions([3, 5, 8], records, displays)
        np.testing.assert_array_equal(impressions.users, [3, 5, 8])
        np.testing.assert_array_equal(impressions.client, [0, 0, 2])
        np.testing.assert_array_equal(impressions.row, [1, 0, 0])
        np.testing.assert_array_equal(impressions.length, [2, 3, 3])
        np.testing.assert_array_equal(impressions.docs[:, :2], [[1, 0], [0, 1], [0, 1]])
        np.testing.assert_array_equal(
            impressions.clicked,
            [[False, True, False], [True, False, True], [False, False, False]],
        )
