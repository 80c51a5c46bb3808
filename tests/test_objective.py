"""Hinge rank surrogate, its subgradient, and the weighted client loss."""

import numpy as np
import pytest

from fedltr.clicksim import (
    ClickRecord,
    UserState,
    collect_round_clicks,
    display_top_k,
    examination_prob,
    round_impressions,
    train_logging_policy,
)
from fedltr.dataset import Dataset, Query
from fedltr.metrics import RELEVANCE_THRESHOLD
from fedltr.objective import (
    Clicks,
    batches,
    click_gradient,
    client_loss,
    gradient_groups,
    hinge_gradients,
    hinge_sum,
    rank_upper_bound,
    round_clicks,
)
from fedltr.ranker import LinearRanker, rank


def _query(features, labels=None, qid=1):
    features = np.asarray(features, dtype=np.float64)
    if labels is None:
        labels = np.zeros(features.shape[0], dtype=np.int64)
    return Query(qid=qid, features=features, labels=np.asarray(labels, dtype=np.int64))


def _record(query, clicks):
    # The tests' datasets hold queries 1, 2, ... in qid order: qid q is row q - 1.
    return ClickRecord(row=query.qid - 1, clicks=np.asarray(clicks, dtype=bool))


class TestBatches:
    def test_last_key_is_primary_and_equal_keys_keep_line_order(self):
        minor, major = np.array([1, 0, 1, 0, 1]), np.array([2, 2, 1, 1, 2])
        order, first = batches(minor, major)
        np.testing.assert_array_equal(order, [3, 2, 1, 0, 4])
        np.testing.assert_array_equal(first, [0, 1, 2, 3])
        runs = np.split(order, first)[1:]
        assert [run.tolist() for run in runs] == [[3], [2], [1], [0, 4]]

    def test_first_marks_the_start_of_every_run(self):
        rng = np.random.default_rng(0)
        minor, major = rng.integers(0, 3, 60), rng.integers(0, 4, 60).astype(np.float64)
        order, first = batches(minor, major)
        keys = [(major[i], minor[i]) for i in range(60)]
        want = sorted(range(60), key=lambda i: (keys[i], i))
        np.testing.assert_array_equal(order, want)
        starts = [p for p in range(60) if p == 0 or keys[want[p]] != keys[want[p - 1]]]
        np.testing.assert_array_equal(first, starts)

    def test_equal_keys_are_one_run(self):
        order, first = batches(np.full(4, 3))
        np.testing.assert_array_equal(order, np.arange(4))
        np.testing.assert_array_equal(first, [0])

    def test_empty_input_gives_no_run(self):
        order, first = batches(np.zeros(0), np.zeros(0, dtype=np.int64))
        assert order.size == 0 and first.size == 0
        assert np.split(order, first)[1:] == []


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
            positions = rank(model, q)
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


def _mask_then_sum_gradients(features, weights, offset, length, doc, propensity):
    """The hinge gradient of the batch as summed before the one-pass sum:
    zero the inactive documents' rows, then sum over the document axis."""
    j = np.arange(length.max())
    valid = j < length[:, None]
    feats = features[(offset[:, None] + np.where(valid, j, 0)).T]
    scores = np.matmul(feats.transpose(1, 0, 2), weights[:, :, None])[:, :, 0]
    line = np.arange(doc.size)
    margins = 1.0 - (scores[line, doc][:, None] - scores)
    margins[line, doc] = 0.0
    margins[~valid] = 0.0
    active = margins > 0.0
    clicked = feats[doc, line]
    feats[~active.T] = 0.0
    n_active = np.count_nonzero(active, axis=1)
    return -(n_active[:, None] * clicked - feats.sum(axis=0)) / propensity[:, None]


class TestHingeGradients:
    @pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 9, 16, 17, 33, 64, 200])
    @pytest.mark.parametrize("draw", ["uniform", "normal"])
    def test_one_pass_sum_matches_mask_then_sum(self, width, draw):
        # Batches of 1 to 6 lines as wide as `width`, on features in [0, 1)
        # (as query-level scaling leaves them) or of either sign spread over
        # six decades. Summing in another order changes the last bits.
        rng = np.random.default_rng(width)
        for n in (1, 2, 6):
            length = rng.integers(1, width + 1, size=n)
            length[0] = width
            shape = (int(length.sum()), 7)
            if draw == "uniform":
                features = rng.random(shape)
            else:
                features = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
            offset = np.cumsum(length) - length
            doc = rng.integers(length)
            weights, propensity = rng.normal(size=(n, 7)), rng.uniform(0.1, 1.0, size=n)
            j = np.arange(width)
            valid = j < length[:, None]
            got = hinge_gradients(
                features,
                weights,
                (offset[:, None] + np.where(valid, j, 0)).T,
                (valid & (j != doc[:, None])) * 1.0,
                doc,
                propensity,
            )
            expected = _mask_then_sum_gradients(features, weights, offset, length, doc, propensity)
            assert np.array_equal(got, expected), (
                f"hinge_gradients' einsum no longer adds a line's active rows in "
                f"document order (width {width}, {n} lines, {draw} features)"
            )

    @pytest.mark.parametrize("seed", [214, 294, 333])
    def test_line_at_the_hinge_is_the_same_in_every_padded_group(self, seed):
        # A line with one pair exactly at the hinge kink, where the pair is
        # inactive. Padded into a group of every width up to 200, its
        # gradient must stay its own, bit for bit: a score whose last bits
        # moved with the padding would make the pair active in some groups.
        # With BLAS matmul scores (OpenBLAS, 50 features) these seeds did.
        features, weights, d, j = _line_at_the_hinge(np.random.default_rng(seed), 50)
        n = features.shape[0]
        doc, propensity = np.array([d, 0]), np.array([0.5, 0.5])
        eligible = (np.arange(n) != d) * 1.0
        alone = hinge_gradients(
            features, weights[None], np.arange(n)[:, None], eligible[None], doc[:1], propensity[:1]
        )[0]
        # The pair at the kink adds nothing: dropping j leaves the gradient.
        without_j = eligible.copy()
        without_j[j] = 0.0
        assert np.array_equal(
            alone,
            hinge_gradients(
                features, weights[None], np.arange(n)[:, None], without_j[None], doc[:1], propensity[:1]
            )[0],
        )
        # The second line's query is as wide as the group.
        rng = np.random.default_rng(seed)
        stacked = np.vstack([features, rng.random((200, 50))])
        lines = np.stack([weights, rng.normal(size=50)])
        for width in range(n, 201):
            column = np.arange(width)
            index = np.stack([np.where(column < n, column, 0), n + column]).T
            mask = np.stack([(column < n) & (column != d), column != 0]) * 1.0
            got = hinge_gradients(stacked, lines, index, mask, doc, propensity)[0]
            assert np.array_equal(got, alone), f"width {width}"


def _line_at_the_hinge(rng, dim):
    """A query's features, weights, a clicked document d and another
    document j that scores exactly 1 below d: j's largest-weight feature is
    moved ulp by ulp until it does."""
    n = int(rng.integers(2, 40))
    features, weights = rng.random((n, dim)), rng.normal(size=dim)
    d, j = rng.choice(n, size=2, replace=False)
    top = np.einsum("df,f->d", features, weights)[d]
    c = int(np.argmax(np.abs(weights)))
    features[j, c] += (top - 1.0 - features[j] @ weights) / weights[c]
    for _ in range(200):
        margin = 1.0 - (top - np.einsum("df,f->d", features, weights)[j])
        if margin == 0.0:
            return features, weights, int(d), int(j)
        up = (margin < 0.0) == (weights[c] > 0.0)
        features[j, c] = np.nextafter(features[j, c], np.inf if up else -np.inf)
    raise AssertionError("no feature value puts the pair at the hinge")


def _round_clicks(records, queries, propensity, users=None):
    """round_clicks of records[i], the records of users[i] (default i),
    shown in document order (the order a zero-weight logging policy gives),
    weighted by the table `propensity`."""
    dataset = Dataset(queries=tuple(queries), feature_dim=queries[0].features.shape[1])
    k = max(q.n_docs for q in queries)
    displays = display_top_k(LinearRanker.zeros(dataset.feature_dim), dataset, k)
    users = np.arange(len(records)) if users is None else users
    return round_clicks(round_impressions(users, records, displays), propensity)


class TestClickSteps:
    def test_steps_follow_record_then_display_order(self):
        q1 = _query([[1.0], [-1.0], [0.0]], qid=1)
        q2 = _query([[1.0], [-1.0]], qid=2)
        records = [
            [_record(q1, [True, False, True]), _record(q2, [False, True])],
            [_record(q2, [False, False])],
            [_record(q2, [True, False])],
        ]
        # Every user's table row is 1 / position, so each click's weight
        # shows its display position.
        clicks = _round_clicks(records, (q1, q2), np.tile(1.0 / np.arange(1, 4), (3, 1)))
        assert clicks.n_clients == 3
        np.testing.assert_array_equal(clicks.client, [0, 0, 0, 2])
        np.testing.assert_array_equal(clicks.row, [0, 0, 1, 1])
        np.testing.assert_array_equal(clicks.doc, [0, 2, 1, 0])
        np.testing.assert_array_equal(clicks.propensity, [1.0, 1.0 / 3.0, 0.5, 1.0])

    def test_no_clicks_gives_no_steps(self):
        q = _query([[1.0], [-1.0]])
        clicks = _round_clicks([[_record(q, [False, False])]], (q,), np.ones((1, 2)))
        assert clicks.n_clients == 1
        assert clicks.row.size == 0 and clicks.propensity.size == 0

    def test_weights_are_read_at_each_clicks_user(self):
        # Clients 0 and 1 are users 3 and 7, whose table rows differ: a
        # click's weight is its user's entry at its display position.
        q = _query([[1.0], [-1.0], [0.0]])
        table = np.arange(1.0, 25.0).reshape(8, 3) / 24.0
        records = [[_record(q, [True, False, True])], [_record(q, [False, True, True])]]
        clicks = _round_clicks(records, (q,), table, users=np.array([3, 7]))
        np.testing.assert_array_equal(clicks.client, [0, 0, 1, 1])
        np.testing.assert_array_equal(
            clicks.propensity, [table[3, 0], table[3, 2], table[7, 1], table[7, 2]]
        )


def _loss(model, records, propensity=1.0):
    """One client's loss on its (record, query) pairs, every click weighted
    by `propensity`."""
    queries = tuple({query.qid: query for _, query in records}.values())
    corpus = Dataset(queries=queries, feature_dim=queries[0].features.shape[1])
    k = max(q.n_docs for q in queries)
    clicks = _round_clicks(
        [[record for record, _ in records]], queries, np.full((1, k), propensity)
    )
    return client_loss(model, corpus, clicks)[0]


class TestClientLoss:
    def test_single_click_unit_propensity(self):
        q = _query([[1.0], [-1.0]])
        record = _record(q, [False, True])
        assert _loss(LinearRanker(np.array([1.0])), ((record, q),)) == 3.0

    def test_half_propensity_doubles_loss(self):
        q = _query([[1.0], [-1.0]])
        record = _record(q, [False, True])
        assert _loss(LinearRanker(np.array([1.0])), ((record, q),), 0.5) == 6.0

    def test_no_clicks_is_zero(self):
        q = _query([[1.0], [-1.0]])
        record = _record(q, [False, False])
        assert _loss(LinearRanker(np.array([1.0])), ((record, q),), 1.0) == 0.0

    def test_normalizes_by_distinct_clicked_queries(self):
        q1 = _query([[1.0], [-1.0]], qid=1)
        q2 = _query([[1.0], [-1.0]], qid=2)
        records = (
            (_record(q1, [False, True]), q1),
            (_record(q1, [False, True]), q1),
            (_record(q2, [False, True]), q2),
        )
        # Three clicked impressions over two distinct queries: 9 / 2.
        assert _loss(LinearRanker(np.array([1.0])), records, 1.0) == 4.5

    def test_homogeneous_in_inverse_propensity(self):
        rng = np.random.default_rng(31)
        q = _query(rng.normal(size=(4, 2)), qid=1)
        record = _record(q, [True, False, True, False])
        model = LinearRanker(rng.normal(size=2))
        base = _loss(model, ((record, q),), 1.0)
        halved = _loss(model, ((record, q),), 0.5)
        assert halved == pytest.approx(2.0 * base)

    def test_nonpositive_propensity_errors(self):
        q = _query([[1.0], [-1.0]])
        record = _record(q, [True, False])
        with pytest.raises(ValueError, match="non-positive"):
            _loss(LinearRanker(np.array([1.0])), ((record, q),), 0.0)

    def test_batched_loss_matches_per_click_hinge_sums(self, ragged):
        # Clients 0-3 click 7, 0, 1 and 12 times across every length class.
        rng = np.random.default_rng(5)
        client = np.repeat(np.arange(4), [7, 0, 1, 12])
        row = rng.integers(ragged.n_queries, size=client.size)
        doc = rng.integers(ragged.lengths[row])
        clicks = Clicks(
            n_clients=4,
            client=client,
            row=row,
            doc=doc,
            propensity=rng.uniform(0.1, 1.0, size=client.size),
        )
        model = LinearRanker(rng.normal(size=ragged.feature_dim) * 0.3)
        expected = np.zeros(4)
        queries = ragged.queries
        for i in range(4):
            mine = np.flatnonzero(client == i)
            if mine.size:
                total = sum(
                    hinge_sum(model, queries[row[j]], doc[j]) / clicks.propensity[j]
                    for j in mine
                )
                expected[i] = total / len(set(row[mine].tolist()))
        np.testing.assert_allclose(client_loss(model, ragged, clicks), expected, rtol=1e-12, atol=0)


class TestGradientGroups:
    def test_each_group_is_padded_to_its_own_longest_query(self, ragged):
        # Clients 0-4 click 9, 0, 1, 5 and 14 times across every length
        # class; visit and step are laid out as client_opt lays them out.
        rng = np.random.default_rng(11)
        client = np.repeat(np.arange(5), [9, 0, 1, 5, 14])
        row = rng.integers(ragged.n_queries, size=client.size)
        clicks = Clicks(
            n_clients=5,
            client=client,
            row=row,
            doc=rng.integers(ragged.lengths[row]),
            propensity=rng.uniform(0.2, 1.0, size=client.size),
        )
        counts = np.bincount(client, minlength=5)
        first = np.cumsum(counts) - counts
        visit = np.concatenate([first[i] + rng.permutation(counts[i]) for i in range(5)])
        step = np.arange(visit.size) - first[client]
        length_class = np.ceil(np.log2(ragged.lengths[row[visit]]))
        keys = sorted({(s, c) for s, c in zip(step.tolist(), length_class.tolist())})
        assert len({c for _, c in keys}) == 4
        groups = gradient_groups(ragged, clicks, visit, step)
        assert len(groups) == len(keys)
        for (s, c), (g_client, index, eligible, doc, propensity) in zip(keys, groups):
            picked = visit[(step == s) & (length_class == c)]
            np.testing.assert_array_equal(g_client, client[picked])
            np.testing.assert_array_equal(doc, clicks.doc[picked])
            np.testing.assert_array_equal(propensity, clicks.propensity[picked])
            rows, valid = ragged.doc_rows(row[picked])
            assert index.shape == rows.T.shape
            np.testing.assert_array_equal(index.T, rows)
            others = valid & (np.arange(valid.shape[1]) != doc[:, None])
            assert eligible.dtype == np.float64
            np.testing.assert_array_equal(eligible, others)


# Impressions drawn per user, and queries in each user's pool.
_SIGNAL_IMPRESSIONS = 4000
_SIGNAL_POOL = 20
# Per gamma, the largest relative error a known table may show over every
# document and over the non-relevant ones, and the smallest the ones table
# may show over every document. Over seeds 0-9 at the sizes above:
#   gamma 0.5: known 0.040-0.074, non-relevant 0.196-0.238; ones 0.286-0.372
#   gamma 1:   known 0.058-0.119, non-relevant 0.241-0.362; ones 0.454-0.551
#   gamma 2:   known 0.107-0.226, non-relevant 0.451-0.722; ones 0.602-0.706
# A known bound is 1.5 times the largest error, 1.25 times for the
# non-relevant part, whose few clicks would take 1.5 times past 1 at gamma
# 2; a ones floor is the smallest error divided by 1.5.
_SIGNAL_BOUNDS = {
    0.5: (0.111, 0.297, 0.19),
    1.0: (0.178, 0.453, 0.30),
    2.0: (0.340, 0.903, 0.40),
}


def _gradients(corpus, weights, row, doc, propensity):
    """hinge_gradients of clicks on documents doc of queries row, at one
    model's weights."""
    index, valid = corpus.doc_rows(row)
    eligible = valid & (np.arange(index.shape[1]) != doc[:, None])
    lines = (index.T, eligible * 1.0, doc, propensity)
    return hinge_gradients(corpus.features, np.tile(weights, (doc.size, 1)), *lines)


def _part(corpus, row, doc):
    """The part of a target that document doc of query row falls in: 1 when
    it is not relevant, so that only a noise click reaches it, else 0."""
    return (corpus.labels[corpus.offsets[row] + doc] < RELEVANCE_THRESHOLD) * 1


def _signal_errors(train, displays, users, tables, weights):
    """The relative error of the users' mean click gradient per impression
    at `weights`, drawn and weighted as a round does, against its target,
    with each of `tables`: over every document, and over the non-relevant
    ones, which only noise clicks reach. The users are 0, 1, ... and
    tables["known"] holds their true curves, which draw the clicks. A
    user's target is the mean over its pool of the sum over displayed
    documents of click rate times unweighted gradient: what IPS weighting
    makes the expectation, whatever the user's position bias."""
    k = displays.docs.shape[1]
    # A quota of more clicks than the impressions can hold: each user draws
    # exactly _SIGNAL_IMPRESSIONS.
    quota = _SIGNAL_IMPRESSIONS * k + 1
    records = [
        collect_round_clicks(
            user, tables["known"][user.id], displays, quota, _SIGNAL_IMPRESSIONS
        )
        for user in users
    ]
    drawn = round_impressions(np.arange(len(users)), records, displays)
    # Every bench query shows k documents.
    pool = np.array([user.query_pool for user in users])
    row, slot = np.repeat(pool, k, axis=1), np.tile(np.arange(k), pool.shape)
    doc = displays.docs[row, slot]
    unweighted = _gradients(train, weights, row.ravel(), doc.ravel(), np.ones(doc.size))
    rated = displays.click_rates[row, slot][..., None] * unweighted.reshape(*row.shape, -1)
    part = _part(train, row, doc)
    target = np.stack([np.sum(rated * (part == p)[..., None], axis=1) for p in (0, 1)])
    target /= pool.shape[1]
    errors = {}
    for name, table in tables.items():
        clicks = round_clicks(drawn, table)
        # A user's clicks on one document share its propensity, so each
        # distinct click's gradient is taken once and counted per click.
        _, first, count = np.unique(
            np.stack([clicks.client, clicks.row, clicks.doc]),
            axis=1, return_index=True, return_counts=True,
        )
        row, doc = clicks.row[first], clicks.doc[first]
        weighted = _gradients(train, weights, row, doc, clicks.propensity[first])
        total = np.zeros_like(target)
        at = (_part(train, row, doc), clicks.client[first])
        np.add.at(total, at, count[:, None] * weighted)
        total /= _SIGNAL_IMPRESSIONS
        whole = np.linalg.norm(total.sum(0) - target.sum(0)) / np.linalg.norm(target.sum(0))
        noise = np.linalg.norm(total[1] - target[1]) / np.linalg.norm(target[1])
        errors[name] = (float(whole), float(noise))
    return errors


def _signal_check(train, displays, gamma, seed):
    """_signal_errors of the known and the ones table for three users with
    gamma_s of gamma - 0.25, gamma and gamma + 0.25, at a model drawn from
    the seed."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(scale=0.5, size=train.feature_dim)
    users = [
        UserState(
            id=uid,
            gamma_s=gamma + offset,
            query_pool=tuple(rng.integers(train.n_queries, size=_SIGNAL_POOL).tolist()),
            rng_stream=np.random.default_rng([seed, uid]),
        )
        for uid, offset in enumerate((-0.25, 0.0, 0.25))
    ]
    positions = np.arange(1, displays.docs.shape[1] + 1)
    known = np.stack([examination_prob(positions, user.gamma_s) for user in users])
    tables = {"known": known, "ones": np.ones_like(known)}
    return _signal_errors(train, displays, users, tables, weights)


def test_ips_weighted_click_gradient_is_unbiased(bench):
    # Joachims et al. (WSDM 2017): weighting a click's gradient by 1 /
    # examination makes its expectation independent of position bias. The
    # chain checked is the simulator's own: collect_round_clicks draws,
    # round_clicks weights, hinge_gradients differentiates.
    train, _ = bench
    displays = display_top_k(train_logging_policy(train, seed=0), train, 5)
    ones = []
    for gamma, (bound, noise_bound, floor) in _SIGNAL_BOUNDS.items():
        errors = _signal_check(train, displays, gamma, seed=0)
        assert errors["known"][0] <= bound, (gamma, errors)
        assert errors["known"][1] <= noise_bound, (gamma, errors)
        assert errors["ones"][0] >= floor, (gamma, errors)
        ones.append(errors["ones"][0])
    # Unweighted clicks miss the target by more the stronger the bias.
    assert ones[0] < ones[1] < ones[2], ones
