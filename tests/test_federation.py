"""Client-side SGD, server aggregation, and the federated round loop."""

import copy

import numpy as np
import pytest

from fedltr import federation
from fedltr.clicksim import (
    ClickRecord,
    collect_round_clicks,
    display_top_k,
    examination_prob,
    round_impressions,
)
from fedltr.dataset import Dataset, Query, load_svmlight
from fedltr.federation import (
    FederationConfig,
    RoundMetrics,
    client_opt,
    final_ndcg,
    init_state,
    run_experiment,
    run_round,
    server_opt,
)
from fedltr.objective import Clicks, click_gradient, round_clicks
from fedltr.propensity import estimated_propensity
from fedltr.ranker import LinearRanker


def _query(features, qid=1):
    features = np.asarray(features, dtype=np.float64)
    return Query(
        qid=qid, features=features, labels=np.zeros(features.shape[0], dtype=np.int64)
    )


def _record(query, clicks):
    # The tests' datasets hold queries 1, 2, ... in qid order: qid q is row q - 1.
    return ClickRecord(query.qid - 1, np.asarray(clicks, dtype=bool))


def _small_cfg(**kwargs):
    base = dict(
        num_users=8,
        users_per_round=4,
        k=3,
        m=2,
        rounds=3,
        eta_local=1e-3,
        eta_global=0.5,
        seed=0,
    )
    base.update(kwargs)
    return FederationConfig(**base)


def _client_opt(w_t, records, eta_local, rng, propensity=1.0):
    """One client's delta and click count on its (record, query) pairs,
    every click weighted by `propensity`."""
    queries = tuple({query.qid: query for _, query in records}.values())
    dataset = Dataset(queries=queries, feature_dim=queries[0].features.shape[1])
    k = max(q.n_docs for q in queries)
    # A zero-weight logging policy shows every query in document order.
    displays = display_top_k(LinearRanker.zeros(dataset.feature_dim), dataset, k)
    impressions = round_impressions([0], [[record for record, _ in records]], displays)
    clicks = round_clicks(impressions, np.full((1, k), propensity))
    return client_opt(w_t, dataset, clicks, eta_local, [rng])[0], clicks.row.size


def _round_weights(state, cfg, monkeypatch):
    """Run one round of `state`; return each click's user id, display
    position and the weight that local SGD trained with."""
    seen = {}
    real_impressions, real_opt = federation.round_impressions, federation.client_opt

    def spy_impressions(users, records, displays):
        seen["impressions"] = real_impressions(users, records, displays)
        return seen["impressions"]

    def spy_opt(w_t, corpus, clicks, eta_local, rngs):
        seen["clicks"] = clicks
        return real_opt(w_t, corpus, clicks, eta_local, rngs)

    with monkeypatch.context() as patch:
        patch.setattr(federation, "round_impressions", spy_impressions)
        patch.setattr(federation, "client_opt", spy_opt)
        run_round(state, cfg)
    impressions, clicks = seen["impressions"], seen["clicks"]
    # round_clicks reads the clicks in np.nonzero order of `clicked`.
    slot = np.nonzero(impressions.clicked)[1]
    return impressions.users[clicks.client], slot + 1, clicks.propensity


def _unbatched_gradient(w, query, d, p):
    """The click subgradient computed for one query on its own, summing the
    active documents' rows with np.sum: the arithmetic the batched kernel
    must reproduce bit for bit."""
    scores = np.einsum("df,f->d", query.features, w)
    active = 1.0 - (scores[d] - scores) > 0.0
    active[d] = False
    n_active = int(np.count_nonzero(active))
    if n_active == 0:
        return np.zeros(query.features.shape[1])
    return -(n_active * query.features[d] - np.sum(query.features[active], axis=0)) / p


class TestClientOpt:
    def test_no_clicks_gives_zero_delta(self):
        q = _query([[1.0, 0.0], [0.0, 1.0]])
        delta, clicks_used = _client_opt(
            LinearRanker.zeros(2),
            [(_record(q, [False, False]), q)],
            1e-2,
            np.random.default_rng(0),
        )
        np.testing.assert_array_equal(delta, [0.0, 0.0])
        assert clicks_used == 0

    def test_single_click_steps_against_gradient(self):
        q = _query([[1.0, 0.0], [0.0, 1.0]])
        w0 = LinearRanker.zeros(2)
        delta, clicks_used = _client_opt(
            w0, [(_record(q, [True, False]), q)], 1e-2, np.random.default_rng(0)
        )
        expected = -1e-2 * click_gradient(w0, q, 0, 1.0)
        np.testing.assert_allclose(delta, expected)
        assert clicks_used == 1

    def test_half_propensity_doubles_single_step(self):
        q = _query([[1.0, 0.0], [0.0, 1.0]])
        w0 = LinearRanker.zeros(2)
        unit, _ = _client_opt(w0, [(_record(q, [True, False]), q)], 1e-2, np.random.default_rng(0))
        half, _ = _client_opt(
            w0, [(_record(q, [True, False]), q)], 1e-2, np.random.default_rng(0), 0.5
        )
        np.testing.assert_allclose(half, 2.0 * unit)

    def test_nonpositive_propensity_errors(self):
        q = _query([[1.0], [0.0]])
        with pytest.raises(ValueError, match="non-positive"):
            _client_opt(
                LinearRanker.zeros(1),
                [(_record(q, [True, False]), q)],
                1e-2,
                np.random.default_rng(0),
                0.0,
            )

    def test_finite_delta_enforced(self, small_split, monkeypatch):
        # The whole round's deltas are checked at once; the error names the
        # round and the client whose delta is not finite.
        train, test = small_split
        cfg = _small_cfg(num_users=4, users_per_round=4)
        state = init_state(cfg, train, test)
        state, _ = run_round(state, cfg)

        def poisoned(w_t, corpus, clicks, eta_local, rngs):
            deltas = np.zeros((clicks.n_clients, w_t.weights.size))
            deltas[2, 1] = np.nan
            return deltas

        monkeypatch.setattr(federation, "client_opt", poisoned)
        with pytest.raises(ValueError, match="round 2: client 2 produced a non-finite"):
            run_round(state, cfg)

    def test_lockstep_matches_sequential_reference(self, ragged):
        # Clients 0-4 click 9, 0, 1, 5 and 14 times across every length
        # class; the reference runs each client alone, one click_gradient
        # call per click, on the same random streams.
        rng = np.random.default_rng(3)
        client = np.repeat(np.arange(5), [9, 0, 1, 5, 14])
        row = rng.integers(ragged.n_queries, size=client.size)
        clicks = Clicks(
            n_clients=5,
            client=client,
            row=row,
            doc=rng.integers(ragged.lengths[row]),
            propensity=rng.uniform(0.2, 1.0, size=client.size),
        )
        w_t = LinearRanker(rng.normal(size=ragged.feature_dim) * 0.1)
        eta = 0.05
        deltas = client_opt(
            w_t, ragged, clicks, eta, [np.random.default_rng(100 + i) for i in range(5)]
        )
        queries = ragged.queries
        for i in range(5):
            steps = np.flatnonzero(client == i)
            w = w_t.weights.copy()
            if steps.size:
                for j in steps[np.random.default_rng(100 + i).permutation(steps.size)]:
                    query, d, p = queries[clicks.row[j]], clicks.doc[j], clicks.propensity[j]
                    grad = click_gradient(LinearRanker(w), query, d, p)
                    assert np.array_equal(grad, _unbatched_gradient(w, query, d, p))
                    w = w - eta * grad
            assert np.array_equal(deltas[i], w - w_t.weights)
        assert np.any(deltas[0] != 0.0) and np.all(deltas[1] == 0.0)

    def test_lockstep_matches_sequential_reference_on_narrow_classes(self):
        # Queries of 1, 2, 3, 4, 6 and 9 documents: length classes 0 to 4.
        # Clients 0 and 1 click only the 1- and 2-document queries, so at
        # every step each is alone in its class; clients 2 and 3 share
        # class 2, and client 4 steps on alone after the others stop.
        rng = np.random.default_rng(8)
        corpus = Dataset(
            queries=tuple(
                _query(rng.normal(size=(n, 4)), qid=1 + i) for i, n in enumerate((1, 2, 3, 4, 6, 9))
            ),
            feature_dim=4,
        )
        counts = [2, 3, 4, 3, 7]
        row = np.concatenate(
            [[0, 0], [1, 1, 1], rng.integers(2, 4, size=7), [4, 5, 4, 5, 4, 5, 5]]
        )
        client = np.repeat(np.arange(5), counts)
        clicks = Clicks(
            n_clients=5,
            client=client,
            row=row,
            doc=rng.integers(corpus.lengths[row]),
            propensity=rng.uniform(0.2, 1.0, size=client.size),
        )
        w_t = LinearRanker(rng.normal(size=4) * 0.1)
        eta = 0.05
        rngs = [np.random.default_rng(50 + i) for i in range(5)]
        deltas = client_opt(w_t, corpus, clicks, eta, rngs)
        queries = corpus.queries
        for i in range(5):
            steps = np.flatnonzero(client == i)
            w = w_t.weights.copy()
            for j in steps[np.random.default_rng(50 + i).permutation(steps.size)]:
                query, d, p = queries[row[j]], clicks.doc[j], clicks.propensity[j]
                grad = click_gradient(LinearRanker(w), query, d, p)
                assert np.array_equal(grad, _unbatched_gradient(w, query, d, p))
                w = w - eta * grad
            assert np.array_equal(deltas[i], w - w_t.weights)
        assert np.all(deltas[0] == 0.0) and np.all(deltas[1:] != 0.0)

    def test_each_group_is_padded_to_its_own_longest_query(self, ragged, monkeypatch):
        # Clients 0-4 click 9, 0, 1, 5 and 14 times across every length
        # class. A spy records each hinge_gradients call of client_opt.
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
        w_t = LinearRanker(rng.normal(size=ragged.feature_dim) * 0.1)
        eta = 0.05
        calls, real = [], federation.hinge_gradients

        def spy(features, weights, *lines):
            calls.append((weights.copy(), *lines))
            return real(features, weights, *lines)

        monkeypatch.setattr(federation, "hinge_gradients", spy)
        deltas = client_opt(
            w_t, ragged, clicks, eta, [np.random.default_rng(100 + i) for i in range(5)]
        )
        # Line l is step step[l] of its client, which visits click visit[l],
        # in the order client_opt draws from the same streams.
        counts = np.bincount(client, minlength=5)
        first = np.cumsum(counts) - counts
        visit = np.concatenate(
            [first[i] + np.random.default_rng(100 + i).permutation(counts[i]) for i in range(5)]
        )
        step = np.arange(visit.size) - first[client]
        length_class = np.ceil(np.log2(ragged.lengths[row[visit]]))
        keys = sorted({(s, c) for s, c in zip(step.tolist(), length_class.tolist())})
        assert len({c for _, c in keys}) == 4
        assert len(calls) == len(keys)
        local = np.tile(w_t.weights, (5, 1))
        for (s, c), (weights, index, eligible, doc, propensity) in zip(keys, calls):
            picked = visit[(step == s) & (length_class == c)]
            # Each line steps from its own client's local weights.
            np.testing.assert_array_equal(weights, local[client[picked]])
            np.testing.assert_array_equal(doc, clicks.doc[picked])
            np.testing.assert_array_equal(propensity, clicks.propensity[picked])
            rows, valid = ragged.doc_rows(row[picked])
            assert index.shape == rows.T.shape
            np.testing.assert_array_equal(index.T, rows)
            others = valid & (np.arange(valid.shape[1]) != doc[:, None])
            assert eligible.dtype == np.float64
            np.testing.assert_array_equal(eligible, others)
            step_grad = real(ragged.features, weights, index, eligible, doc, propensity)
            local[client[picked]] -= eta * step_grad
        np.testing.assert_array_equal(deltas, local - w_t.weights)


class TestServerOpt:
    def test_averages_deltas(self):
        w0 = LinearRanker.zeros(2)
        new = server_opt(w0, np.array([[1.0, 0.0], [0.0, 1.0]]), eta_global=2.0)
        np.testing.assert_array_equal(new.weights, [1.0, 1.0])

    def test_single_client_unit_rate_recovers_local(self):
        w0 = LinearRanker(np.array([0.5, -0.5]))
        delta = np.array([0.25, 0.75])
        new = server_opt(w0, delta[None], eta_global=1.0)
        np.testing.assert_array_equal(new.weights, w0.weights + delta)

    def test_zero_deltas_leave_weights_unchanged(self):
        w0 = LinearRanker(np.array([1.0, 2.0]))
        new = server_opt(w0, np.zeros((3, 2)), eta_global=0.5)
        np.testing.assert_array_equal(new.weights, w0.weights)


class TestFederationConfig:
    def test_defaults_are_valid(self):
        cfg = FederationConfig()
        assert cfg.num_users == 200
        assert cfg.users_per_round == 50
        assert cfg.k == 5
        assert cfg.m == 10

    def test_rejects_oversubscribed_round(self):
        with pytest.raises(
            ValueError,
            match=r"^federation\.users_per_round must be <= num_users \(10\), got 20$",
        ):
            FederationConfig(num_users=10, users_per_round=20)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match=r"^federation\.mode must be one of \("):
            FederationConfig(mode="centralized")

    def test_rejects_unknown_propensity_mode(self):
        with pytest.raises(ValueError, match=r"^federation\.propensity_mode must be one of \("):
            FederationConfig(propensity_mode="oracle")

    def test_rejects_bad_rates(self):
        with pytest.raises(
            ValueError, match=r"^federation\.eta_local must be a finite real > 0, got 0\.0$"
        ):
            FederationConfig(eta_local=0.0)
        with pytest.raises(
            ValueError, match=r"^federation\.gamma must be a finite real >= 0, got -1\.0$"
        ):
            FederationConfig(gamma=-1.0)
        with pytest.raises(
            ValueError, match=r"^federation\.gamma_sigma must be a finite real >= 0, got -0\.1$"
        ):
            FederationConfig(gamma_sigma=-0.1)


    @pytest.mark.parametrize(
        "field, value",
        [
            ("em_iters", -1),
            ("em_fit_lr", -1.0),
            ("em_eta_f", 0.0),
            ("em_floor", -1.0),
            ("em_floor", 1.0),
            ("em_burn_in", -2),
            ("em_pooling", 5.0),
            ("logging_epochs", -1),
            ("logging_lr", -3.0),
            ("logging_fraction", 0.2),
            ("queries_per_user", 3),
        ],
    )
    def test_rejects_bad_em_and_logging_knobs(self, field, value):
        # The EM knobs, the logging policy's settings and the query pool
        # size are constants, so a config naming one is rejected.
        with pytest.raises(TypeError, match=field):
            FederationConfig(**{field: value})

    @pytest.mark.parametrize("value", [2.5, True, 0])
    @pytest.mark.parametrize(
        "field",
        ["num_users", "users_per_round", "k", "m", "rounds"],
    )
    def test_rejects_non_integer_counts(self, field, value):
        # Each count is checked here only: the code that reads it relies on
        # an integer of at least 1.
        message = rf"^federation\.{field} must be an integer >= \d, got "
        with pytest.raises(ValueError, match=message):
            FederationConfig(**{field: value})


class TestInitState:
    def test_population_setup(self, small_split):
        train, test = small_split
        cfg = _small_cfg()
        state = init_state(cfg, train, test)
        assert len(state.users) == cfg.num_users
        for user in state.users:
            assert len(user.query_pool) == federation.QUERIES_PER_USER
            assert set(user.query_pool) <= set(range(train.n_queries))
        np.testing.assert_array_equal(state.model.weights, np.zeros(train.feature_dim))

    def test_pools_and_records_address_training_rows(self, tmp_path):
        # Qids 30, 10 and 20 are neither the training set's rows nor in row
        # order; the queries hold 2, 3 and 4 documents, all shown at k = 5.
        lines = [
            f"{doc % 3} qid:{qid} 1:{0.1 * doc} 2:{0.01 * qid}"
            for qid, n_docs in ((30, 2), (10, 3), (20, 4))
            for doc in range(n_docs)
        ]
        path = tmp_path / "corpus.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        train = load_svmlight(str(path))
        cfg = _small_cfg(num_users=6, users_per_round=6, k=5)
        state = init_state(cfg, train, train)
        for user in state.users:
            assert set(user.query_pool) <= set(range(train.n_queries))
            records = collect_round_clicks(
                user, state.examination[user.id], state.displays, cfg.m, 20
            )
            for record in records:
                assert record.row in user.query_pool
                n_docs = train.queries[record.row].n_docs
                assert record.clicks.size == state.displays.lengths[record.row] == n_docs
                assert sorted(state.displays.docs[record.row, :n_docs]) == list(range(n_docs))

    def test_em_state_only_in_estimated_mode(self, small_split):
        train, test = small_split
        assert init_state(_small_cfg(), train, test).em is None
        assert init_state(_small_cfg(mode="fedavg"), train, test).em is None
        est = init_state(
            _small_cfg(mode="fedips", propensity_mode="estimated"), train, test
        )
        assert est.em is not None
        assert est.em.theta.shape == (8, 3)

    def test_em_tables_are_as_wide_as_the_display(self, small_split):
        # With k above the longest training query, even far above it, the
        # display decides the one width of every (user x position) table,
        # and the run equals the run at k equal to that width.
        train, test = small_split
        width = int(train.lengths.max())
        traces = []
        for k in (width + 7, 4000, width):
            cfg = _small_cfg(k=k, propensity_mode="estimated")
            state = init_state(cfg, train, test)
            assert state.displays.docs.shape[1] == width
            assert state.em.theta.shape == state.examination.shape
            trace = []
            for _ in range(3):
                state, metrics = run_round(state, cfg)
                trace.append(metrics)
            traces.append(trace)
        assert traces[0] == traces[1] == traces[2]

    def test_examination_table_holds_each_users_curve(self, small_split):
        train, test = small_split
        state = init_state(_small_cfg(), train, test)
        assert state.examination.shape == (8, state.displays.docs.shape[1])
        for user in state.users:
            np.testing.assert_array_equal(
                state.examination[user.id],
                examination_prob(np.arange(1, state.displays.docs.shape[1] + 1), user.gamma_s),
            )

    def test_population_too_large_to_tabulate_fails_before_any_user(
        self, small_split, monkeypatch
    ):
        # 2**62 users can never be tabulated; building them one by one first
        # would loop for ever, so a user built at all fails the test.
        def no_user(*args):
            raise AssertionError("init_state built a user before allocating its tables")

        monkeypatch.setattr(federation, "sample_user_bias", no_user)
        train, test = small_split
        with pytest.raises(ValueError, match="too big"):
            init_state(_small_cfg(num_users=2**62), train, test)

    def test_user_biases_vary_but_seed_fixes_them(self, small_split):
        train, test = small_split
        a = init_state(_small_cfg(), train, test)
        b = init_state(_small_cfg(), train, test)
        biases = [u.gamma_s for u in a.users]
        assert len(set(biases)) > 1
        assert biases == [u.gamma_s for u in b.users]


class TestRunRound:
    def test_round_is_deterministic(self, small_split):
        train, test = small_split
        cfg = _small_cfg()
        traces = []
        for _ in range(2):
            state = init_state(cfg, train, test)
            state, metrics = run_round(state, cfg)
            traces.append((state.model.weights, metrics))
        np.testing.assert_array_equal(traces[0][0], traces[1][0])
        assert traces[0][1] == traces[1][1]

    def test_full_participation_when_round_covers_population(self, small_split):
        train, test = small_split
        cfg = _small_cfg(
            num_users=6, users_per_round=6, mode="fedips", propensity_mode="estimated"
        )
        state = init_state(cfg, train, test)
        state, _ = run_round(state, cfg)
        # Every user contributed records, so the estimator tracked them all.
        assert np.all(state.em.impression_count[:, 0] > 0)

    def test_single_client_unit_rate_matches_manual_path(self, small_split):
        # With one user, eta_global=1, the server model after a round equals
        # the local weights that client_opt produces on the same records.
        train, test = small_split
        cfg = _small_cfg(num_users=1, users_per_round=1, eta_global=1.0)
        state = init_state(cfg, train, test)
        shadow = init_state(cfg, train, test)
        state, _ = run_round(state, cfg)

        user = shadow.users[0]
        cap = federation.MAX_IMPRESSIONS_FACTOR * cfg.m
        records = collect_round_clicks(
            user, shadow.examination[0], shadow.displays, cfg.m, cap
        )
        clicks = round_clicks(round_impressions([0], [records], shadow.displays), shadow.examination)
        delta = client_opt(
            shadow.model, shadow.train, clicks, cfg.eta_local, [user.rng_stream]
        )[0]
        np.testing.assert_array_equal(state.model.weights, shadow.model.weights + delta)

    def test_zero_bias_makes_modes_identical(self, small_split):
        # gamma=0 with no spread means every propensity is exactly 1, so the
        # IPS-weighted and unweighted updates coincide bit for bit.
        train, test = small_split
        weights = {}
        for mode in ("fedips", "fedavg"):
            cfg = _small_cfg(gamma=0.0, gamma_sigma=0.0, mode=mode, rounds=2)
            trace = run_experiment(cfg, train, test)
            state = init_state(cfg, train, test)
            for _ in range(cfg.rounds):
                state, _ = run_round(state, cfg)
            weights[mode] = state.model.weights
            assert len(trace) == cfg.rounds
        np.testing.assert_array_equal(weights["fedips"], weights["fedavg"])


    def test_fedavg_weights_every_click_one(self, small_split, monkeypatch):
        train, test = small_split
        cfg = _small_cfg(mode="fedavg")
        _, _, weights = _round_weights(init_state(cfg, train, test), cfg, monkeypatch)
        assert weights.size > 0
        np.testing.assert_array_equal(weights, 1.0)

    def test_known_weights_are_each_users_examination(self, small_split, monkeypatch):
        train, test = small_split
        cfg = _small_cfg()
        state = init_state(cfg, train, test)
        users, positions, weights = _round_weights(state, cfg, monkeypatch)
        assert np.any(positions > 1)
        expected = [
            examination_prob(pos, state.users[uid].gamma_s) for uid, pos in zip(users, positions)
        ]
        np.testing.assert_allclose(weights, expected, rtol=1e-12, atol=0)

    def test_estimated_weights_are_the_pre_round_estimates(self, small_split, monkeypatch):
        train, test = small_split
        cfg = _small_cfg(propensity_mode="estimated", rounds=3)
        state = init_state(cfg, train, test)
        for _ in range(2):
            state, _ = run_round(state, cfg)
        before = copy.deepcopy(state.em)
        users, positions, weights = _round_weights(state, cfg, monkeypatch)
        # Some clicking users were seen in earlier rounds, so the estimates
        # are not the unseen clients' ones, and this round moved them.
        assert np.any(weights != 1.0)
        assert not np.array_equal(state.em.theta, before.theta)
        np.testing.assert_array_equal(weights, estimated_propensity(before, users, positions))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_diverging_round_names_round_and_client(self, small_split):
        train, test = small_split
        cfg = _small_cfg(eta_local=1e308)
        state = init_state(cfg, train, test)
        with pytest.raises(ValueError, match=r"round 1: client \d+ produced a non-finite"):
            run_round(state, cfg)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_server_step_names_round(self, small_split):
        # Every client delta is finite; eta_global times their mean is not.
        train, test = small_split
        cfg = _small_cfg(eta_local=1e300, eta_global=1e300)
        state = init_state(cfg, train, test)
        with pytest.raises(ValueError, match=r"^round 1: server step: weights must be finite$"):
            run_round(state, cfg)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_em_relevance_model_names_round(self, small_split, monkeypatch):
        train, test = small_split
        cfg = _small_cfg(propensity_mode="estimated")
        state = init_state(cfg, train, test)
        monkeypatch.setattr("fedltr.propensity.FIT_LR", 1e308)
        with pytest.raises(ValueError, match=r"^round 1: EM round: weights must be finite$"):
            run_round(state, cfg)


class TestRunExperiment:
    def test_single_round_trace(self, small_split):
        train, test = small_split
        trace = run_experiment(_small_cfg(rounds=1), train, test)
        assert len(trace) == 1
        assert trace[0].round_index == 1
        assert 0.0 <= trace[0].ndcg5 <= 1.0

    def test_round_indices_strictly_increase(self, small_split):
        train, test = small_split
        trace = run_experiment(_small_cfg(rounds=4), train, test)
        indices = [m.round_index for m in trace]
        assert indices == [1, 2, 3, 4]
        clicks = [m.total_clicks for m in trace]
        assert all(a <= b for a, b in zip(clicks, clicks[1:]))

    def test_same_seed_identical_traces(self, small_split):
        train, test = small_split
        cfg = _small_cfg(rounds=3)
        assert run_experiment(cfg, train, test) == run_experiment(cfg, train, test)


class TestFinalNdcg:
    def test_mean_of_trailing_evaluated_rounds(self):
        # Rounds 3-12 are the last FINAL_ROUNDS = 10; a shorter run averages all.
        trace = [RoundMetrics(i, float(i), 0.0, i) for i in range(1, 13)]
        assert federation.FINAL_ROUNDS == 10
        assert final_ndcg(trace) == 7.5
        assert final_ndcg(trace[:5]) == 3.0

    def test_errors_without_evaluations(self):
        with pytest.raises(ValueError, match="no rounds"):
            final_ndcg([])
