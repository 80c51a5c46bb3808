"""End-to-end acceptance checks for the simulation framework.

Each test prints exactly one PASS/FAIL line (with capture suspended, so
it reaches the real stdout) and then asserts. Federated runs are cached
by their full config so later criteria reuse earlier runs.
"""

import time
from pathlib import Path

import numpy as np

from fedltr.baseline import train_lambda_linear
from fedltr.cli import main
from fedltr.dataset import filter_uniform_queries, generate_synthetic, normalize_query_level
from fedltr.federation import (
    FederationConfig,
    final_ndcg,
    init_state,
    run_experiment,
    run_round,
)
from fedltr.metrics import IDENTITY, full_info_metric, ips_click_metric, mean_ndcg
from fedltr.objective import click_gradient, hinge_sum, rank_upper_bound
from fedltr.ranker import LinearRanker, rank

_RUN_CACHE = {}


def _trace(cfg, train, test):
    if cfg not in _RUN_CACHE:
        _RUN_CACHE[cfg] = run_experiment(cfg, train, test)
    return _RUN_CACHE[cfg]


def _report(capsys, criterion, passed, detail):
    line = f"ACCEPTANCE {criterion:02d}: {'PASS' if passed else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    assert passed, line


# Tuned settings: IPS-weighted training wants small local steps (every click
# gradient is amplified by 1/p), plain averaging tolerates much larger ones.
def _fedips_cfg(**kwargs):
    base = dict(
        eta_local=1e-5, eta_global=0.05, mode="fedips", propensity_mode="known",
        rounds=100,
    )
    base.update(kwargs)
    return FederationConfig(**base)


def _fedavg_cfg(**kwargs):
    base = dict(eta_local=1e-3, eta_global=1.0, mode="fedavg", rounds=100)
    base.update(kwargs)
    return FederationConfig(**base)


SEEDS = (1, 2, 3, 4, 5)
# Criterion 07's own seeds. Like SEEDS, a module constant, so a margin
# survey can swap in other seed sets without editing a test.
CRITERION_07_SEEDS = (1, 2, 3)


def test_criterion_01_ips_estimate_is_unbiased(capsys):
    # Pure position-model sessions (click = examined and relevant, every
    # candidate displayed): the per-session IPS values must average to the
    # full-information metric, per query and in aggregate.
    start = time.perf_counter()
    data = normalize_query_level(
        filter_uniform_queries(generate_synthetic(20, 20, 10, seed=21))
    )
    rng = np.random.default_rng(42)
    evaluated = LinearRanker(rng.normal(size=10))
    logging = LinearRanker(rng.normal(size=10))
    sessions = 100_000

    mc_means, truths = [], []
    worst_query_err = 0.0
    bridge_ok = True
    for query in data.queries:
        f0_order = np.argsort(rank(logging, query))
        n = query.n_docs
        props = 1.0 / np.arange(1, n + 1, dtype=np.float64)
        relevant = np.asarray(query.labels)[f0_order] >= 3
        click_p = props * relevant
        ev_positions = rank(evaluated, query).astype(np.float64)
        weights_vec = ev_positions[f0_order] / props

        clicks = rng.random((sessions, n)) < click_p
        values = clicks @ weights_vec
        for s in range(5):
            mask = clicks[s]
            via_op = ips_click_metric(
                evaluated, query, f0_order[mask], props[mask], IDENTITY
            )
            bridge_ok = bridge_ok and abs(via_op - values[s]) <= 1e-9

        mc = float(values.mean())
        truth = full_info_metric(evaluated, query, IDENTITY)
        mc_means.append(mc)
        truths.append(truth)
        if truth > 0:
            worst_query_err = max(worst_query_err, abs(mc - truth) / truth)
        else:
            bridge_ok = bridge_ok and mc == 0.0

    agg_err = abs(sum(mc_means) - sum(truths)) / sum(truths)
    elapsed = time.perf_counter() - start
    passed = bridge_ok and agg_err < 0.02 and worst_query_err < 0.02 and elapsed < 60.0
    _report(
        capsys,
        1,
        passed,
        f"aggregate rel err {agg_err:.4%}, worst query {worst_query_err:.4%}, "
        f"{len(data.queries)} queries x {sessions} sessions, {elapsed:.1f}s",
    )


def test_criterion_02_rank_bound_dominates_true_rank(capsys):
    rng = np.random.default_rng(2)
    violations = 0
    instances = 10_000
    from fedltr.dataset import Query

    for _ in range(instances):
        n = int(rng.integers(2, 13))
        dim = int(rng.integers(2, 7))
        features = rng.normal(size=(n, dim)) * rng.uniform(0.1, 5.0)
        if rng.random() < 0.2:
            features[1] = features[0]  # exercise ties
        query = Query(qid=1, features=features, labels=np.zeros(n, dtype=np.int64))
        model = LinearRanker(rng.normal(size=dim))
        positions = rank(model, query)
        for d in range(n):
            if rank_upper_bound(model, query, d) < positions[d]:
                violations += 1
    _report(capsys, 2, violations == 0, f"{violations} violations in {instances} instances")


def test_criterion_03_gradient_matches_finite_differences(capsys):
    rng = np.random.default_rng(3)
    delta = 1e-6
    max_err = 0.0
    instances = 1000
    from fedltr.dataset import Query

    for _ in range(instances):
        features = rng.normal(size=(6, 4))
        query = Query(qid=1, features=features, labels=np.zeros(6, dtype=np.int64))
        d = int(rng.integers(6))
        # Keep every pair a safe distance from the hinge kink so the
        # finite-difference window never crosses it.
        for _ in range(100):
            w = rng.normal(size=4)
            scores = features @ w
            gaps = np.abs(1.0 - (scores[d] - scores))
            gaps[d] = np.inf
            if np.min(gaps) >= 1e-3:
                break
        p = float(rng.uniform(0.1, 1.0))
        grad = click_gradient(LinearRanker(w), query, d, p)
        fd = np.zeros(4)
        for i in range(4):
            hi, lo = w.copy(), w.copy()
            hi[i] += delta
            lo[i] -= delta
            fd[i] = (
                hinge_sum(LinearRanker(hi), query, d)
                - hinge_sum(LinearRanker(lo), query, d)
            ) / (2.0 * delta * p)
        err = float(np.linalg.norm(grad - fd)) / max(float(np.linalg.norm(fd)), 1e-12)
        max_err = max(max_err, err)
    _report(capsys, 3, max_err < 1e-5, f"max rel err {max_err:.2e} over {instances} instances")


def test_criterion_04_weighted_training_beats_unweighted(capsys, bench):
    start = time.perf_counter()
    train, test = bench
    gaps = []
    wins = 0
    for seed in SEEDS:
        ips = final_ndcg(_trace(_fedips_cfg(seed=seed), train, test))
        avg = final_ndcg(_trace(_fedavg_cfg(seed=seed), train, test))
        gaps.append(ips - avg)
        wins += ips > avg
    mean_gap = float(np.mean(gaps))
    elapsed = time.perf_counter() - start
    passed = wins >= 4 and mean_gap > 0.01 and elapsed < 300.0
    _report(
        capsys,
        4,
        passed,
        f"wins {wins}/5, mean final gap {mean_gap:+.4f}, {elapsed:.0f}s",
    )


def test_criterion_05_bias_strength_sweep(capsys, bench):
    start = time.perf_counter()
    train, test = bench
    gammas = (0.5, 1.0, 1.5, 2.0)
    means = {}
    for mode_cfg, name in ((_fedips_cfg, "fedips"), (_fedavg_cfg, "fedavg")):
        means[name] = [
            float(
                np.mean(
                    [
                        final_ndcg(_trace(mode_cfg(gamma=g, seed=s), train, test))
                        for s in SEEDS
                    ]
                )
            )
            for g in gammas
        ]
    avg = means["fedavg"]
    ips = means["fedips"]
    nonincreasing = all(b <= a + 1e-9 for a, b in zip(avg, avg[1:]))
    avg_drop = avg[0] - avg[-1]
    ips_drop = ips[0] - ips[-1]
    elapsed = time.perf_counter() - start
    passed = nonincreasing and avg_drop >= 2.0 * ips_drop and elapsed < 900.0
    _report(
        capsys,
        5,
        passed,
        f"fedavg means {['%.4f' % v for v in avg]} (drop {avg_drop:+.4f}), "
        f"fedips drop {ips_drop:+.4f}, {elapsed:.0f}s",
    )


def test_criterion_06_no_bias_trajectories_coincide(capsys, bench):
    train, test = bench
    trajectories = {}
    for mode in ("fedips", "fedavg"):
        cfg = FederationConfig(
            gamma=0.0, gamma_sigma=0.0, mode=mode, rounds=10, seed=0,
            eta_local=1e-4, eta_global=0.5,
        )
        state = init_state(cfg, train, test)
        weights = []
        for _ in range(cfg.rounds):
            state, _ = run_round(state, cfg)
            weights.append(state.model.weights.copy())
        trajectories[mode] = weights
    identical = all(
        np.array_equal(a, b)
        for a, b in zip(trajectories["fedips"], trajectories["fedavg"])
    )
    _report(capsys, 6, identical, "weight trajectories bit-identical over 10 rounds")


def test_criterion_07_participation_width(capsys, bench):
    train, test = bench
    diff_var = {}
    finals = {}
    for upr in (10, 50, 200):
        variances, values = [], []
        for seed in CRITERION_07_SEEDS:
            trace = _trace(_fedips_cfg(users_per_round=upr, seed=seed), train, test)
            series = np.array([m.ndcg5 for m in trace])
            variances.append(float(np.var(np.diff(series[50:]), ddof=1)))
            values.append(final_ndcg(trace))
        diff_var[upr] = float(np.mean(variances))
        finals[upr] = float(np.mean(values))
    final_gap = abs(finals[50] - finals[200])
    passed = diff_var[10] > diff_var[200] and final_gap <= 0.02
    _report(
        capsys,
        7,
        passed,
        f"round-to-round var {diff_var[10]:.2e}@10 vs {diff_var[200]:.2e}@200, "
        f"|final50-final200| = {final_gap:.4f}",
    )


def test_criterion_08_estimated_propensities_close_the_gap(capsys, bench):
    train, test = bench
    satisfied = 0
    min_mono = 1.0
    for seed in SEEDS:
        avg = final_ndcg(
            _trace(
                FederationConfig(
                    eta_local=1e-4, eta_global=1.0, mode="fedavg", rounds=200, seed=seed
                ),
                train,
                test,
            )
        )
        known = final_ndcg(
            _trace(
                FederationConfig(
                    eta_local=1e-4, eta_global=0.5, mode="fedips",
                    propensity_mode="known", rounds=200, seed=seed,
                ),
                train,
                test,
            )
        )
        cfg = FederationConfig(
            eta_local=1e-4, eta_global=0.5, mode="fedips",
            propensity_mode="estimated", rounds=200, seed=seed,
        )
        state = init_state(cfg, train, test)
        trace = []
        for _ in range(cfg.rounds):
            state, metrics = run_round(state, cfg)
            trace.append(metrics)
        estimated = final_ndcg(trace)
        if estimated > avg and estimated < known + 0.005:
            satisfied += 1
        mono = sum(
            bool(np.all(np.diff(theta) < 0)) for theta in state.em.theta
        )
        min_mono = min(min_mono, mono / cfg.num_users)
    passed = satisfied >= 3 and min_mono >= 0.9
    _report(
        capsys,
        8,
        passed,
        f"between-the-arms on {satisfied}/5 seeds, min monotone-theta fraction "
        f"{min_mono:.3f}",
    )


def test_criterion_09_reruns_are_byte_identical(capsys, tmp_path):
    # tools/identity.py runs the same spec file.
    spec_path = Path(__file__).with_name("criterion_09_spec.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["run", "--config", str(spec_path), "--out", str(out_a)])
    code_b = main(["run", "--config", str(spec_path), "--out", str(out_b)])
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    identical = (
        code_a == 0
        and code_b == 0
        and names_a == names_b
        and all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names_a)
    )
    _report(capsys, 9, identical, f"{len(names_a)} output files byte-identical across reruns")


def test_criterion_10_full_information_baseline_bounds(capsys, bench):
    train, test = bench
    model = train_lambda_linear(train, seed=0)
    lam = mean_ndcg(model, test, 5)
    fedips = float(
        np.mean([final_ndcg(_trace(_fedips_cfg(seed=s), train, test)) for s in SEEDS])
    )
    passed = lam >= fedips - 0.02
    _report(
        capsys,
        10,
        passed,
        f"full-information baseline {lam:.4f} vs federated final {fedips:.4f}",
    )
