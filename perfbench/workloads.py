"""Workload definitions and one timed simulation run, through fedltr's
public API: `cli.parse_spec`, `cli.load_experiment_data`,
`federation.init_state`, `federation.run_round` and `federation.final_ndcg`.

Every call into fedltr goes through a module attribute (`federation.run_round`,
not a name bound at import), so the per-layer tracer in `layers.py` sees it.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import NormalDist
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Benchmark the sources of this checkout, never an installed copy.
if not (SRC / "fedltr" / "__init__.py").is_file():
    raise ImportError(f"fedltr sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from fedltr import cli, federation  # noqa: E402
from fedltr.dataset import Dataset, Query, generate_synthetic, write_svmlight  # noqa: E402
from fedltr.propensity import estimated_propensity  # noqa: E402

# The standard federation of the project's roadmap.
STANDARD = dict(num_users=200, users_per_round=50, k=5, m=10)

# The bench corpus of `known` and `em`: 500 queries x 20 docs x 50 features.
BENCH_CORPUS = dict(queries=500, docs_per_query=20, feature_dim=50)

# The ragged corpus: 500 queries whose lengths are the quantiles of a
# log-normal with a median of 27 docs, clipped to 5..200, so padding every
# query to the longest one would cost about five times the real work. The
# seed only permutes the lengths, so every seed loads the same number of
# documents.
RAGGED_QUERIES = 500
RAGGED_FEATURES = 50
RAGGED_MEDIAN_DOCS = 27
RAGGED_LOG_SD = 0.9
RAGGED_MIN_DOCS, RAGGED_MAX_DOCS = 5, 200


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    propensity_mode: str
    gamma: float
    ragged: bool


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("known", "fedips", "known", 1.0, ragged=False),
        Workload("em", "fedips", "estimated", 1.0, ragged=False),
        Workload("ragged", "fedavg", "known", 2.0, ragged=True),
    )
}


@dataclass(frozen=True)
class Seeds:
    corpus: int
    master: int


def derive_seeds(seed: int) -> Seeds:
    """The corpus seed and the run's master seed, both fixed by `seed`."""
    corpus, master = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint32)
    return Seeds(corpus=int(corpus), master=int(master))


def ragged_lengths() -> np.ndarray:
    """Documents per query of the ragged corpus, shortest first."""
    normal = NormalDist(np.log(RAGGED_MEDIAN_DOCS), RAGGED_LOG_SD)
    quantiles = [normal.inv_cdf((i + 0.5) / RAGGED_QUERIES) for i in range(RAGGED_QUERIES)]
    return np.clip(np.rint(np.exp(quantiles)), RAGGED_MIN_DOCS, RAGGED_MAX_DOCS).astype(int)


def write_ragged_corpus(path: Path, seed: int) -> None:
    """Write the ragged SVMLight corpus for `seed`.

    Each query keeps the first n documents of a 200-document synthetic
    query, with the lengths dealt out in a seeded random order.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    lengths = rng.permutation(ragged_lengths())
    full = generate_synthetic(RAGGED_QUERIES, RAGGED_MAX_DOCS, RAGGED_FEATURES, seed=seed)
    queries = tuple(
        Query(qid=q.qid, features=q.features[:n], labels=q.labels[:n])
        for q, n in zip(full.queries, lengths)
    )
    write_svmlight(Dataset(queries=queries, feature_dim=full.feature_dim), str(path))


def build_spec(workload: Workload, seed: int, corpus_path: Path | None, rounds: int):
    """The parsed experiment spec of one workload run, as `fedltr run`
    would resolve it from flags."""
    if workload.ragged and corpus_path is None:
        raise ValueError("the ragged workload needs its corpus file")
    seeds = derive_seeds(seed)
    overrides = dict(
        STANDARD,
        mode=workload.mode,
        propensity_mode=workload.propensity_mode,
        gamma=workload.gamma,
        rounds=rounds,
        master_seed=seeds.master,
        dataset_path=str(corpus_path) if workload.ragged else None,
    )
    spec = cli.parse_spec(None, overrides)
    return replace(spec, synthetic={**spec.synthetic, **BENCH_CORPUS, "seed": seeds.corpus})


@dataclass(frozen=True)
class RunResult:
    """What one run produced and how long its parts took."""

    setup_s: float
    run_s: float
    round_s: tuple[float, ...]
    total_clicks: int
    capped_clients: int
    final_ndcg5: float
    weights_finite: bool
    digest: str


def weight_digest(weights: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(weights, dtype=np.float64).tobytes()).hexdigest()


def one_run(spec) -> tuple[RunResult, "federation.ExperimentState"]:
    """Set up and run one experiment of `spec`'s single sweep point.

    Set-up covers loading and preparing the corpus plus `init_state`; the
    run covers every `run_round` call. The seed is derived as `fedltr run`
    derives it for the first repeat of the first sweep point.
    """
    cfg = replace(
        spec.federation, mode=spec.modes[0], seed=cli.derive_seed(spec.master_seed, 0, 0)
    )
    t0 = perf_counter()
    train, test = cli.load_experiment_data(spec)
    state = federation.init_state(cfg, train, test)
    t1 = perf_counter()
    trace = []
    round_s = []
    for _ in range(cfg.rounds):
        r0 = perf_counter()
        state, metrics = federation.run_round(state, cfg)
        round_s.append(perf_counter() - r0)
        trace.append(metrics)
    t2 = perf_counter()
    result = RunResult(
        setup_s=t1 - t0,
        run_s=t2 - t1,
        round_s=tuple(round_s),
        total_clicks=int(state.total_clicks),
        capped_clients=sum(int(u.capped_rounds) for u in state.users),
        final_ndcg5=federation.final_ndcg(trace),
        weights_finite=bool(np.all(np.isfinite(state.model.weights))),
        digest=weight_digest(state.model.weights),
    )
    return result, state


def run_problems(result: RunResult, reference: RunResult | None) -> list[str]:
    """Why a run fails the correctness gate; empty when it passes.

    `reference` is an earlier run of the same workload and seed, which the
    simulator must reproduce bit for bit.
    """
    problems = []
    if not result.weights_finite:
        problems.append("final weights are not finite")
    if not 0.0 < result.final_ndcg5 <= 1.0:
        problems.append(f"final_ndcg5 {result.final_ndcg5!r} is outside (0, 1]")
    if reference is not None:
        if result.digest != reference.digest:
            problems.append("final weight digest differs from an earlier run of the same seed")
        if result.final_ndcg5 != reference.final_ndcg5:
            problems.append("final_ndcg5 differs from an earlier run of the same seed")
        if result.total_clicks != reference.total_clicks:
            problems.append("total clicks differ from an earlier run of the same seed")
        if result.capped_clients != reference.capped_clients:
            problems.append("capped clients differ from an earlier run of the same seed")
    return problems


def propensity_mae(state, users) -> float:
    """Mean absolute error of the served propensity estimates against each
    user's true examination curve (1/pos)^gamma_s, over positions 1..k."""
    errors = [
        abs(estimated_propensity(state.em, user.id, pos) - (1.0 / pos) ** user.gamma_s)
        for user in users
        for pos in range(1, state.config.k + 1)
    ]
    return float(np.mean(errors))
