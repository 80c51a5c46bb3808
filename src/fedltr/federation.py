"""Federated round loop: client sampling, broadcast, local propensity-
weighted SGD, delta aggregation, and the server update."""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from .clicksim import (
    Displays,
    UserState,
    collect_round_clicks,
    display_top_k,
    sample_user_bias,
    train_logging_policy,
)
from .dataset import Dataset, PackedQueries
from .metrics import mean_ndcg
from .objective import Clicks, click_gradients, client_loss, round_clicks
from .propensity import EmEstimatorState, estimated_propensity, federated_em_round
from .ranker import LinearRanker

MODES = ("fedips", "fedavg")
PROPENSITY_MODES = ("known", "estimated")
# Configuration fields that count something and so must be integers.
_COUNTS = (
    "num_users", "users_per_round", "queries_per_user", "k", "m", "rounds",
    "eval_every", "max_impressions_factor", "logging_epochs",
)


@dataclass(frozen=True)
class FederationConfig:
    """All knobs of one federated training run.

    `mode` selects propensity weighting ("fedips") or plain averaging of
    unweighted updates ("fedavg"); `propensity_mode` selects the oracle
    propensities logged with each impression or the federated EM estimate.
    """

    num_users: int = 200
    users_per_round: int = 50
    queries_per_user: int = 5
    k: int = 5
    m: int = 10
    gamma: float = 1.0
    gamma_sigma: float = 0.1
    eta_local: float = 1e-4
    eta_global: float = 0.5
    rounds: int = 100
    mode: str = "fedips"
    propensity_mode: str = "known"
    seed: int = 0
    eval_every: int = 1
    max_impressions_factor: int = 50
    logging_fraction: float = 0.01
    logging_epochs: int = 30
    logging_lr: float = 0.1

    def __post_init__(self) -> None:
        for name in _COUNTS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.num_users < 1 or self.users_per_round < 1:
            raise ValueError("user counts must be >= 1")
        if self.users_per_round > self.num_users:
            raise ValueError("users_per_round must not exceed num_users")
        if self.queries_per_user < 1:
            raise ValueError("queries_per_user must be >= 1")
        if self.k < 1 or self.m < 1:
            raise ValueError("k and m must be >= 1")
        if self.gamma < 0 or self.gamma_sigma < 0:
            raise ValueError("gamma and gamma_sigma must be >= 0")
        if self.eta_local <= 0 or self.eta_global <= 0:
            raise ValueError("learning rates must be positive")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.propensity_mode not in PROPENSITY_MODES:
            raise ValueError(f"propensity_mode must be one of {PROPENSITY_MODES}")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.max_impressions_factor < 1:
            raise ValueError("max_impressions_factor must be >= 1")
        if not 0.0 < self.logging_fraction <= 1.0:
            raise ValueError("logging_fraction must be in (0, 1]")
        if self.logging_epochs < 0:
            raise ValueError("logging_epochs must be >= 0")
        if self.logging_lr <= 0:
            raise ValueError("logging_lr must be positive")


@dataclass(frozen=True)
class RoundMetrics:
    """Per-round trace entry. ndcg5 is None on rounds the evaluation
    cadence skips; total_clicks is cumulative over the run."""

    round_index: int
    ndcg5: Optional[float]
    mean_client_loss: float
    total_clicks: int


@dataclass
class ExperimentState:
    """Mutable state of a running experiment between rounds."""

    config: FederationConfig
    model: LinearRanker
    users: list
    displays: Displays
    train: Dataset
    test: Dataset
    em: Optional[EmEstimatorState]
    rounds_done: int = 0
    total_clicks: int = 0


def client_opt(
    w_t: LinearRanker,
    corpus: PackedQueries,
    clicks: Clicks,
    eta_local: float,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Every client's local SGD pass from the broadcast weights; returns
    the clients' weight deltas, one row per client.

    Client i visits its clicks once each, in an order shuffled from its own
    stream rngs[i] (drawn only when it has clicks), stepping against each
    click's subgradient at its current local weights. No clicks means a
    zero delta. Clients are independent within a round, so they run in
    lockstep: step t of every client that has a t-th click is one batched
    step, with the same result as running the clients one by one.
    """
    counts = np.bincount(clicks.client, minlength=clicks.n_clients)
    first = np.cumsum(counts) - counts
    schedule = np.zeros((clicks.n_clients, counts.max(initial=0)), dtype=np.int64)
    for i, rng in enumerate(rngs):
        if counts[i]:
            schedule[i, : counts[i]] = first[i] + rng.permutation(counts[i])
    weights = np.tile(w_t.weights, (clicks.n_clients, 1))
    for t in range(schedule.shape[1]):
        stepping = np.flatnonzero(counts > t)
        step = schedule[stepping, t]
        weights[stepping] -= eta_local * click_gradients(
            corpus, clicks.row[step], clicks.doc[step], weights[stepping], clicks.propensity[step]
        )
    return weights - w_t.weights


def server_opt(w_t: LinearRanker, deltas: np.ndarray, eta_global: float) -> LinearRanker:
    """Server step: add eta_global times the mean client delta.

    Rows of `deltas` are in ascending client-id order; the mean is
    accumulated in that order so results do not depend on scheduling.
    """
    if len(deltas) == 0:
        raise ValueError("deltas must be nonempty")
    return LinearRanker(w_t.weights + eta_global * deltas.mean(axis=0))


def init_state(
    cfg: FederationConfig, train: Dataset, test: Dataset
) -> ExperimentState:
    """Set up an experiment: train the logging policy, create the user
    population with sampled per-user bias and fixed query pools, and start
    from zero weights."""
    policy = train_logging_policy(
        train, cfg.logging_fraction, cfg.seed, cfg.logging_epochs, cfg.logging_lr
    )
    qids = [q.qid for q in train.queries]
    users = []
    for uid in range(cfg.num_users):
        stream = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1, uid)))
        gamma_s = sample_user_bias(cfg.gamma, cfg.gamma_sigma, stream)
        pool = tuple(
            qids[int(i)] for i in stream.integers(len(qids), size=cfg.queries_per_user)
        )
        users.append(UserState(id=uid, gamma_s=gamma_s, query_pool=pool, rng_stream=stream))
    em = None
    if cfg.mode == "fedips" and cfg.propensity_mode == "estimated":
        em = EmEstimatorState(
            relevance_model=LinearRanker.zeros(train.feature_dim),
            k=cfg.k,
            num_users=cfg.num_users,
        )
    return ExperimentState(
        config=cfg,
        model=LinearRanker.zeros(train.feature_dim),
        users=users,
        displays=display_top_k(policy, train, cfg.k),
        train=train,
        test=test,
        em=em,
    )


def run_round(state: ExperimentState, cfg: FederationConfig) -> tuple[ExperimentState, RoundMetrics]:
    """One federated round: sample clients, collect their clicks, run
    local optimization at the broadcast weights, aggregate, then update
    the propensity estimator (estimated mode) and evaluate if due."""
    round_number = state.rounds_done + 1
    round_rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(2, state.rounds_done))
    )
    sampled = np.sort(
        round_rng.choice(cfg.num_users, size=cfg.users_per_round, replace=False)
    )
    records = [
        collect_round_clicks(
            state.users[uid],
            state.displays,
            cfg.m,
            cfg.max_impressions_factor * cfg.m,
            state.users[uid].rng_stream,
        )
        for uid in sampled
    ]
    clicks = round_clicks(records, state.displays.rows)
    if cfg.mode == "fedavg":
        clicks = replace(clicks, propensity=np.ones(clicks.row.size))
    elif state.em is not None:
        clicks = replace(
            clicks,
            propensity=estimated_propensity(state.em, sampled[clicks.client], clicks.position),
        )

    corpus = state.train.packed
    losses = client_loss(state.model, corpus, clicks)
    deltas = client_opt(
        state.model, corpus, clicks, cfg.eta_local, [state.users[uid].rng_stream for uid in sampled]
    )
    diverged = ~np.all(np.isfinite(deltas), axis=1)
    if np.any(diverged):
        raise ValueError(
            f"round {round_number}: client {sampled[np.argmax(diverged)]} "
            "produced a non-finite weight delta"
        )
    new_model = server_opt(state.model, deltas, cfg.eta_global)

    if state.em is not None:
        queries = state.train.queries
        rows = state.displays.rows
        state.em = federated_em_round(
            state.em,
            {
                int(uid): [(record, queries[rows[record.query_id]]) for record in client]
                for uid, client in zip(sampled, records)
            },
        )

    state.model = new_model
    state.rounds_done = round_number
    state.total_clicks += clicks.row.size

    evaluate = round_number % cfg.eval_every == 0 or round_number == cfg.rounds
    ndcg5 = mean_ndcg(new_model, state.test, 5) if evaluate else None
    metrics = RoundMetrics(
        round_index=round_number,
        ndcg5=ndcg5,
        mean_client_loss=float(np.mean(losses)),
        total_clicks=state.total_clicks,
    )
    return state, metrics


def run_experiment(
    cfg: FederationConfig, train: Dataset, test: Dataset
) -> list[RoundMetrics]:
    """Run a full experiment and return its round-by-round trace."""
    state = init_state(cfg, train, test)
    trace = []
    for _ in range(cfg.rounds):
        state, metrics = run_round(state, cfg)
        trace.append(metrics)
    return trace


def final_ndcg(trace: Sequence[RoundMetrics], tail: int = 10) -> float:
    """A run's converged score: mean test NDCG@5 over the last `tail`
    evaluated rounds. Less noisy than the single last round."""
    evaluated = [m.ndcg5 for m in trace if m.ndcg5 is not None]
    if not evaluated:
        raise ValueError("trace has no evaluated rounds")
    return float(np.mean(evaluated[-tail:]))
