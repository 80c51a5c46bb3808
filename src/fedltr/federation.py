"""Federated round loop: client sampling, broadcast, local propensity-
weighted SGD, delta aggregation, and the server update."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .clicksim import (
    Displays,
    UserState,
    collect_round_clicks,
    display_top_k,
    examination_prob,
    round_impressions,
    sample_user_bias,
    train_logging_policy,
)
from .dataset import Dataset
from .metrics import mean_ndcg
from .objective import Clicks, client_loss, gradient_groups, hinge_gradients, round_clicks
from .propensity import EmEstimatorState, federated_em_round
from .ranker import LinearRanker
from .rules import check

MODES = ("fedips", "fedavg")
PROPENSITY_MODES = ("known", "estimated")
# A client's impressions per round are capped at this many times its click
# quota m.
MAX_IMPRESSIONS_FACTOR = 50
# The training-set rows in each user's fixed query pool.
QUERIES_PER_USER = 5
# The spawn key of every random stream. The first three are children of a
# run's seed, the last two of the master seed in `fedltr run`. Keys must
# stay distinct, or two streams would draw the same numbers:
#   (0,)       the logging policy's query sample and epoch order
#   (1, u)     user u: its bias, query pool, clicks and local SGD order
#   (2, r)     the client sample of round r, counted from 0
#   (3,)       the full-information baseline's query order
#   (5, i, j)  `cli.derive_seed`: the seed of sweep point i's repeat j
# `dataset.split` and `dataset.generate_synthetic` seed `default_rng` with
# their seed directly, with no spawn key.
# The value rule of every configuration field but the seed, which each run
# derives; see `rules`.
FEDERATION_RULES = {
    "num_users": "integer [1, inf)",
    "users_per_round": "integer [1, inf)",
    "k": "integer [1, inf)",
    "m": "integer [1, inf)",
    "gamma": "real [0, inf)",
    "gamma_sigma": "real [0, inf)",
    "eta_local": "real (0, inf)",
    "eta_global": "real (0, inf)",
    "rounds": "integer [1, inf)",
    "mode": MODES,
    "propensity_mode": PROPENSITY_MODES,
}


@dataclass(frozen=True)
class FederationConfig:
    """All knobs of one federated training run.

    `mode` selects propensity weighting ("fedips") or plain averaging of
    unweighted updates ("fedavg"); `propensity_mode` selects the users'
    true examination curves or the federated EM estimate.
    """

    num_users: int = 200
    users_per_round: int = 50
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

    def __post_init__(self) -> None:
        check("federation", FEDERATION_RULES, vars(self))
        if self.users_per_round > self.num_users:
            raise ValueError(
                f"federation.users_per_round must be <= num_users ({self.num_users}), "
                f"got {self.users_per_round!r}"
            )


@dataclass(frozen=True)
class RoundMetrics:
    """Per-round trace entry; total_clicks is cumulative over the run."""

    round_index: int
    ndcg5: float
    mean_client_loss: float
    total_clicks: int


@dataclass
class ExperimentState:
    """Mutable state of a running experiment between rounds. Row u of
    `examination` is user u's true examination curve over display positions."""

    config: FederationConfig
    model: LinearRanker
    users: list
    displays: Displays
    examination: np.ndarray
    train: Dataset
    test: Dataset
    em: Optional[EmEstimatorState]
    rounds_done: int = 0
    total_clicks: int = 0


def client_opt(
    w_t: LinearRanker,
    corpus: Dataset,
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
    lockstep: step t of every client that has a t-th click is batched. The
    round is planned once: its (client, step) lines are grouped by step,
    then by the length class of the clicked query, and each group is one
    `hinge_gradients` call padded to the group's longest query. This equals
    running the clients one by one, bit for bit, but on a one-feature
    corpus, where a group of one line sums its documents in another order.
    """
    counts = np.bincount(clicks.client, minlength=clicks.n_clients)
    first = np.cumsum(counts) - counts
    # Clicks run client by client, so line l is step l - first[client] of
    # client clicks.client[l], which visits click visit[l].
    visit = np.empty(clicks.client.size, dtype=np.int64)
    for i, rng in enumerate(rngs):
        if counts[i]:
            visit[first[i] : first[i] + counts[i]] = first[i] + rng.permutation(counts[i])
    step = np.arange(visit.size) - first[clicks.client]
    weights = np.tile(w_t.weights, (clicks.n_clients, 1))
    for rows, *lines in gradient_groups(corpus, clicks, visit, step):
        weights[rows] -= eta_local * hinge_gradients(corpus.features, weights[rows], *lines)
    return weights - w_t.weights


def server_opt(w_t: LinearRanker, deltas: np.ndarray, eta_global: float) -> LinearRanker:
    """Server step: add eta_global times the mean client delta.

    Rows of `deltas` are in ascending client-id order; the mean is
    accumulated in that order so results do not depend on scheduling.
    """
    return LinearRanker(w_t.weights + eta_global * deltas.mean(axis=0))


def init_state(
    cfg: FederationConfig, train: Dataset, test: Dataset
) -> ExperimentState:
    """Set up an experiment: train the logging policy, create the user
    population with sampled per-user bias and fixed query pools, tabulate
    their examination curves, and start from zero weights."""
    policy = train_logging_policy(train, cfg.seed)
    displays = display_top_k(policy, train, cfg.k)
    positions = np.arange(1, displays.docs.shape[1] + 1)
    # Allocated first, so a population too large to tabulate fails here
    # rather than after building its users one by one.
    examination = np.empty((cfg.num_users, positions.size))
    users = []
    for uid in range(cfg.num_users):
        stream = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1, uid)))
        gamma_s = sample_user_bias(cfg.gamma, cfg.gamma_sigma, stream)
        pool = tuple(stream.integers(train.n_queries, size=QUERIES_PER_USER).tolist())
        users.append(UserState(id=uid, gamma_s=gamma_s, query_pool=pool, rng_stream=stream))
        # One call per user: with an array of exponents numpy would compute
        # x ** 2.0 with pow rather than by squaring, one ulp away.
        examination[uid] = examination_prob(positions, gamma_s)
    em = None
    if cfg.mode == "fedips" and cfg.propensity_mode == "estimated":
        em = EmEstimatorState(
            LinearRanker.zeros(train.feature_dim), k=positions.size, num_users=cfg.num_users
        )
    return ExperimentState(
        config=cfg,
        model=LinearRanker.zeros(train.feature_dim),
        users=users,
        displays=displays,
        examination=examination,
        train=train,
        test=test,
        em=em,
    )


def run_round(state: ExperimentState, cfg: FederationConfig) -> tuple[ExperimentState, RoundMetrics]:
    """One federated round: sample clients, collect their clicks, run
    local optimization at the broadcast weights, aggregate, then update
    the propensity estimator (estimated mode) and evaluate."""
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
            state.examination[uid],
            state.displays,
            cfg.m,
            MAX_IMPRESSIONS_FACTOR * cfg.m,
        )
        for uid in sampled
    ]
    impressions = round_impressions(sampled, records, state.displays)
    # The arm's (user, position) table of click weights. theta is floored, so
    # it holds what estimated_propensity serves.
    if cfg.mode == "fedavg":
        propensity = np.ones_like(state.examination)
    elif state.em is not None:
        propensity = state.em.theta
    else:
        propensity = state.examination
    clicks = round_clicks(impressions, propensity)

    corpus = state.train
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
    # A LinearRanker raises on non-finite weights, such as those of a server
    # step that overflows; the error gains the round and the step.
    try:
        new_model = server_opt(state.model, deltas, cfg.eta_global)
    except ValueError as exc:
        raise ValueError(f"round {round_number}: server step: {exc}") from None
    if state.em is not None:
        try:
            state.em = federated_em_round(state.em, impressions, corpus)
        except ValueError as exc:
            raise ValueError(f"round {round_number}: EM round: {exc}") from None

    state.model = new_model
    state.rounds_done = round_number
    state.total_clicks += clicks.row.size

    metrics = RoundMetrics(
        round_index=round_number,
        ndcg5=mean_ndcg(new_model, state.test, 5),
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
    rounds. Less noisy than the single last round."""
    if not trace:
        raise ValueError("trace has no rounds")
    return float(np.mean([m.ndcg5 for m in trace[-tail:]]))
