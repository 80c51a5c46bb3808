"""Click simulation: a fixed logging policy, users with heterogeneous
position bias, and position-based click generation over displayed results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .dataset import Dataset, Query
from .metrics import RELEVANCE_THRESHOLD
from .ranker import LinearRanker, rank

# Probability that an examined non-relevant document is clicked anyway.
NOISE_CLICK_RATE = 0.1


@dataclass
class UserState:
    """One simulated user: a personal bias factor, a fixed query pool, and
    an independent random stream.

    `capped_rounds` counts rounds where the impression cap was hit before
    the click quota was reached.
    """

    id: int
    gamma_s: float
    query_pool: tuple[int, ...]
    rng_stream: np.random.Generator
    capped_rounds: int = 0
    _impression_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.gamma_s < 0:
            raise ValueError("gamma_s must be >= 0")
        if not self.query_pool:
            raise ValueError("query_pool must be nonempty")


@dataclass(frozen=True)
class ClickRecord:
    """One logged impression: the displayed prefix of the logging ranking,
    per-position click indicators, and the user's true examination
    probability at each displayed position."""

    query_id: int
    displayed: np.ndarray
    clicks: np.ndarray
    propensities: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.displayed) == len(self.clicks) == len(self.propensities)):
            raise ValueError("displayed, clicks, and propensities must have equal length")

    @property
    def n_clicks(self) -> int:
        return int(np.count_nonzero(self.clicks))


@dataclass
class LoggingPolicy:
    """The fixed production ranker that orders results during logging.

    Per-query display orders are cached: the policy never changes after
    training, so the order for a qid is computed once.
    """

    ranker: LinearRanker
    _orders: dict = field(default_factory=dict, repr=False)

    def display_order(self, query: Query) -> np.ndarray:
        order = self._orders.get(query.qid)
        if order is None:
            order = rank(self.ranker, query).order
            self._orders[query.qid] = order
        return order


def train_logging_policy(
    train: Dataset,
    sample_fraction: float,
    seed: int,
    epochs: int = 30,
    lr: float = 0.1,
) -> LoggingPolicy:
    """Train the logging ranker on a small uniform sample of queries.

    Pairwise hinge SGD on (higher grade, lower grade) document pairs, one
    batched step per query per epoch. Deterministic given the seed.
    """
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError("sample_fraction must be in (0, 1]")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    n_sample = int(np.ceil(sample_fraction * len(train.queries)))
    if n_sample == 0:
        raise ValueError("sampled query set is empty")
    chosen = rng.choice(len(train.queries), size=n_sample, replace=False)
    sample = [train.queries[i] for i in chosen]

    pairs = []
    for query in sample:
        labels = query.labels
        i_idx, j_idx = np.nonzero(labels[:, None] > labels[None, :])
        pairs.append((query, i_idx, j_idx))

    w = np.zeros(train.feature_dim)
    for _ in range(epochs):
        for qi in rng.permutation(len(pairs)):
            query, i_idx, j_idx = pairs[qi]
            if i_idx.size == 0:
                continue
            scores = query.features @ w
            margins = 1.0 - (scores[i_idx] - scores[j_idx])
            active = margins > 0.0
            if not np.any(active):
                continue
            diff = query.features[i_idx[active]] - query.features[j_idx[active]]
            w = w + lr * np.sum(diff, axis=0) / i_idx.size
    return LoggingPolicy(LinearRanker(w))


def sample_user_bias(gamma: float, sigma: float, rng: np.random.Generator) -> float:
    """Draw a per-user bias factor from Normal(gamma, sigma), rejecting
    negative samples. sigma is the standard deviation; sigma=0 returns
    gamma exactly."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if sigma == 0.0:
        return gamma
    while True:
        draw = rng.normal(gamma, sigma)
        if draw >= 0.0:
            return float(draw)


def examination_prob(position, gamma_s: float) -> np.ndarray:
    """Probability that a user with bias gamma_s examines each 1-based
    display position: (1/position)^gamma_s, elementwise."""
    positions = np.asarray(position, dtype=np.float64)
    if np.any(positions < 1):
        raise ValueError("position must be >= 1")
    return (1.0 / positions) ** gamma_s


def click_prob(grade, position, gamma_s: float) -> np.ndarray:
    """Click probability of displayed documents: examination times 1 for
    relevant grades, times the noise rate otherwise, elementwise."""
    exam = examination_prob(position, gamma_s)
    return np.where(np.asarray(grade) >= RELEVANCE_THRESHOLD, exam, NOISE_CLICK_RATE * exam)


def _impression_setup(user: UserState, query: Query, policy: LoggingPolicy, k: int):
    k_eff = min(k, query.n_docs)
    key = (query.qid, k_eff)
    cached = user._impression_cache.get(key)
    if cached is None:
        displayed = policy.display_order(query)[:k_eff]
        positions = np.arange(1, k_eff + 1)
        props = examination_prob(positions, user.gamma_s)
        probs = click_prob(query.labels[displayed], positions, user.gamma_s)
        cached = (displayed, props, probs)
        user._impression_cache[key] = cached
    return cached


def simulate_impression(
    user: UserState,
    query: Query,
    policy: LoggingPolicy,
    k: int,
    rng: np.random.Generator,
) -> ClickRecord:
    """Show the user the top-k of the logging ranking and sample clicks.

    Each displayed document is clicked independently with click_prob at its
    display position. The record's propensities are the user's true
    examination probabilities, regardless of clicks.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    displayed, props, probs = _impression_setup(user, query, policy, k)
    clicks = rng.random(len(displayed)) < probs
    return ClickRecord(
        query_id=query.qid, displayed=displayed, clicks=clicks, propensities=props
    )


def collect_round_clicks(
    user: UserState,
    queries_by_id: Mapping[int, Query],
    policy: LoggingPolicy,
    k: int,
    m: int,
    max_impressions: int,
    rng: np.random.Generator,
) -> list[ClickRecord]:
    """Simulate impressions on queries drawn uniformly from the user's pool
    until at least m clicks accumulate or max_impressions is reached.

    Returns every generated record, including zero-click ones. Hitting the
    cap before the quota increments the user's capped_rounds counter.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if max_impressions < 1:
        raise ValueError("max_impressions must be >= 1")
    records: list[ClickRecord] = []
    clicks_total = 0
    while clicks_total < m and len(records) < max_impressions:
        qid = user.query_pool[int(rng.integers(len(user.query_pool)))]
        record = simulate_impression(user, queries_by_id[qid], policy, k, rng)
        records.append(record)
        clicks_total += record.n_clicks
    if clicks_total < m:
        user.capped_rounds += 1
    return records
