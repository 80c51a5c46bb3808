"""Click simulation: a fixed logging policy, users with heterogeneous
position bias, and position-based click generation over displayed results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dataset import Dataset
from .metrics import RELEVANCE_THRESHOLD
from .ranker import LinearRanker, top_k

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


@dataclass(frozen=True)
class LoggingPolicy:
    """The fixed production ranker that orders results during logging."""

    ranker: LinearRanker


@dataclass(frozen=True)
class Displays:
    """What the logging policy shows for every query of a dataset.

    Row r belongs to the dataset's r-th query (`rows` maps a qid to r):
    `docs[r, :lengths[r]]` are the displayed document indices in display
    order, the top min(k, n_docs) of the logging ranking, and
    `click_rates[r]` their click_given_examination. Entries past lengths[r]
    are padding.
    """

    docs: np.ndarray
    lengths: np.ndarray
    click_rates: np.ndarray
    rows: Mapping[int, int]


def display_top_k(policy: LoggingPolicy, dataset: Dataset, k: int) -> Displays:
    """The logging policy's top k of every query of the dataset, from one
    product and one sort over all of them."""
    if k < 1:
        raise ValueError("k must be >= 1")
    packed = dataset.packed
    docs = top_k(policy.ranker.weights, packed, k)
    grades = np.take_along_axis(packed.padded(packed.labels, 0), docs, axis=1)
    return Displays(
        docs=docs,
        lengths=np.minimum(packed.lengths, k),
        click_rates=click_given_examination(grades),
        rows=packed.rows,
    )


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
    if (positions < 1).any():
        raise ValueError("position must be >= 1")
    return (1.0 / positions) ** gamma_s


def click_given_examination(grade) -> np.ndarray:
    """Probability that an examined document is clicked: 1 for relevant
    grades, the noise rate otherwise, elementwise."""
    return np.where(np.asarray(grade) >= RELEVANCE_THRESHOLD, 1.0, NOISE_CLICK_RATE)


def click_prob(grade, position, gamma_s: float) -> np.ndarray:
    """Click probability of displayed documents: examination times
    click_given_examination, elementwise."""
    return examination_prob(position, gamma_s) * click_given_examination(grade)


def collect_round_clicks(
    user: UserState,
    displays: Displays,
    m: int,
    max_impressions: int,
    rng: np.random.Generator,
) -> list[ClickRecord]:
    """Simulate impressions on queries drawn uniformly from the user's pool
    until at least m clicks accumulate or max_impressions is reached.

    Each impression shows the query's displayed documents and clicks each
    independently with click_prob at its display position. A record's
    propensities are the user's true examination probabilities, regardless
    of clicks. Returns every generated record, including zero-click ones.
    Hitting the cap before the quota increments the user's capped_rounds
    counter.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if max_impressions < 1:
        raise ValueError("max_impressions must be >= 1")
    exam = examination_prob(np.arange(1, displays.docs.shape[1] + 1), user.gamma_s)
    rows = [displays.rows[qid] for qid in user.query_pool]
    lengths = displays.lengths[rows].tolist()
    probs = exam * displays.click_rates[rows]
    records: list[ClickRecord] = []
    clicks_total = 0
    while clicks_total < m and len(records) < max_impressions:
        i = int(rng.integers(len(rows)))
        n = lengths[i]
        record = ClickRecord(
            query_id=user.query_pool[i],
            displayed=displays.docs[rows[i], :n],
            clicks=rng.random(n) < probs[i, :n],
            propensities=exam[:n],
        )
        records.append(record)
        clicks_total += record.n_clicks
    if clicks_total < m:
        user.capped_rounds += 1
    return records
