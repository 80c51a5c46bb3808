"""Click simulation: a fixed logging policy, users with heterogeneous
position bias, and position-based click generation over displayed results."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .metrics import RELEVANCE_THRESHOLD
from .ranker import LinearRanker, top_k

# Probability that an examined non-relevant document is clicked anyway.
NOISE_CLICK_RATE = 0.1
# The logging ranker trains on this fraction of the training queries, the
# paper's 1 %, for LOGGING_EPOCHS passes of pairwise hinge SGD at step size
# LOGGING_LR.
LOGGING_FRACTION = 0.01
LOGGING_EPOCHS = 30
LOGGING_LR = 0.1


@dataclass
class UserState:
    """One simulated user: a personal bias factor, a fixed query pool (rows
    of the training set), and an independent random stream.

    `capped_rounds` counts rounds where the impression cap was hit before
    the click quota was reached.
    """

    id: int
    gamma_s: float
    query_pool: tuple[int, ...]
    rng_stream: np.random.Generator
    capped_rounds: int = 0


@dataclass(frozen=True)
class ClickRecord:
    """One logged impression of training-set query `row`: per-position
    click indicators over the displayed prefix of the logging ranking."""

    row: int
    clicks: np.ndarray

    @property
    def n_clicks(self) -> int:
        return int(np.count_nonzero(self.clicks))


@dataclass(frozen=True)
class Displays:
    """What the logging policy shows for every query of a dataset.

    Row r belongs to the dataset's r-th query: `docs[r, :lengths[r]]` are
    the displayed document indices in display order, the top min(k, n_docs)
    of the logging ranking, and `click_rates[r]` their
    click_given_examination. Entries past lengths[r] are padding.
    """

    docs: np.ndarray
    lengths: np.ndarray
    click_rates: np.ndarray


@dataclass(frozen=True)
class Impressions:
    """A round's logged impressions as flat arrays, one entry per record,
    ordered by client, then record.

    `users` holds the round's user ids in ascending order and `client[r]`
    indexes it. Record r showed `docs[r, :length[r]]`, documents of query
    `row[r]` of the training set in display order and `clicked[r]` its
    click indicators. Entries past length[r] are padding (False).
    """

    users: np.ndarray
    client: np.ndarray
    row: np.ndarray
    length: np.ndarray
    docs: np.ndarray
    clicked: np.ndarray


def round_impressions(users, records, displays: Displays) -> Impressions:
    """The round's records as Impressions, records[i] being the records of
    user users[i], with `users` ascending. What each record showed is read
    from `displays`."""
    flat = [record for client in records for record in client]
    row = np.array([record.row for record in flat], dtype=np.int64)
    length = displays.lengths[row]
    shown = np.arange(displays.docs.shape[1]) < length[:, None]
    clicked = np.zeros(shown.shape, dtype=bool)
    # The empty leading array fixes the dtype when there is no record.
    clicked[shown] = np.concatenate([np.zeros(0, dtype=bool)] + [record.clicks for record in flat])
    return Impressions(
        users=np.asarray(users),
        client=np.repeat(np.arange(len(records)), [len(client) for client in records]),
        row=row,
        length=length,
        docs=displays.docs[row],
        clicked=clicked,
    )


def display_top_k(policy: LinearRanker, dataset: Dataset, k: int) -> Displays:
    """The logging policy's top k of every query of the dataset, from one
    product and one sort over all of them."""
    docs = top_k(policy.weights, dataset, k)
    grades = np.take_along_axis(dataset.padded(dataset.labels, 0), docs, axis=1)
    return Displays(
        docs=docs,
        lengths=np.minimum(dataset.lengths, k),
        click_rates=click_given_examination(grades),
    )


def train_logging_policy(train: Dataset, seed: int) -> LinearRanker:
    """Train the logging ranker on a uniform LOGGING_FRACTION of the queries.

    Pairwise hinge SGD on (higher grade, lower grade) document pairs, one
    batched step per query in each of LOGGING_EPOCHS epochs. Deterministic
    given the seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    n_sample = int(np.ceil(LOGGING_FRACTION * train.n_queries))
    chosen = rng.choice(train.n_queries, size=n_sample, replace=False)

    pairs = []
    for query in train.select(chosen).queries:
        i_idx, j_idx = np.nonzero(query.labels[:, None] > query.labels[None, :])
        pairs.append((query, i_idx, j_idx))

    w = np.zeros(train.feature_dim)
    for _ in range(LOGGING_EPOCHS):
        for qi in rng.permutation(len(pairs)):
            query, i_idx, j_idx = pairs[qi]
            scores = query.features @ w
            margins = 1.0 - (scores[i_idx] - scores[j_idx])
            active = margins > 0.0
            if not np.any(active):
                continue
            diff = query.features[i_idx[active]] - query.features[j_idx[active]]
            w = w + LOGGING_LR * np.sum(diff, axis=0) / i_idx.size
    return LinearRanker(w)


def sample_user_bias(gamma: float, sigma: float, rng: np.random.Generator) -> float:
    """Draw a per-user bias factor from Normal(gamma, sigma), rejecting
    negative samples. sigma is the standard deviation; sigma=0 returns
    gamma exactly."""
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


def collect_round_clicks(
    user: UserState,
    exam: np.ndarray,
    displays: Displays,
    m: int,
    max_impressions: int,
) -> list[ClickRecord]:
    """Simulate impressions on queries drawn uniformly from the user's pool,
    from the user's own stream, until at least m clicks accumulate or
    max_impressions is reached.

    `exam` is the user's examination probability at each display position
    of `displays`. Each impression shows the query's displayed documents
    and clicks each independently with exam times click_given_examination
    at its display position. Returns every generated record, including
    zero-click ones. Hitting the cap before the quota increments the user's
    capped_rounds counter.
    """
    rows = list(user.query_pool)  # a tuple would index numpy arrays as one multi-axis index
    lengths = displays.lengths[rows].tolist()
    probs = exam * displays.click_rates[rows]
    records: list[ClickRecord] = []
    clicks_total = 0
    while clicks_total < m and len(records) < max_impressions:
        i = int(user.rng_stream.integers(len(rows)))
        n = lengths[i]
        record = ClickRecord(rows[i], user.rng_stream.random(n) < probs[i, :n])
        records.append(record)
        clicks_total += record.n_clicks
    if clicks_total < m:
        user.capped_rounds += 1
    return records
