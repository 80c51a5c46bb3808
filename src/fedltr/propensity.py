"""A federated regression-based EM estimator of per-client examination
probabilities."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .ranker import LinearRanker

# Scores are clipped before the sigmoid so relevance stays inside (0, 1).
_SCORE_CLIP = 30.0


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_SCORE_CLIP, _SCORE_CLIP)))


@dataclass
class EmEstimatorState:
    """State of the federated EM estimator for clients 0..num_users-1.

    `relevance_model` is the shared regression model whose sigmoid scores
    play the relevance prior. Row u of `theta` holds client u's served
    per-position examination estimates (length k, anchored so position 1
    is 1.0, floored at `floor`), derived from its rows of `posterior_sum`
    and `impression_count`: running totals of examination posteriors and
    impressions per position. Averaging posteriors over every round a
    client has participated in, rather than trusting the latest round,
    keeps the per-position noise well below the gaps between adjacent
    positions. `participations` counts each client's rounds: clients with
    none are unseen and their `theta` rows stay uninformative (all ones);
    clients with more than `burn_in` have settled.
    """

    relevance_model: LinearRanker
    k: int
    num_users: int
    floor: float = 0.01
    em_iters: int = 1
    fit_lr: float = 0.5
    theta_init: float = 0.5
    burn_in: int = 5
    pooling: float = 0.7
    theta: np.ndarray = field(init=False)
    theta_local: np.ndarray = field(init=False)
    posterior_sum: np.ndarray = field(init=False)
    impression_count: np.ndarray = field(init=False)
    participations: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.num_users < 1:
            raise ValueError("num_users must be >= 1")
        if not 0.0 < self.floor < 1.0:
            raise ValueError("floor must be in (0, 1)")
        if self.em_iters < 0:
            raise ValueError("em_iters must be >= 0")
        if not 0.0 < self.theta_init < 1.0:
            raise ValueError("theta_init must be in (0, 1)")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if not 0.0 <= self.pooling < 1.0:
            raise ValueError("pooling must be in [0, 1)")
        shape = (self.num_users, self.k)
        self.theta = np.ones(shape)
        self.theta_local = np.ones(shape)
        self.posterior_sum = np.zeros(shape)
        self.impression_count = np.zeros(shape)
        self.participations = np.zeros(self.num_users, dtype=np.int64)

    def initial_theta(self) -> np.ndarray:
        """E-step prior for a client's first round: anchored at 1 for
        position 1, a flat uncommitted value below. The all-ones prior is
        unusable here: with theta = 1 the no-click examination posterior is
        identically 1, making 1 a fixed point the estimator never leaves."""
        theta = np.full(self.k, self.theta_init)
        theta[0] = 1.0
        return theta


def _posteriors(
    clicks: np.ndarray, theta: np.ndarray, rel_prob: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """em_e_step without its range checks, for callers that checked once."""
    denom = 1.0 - theta * rel_prob
    p_exam = np.where(clicks, 1.0, theta * (1.0 - rel_prob) / denom)
    p_rel = np.where(clicks, 1.0, rel_prob * (1.0 - theta) / denom)
    return p_exam, p_rel


def em_e_step(clicks, theta, rel_prob) -> tuple[np.ndarray, np.ndarray]:
    """Posterior examination and relevance probabilities of displayed
    documents under the position-based click model, elementwise.

    A click forces both posteriors to 1. For a non-click the posteriors
    follow from Bayes' rule with priors theta (examination, in (0, 1]) and
    rel_prob (relevance, in (0, 1)); their product is below 1, so a
    non-click always has positive probability.
    """
    theta = np.asarray(theta, dtype=np.float64)
    rel_prob = np.asarray(rel_prob, dtype=np.float64)
    if np.any((theta <= 0.0) | (theta > 1.0)):
        raise ValueError("theta must be in (0, 1]")
    if np.any((rel_prob <= 0.0) | (rel_prob >= 1.0)):
        raise ValueError("rel_prob must be in (0, 1)")
    return _posteriors(np.asarray(clicks, dtype=bool), theta, rel_prob)


def em_m_step_local(
    records: Sequence,
    theta_prev: np.ndarray,
    relevance_model: LinearRanker,
    floor: float,
) -> tuple[np.ndarray, list, np.ndarray, np.ndarray]:
    """One local EM pass over a client's (record, query) pairs.

    Returns the client's new per-position examination estimates, the
    regression targets (features, posterior relevance) for every displayed
    document, and the raw per-position posterior sums and impression
    counts behind the estimates. Position estimates are means of the
    examination posteriors, rescaled so position 1 is 1, floored;
    positions with no impressions keep their previous value.
    """
    if not records:
        raise ValueError("records must be nonempty")
    if np.any((theta_prev <= 0.0) | (theta_prev > 1.0)):
        raise ValueError("theta_prev must be in (0, 1]")
    k = len(theta_prev)
    exam_sum = np.zeros(k)
    exam_count = np.zeros(k)
    targets = []
    for record, query in records:
        n = len(record.displayed)
        if n > k:
            raise ValueError("record longer than the estimator's position range")
        features = query.features[record.displayed]
        # Clipping keeps the relevance prior inside em_e_step's range.
        rel = _sigmoid(features @ relevance_model.weights)
        rel = np.clip(rel, 1e-6, 1.0 - 1e-6)
        p_exam, p_rel = _posteriors(record.clicks.astype(bool), theta_prev[:n], rel)
        exam_sum[:n] += p_exam
        exam_count[:n] += 1.0
        targets.append((features, p_rel))
    theta_new = theta_prev.astype(np.float64).copy()
    has_data = exam_count > 0
    means = exam_sum / np.maximum(exam_count, 1.0)
    if has_data[0] and means[0] > floor:
        means = means / means[0]
    theta_new[has_data] = means[has_data]
    return np.clip(theta_new, floor, 1.0), targets, exam_sum, exam_count


def _fit_relevance_pass(
    weights: np.ndarray, targets: Sequence, lr: float
) -> np.ndarray:
    """One squared-error SGD pass of sigmoid(F(x)) toward the posteriors,
    one batched step per record, in record order."""
    w = weights.copy()
    for features, posterior in targets:
        pred = _sigmoid(features @ w)
        residual = (pred - posterior) * pred * (1.0 - pred)
        w = w - lr * 2.0 * (features.T @ residual) / len(posterior)
    return w


def federated_em_round(
    state: EmEstimatorState,
    client_records: Mapping[int, Sequence],
    eta_f: float,
) -> EmEstimatorState:
    """One federated EM round over the participating clients.

    Each client runs `em_iters` local EM iterations against the broadcast
    relevance model, producing a position-estimate update and a local model
    delta. Deltas are averaged (ascending client id) into the shared model.
    Position estimates stay client-local: the last iteration's posterior
    sums and impression counts are added to the client's running totals,
    whose per-position means (re-anchored at position 1) form the persisted
    table.
    """
    if eta_f <= 0.0:
        raise ValueError("eta_f must be positive")
    if state.em_iters == 0:
        return state
    broadcast = state.relevance_model.weights
    deltas = []
    for uid in sorted(client_records):
        records = client_records[uid]
        if not records:
            continue
        theta_round = state.theta[uid] if state.participations[uid] else state.initial_theta()
        local_w = broadcast.copy()
        for _ in range(state.em_iters):
            theta_round, targets, exam_sum, exam_count = em_m_step_local(
                records, theta_round, LinearRanker(local_w), state.floor
            )
            local_w = _fit_relevance_pass(local_w, targets, state.fit_lr)
        deltas.append(local_w - broadcast)
        state.participations[uid] += 1
        if state.participations[uid] <= state.burn_in:
            # Burn-in: the round estimate tracks the client's prior toward
            # its fixed point but is not yet worth remembering; posteriors
            # taken under an uncommitted prior would bias the running
            # average permanently.
            theta_new = theta_round.copy()
        else:
            total_sum = state.posterior_sum[uid]
            total_count = state.impression_count[uid]
            total_sum += exam_sum
            total_count += exam_count
            covered = total_count > 0
            theta_new = state.initial_theta()
            theta_new[covered] = total_sum[covered] / total_count[covered]
        if theta_new[0] > state.floor:
            theta_new = theta_new / theta_new[0]
        theta_new[0] = 1.0
        state.theta_local[uid] = np.clip(theta_new, state.floor, 1.0)
    if deltas:
        mean_delta = np.sum(np.stack(deltas), axis=0) / len(deltas)
        state.relevance_model = LinearRanker(broadcast + eta_f * mean_delta)
    # Partial pooling: individual tables are noisy (a client's data is a
    # handful of impressions per round) while clients' true curves differ
    # only mildly, so each served table shrinks toward the across-client
    # mean of the settled (post-burn-in) local estimates.
    seen = state.participations > 0
    settled = state.participations > state.burn_in
    served = state.theta_local[seen]
    if np.any(settled):
        population = np.mean(state.theta_local[settled], axis=0)
        served = (1.0 - state.pooling) * served + state.pooling * population
    served[:, 0] = 1.0
    state.theta[seen] = np.clip(served, state.floor, 1.0)
    return state


def estimated_propensity(state: EmEstimatorState, client_id: int, position: int) -> float:
    """The client's current examination estimate at a display position.

    Clients never seen by the estimator report 1.0 everywhere.
    """
    if not 1 <= position <= state.k:
        raise ValueError("position must be in 1..k")
    if not 0 <= client_id < state.num_users:
        raise ValueError("client_id must be in 0..num_users-1")
    return float(max(state.theta[client_id, position - 1], state.floor))
