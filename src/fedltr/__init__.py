"""Desk-scale simulation framework for federated learning to rank from
position-biased clicks: propensity-weighted federated training, a biased
averaging counterpart, a full-information baseline, a position-based
click simulator, and a federated EM propensity estimator."""

__version__ = "0.1.0"

# The package root holds the names of the README's library example; every
# other name is imported from its module, as in `from fedltr.dataset import split`.
from .dataset import generate_synthetic
from .federation import FederationConfig, final_ndcg, run_experiment
