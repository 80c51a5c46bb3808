"""Desk-scale simulation framework for federated learning to rank from
position-biased clicks: propensity-weighted federated training, a biased
averaging counterpart, a full-information baseline, a position-based
click simulator, and a federated EM propensity estimator."""

from .baseline import LambdaConfig, lambda_gradient, train_lambda_linear
from .clicksim import (
    ClickRecord,
    LoggingPolicy,
    UserState,
    click_prob,
    collect_round_clicks,
    examination_prob,
    sample_user_bias,
    simulate_impression,
    train_logging_policy,
)
from .dataset import (
    Dataset,
    Query,
    filter_uniform_queries,
    generate_synthetic,
    load_svmlight,
    normalize_query_level,
    split,
    write_svmlight,
)
from .federation import (
    ClientUpdate,
    ExperimentState,
    FederationConfig,
    RoundMetrics,
    client_opt,
    final_ndcg,
    init_state,
    run_experiment,
    run_round,
    server_opt,
)
from .metrics import (
    DCG,
    IDENTITY,
    RELEVANCE_THRESHOLD,
    full_info_metric,
    ips_click_metric,
    mean_ndcg,
    ndcg_at_k,
)
from .objective import (
    click_gradient,
    click_steps,
    client_loss,
    hinge_sum,
    rank_upper_bound,
)
from .propensity import (
    EmEstimatorState,
    em_e_step,
    em_m_step_local,
    estimated_propensity,
    federated_em_round,
)
from .ranker import LinearRanker, RankedList, rank

__version__ = "0.1.0"
