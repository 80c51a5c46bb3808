"""Desk-scale simulation framework for federated learning to rank from
position-biased clicks: propensity-weighted federated training, a biased
averaging counterpart, a full-information baseline, a position-based
click simulator, and a federated EM propensity estimator."""

__version__ = "0.1.0"

from .baseline import LambdaConfig, lambda_gradient, train_lambda_linear
from .clicksim import (
    ClickRecord,
    Displays,
    Impressions,
    UserState,
    click_given_examination,
    click_prob,
    collect_round_clicks,
    display_top_k,
    examination_prob,
    round_impressions,
    sample_user_bias,
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
    Clicks,
    click_gradient,
    click_gradients,
    client_loss,
    hinge_sum,
    rank_upper_bound,
    round_clicks,
)
from .propensity import (
    EmEstimatorState,
    em_e_step,
    em_m_step_local,
    estimated_propensity,
    federated_em_round,
    fit_relevance,
)
from .ranker import LinearRanker, RankedList, rank, top_k
