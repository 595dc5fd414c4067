"""Desk-scale federated prompt-learning simulator over frozen encoders."""

from .errors import (
    AggregationError,
    ConfigError,
    DataError,
    DomainError,
    EvaluationError,
    FedPromptError,
)
from .numerics import (
    cosine_similarity,
    cross_entropy,
    finite_diff_gradient,
    softmax_temp,
)
from .vlm import (
    ClassVocabulary,
    FrozenTextEncoder,
    ModelAssets,
    ModelConfig,
    PromptContext,
    build_assets,
    build_handcrafted_context,
    build_prompt_context,
    prompt_gradients,
    synth_local_features,
)
from .transport import plot_class_score, sinkhorn, sinkhorn_relaxed
from .algorithms import (
    CommunicablePayload,
    SGDState,
    loss_kgcoop,
    loss_proda,
    loss_src,
    make_trainer,
    metanet_forward,
    project_prograd,
    sgd_momentum_step,
)
from .data import (
    DomainShift,
    MasterDataset,
    PartitionPlan,
    SyntheticSpec,
    apply_domain_shift,
    balanced_subsample,
    base_novel_split,
    dirichlet_partition,
    domain_partition,
    generate_synthetic_dataset,
    kshot_iid_partition,
    load_feature_table,
    save_feature_table,
)
from .federation import (
    CostLedger,
    FederationConfig,
    ServerState,
    communication_cost_millions,
    compute_weights,
    fedavg_aggregate,
    run_federation,
    run_round,
    sample_clients,
)
from .evaluation import (
    ExperimentPlan,
    MetricTable,
    ScenarioSpec,
    aggregate_runs,
    harmonic_mean,
    personalized_accuracy,
    run_scenario,
    superiority_indicator,
)
from .config import ExperimentConfig, parse_config, serialize_config

__version__ = "0.1.0"
