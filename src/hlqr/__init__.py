"""Hierarchical model-free LQR for multi-agent systems whose cost weights
carry graph structure: decomposability analysis, cluster-level
data-driven policy iteration, gain reassembly, and robustness
certification on non-homogeneous plants."""

from .decomp import (
    ClusterProblem,
    DecompositionPlan,
    ExcitationConfig,
    LqrSpec,
    construct_T,
    project_problem,
    verify_plan,
)
from .lqr import (
    AgentModel,
    assemble_gain,
    evaluate_cost,
    hierarchical_model_based,
    kleinman_pi,
)
from .matkit import kron, solve_are, solve_lyapunov
from .rl import (
    HierarchicalConfig,
    TrajectoryBatch,
    collect_batch,
    hierarchical_solve,
    offpolicy_pi,
    simulate,
)
from .robust import (
    HeteroModel,
    LtiSystem,
    RobustReport,
    h2_norm,
    hetero_lift,
    hinf_norm,
    lmi_stability_check,
    performance_bound,
    robust_report,
    small_gain_check,
)

__version__ = "0.1.0"

__all__ = [
    "AgentModel",
    "ClusterProblem",
    "DecompositionPlan",
    "ExcitationConfig",
    "HeteroModel",
    "HierarchicalConfig",
    "LqrSpec",
    "LtiSystem",
    "RobustReport",
    "TrajectoryBatch",
    "assemble_gain",
    "collect_batch",
    "construct_T",
    "evaluate_cost",
    "h2_norm",
    "hetero_lift",
    "hierarchical_model_based",
    "hierarchical_solve",
    "hinf_norm",
    "kleinman_pi",
    "kron",
    "lmi_stability_check",
    "offpolicy_pi",
    "performance_bound",
    "project_problem",
    "robust_report",
    "simulate",
    "small_gain_check",
    "solve_are",
    "solve_lyapunov",
    "verify_plan",
]
