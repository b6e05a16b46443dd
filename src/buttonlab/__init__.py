"""Closed-loop computational design of push-buttons.

A multi-objective Bayesian optimizer proposes button designs, a
software force-displacement simulator renders them, and a meta-learned
Gaussian policy presses them; objective values feed back into Gaussian
process surrogates until the evaluation budget is spent.
"""

from .acquisition import propose_next, scan_candidates
from .bspline import BSplineCurve, fit_bspline_bic, uniform_clamped_knots
from .button import (
    DESIGN_BOUNDS,
    DESIGN_FIELDS,
    FORCE_CEILING_N,
    ButtonDesignParams,
    FdTrace,
    FdvvModel,
    VibrationSpec,
    design_to_fdvv,
    force_at,
    scripted_press_trace,
)
from .capture import compensate_drive, fit_fdvv, low_pass_filter
from .config import CidConfig, config_fingerprint, parse_config, serialize_config
from .errors import FormatError, NumericalError, StateError
from .gp import (
    GpModel,
    KernelSpec,
    gp_fit,
    gp_predict_batch,
    optimize_hyperparams,
)
from .loop import (
    EpisodeSummary,
    EvaluationRecord,
    RunState,
    cid_step,
    evaluate_designs,
    initial_state,
    make_provider,
    run,
)
from .pareto import (
    ParetoArchive,
    ReferencePoint,
    hypervolume,
    pareto_front,
)
from .policy import (
    MetaPolicy,
    PolicyParams,
    TaskSpec,
    Trajectory,
    adapt,
    init_policy,
    meta_train,
    policy_gradient,
    rollout,
    rollouts,
)
from .storage import export_front, load_artifact, load_trace, save_artifact, save_trace
from .synthetic import get_problem

__all__ = [
    "BSplineCurve",
    "ButtonDesignParams",
    "CidConfig",
    "DESIGN_BOUNDS",
    "DESIGN_FIELDS",
    "FORCE_CEILING_N",
    "EpisodeSummary",
    "EvaluationRecord",
    "FdTrace",
    "FdvvModel",
    "FormatError",
    "GpModel",
    "KernelSpec",
    "MetaPolicy",
    "NumericalError",
    "ParetoArchive",
    "PolicyParams",
    "ReferencePoint",
    "RunState",
    "StateError",
    "TaskSpec",
    "Trajectory",
    "VibrationSpec",
    "adapt",
    "cid_step",
    "compensate_drive",
    "config_fingerprint",
    "design_to_fdvv",
    "evaluate_designs",
    "export_front",
    "fit_bspline_bic",
    "fit_fdvv",
    "force_at",
    "gp_fit",
    "gp_predict_batch",
    "get_problem",
    "hypervolume",
    "init_policy",
    "initial_state",
    "load_artifact",
    "load_trace",
    "low_pass_filter",
    "make_provider",
    "meta_train",
    "optimize_hyperparams",
    "pareto_front",
    "parse_config",
    "policy_gradient",
    "propose_next",
    "rollout",
    "rollouts",
    "run",
    "save_artifact",
    "save_trace",
    "scan_candidates",
    "scripted_press_trace",
    "serialize_config",
    "uniform_clamped_knots",
]
