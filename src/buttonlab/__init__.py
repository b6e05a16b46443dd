"""Closed-loop computational design of push-buttons.

A multi-objective Bayesian optimizer proposes button designs, a
software force-displacement simulator renders them, and a meta-learned
Gaussian policy presses them; objective values feed back into Gaussian
process surrogates until the evaluation budget is spent.
"""

from .acquisition import ehvi, propose_next, scan_candidates
from .bspline import BSplineCurve, fit_bspline_bic, fit_lsq_spline, uniform_clamped_knots
from .button import (
    ACTIVATION,
    DESIGN_BOUNDS,
    DESIGN_FIELDS,
    FORCE_CEILING_N,
    RELEASE,
    ButtonDesignParams,
    FdTrace,
    FdvvModel,
    SimEvent,
    SimState,
    VibrationSpec,
    design_to_fdvv,
    force_at,
    scripted_press_trace,
    step,
)
from .capture import compensate_drive, fit_fdvv, low_pass_filter
from .config import CidConfig, config_fingerprint, parse_config, serialize_config
from .errors import FormatError, NumericalError, StateError
from .gp import (
    GpModel,
    KernelFamily,
    KernelSpec,
    gp_fit,
    gp_predict_batch,
    log_marginal_likelihood,
    optimize_hyperparams,
)
from .loop import (
    EpisodeSummary,
    EvaluationRecord,
    RunState,
    cid_step,
    evaluate_design,
    initial_state,
    make_provider,
    run,
)
from .pareto import (
    ParetoArchive,
    ReferencePoint,
    dominates,
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
    surrogate_objective,
)
from .storage import export_front, load_artifact, load_trace, save_artifact, save_trace
from .synthetic import get_problem

__all__ = [
    "ACTIVATION",
    "BSplineCurve",
    "ButtonDesignParams",
    "CidConfig",
    "DESIGN_BOUNDS",
    "DESIGN_FIELDS",
    "FORCE_CEILING_N",
    "RELEASE",
    "EpisodeSummary",
    "EvaluationRecord",
    "FdTrace",
    "FdvvModel",
    "FormatError",
    "GpModel",
    "KernelFamily",
    "KernelSpec",
    "MetaPolicy",
    "NumericalError",
    "ParetoArchive",
    "PolicyParams",
    "ReferencePoint",
    "RunState",
    "SimEvent",
    "SimState",
    "StateError",
    "TaskSpec",
    "Trajectory",
    "VibrationSpec",
    "adapt",
    "cid_step",
    "compensate_drive",
    "config_fingerprint",
    "design_to_fdvv",
    "dominates",
    "ehvi",
    "evaluate_design",
    "export_front",
    "fit_bspline_bic",
    "fit_fdvv",
    "fit_lsq_spline",
    "force_at",
    "gp_fit",
    "gp_predict_batch",
    "get_problem",
    "hypervolume",
    "init_policy",
    "initial_state",
    "load_artifact",
    "load_trace",
    "log_marginal_likelihood",
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
    "step",
    "surrogate_objective",
    "uniform_clamped_knots",
]
