"""The closed design loop: propose, render, evaluate, update.

Surrogates and the archive live in the unit cube (each design parameter
rescaled to [0, 1]), on rows ``unit_designs`` derives from the records'
raw parameter values.  All randomness is drawn from the per-purpose seed
tree, so a resumed run consumes exactly the numbers the uninterrupted
run would have.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import seeds
from .acquisition import propose_next, scan_candidates
from .button import DEFAULT_DT_S, DESIGN_FIELDS, ButtonDesignParams, design_to_fdvv
from .config import OBJECTIVE_NAMES, CidConfig
from .errors import StateError
from .gp import GpModel, KernelFamily, gp_fit, optimize_hyperparams
from .pareto import ParetoArchive, ReferencePoint
from .policy import MetaPolicy, TaskSpec, adapt, init_policy, rollouts
from .synthetic import get_problem

_log = logging.getLogger(__name__)

# Steps between GP hyperparameter re-optimizations; kernels are reused
# in between.
HYPEROPT_PERIOD = 5


@dataclass(frozen=True)
class EpisodeSummary:
    """One evaluation episode, reduced to what the record keeps."""

    return_: float
    success: bool
    time_to_activation_s: float  # nan when activation never happened


@dataclass(frozen=True)
class EvaluationRecord:
    """One evaluated design: raw parameters, objectives, provenance."""

    design: np.ndarray
    objectives: np.ndarray
    seeds: tuple[int, ...]
    episodes: tuple[EpisodeSummary, ...]

    def __post_init__(self):
        object.__setattr__(self, "design", np.asarray(self.design, dtype=float))
        object.__setattr__(self, "objectives", np.asarray(self.objectives, dtype=float))


@dataclass(frozen=True)
class RunState:
    """Everything the loop carries between iterations.

    The config, records, kernels and reference are the whole state: the
    archive and the surrogates are what ``restore_state`` rebuilds from
    them, and a state saved and loaded again holds the same bits.
    """

    config: CidConfig
    records: tuple[EvaluationRecord, ...]
    archive: ParetoArchive
    models: tuple[GpModel, ...]
    reference: ReferencePoint

    @property
    def iteration(self) -> int:
        """Completed model-guided steps; the initial design set is iteration 0."""
        return len(self.records) - self.config.init_count


@dataclass(frozen=True)
class Provider:
    """Where objective values come from: the button pipeline or a test function."""

    parameter_names: tuple[str, ...]
    objective_names: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray
    fixed_reference: np.ndarray | None
    evaluate: Callable[[np.ndarray, int], tuple[np.ndarray, tuple[EpisodeSummary, ...], tuple[int, ...]]]


def evaluate_design(
    design,
    meta: MetaPolicy,
    episodes: int,
    seed: int,
    horizon: int = 1000,
    sensory_delay: int = 50,
    dwell_limit: int = 300,
) -> tuple[np.ndarray, tuple[EpisodeSummary, ...]]:
    """Objectives of one button design under the adapted user model.

    Renders the design, adapts the meta-policy (K episodes per its
    recipe), then runs ``episodes`` evaluation rollouts.  Returns the
    canonical objective vector (completion_time_s, error_rate, effort),
    all minimized: mean time to a successful release with timeouts
    counted at the full horizon, failure fraction, and mean integrated
    squared force; and a summary of each evaluation episode.

    Raises:
        ValueError: out-of-range design or episodes < 1.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    params = design if isinstance(design, ButtonDesignParams) else ButtonDesignParams.from_array(design)
    model = design_to_fdvv(params)
    task = TaskSpec(params, horizon, sensory_delay, dwell_limit)
    adapted = adapt(meta, task, model, seed)

    dt = DEFAULT_DT_S
    durations = np.empty(episodes)
    successes = np.empty(episodes, dtype=bool)
    efforts = np.empty(episodes)
    summaries = []
    trajectories = rollouts(
        [adapted] * episodes,
        [task] * episodes,
        [model] * episodes,
        [seeds.seed_for(seed, "rollout", i) for i in range(episodes)],
    )
    for i, traj in enumerate(trajectories):
        successes[i] = traj.success
        durations[i] = len(traj) * dt if traj.success else horizon * dt
        efforts[i] = float(np.sum(traj.actions**2)) * dt
        t_act = np.nan if traj.activation_step is None else traj.activation_step * dt
        summaries.append(EpisodeSummary(traj.return_, traj.success, t_act))
    vector = np.array([durations.mean(), 1.0 - successes.mean(), efforts.mean()])
    return vector, tuple(summaries)


def _load_meta(config: CidConfig) -> MetaPolicy:
    if config.policy_path:
        from .storage import load_artifact

        meta = load_artifact(config.policy_path)
        if not isinstance(meta, MetaPolicy):
            raise ValueError(f"{config.policy_path} does not hold a policy artifact")
        return MetaPolicy(meta.init_params, config.inner_lr, config.adapt_episodes)
    init = init_policy(seeds.seed_for(config.master_seed, "meta_init"))
    return MetaPolicy(init, config.inner_lr, config.adapt_episodes)


def design_box(config: CidConfig) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Parameter names and raw bounds of the configured design space."""
    if config.provider == "simulated_button":
        lower = np.array([config.bounds[k][0] for k in DESIGN_FIELDS])
        upper = np.array([config.bounds[k][1] for k in DESIGN_FIELDS])
        return DESIGN_FIELDS, lower, upper
    problem = get_problem(config.provider)
    names = tuple(f"x{i}" for i in range(problem.dim))
    return names, problem.lower.copy(), problem.upper.copy()


def objective_names(config: CidConfig) -> tuple[str, ...]:
    """Objective column names the provider will produce, in order."""
    if config.provider == "simulated_button":
        return tuple(config.objectives)
    return get_problem(config.provider).objective_names


def make_provider(config: CidConfig, meta: MetaPolicy | None = None) -> Provider:
    """Bind a config to its objective source.

    For the simulated button the objective vector follows the
    configured subset and ordering; synthetic problems define their own
    two objectives and ignore the objectives section.
    """
    names, lower, upper = design_box(config)
    if config.provider == "simulated_button":
        meta = meta if meta is not None else _load_meta(config)
        indices = [OBJECTIVE_NAMES.index(name) for name in config.objectives]

        def evaluate(design: np.ndarray, seed: int):
            full, summaries = evaluate_design(
                design,
                meta,
                config.episodes_per_eval,
                seed,
                config.horizon,
                config.sensory_delay,
                config.dwell_limit,
            )
            return full[indices], summaries, (seed,)

        return Provider(names, tuple(config.objectives), lower, upper, None, evaluate)

    problem = get_problem(config.provider)

    def evaluate(design: np.ndarray, seed: int):
        return np.asarray(problem.evaluate(design), dtype=float), (), ()

    return Provider(
        names, problem.objective_names, lower, upper, problem.reference.copy(), evaluate
    )


def _provider_for(config: CidConfig, provider: Provider | None) -> Provider:
    """``provider``, or the config's own when None.

    The loop proposes in the provider's box but fits and archives in the
    config's (:func:`unit_designs`), so the two must be the same box.

    Raises:
        ValueError: the provider's box differs from ``design_box(config)``.
    """
    if provider is None:
        return make_provider(config)
    _, lower, upper = design_box(config)
    if not (np.array_equal(provider.lower, lower) and np.array_equal(provider.upper, upper)):
        raise ValueError(
            f"provider box [{provider.lower}, {provider.upper}] differs from the config's "
            f"design box [{lower}, {upper}]"
        )
    return provider


def _from_unit(provider: Provider, unit: np.ndarray) -> np.ndarray:
    return provider.lower + unit * (provider.upper - provider.lower)


def unit_designs(config: CidConfig, records) -> np.ndarray:
    """The records' raw designs rescaled to the unit cube: every unit row the loop keeps."""
    _, lower, upper = design_box(config)
    return (np.array([rec.design for rec in records]) - lower) / (upper - lower)


def _surrogates(inputs: np.ndarray, records, kernels) -> tuple[GpModel, ...]:
    """One GP per objective on the unit inputs, with the given kernels."""
    targets = np.array([rec.objectives for rec in records])
    return tuple(gp_fit(inputs, targets[:, j], spec) for j, spec in enumerate(kernels))


def _fit_models(
    config: CidConfig,
    inputs: np.ndarray,
    records,
    previous: tuple[GpModel, ...] | None,
    fit_event: int,
) -> tuple[GpModel, ...]:
    """One GP per objective; hyperparameters re-searched only when
    ``fit_event`` is a re-optimization step (0, or a multiple of the period)."""
    if previous is not None and fit_event % HYPEROPT_PERIOD:
        return _surrogates(inputs, records, [m.kernel for m in previous])
    targets = np.array([rec.objectives for rec in records])
    family = KernelFamily(config.kernel)
    kernels = [
        optimize_hyperparams(
            inputs, y, seed=seeds.seed_int(config.master_seed, "hyperopt", fit_event, j), family=family
        )
        for j, y in enumerate(targets.T)
    ]
    return _surrogates(inputs, records, kernels)


def archive_replay(config: CidConfig, records):
    """The archive after each record of a sequence, inserted in order."""
    archive = ParetoArchive(())
    for i, (unit, rec) in enumerate(zip(unit_designs(config, records), records)):
        archive = archive.inserted(unit, rec.objectives, i)
        yield archive


def rebuild_archive(config: CidConfig, records) -> ParetoArchive:
    """Archive implied by a record sequence, in insertion order."""
    archive = ParetoArchive(())
    for archive in archive_replay(config, records):
        pass
    return archive


def restore_state(config: CidConfig, records, kernels, reference: ReferencePoint) -> RunState:
    """The run state that records, kernels and reference imply under ``config``."""
    records = tuple(records)
    models = _surrogates(unit_designs(config, records), records, kernels)
    return RunState(config, records, rebuild_archive(config, records), models, reference)


def initial_state(config: CidConfig, provider: Provider | None = None) -> RunState:
    """Evaluate the low-discrepancy initial set and freeze the reference.

    The reference point comes from the provider when it defines one,
    otherwise from the initial observations with a 10% margin.

    Raises:
        ValueError: a provider whose box is not the config's design box.
    """
    provider = _provider_for(config, provider)
    d = provider.lower.size
    unit = scan_candidates(
        (np.zeros(d), np.ones(d)), config.init_count,
        seeds.seed_int(config.master_seed, "doe"),
    )
    records = []
    for i in range(config.init_count):
        raw = _from_unit(provider, unit[i])
        objectives, summaries, used = provider.evaluate(raw, seeds.seed_int(config.master_seed, "evaluate", i))
        records.append(EvaluationRecord(raw, objectives, used, summaries))
    records = tuple(records)

    if provider.fixed_reference is not None:
        reference = ReferencePoint(provider.fixed_reference)
    else:
        reference = ReferencePoint.from_observations(np.array([r.objectives for r in records]))
    models = _fit_models(config, unit_designs(config, records), records, None, 0)
    return RunState(config, records, rebuild_archive(config, records), models, reference)


def cid_step(state: RunState, provider: Provider | None = None) -> RunState:
    """One loop iteration: propose, evaluate, record, refit, archive.

    Raises:
        StateError: the evaluation budget is already spent.
        ValueError: a provider whose box is not the config's design box.
    """
    config = state.config
    if state.iteration >= config.budget:
        raise StateError(f"budget exhausted: {state.iteration} of {config.budget} steps done")
    provider = _provider_for(config, provider)
    d = provider.lower.size
    bounds = (np.zeros(d), np.ones(d))

    unit_choice = propose_next(
        state.models,
        bounds,
        state.archive,
        state.reference,
        scan_count=config.scan_count,
        seed=seeds.seed_int(config.master_seed, "acquisition", state.iteration),
    )
    record_index = len(state.records)
    raw = _from_unit(provider, unit_choice)
    objectives, summaries, used = provider.evaluate(
        raw, seeds.seed_int(config.master_seed, "evaluate", record_index)
    )
    record = EvaluationRecord(raw, objectives, used, summaries)
    records = state.records + (record,)

    inputs = unit_designs(config, records)
    archive = state.archive.inserted(inputs[-1], objectives, record_index)
    models = _fit_models(config, inputs, records, state.models, state.iteration + 1)
    return RunState(config, records, archive, models, state.reference)


def run(
    config: CidConfig,
    resume_from: RunState | None = None,
    meta: MetaPolicy | None = None,
    persist: Callable[[RunState], None] | None = None,
) -> tuple[RunState, ParetoArchive]:
    """Drive the loop from scratch or from a persisted state to budget.

    ``persist`` (when given) is called with the starting state, fresh or
    resumed, and after every step.  Resuming requires the exact same
    config; anything else would silently change seed derivations.

    Raises:
        ValueError: resume state was produced under a different config.
    """
    from .config import config_fingerprint

    provider = make_provider(config, meta)
    if resume_from is not None:
        if config_fingerprint(resume_from.config) != config_fingerprint(config):
            raise ValueError("resume state config fingerprint does not match the given config")
        state = resume_from
    else:
        state = initial_state(config, provider)
    if persist is not None:
        persist(state)
    while state.iteration < config.budget:
        state = cid_step(state, provider)
        if persist is not None:
            persist(state)
        _log.info("iteration %d of %d done", state.iteration, config.budget)
    return state, state.archive
