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
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import seeds
from .acquisition import propose_next, scan_candidates
from .button import DEFAULT_DT_S, DESIGN_FIELDS, ButtonDesignParams, design_to_fdvv
from .config import OBJECTIVE_NAMES, CidConfig, config_fingerprint
from .errors import StateError
from .gp import GpModel, KernelSpec, gp_fit, optimize_hyperparams
from .pareto import ArchiveEntry, ParetoArchive, ReferencePoint, _dominates, hypervolume
from .policy import MetaPolicy, TaskSpec, _adapt_tasks, _batches, init_policy
from .seeds import seed_for
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
    time_to_activation_s: float | None  # None when the episode never activated


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
        if not np.all(np.isfinite(self.objectives)):
            raise ValueError("objective values must be finite")


@dataclass(frozen=True)
class RunState:
    """Everything the loop carries between iterations: what ``run_state.json`` holds.

    The archive, the surrogates and the hypervolume curve are derived
    from the config, records, kernels and reference on first use, the
    same way live and after a reload, so a state saved and loaded again
    holds the same bits.
    """

    config: CidConfig
    records: tuple[EvaluationRecord, ...]
    kernels: tuple[KernelSpec, ...]
    reference: ReferencePoint

    @property
    def iteration(self) -> int:
        """Completed model-guided steps; the initial design set is iteration 0."""
        return len(self.records) - self.config.init_count

    @cached_property
    def _dominance(self) -> np.ndarray:
        """The (n, n) table whose [i, j] entry says record i strictly dominates record j."""
        objs = np.array([rec.objectives for rec in self.records])
        return _dominates(objs[:, None, :], objs[None, :, :])

    @cached_property
    def archive(self) -> ParetoArchive:
        """The records no other record strictly dominates, in record order.

        Strict dominance is transitive, so a record is rejected or later
        displaced exactly when another record dominates it: these are the
        entries, in their order, that inserting the records one at a time
        leaves.
        """
        unit = unit_designs(self.config, self.records)
        front = np.flatnonzero(~self._dominance.any(axis=0))
        return ParetoArchive(tuple(ArchiveEntry(unit[i], self.records[i].objectives, int(i)) for i in front))

    @cached_property
    def models(self) -> tuple[GpModel, ...]:
        """One GP per objective on the records' unit designs, with the state's kernels."""
        targets = np.array([rec.objectives for rec in self.records])
        inputs = unit_designs(self.config, self.records)
        return tuple(gp_fit(inputs, targets[:, j], spec) for j, spec in enumerate(self.kernels))

    def hypervolume_curve(self) -> list[float]:
        """The archive's hypervolume after each record from the initial set's last on.

        The front after record n is ``~dominance[:n, :n].any(axis=0)``;
        its rows in record order are the archive's objective matrix then.
        """
        objs = np.array([rec.objectives for rec in self.records])
        return [
            hypervolume(objs[:n][~self._dominance[:n, :n].any(axis=0)], self.reference).value
            for n in range(self.config.init_count, len(self.records) + 1)
        ]


@dataclass(frozen=True)
class Provider:
    """Where objective values come from: the button pipeline or a test function.

    The first five fields are a :func:`run_space`.
    ``evaluate(design, seed)`` returns ``(objectives, summaries, seeds)``
    for one raw design, where ``objectives`` holds one finite value per
    objective name of the config's run space, in that order; the loop
    refuses any other vector before it returns a state.
    ``evaluate_batch(designs, seeds)``, when set, takes a (k, d) array of
    raw designs and k seeds and returns k such tuples, row by row the
    bits that mapping ``evaluate`` over the rows would give;
    :func:`initial_state` evaluates the initial set with it in one call.
    """

    parameter_names: tuple[str, ...]
    objective_names: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray
    fixed_reference: np.ndarray | None
    evaluate: Callable[[np.ndarray, int], tuple[np.ndarray, tuple[EpisodeSummary, ...], tuple[int, ...]]]
    evaluate_batch: (
        Callable[[np.ndarray, Sequence[int]], list[tuple[np.ndarray, tuple[EpisodeSummary, ...], tuple[int, ...]]]]
        | None
    ) = None


def evaluate_designs(
    designs,
    meta: MetaPolicy,
    episodes: int,
    seeds,
    horizon: int = TaskSpec.horizon,
    sensory_delay: int = TaskSpec.sensory_delay,
    dwell_limit: int = TaskSpec.dwell_limit,
) -> list[tuple[np.ndarray, tuple[EpisodeSummary, ...]]]:
    """Objectives of button designs, each under the user model adapted to it.

    Renders every design and adapts the meta-policy to all of them at
    once (K episodes each per its recipe; every adaptation batch of every
    design runs in one lockstep), then runs every design's ``episodes``
    evaluation rollouts in one lockstep that records no observations.
    Design k's result depends only on ``designs[k]`` and ``seeds[k]``,
    bit for bit, so a one-design call gives the same result as that
    design in any batch.

    Returns one ``(objectives, summaries)`` per design: the canonical
    objective vector (completion_time_s, error_rate, effort), all
    minimized: mean time to a successful release with timeouts counted
    at the full horizon, failure fraction, and mean integrated squared
    force; and a summary of each evaluation episode.

    Raises:
        ValueError: out-of-range design, designs and seeds of different
            lengths, or episodes < 1.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    designs, seeds = list(designs), list(seeds)
    if len(designs) != len(seeds):
        raise ValueError(f"{len(designs)} designs but {len(seeds)} seeds: need one seed per design")
    params = [d if isinstance(d, ButtonDesignParams) else ButtonDesignParams.from_array(d) for d in designs]
    models = [design_to_fdvv(p) for p in params]
    tasks = [TaskSpec(p, horizon, sensory_delay, dwell_limit) for p in params]
    adapted = _adapt_tasks(meta, tasks, models, seeds)
    episode_seeds = (seed_for(seed, "rollout", i) for seed in seeds for i in range(episodes))
    return [
        _evaluated(batch, task)
        for task, batch in zip(tasks, _batches(adapted, tasks, models, episode_seeds, episodes, observe=False))
    ]


def _evaluated(trajectories, task: TaskSpec):
    """One design's objective vector and episode summaries from its evaluation episodes."""
    dt = DEFAULT_DT_S
    episodes = len(trajectories)
    durations = np.empty(episodes)
    successes = np.empty(episodes, dtype=bool)
    efforts = np.empty(episodes)
    summaries = []
    for i, traj in enumerate(trajectories):
        successes[i] = traj.success
        durations[i] = len(traj) * dt if traj.success else task.horizon * dt
        efforts[i] = float(np.sum(traj.actions**2)) * dt
        t_act = None if traj.activation_step is None else traj.activation_step * dt
        summaries.append(EpisodeSummary(traj.return_, traj.success, t_act))
    vector = np.array([durations.mean(), 1.0 - successes.mean(), efforts.mean()])
    return vector, tuple(summaries)


def _load_meta(config: CidConfig) -> MetaPolicy:
    """The config's policy file, which must hold the config's adaptation
    recipe (an initialization is trained for one), or a fresh one."""
    if not config.policy_path:
        init = init_policy(seeds.seed_for(config.master_seed, "meta_init"))
        return MetaPolicy(init, config.inner_lr, config.adapt_episodes)
    from .storage import load_artifact

    meta = load_artifact(config.policy_path)
    if not isinstance(meta, MetaPolicy):
        raise ValueError(f"{config.policy_path} does not hold a policy artifact")
    for key in ("inner_lr", "adapt_episodes"):
        trained, configured = getattr(meta, key), getattr(config, key)
        if trained != configured:
            raise ValueError(
                f"user_model.{key}: {config.policy_path} was trained for {trained!r}, the config sets {configured!r}"
            )
    return meta


def run_space(
    config: CidConfig,
) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray, np.ndarray, np.ndarray | None]:
    """A config's run space in :class:`Provider`'s field order.

    Parameter names, objective names (for the simulated button, the
    configured subset and order; a synthetic problem's own two), raw
    lower and upper bounds, and the fixed reference point, which is None
    when the initial observations set it.
    """
    if config.provider == "simulated_button":
        lower = np.array([config.bounds[k][0] for k in DESIGN_FIELDS])
        upper = np.array([config.bounds[k][1] for k in DESIGN_FIELDS])
        return DESIGN_FIELDS, config.objectives, lower, upper, None
    problem = get_problem(config.provider)
    names = tuple(f"x{i}" for i in range(problem.dim))
    return names, problem.objective_names, problem.lower.copy(), problem.upper.copy(), problem.reference.copy()


def make_provider(config: CidConfig, meta: MetaPolicy | None = None) -> Provider:
    """Bind a config to its objective source, over :func:`run_space`."""
    space = run_space(config)
    if config.provider != "simulated_button":
        problem = get_problem(config.provider)

        def evaluate(design: np.ndarray, seed: int):
            return np.asarray(problem.evaluate(design), dtype=float), (), ()

        return Provider(*space, evaluate)

    meta = meta if meta is not None else _load_meta(config)
    indices = [OBJECTIVE_NAMES.index(name) for name in config.objectives]

    def evaluate_batch(designs, eval_seeds):
        results = evaluate_designs(
            designs,
            meta,
            config.episodes_per_eval,
            eval_seeds,
            config.horizon,
            config.sensory_delay,
            config.dwell_limit,
        )
        return [(full[indices], summaries, (seed,)) for (full, summaries), seed in zip(results, eval_seeds)]

    def evaluate(design: np.ndarray, seed: int):
        return evaluate_batch([design], [seed])[0]

    return Provider(*space, evaluate, evaluate_batch)


def _provider_for(config: CidConfig, provider: Provider | None) -> Provider:
    """``provider``, or the config's own when None.

    The loop proposes in the provider's box but fits and archives in the
    config's (:func:`unit_designs`), so the two must be the same box.

    Raises:
        ValueError: the provider's box differs from the config's :func:`run_space`.
    """
    if provider is None:
        return make_provider(config)
    _, _, lower, upper, _ = run_space(config)
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
    _, _, lower, upper, _ = run_space(config)
    return (np.array([rec.design for rec in records]) - lower) / (upper - lower)


def _searched_kernels(
    config: CidConfig, records, fit_event: int, starts: tuple[KernelSpec, ...] | None = None
) -> tuple[KernelSpec, ...]:
    """One kernel per objective by hyperparameter search, seeded by ``fit_event``
    and warm-started from ``starts``, one kernel per objective, when given."""
    inputs = unit_designs(config, records)
    targets = np.array([rec.objectives for rec in records])
    starts = starts if starts is not None else (None,) * targets.shape[1]
    return tuple(
        optimize_hyperparams(
            inputs,
            y,
            seed=seeds.seed_int(config.master_seed, "hyperopt", fit_event, j),
            start=start,
        )
        for j, (y, start) in enumerate(zip(targets.T, starts, strict=True))
    )


def _records(config: CidConfig, designs, results) -> tuple[EvaluationRecord, ...]:
    """One record per raw design and its provider result.

    Raises:
        ValueError: an objective vector without one value per configured
            objective, or with a non-finite value.
    """
    count = len(run_space(config)[1])
    records = tuple(
        EvaluationRecord(x, objectives, used, summaries)
        for x, (objectives, summaries, used) in zip(designs, results, strict=True)
    )
    for rec in records:
        if rec.objectives.shape != (count,):
            raise ValueError(f"provider returned {rec.objectives.size} objective values for {count} objectives")
    return records


def initial_state(config: CidConfig, provider: Provider | None = None) -> RunState:
    """Evaluate the Latin hypercube initial set and freeze the reference.

    The reference point comes from the provider when it defines one,
    otherwise from the initial observations with a 10% margin.

    Raises:
        ValueError: a provider whose box is not the config's design box,
            or an objective vector ``_records`` refuses.
    """
    provider = _provider_for(config, provider)
    unit = scan_candidates(provider.lower.size, config.init_count, seeds.seed_int(config.master_seed, "doe"))
    raw = _from_unit(provider, unit)
    eval_seeds = [seeds.seed_int(config.master_seed, "evaluate", i) for i in range(config.init_count)]
    if provider.evaluate_batch is not None:
        results = provider.evaluate_batch(raw, eval_seeds)
    else:
        results = [provider.evaluate(x, s) for x, s in zip(raw, eval_seeds)]
    records = _records(config, raw, results)

    if provider.fixed_reference is not None:
        reference = ReferencePoint(provider.fixed_reference)
    else:
        reference = ReferencePoint.from_observations(np.array([r.objectives for r in records]))
    return RunState(config, records, _searched_kernels(config, records, 0), reference)


def cid_step(state: RunState, provider: Provider | None = None) -> RunState:
    """One loop iteration: propose, evaluate, record, refit.

    The state it returns derives its archive and surrogates on first use;
    the kernels are searched again every HYPEROPT_PERIOD steps, each
    search warm-started from the state's kernel, and reused in between.

    Raises:
        StateError: the evaluation budget is already spent.
        ValueError: a provider whose box is not the config's design box,
            or an objective vector ``_records`` refuses.
    """
    config = state.config
    if state.iteration >= config.budget:
        raise StateError(f"budget exhausted: {state.iteration} of {config.budget} steps done")
    provider = _provider_for(config, provider)

    unit_choice = propose_next(
        state.models,
        state.archive,
        state.reference,
        scan_count=config.scan_count,
        seed=seeds.seed_int(config.master_seed, "acquisition", state.iteration),
    )
    raw = _from_unit(provider, unit_choice)
    result = provider.evaluate(raw, seeds.seed_int(config.master_seed, "evaluate", len(state.records)))
    records = state.records + _records(config, [raw], [result])
    fit_event = state.iteration + 1
    if fit_event % HYPEROPT_PERIOD == 0:
        kernels = _searched_kernels(config, records, fit_event, state.kernels)
    else:
        kernels = state.kernels
    return RunState(config, records, kernels, state.reference)


def run(
    config: CidConfig,
    resume_from: RunState | None = None,
    persist: Callable[[RunState], None] | None = None,
) -> tuple[RunState, ParetoArchive]:
    """Drive the loop from scratch or from a persisted state to budget.

    ``persist`` (when given) is called with the starting state, fresh or
    resumed, and after every step.  Resuming requires the exact same
    config; anything else would silently change seed derivations.

    Raises:
        ValueError: resume state was produced under a different config.
    """
    provider = make_provider(config)
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
