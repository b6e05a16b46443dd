"""The five benchmark workloads, their generated inputs and output checks.

One call of a workload function is one job.  It records when it was
ready to evaluate its first design (``ctx.ready``), the end of every
unit of work (``ctx.boundaries``), the operations it attempted, its
quality numbers and the result of every output check.  All inputs are
generated from the seed; the program only sees those inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

# Job sizes.  "full" is what the benchmark measures, sized so one job
# takes about 4 s on the reference machine; "small" keeps the
# benchmark's own tests short.
SIZES = {
    "button_design": {"full": {"init": 8, "steps": 6}, "small": {"init": 4, "steps": 2}},
    "zdt1_bench": {"full": {"init": 8, "steps": 36}, "small": {"init": 4, "steps": 6}},
    "tradeoff3": {"full": {"init": 8, "steps": 6}, "small": {"init": 4, "steps": 3}},
    "meta_train": {
        "full": {"iterations": 3, "tasks": 16, "designs": 2, "episodes": 4},
        "small": {"iterations": 2, "tasks": 2, "designs": 1, "episodes": 2},
    },
    "press_replay": {"full": {"units": 24}, "small": {"units": 2}},
}

# C11's tolerances for a refit model.
REFIT_RMSE_RATIO_MAX = 0.05
REFIT_ACTIVATION_ERR_MAX_MM = 0.1


class SetupDone(Exception):
    """Raised at readiness when a worker only measures set-up time."""


@dataclass
class Context:
    """What a workload needs and what it reports back to the worker."""

    seed: int
    size: dict
    workdir: str
    tracer: object | None = None
    ready: float | None = None
    boundaries: list[float] = field(default_factory=list)
    end: float | None = None
    attempted: int = 0
    quality: dict = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    archive_size: int = 0
    setup_only: bool = False

    def mark_ready(self):
        if self.ready is None:
            self.ready = time.monotonic()
            if self.setup_only:
                raise SetupDone

    def mark_step(self):
        self.boundaries.append(time.monotonic())

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, bool(ok), detail))

    @contextlib.contextmanager
    def untraced(self):
        """Generate inputs without recording them as program work."""
        was = self.tracer is not None and self.tracer.enabled
        if was:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if was:
                self.tracer.enabled = True

    def stop_tracing(self):
        # Checks call into the program too; they are not part of the workload.
        self.end = time.monotonic()
        if self.tracer is not None:
            self.tracer.enabled = False


def _hook(module, attr: str, before=None, after=None):
    """Run ``before()`` / ``after(result)`` around calls made through ``module.attr``.

    Hooking again replaces the previous hook, so jobs sharing a process
    each see only their own.
    """
    fn = getattr(module, attr)
    fn = getattr(fn, "unhooked", fn)

    def hooked(*args, **kwargs):
        if before is not None:
            before()
        result = fn(*args, **kwargs)
        if after is not None:
            after(result)
        return result

    hooked.unhooked = fn
    setattr(module, attr, hooked)


# --- independent reference computations used by the checks -----------------

def nondominated_and_finite(objectives: np.ndarray) -> tuple[bool, str]:
    """True when every row is finite and no row dominates another."""
    objs = np.asarray(objectives, dtype=float)
    if objs.ndim != 2 or objs.shape[0] == 0:
        return False, f"expected a nonempty (n, m) matrix, got shape {objs.shape}"
    if not np.all(np.isfinite(objs)):
        return False, "non-finite objective value"
    for i in range(objs.shape[0]):
        le = np.all(objs <= objs[i], axis=1)
        lt = np.any(objs < objs[i], axis=1)
        if np.any(le & lt):
            return False, f"row {i} is dominated"
    return True, f"{objs.shape[0]} points"


def reference_hypervolume(points: np.ndarray, ref: np.ndarray) -> float:
    """Exact 2- or 3-objective hypervolume by sorting and slicing."""
    pts = np.asarray(points, dtype=float)
    pts = pts[np.all(pts < ref, axis=1)]
    if pts.shape[0] == 0:
        return 0.0
    if pts.shape[1] == 2:
        total, floor = 0.0, ref[1]
        for f1, f2 in sorted(map(tuple, pts)):
            if f2 < floor:
                total += (ref[0] - f1) * (floor - f2)
                floor = f2
        return total
    levels = np.unique(pts[:, 2])
    edges = np.append(levels, ref[2])
    return sum(
        reference_hypervolume(pts[pts[:, 2] <= z][:, :2], ref[:2]) * (edges[k + 1] - z)
        for k, z in enumerate(levels)
    )


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_front_csv(front_path: str, state, hv_expected: float, hv_scale: float = 1.0):
    """front.csv rows equal the archive, and their hypervolume equals the quality number.

    ``hv_scale`` divides the recomputed hypervolume, for ``hv_ratio``.
    Returns a list of (check name, ok, detail).
    """
    with open(front_path, newline="") as handle:
        rows = list(csv.reader(handle))
    m = state.reference.values.size
    entries = sorted(state.archive.entries, key=lambda e: e.record_id)
    body = rows[1:]
    ids_ok = [int(r[-1]) for r in body] == [e.record_id for e in entries]
    if not ids_ok:
        return [("front_rows", False, f"{len(body)} rows vs {len(entries)} archive entries")]
    objs = np.array([[float(v) for v in r[-1 - m : -1]] for r in body])
    expected = np.array([e.objectives for e in entries])
    rows_ok = bool(np.allclose(objs, expected, rtol=1e-8, atol=0.0))
    hv = reference_hypervolume(objs, state.reference.values) / hv_scale
    return [
        ("front_rows", rows_ok, f"{len(body)} rows"),
        ("front_hypervolume", _close(hv, hv_expected, 1e-6), f"{hv:.9g} vs {hv_expected:.9g}"),
    ]


def _check_loop_state(ctx: Context, state, expected_records: int):
    ok, detail = nondominated_and_finite(state.archive.objective_matrix)
    ctx.check("archive_nondominated", ok, detail)
    objs = np.array([r.objectives for r in state.records])
    ctx.check(
        "records",
        len(state.records) == expected_records and bool(np.all(np.isfinite(objs))),
        f"{len(state.records)} of {expected_records}",
    )
    ctx.archive_size = len(state.archive)


def _check_hv_curve(ctx: Context, hv_path: str, hv_final: float, steps: int):
    with open(hv_path, newline="") as handle:
        values = [float(r[1]) for r in list(csv.reader(handle))[1:]]
    ok = (
        len(values) == steps + 1
        and all(b >= a for a, b in zip(values, values[1:]))
        and _close(values[-1], hv_final, 1e-8)
    )
    ctx.check("hv_curve", ok, f"{len(values)} points, last {values[-1] if values else None}")


# --- workloads ---------------------------------------------------------------

def user_policy():
    """The simulated user every button_design job adapts: the meta-init of seed 0.

    Held fixed so that the seed varies the designs and random streams
    but not the user's skill, which sets how long every episode runs.
    """
    from buttonlab import policy, seeds

    return policy.MetaPolicy(policy.init_policy(seeds.seed_for(0, "meta_init")))


def button_design(ctx: Context):
    """``buttonlab optimize`` on the simulated button, through the CLI entry point."""
    from buttonlab import cli, loop, pareto, storage

    init, steps = ctx.size["init"], ctx.size["steps"]
    policy_path = os.path.join(ctx.workdir, "user.json")
    with ctx.untraced():
        storage.save_artifact(policy_path, user_policy())
    config_path = os.path.join(ctx.workdir, "run.ini")
    user_model = "".join(f"{k} = {v}\n" for k, v in ctx.size.get("user_model", {}).items())
    with open(config_path, "w") as handle:
        handle.write(
            f"[run]\nmaster_seed = {ctx.seed}\nbudget = {steps}\ninit_count = {init}\n"
            f"[user_model]\npolicy_path = {policy_path}\n{user_model}"
        )
    out_dir = os.path.join(ctx.workdir, "results")
    ctx.attempted = init + steps

    # Ready when the loop starts evaluating: after imports, config parsing
    # and building the provider and its meta policy.
    _hook(loop, "initial_state", before=ctx.mark_ready, after=lambda _: ctx.mark_step())
    _hook(loop, "cid_step", after=lambda _: ctx.mark_step())
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["optimize", "--config", config_path, "--out-dir", out_dir])
    ctx.stop_tracing()
    ctx.check("exit_code", code == 0, f"buttonlab optimize exited {code}")
    if code != 0:
        return

    state = storage.load_artifact(os.path.join(out_dir, "run_state.json"))
    _check_loop_state(ctx, state, init + steps)
    hv_final = pareto.hypervolume(state.archive.objective_matrix, state.reference).value
    ctx.quality["hv_final"] = hv_final
    for name, ok, detail in check_front_csv(os.path.join(out_dir, "front.csv"), state, hv_final):
        ctx.check(name, ok, detail)
    _check_hv_curve(ctx, os.path.join(out_dir, "hv_curve.csv"), hv_final, steps)
    with open(os.path.join(out_dir, "evaluations.jsonl")) as handle:
        lines = [json.loads(line) for line in handle]
    ctx.check("evaluations_log", len(lines) == init + steps, f"{len(lines)} lines")


def zdt1_bench(ctx: Context):
    """``buttonlab bench --problem zdt1``: the optimizer alone, two objectives."""
    from buttonlab import cli, loop, pareto, storage, synthetic

    init, steps = ctx.size["init"], ctx.size["steps"]
    ctx.attempted = init + steps
    captured = {}
    _hook(loop, "initial_state", before=ctx.mark_ready, after=lambda _: ctx.mark_step())
    _hook(loop, "cid_step", after=lambda _: ctx.mark_step())
    _hook(cli, "run", after=lambda result: captured.update(state=result[0]))
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main([
            "bench", "--problem", "zdt1", "--budget", str(steps),
            "--init-count", str(init), "--seed", str(ctx.seed),
        ])
    ctx.stop_tracing()
    ctx.check("exit_code", code == 0, f"buttonlab bench exited {code}")
    if code != 0:
        return

    state = captured["state"]
    _check_loop_state(ctx, state, init + steps)
    problem = synthetic.get_problem("zdt1")
    ideal = pareto.hypervolume(problem.true_front(2048), state.reference).value
    ratio = pareto.hypervolume(state.archive.objective_matrix, state.reference).value / ideal
    ctx.quality["hv_ratio"] = ratio
    ctx.check("printed_ratio", f"hv_ratio={ratio:.4f}" in printed.getvalue(), printed.getvalue().strip())
    front, curve = os.path.join(ctx.workdir, "front.csv"), os.path.join(ctx.workdir, "hv_curve.csv")
    storage.export_front(state, front, curve)
    for name, ok, detail in check_front_csv(front, state, ratio, hv_scale=ideal):
        ctx.check(name, ok, detail)


TRADEOFF3_REFERENCE = np.array([1.1, 1.1, 1.1])


def tradeoff3_provider():
    """DTLZ2's front as a three-objective function over the button's design box.

    The first two unit-scaled coordinates place a point on the positive
    octant of the unit sphere; the other four do not matter.  No point
    of the sphere dominates another, so the archive grows by one entry
    per evaluation and every seed does the same EHVI and hypervolume
    work at each step.
    """
    from buttonlab import button, loop

    lower = np.array([button.DESIGN_BOUNDS[k][0] for k in button.DESIGN_FIELDS])
    upper = np.array([button.DESIGN_BOUNDS[k][1] for k in button.DESIGN_FIELDS])

    def evaluate(design: np.ndarray, eval_seed: int):
        u = (np.asarray(design, dtype=float) - lower) / (upper - lower)
        a, b = u[0] * math.pi / 2.0, u[1] * math.pi / 2.0
        f = np.array([math.cos(a) * math.cos(b), math.cos(a) * math.sin(b), math.sin(a)])
        return f, (), ()

    return loop.Provider(
        button.DESIGN_FIELDS, ("f1", "f2", "f3"), lower, upper, TRADEOFF3_REFERENCE.copy(), evaluate
    )


def tradeoff3(ctx: Context):
    """The loop API on a three-objective trade-off whose archive keeps growing."""
    from buttonlab import loop, pareto, storage
    from buttonlab.config import CidConfig

    init, steps = ctx.size["init"], ctx.size["steps"]
    ctx.attempted = init + steps
    config = CidConfig(master_seed=ctx.seed, budget=steps, init_count=init)
    provider = tradeoff3_provider()
    if ctx.tracer is not None:
        from tracer import traced_provider

        provider = traced_provider(ctx.tracer, provider)
    front, curve = os.path.join(ctx.workdir, "front.csv"), os.path.join(ctx.workdir, "hv_curve.csv")

    ctx.mark_ready()
    state = loop.initial_state(config, provider)
    ctx.mark_step()
    for _ in range(steps):
        state = loop.cid_step(state, provider)
        ctx.mark_step()
    storage.export_front(state, front, curve)
    ctx.stop_tracing()

    _check_loop_state(ctx, state, init + steps)
    hv_final = pareto.hypervolume(state.archive.objective_matrix, state.reference).value
    ctx.quality["hv_final"] = hv_final
    for name, ok, detail in check_front_csv(front, state, hv_final):
        ctx.check(name, ok, detail)
    _check_hv_curve(ctx, curve, hv_final, steps)


class _IterationLog(logging.Handler):
    """Timestamps meta_train's per-iteration progress records."""

    def __init__(self, ctx: Context):
        super().__init__(logging.INFO)
        self.ctx = ctx

    def emit(self, record):
        if record.getMessage().startswith("meta iteration"):
            self.ctx.mark_step()


META_TRAIN_SEED = 0
HELD_OUT_SEED = 9100


def stratified_designs(rng, count: int):
    """``count`` designs forming a Latin hypercube over the design box.

    Each design field's range is cut into ``count`` equal slices and
    every slice gets one design, so a batch always spans the whole box.
    """
    from buttonlab.button import DESIGN_BOUNDS, ButtonDesignParams

    columns = {}
    for name, (lo, hi) in DESIGN_BOUNDS.items():
        slots = (rng.permutation(count) + rng.uniform(size=count)) / count
        columns[name] = lo + (hi - lo) * slots
    return [ButtonDesignParams(**{name: float(col[k]) for name, col in columns.items()}) for k in range(count)]


def meta_train(ctx: Context):
    """``meta_train`` on seeded task designs, a save and load, then post-adaptation returns.

    The training seed, which fixes the initial policy and the episode
    noise, is held at META_TRAIN_SEED.  The workload seed draws each
    iteration's task designs as a Latin hypercube: episode lengths
    differ many times over between designs, and uniform draws made the
    job's work differ by half from seed to seed.  The held-out designs
    and their adaptation and evaluation seeds are fixed (HELD_OUT_SEED).
    """
    from buttonlab import button, policy, seeds, storage

    iterations, tasks = ctx.size["iterations"], ctx.size["tasks"]
    designs, episodes = ctx.size["designs"], ctx.size["episodes"]
    ctx.attempted = iterations + designs
    out = os.path.join(ctx.workdir, "policy.json")
    batches = [
        stratified_designs(np.random.default_rng([ctx.seed, it]), tasks)
        for it in range(iterations)
    ]
    drawn = iter([design for batch in batches for design in batch])

    def task_sampler(rng):
        # meta_train asks for its tasks in order, one iteration's batch after another.
        return next(drawn)

    log = logging.getLogger("buttonlab.policy")
    log.setLevel(logging.INFO)
    log.propagate = False
    handler = _IterationLog(ctx)
    log.addHandler(handler)
    ctx.mark_ready()
    ctx.mark_step()
    try:
        trained = policy.meta_train(task_sampler, iterations, seed=META_TRAIN_SEED, log_every=1,
                                    tasks_per_iteration=tasks)
    finally:
        log.removeHandler(handler)
    storage.save_artifact(out, trained)
    meta = storage.load_artifact(out)
    returns = []
    for i, design in enumerate(stratified_designs(np.random.default_rng(HELD_OUT_SEED), designs)):
        model = button.design_to_fdvv(design)
        task = policy.TaskSpec(design)
        adapted = policy.adapt(meta, task, model, seeds.seed_int(HELD_OUT_SEED, "adapt", i))
        returns.extend(
            policy.rollout(adapted, task, model, seeds.seed_for(HELD_OUT_SEED, "evaluate", i, r)).return_
            for r in range(episodes)
        )
    ctx.stop_tracing()

    same = (
        isinstance(meta, policy.MetaPolicy)
        and meta.init_params.layer_sizes == trained.init_params.layer_sizes
        and np.array_equal(meta.init_params.vector, trained.init_params.vector)
        and meta.inner_lr == trained.inner_lr
        and meta.adapt_episodes == trained.adapt_episodes
    )
    ctx.check("artifact_round_trip", same, out)
    ctx.check("iterations_logged", len(ctx.boundaries) == iterations + 1, f"{len(ctx.boundaries) - 1}")
    ctx.check("returns_finite", bool(np.all(np.isfinite(returns))), f"{len(returns)} episodes")
    ctx.quality["post_adapt_return"] = float(np.mean(returns))


# Capture inputs: the button rests, then is pressed at one of three
# constant speeds.  The load cell adds Gaussian noise; the displacement
# encoder quantizes, so a button at rest reads exactly zero.
PRESS_SPEEDS_MM_S = (10.0, 100.0, 300.0)
PRESS_REST_SAMPLES = 150
PRESS_SAMPLES = 400
FORCE_NOISE_N = 0.004
ENCODER_STEP_MM = 0.0005
REPLAY_CYCLES = 10


def _press_design(rng):
    from buttonlab.button import ButtonDesignParams

    return ButtonDesignParams(
        travel=rng.uniform(2.0, 4.0),
        activation_fraction=rng.uniform(0.4, 0.6),
        peak_force=rng.uniform(1.5, 3.0),
        snap_ratio=rng.uniform(0.2, 0.5),
        velocity_stiffening=rng.uniform(0.1, 0.5),
        damping=rng.uniform(0.005, 0.015),
    )


def _noisy_press(model, speed: float, rng):
    from buttonlab.button import FdTrace, force_at

    ramp = np.linspace(0.0, model.travel, PRESS_SAMPLES)
    d = np.concatenate([np.zeros(PRESS_REST_SAMPLES), ramp[1:]])
    dt = (ramp[1] - ramp[0]) / speed
    t = dt * np.arange(d.size)
    f = np.array([force_at(model, float(x), speed) for x in d])
    vib = np.zeros(d.size)
    onset = int(np.argmax(d >= model.activation_disp))
    burst = model.vibration.waveform(dt)
    count = min(burst.size, d.size - onset)
    vib[onset : onset + count] = burst[:count]
    d_read = np.round(d / ENCODER_STEP_MM) * ENCODER_STEP_MM
    f_read = f + rng.normal(0.0, FORCE_NOISE_N, f.size)
    return FdTrace(t, d_read, f_read, vib, sample_rate=1.0 / dt)


def _press_cycles(peak_force: float) -> np.ndarray:
    """Repeated press, hold and release: 520 control steps per cycle."""
    up = np.linspace(0.0, 1.3 * peak_force, 150)
    cycle = np.concatenate([up, np.full(100, 1.3 * peak_force), up[::-1], np.zeros(120)])
    return np.tile(cycle, REPLAY_CYCLES)


def _refit_error(true_model, refit) -> tuple[float, float]:
    """C11's measure: worst relative F-D rmse over the speeds, and activation error."""
    from buttonlab.button import force_at

    dense = np.linspace(0.0, true_model.travel, 600)
    worst = 0.0
    for v in PRESS_SPEEDS_MM_S:
        true_f = np.array([force_at(true_model, float(x), v) for x in dense])
        fit_f = np.array([force_at(refit, float(min(x, refit.travel)), v) for x in dense])
        worst = max(worst, float(np.sqrt(np.mean((fit_f - true_f) ** 2))) / float(np.max(true_f)))
    return worst, abs(refit.activation_disp - true_model.activation_disp)


def _press_inputs(seed: int, unit: int):
    """True model, three recorded presses, a replay profile, an actuator and its target."""
    from buttonlab import button

    rng = np.random.default_rng([seed, unit])
    model = button.design_to_fdvv(_press_design(rng))
    traces = [_noisy_press(model, v, rng) for v in PRESS_SPEEDS_MM_S]
    profile = _press_cycles(float(model.max_force))
    # A first-order lag as the actuator's impulse response.
    response = 0.3 * 0.7 ** np.arange(24)
    target = np.convolve(profile, np.ones(25) / 25.0, mode="same")
    return model, traces, profile, response, target


def press_replay(ctx: Context):
    """Capture side: filter and fit recorded presses, store the model, replay, compensate."""
    from buttonlab import button, capture, storage

    units = ctx.size["units"]
    ctx.attempted = units
    with ctx.untraced():
        inputs = [_press_inputs(ctx.seed, u) for u in range(units)]

    outputs = []
    ctx.mark_ready()
    for u, (_, traces, profile, response, target) in enumerate(inputs):
        unit_dir = os.path.join(ctx.workdir, f"unit{u}")
        os.makedirs(unit_dir)
        groups = []
        for k, trace in enumerate(traces):
            path = os.path.join(unit_dir, f"press{k}.csv")
            storage.save_trace(path, trace)
            loaded = storage.load_trace(path)
            cutoff = loaded.sample_rate / 20.0
            groups.append([capture.low_pass_filter(loaded, cutoff)])
        fitted = capture.fit_fdvv(groups)
        model_path = os.path.join(unit_dir, "model.json")
        storage.save_artifact(model_path, fitted)
        reloaded = storage.load_artifact(model_path)
        replay = button.scripted_press_trace(reloaded, profile)
        drive, rmse = capture.compensate_drive(target, response)
        outputs.append((fitted, reloaded, replay, drive, rmse))
        ctx.mark_step()
    ctx.stop_tracing()
    ctx.boundaries.insert(0, ctx.ready)

    worst_ratio = worst_act = 0.0
    round_trip = replay_ok = compensated = True
    grid = np.linspace(0.0, 1.0, 50)
    for (model, _, profile, response, target), (fitted, reloaded, replay, drive, rmse) in zip(inputs, outputs):
        ratio, act_err = _refit_error(model, fitted)
        worst_ratio, worst_act = max(worst_ratio, ratio), max(worst_act, act_err)
        for v in PRESS_SPEEDS_MM_S:
            for x in grid * fitted.travel:
                round_trip &= button.force_at(fitted, x, v) == button.force_at(reloaded, x, v)
        replay_ok &= (
            len(replay) == profile.size + 1
            and bool(np.all(np.isfinite(replay.displacement)))
            and float(np.min(replay.displacement)) >= 0.0
            and float(np.max(replay.displacement)) <= reloaded.travel
        )
        resid = target - np.convolve(drive, response)[: target.size]
        compensated &= _close(float(np.sqrt(np.mean(resid**2))), rmse, 1e-9) and rmse < 0.01 * float(
            np.sqrt(np.mean(target**2))
        )
    ctx.quality["refit_error"] = worst_ratio
    ctx.check(
        "refit_within_c11",
        worst_ratio < REFIT_RMSE_RATIO_MAX and worst_act < REFIT_ACTIVATION_ERR_MAX_MM,
        f"worst rmse {worst_ratio:.4f} of peak, activation error {worst_act:.4f} mm",
    )
    ctx.check("model_round_trip", round_trip, "force_at equal on a grid")
    ctx.check("replay_bounded", replay_ok, "")
    ctx.check("drive_compensated", compensated, "")


WORKLOADS = {
    "button_design": button_design,
    "zdt1_bench": zdt1_bench,
    "tradeoff3": tradeoff3,
    "meta_train": meta_train,
    "press_replay": press_replay,
}
