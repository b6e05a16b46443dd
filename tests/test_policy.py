"""User-model policy: distribution math, gradients, episodes, adaptation."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import norm

from buttonlab import (
    ACTIVATION,
    RELEASE,
    ButtonDesignParams,
    FdTrace,
    MetaPolicy,
    PolicyParams,
    SimState,
    TaskSpec,
    Trajectory,
    adapt,
    design_to_fdvv,
    evaluate_design,
    fit_fdvv,
    force_at,
    init_policy,
    meta_train,
    policy_gradient,
    rollout,
    rollouts,
    step,
    surrogate_objective,
)
from buttonlab import seeds
from buttonlab.policy import (
    ACTION_MAX_N,
    GAMMA,
    LOCKSTEP_MIN_EPISODES,
    _adapt_tasks,
    _layer,
    _mean_batch,
    default_task_sampler,
    param_count,
)

EASY = ButtonDesignParams(
    travel=2.0,
    activation_fraction=0.5,
    peak_force=1.0,
    snap_ratio=0.2,
    velocity_stiffening=0.1,
    damping=0.01,
)


def linear_params(weights=None, bias=2.0, log_std=-0.5):
    w = np.zeros(5) if weights is None else np.asarray(weights, dtype=float)
    return PolicyParams((5, 1), np.concatenate([w, [bias, log_std]]))


def test_param_count():
    assert param_count((5, 1)) == 7
    assert param_count((5, 32, 32, 1)) == 5 * 32 + 32 + 32 * 32 + 32 + 32 + 1 + 1


def test_policy_params_validation():
    with pytest.raises(ValueError):
        PolicyParams((5, 1), np.zeros(6))
    with pytest.raises(ValueError):
        PolicyParams((4, 1), np.zeros(6))
    with pytest.raises(ValueError):
        PolicyParams((5, 2), np.zeros(13))
    bad = np.zeros(7)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        PolicyParams((5, 1), bad)


def test_init_policy_is_seeded_with_pressing_bias():
    a = init_policy(42)
    b = init_policy(42)
    c = init_policy(43)
    assert np.array_equal(a.vector, b.vector)
    assert not np.array_equal(a.vector, c.vector)
    assert a.log_std == -0.5
    # Fresh policies push at the mean bias on a zero observation.
    w, bias = a.weights[-1]
    assert np.allclose(bias, 2.0)


def test_log_prob_matches_normal_density():
    params = linear_params(weights=[0.5, -0.2, 0.1, 0.0, 0.3], bias=1.0, log_std=-0.3)
    model = design_to_fdvv(EASY)
    sigma = math.exp(-0.3)
    for seed in range(5):
        traj = rollout(params, TaskSpec(EASY, horizon=200), model, seed=seed)
        means, _ = _mean_batch(params, traj.observations)
        assert traj.log_probs == pytest.approx(norm.logpdf(traj.raw_actions, loc=means, scale=sigma), abs=1e-12)
        assert np.all((0.0 <= traj.actions) & (traj.actions <= ACTION_MAX_N))


def test_gradient_matches_finite_differences():
    params = linear_params(weights=[0.4, -0.3, 0.2, 0.1, -0.1], bias=1.5, log_std=-0.4)
    model = design_to_fdvv(EASY)
    task = TaskSpec(EASY, horizon=120, sensory_delay=10, dwell_limit=60)
    batch = [rollout(params, task, model, seed) for seed in range(4)]
    baseline = float(np.mean([t.return_ for t in batch]))

    grad = policy_gradient(batch, params, baseline=baseline)
    h = 1e-4
    fd = np.empty_like(grad)
    for i in range(grad.size):
        up = params.vector.copy()
        dn = params.vector.copy()
        up[i] += h
        dn[i] -= h
        f_up = surrogate_objective(batch, params.replaced(up), baseline=baseline)
        f_dn = surrogate_objective(batch, params.replaced(dn), baseline=baseline)
        fd[i] = (f_up - f_dn) / (2.0 * h)
    rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
    assert rel < 1e-2


def test_gradient_matches_finite_differences_deep_policy():
    params = init_policy(3, layer_sizes=(5, 8, 1))
    model = design_to_fdvv(EASY)
    task = TaskSpec(EASY, horizon=80, sensory_delay=5, dwell_limit=40)
    batch = [rollout(params, task, model, seed) for seed in range(3)]
    baseline = 0.0
    grad = policy_gradient(batch, params, baseline=baseline)
    h = 1e-4
    fd = np.empty_like(grad)
    for i in range(grad.size):
        up = params.vector.copy()
        dn = params.vector.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (
            surrogate_objective(batch, params.replaced(up), baseline=baseline)
            - surrogate_objective(batch, params.replaced(dn), baseline=baseline)
        ) / (2.0 * h)
    rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
    assert rel < 1e-2


def zeroed_trajectory(params, n=20):
    rng = np.random.default_rng(5)
    obs = rng.uniform(-1.0, 1.0, size=(n, 5))
    raws = rng.normal(size=n)
    return Trajectory(
        observations=obs,
        actions=np.clip(raws, 0.0, ACTION_MAX_N),
        raw_actions=raws,
        log_probs=np.zeros(n),
        rewards=np.zeros(n),
        success=False,
        activation_step=None,
    )


def test_zero_advantage_gives_exactly_zero_gradient():
    params = linear_params(weights=[0.1, 0.2, 0.3, 0.4, 0.5])
    traj = zeroed_trajectory(params)
    grad = policy_gradient([traj], params)
    assert np.all(grad == 0.0)


def test_gradient_is_linear_in_advantage():
    params = linear_params(weights=[0.1, -0.2, 0.0, 0.4, 0.5], bias=1.0)
    model = design_to_fdvv(EASY)
    task = TaskSpec(EASY, horizon=60, sensory_delay=5, dwell_limit=30)
    traj = rollout(params, task, model, seed=9)
    doubled = Trajectory(
        observations=traj.observations,
        actions=traj.actions,
        raw_actions=traj.raw_actions,
        log_probs=traj.log_probs,
        rewards=2.0 * traj.rewards,
        success=traj.success,
        activation_step=traj.activation_step,
    )
    g1 = policy_gradient([traj], params, baseline=0.0)
    g2 = policy_gradient([doubled], params, baseline=0.0)
    assert np.array_equal(g2, 2.0 * g1)


def test_rollout_is_deterministic_per_seed():
    params = init_policy(0)
    model = design_to_fdvv(EASY)
    task = TaskSpec(EASY, horizon=200)
    a = rollout(params, task, model, seed=11)
    b = rollout(params, task, model, seed=11)
    c = rollout(params, task, model, seed=12)
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.rewards, b.rewards)
    assert a.return_ == b.return_
    assert not np.array_equal(a.actions, c.actions)


def test_rollout_replays_through_public_stepper_bit_identically():
    # Above 0.01 N*s/mm the explicit damping term flips the velocity's
    # sign every tick at 1 kHz: the bounce regime.
    bouncy = dataclasses.replace(EASY, damping=0.02)
    params = init_policy(1)
    for design, horizon, seed in ((EASY, 300, 4), (bouncy, 1000, 0)):
        model = design_to_fdvv(design)
        task = TaskSpec(design, horizon=horizon)
        traj = rollout(params, task, model, seed=seed)
        state = SimState()
        activation_step, released = None, False
        for t in range(len(traj)):
            assert traj.observations[t, 0] * model.travel == state.displacement
            state, events = step(model, state, float(traj.actions[t]))
            for event in events:
                if event.kind == ACTIVATION and activation_step is None:
                    activation_step = t
                elif event.kind == RELEASE:
                    assert t == len(traj) - 1
                    released = True
        assert activation_step == traj.activation_step
        assert released == traj.success
    assert traj.success  # the bouncy design's episode ends in a release


def test_timeout_return_matches_hand_formula():
    # A strongly negative output bias clamps every action to zero, so the
    # press never moves and the episode ends in a horizon timeout.
    params = linear_params(bias=-50.0)
    model = design_to_fdvv(EASY)
    horizon = 40
    task = TaskSpec(EASY, horizon=horizon, sensory_delay=5, dwell_limit=100)
    traj = rollout(params, task, model, seed=0)
    assert len(traj) == horizon
    assert not traj.success
    assert traj.activation_step is None
    assert np.all(traj.actions == 0.0)
    expected_rewards = np.full(horizon, -0.01)
    expected_rewards[-1] -= 5.0
    assert np.allclose(traj.rewards, expected_rewards, atol=1e-15)
    expected_return = sum(r * GAMMA**t for t, r in enumerate(expected_rewards))
    assert traj.return_ == pytest.approx(expected_return, abs=1e-10)


def numpy_scalar_returns_to_go(rewards):
    """Discounted returns-to-go by a backward loop over numpy scalars."""
    out = np.empty_like(rewards)
    acc = 0.0
    for i in range(rewards.size - 1, -1, -1):
        acc = rewards[i] + GAMMA * acc
        out[i] = acc
    return out


def test_returns_to_go_match_numpy_scalar_loop_bit_for_bit():
    model = design_to_fdvv(EASY)
    idle = linear_params(bias=-50.0)
    press = init_policy(4)
    for params, horizon in ((idle, 1), (idle, 2), (idle, 1000), (press, 1000)):
        traj = rollout(params, TaskSpec(EASY, horizon=horizon), model, seed=horizon)
        got = traj.returns_to_go
        assert got.dtype == traj.rewards.dtype and got.shape == traj.rewards.shape
        assert got.tobytes() == numpy_scalar_returns_to_go(traj.rewards).tobytes()
        assert got[0] == traj.return_
    assert [len(rollout(idle, TaskSpec(EASY, horizon=h), model, seed=0)) for h in (1, 2, 1000)] == [1, 2, 1000]


def test_successful_press_ends_with_bonus():
    # Press until the activation cue arrives, then let go: a large
    # negative weight on the cue channel flips the mean below zero.
    params = linear_params(weights=[0.0, 0.0, 0.0, -10.0, 0.0], bias=3.0, log_std=-3.0)
    model = design_to_fdvv(EASY)
    task = TaskSpec(EASY, horizon=1000, sensory_delay=10, dwell_limit=300)
    traj = rollout(params, task, model, seed=2)
    assert traj.success
    assert traj.activation_step is not None
    assert len(traj) < 1000
    assert traj.rewards[-1] > 9.0


def test_dwell_timeout_cuts_the_episode():
    # Constant hard press activates but never releases; the episode must
    # end dwell_limit steps after activation with the timeout penalty.
    params = linear_params(bias=5.0, log_std=-6.0)
    model = design_to_fdvv(EASY)
    task = TaskSpec(EASY, horizon=1000, sensory_delay=10, dwell_limit=50)
    traj = rollout(params, task, model, seed=3)
    assert not traj.success
    assert traj.activation_step is not None
    assert len(traj) == traj.activation_step + 50 + 1
    assert traj.rewards[-1] < -4.9


def test_adapt_zero_episodes_is_identity():
    meta = MetaPolicy(init_policy(0), inner_lr=0.05, adapt_episodes=0)
    model = design_to_fdvv(EASY)
    out = adapt(meta, TaskSpec(EASY, horizon=50), model, seed=0)
    assert out is meta.init_params


def test_adapt_is_deterministic_and_moves_params():
    meta = MetaPolicy(init_policy(0), inner_lr=0.05, adapt_episodes=8)
    model = design_to_fdvv(EASY)
    task = TaskSpec(EASY, horizon=150, sensory_delay=10, dwell_limit=80)
    a = adapt(meta, task, model, seed=5)
    b = adapt(meta, task, model, seed=5)
    c = adapt(meta, task, model, seed=6)
    assert np.array_equal(a.vector, b.vector)
    assert not np.array_equal(a.vector, meta.init_params.vector)
    assert not np.array_equal(a.vector, c.vector)


def test_task_spec_validation():
    with pytest.raises(ValueError):
        TaskSpec(EASY, horizon=0)
    with pytest.raises(ValueError):
        TaskSpec(EASY, sensory_delay=-1)
    with pytest.raises(ValueError):
        TaskSpec(EASY, dwell_limit=0)


def test_meta_policy_validation():
    for inner_lr in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            MetaPolicy(init_policy(0), inner_lr=inner_lr)
    with pytest.raises(ValueError):
        MetaPolicy(init_policy(0), adapt_episodes=-1)


def test_meta_train_zero_iterations_returns_seeded_init():
    def sampler(rng):
        return EASY

    meta = meta_train(sampler, iterations=0, seed=7, layer_sizes=(5, 4, 1))
    again = meta_train(sampler, iterations=0, seed=7, layer_sizes=(5, 4, 1))
    assert np.array_equal(meta.init_params.vector, again.init_params.vector)
    with pytest.raises(ValueError):
        meta_train(sampler, iterations=-1)


def test_meta_train_one_iteration_updates_init():
    def sampler(rng):
        return EASY

    base = meta_train(sampler, iterations=0, seed=1, layer_sizes=(5, 4, 1))
    meta = meta_train(
        sampler,
        iterations=1,
        seed=1,
        layer_sizes=(5, 4, 1),
        tasks_per_iteration=2,
    )
    assert meta.init_params.layer_sizes == (5, 4, 1)
    assert not np.array_equal(meta.init_params.vector, base.init_params.vector)


def test_policy_gradient_rejects_empty_batch():
    params = linear_params()
    with pytest.raises(ValueError):
        policy_gradient([], params)
    with pytest.raises(ValueError):
        surrogate_objective([], params)


_THREAD_PROBE = """
import numpy as np
from buttonlab import MetaPolicy, TaskSpec, adapt, design_to_fdvv, evaluate_design, meta_train
from buttonlab.policy import LOCKSTEP_MIN_EPISODES, default_task_sampler

meta = meta_train(default_task_sampler, iterations=2, seed=3, tasks_per_iteration=4)
design = default_task_sampler(np.random.default_rng(5))
adapted = adapt(meta, TaskSpec(design), design_to_fdvv(design), seed=4)
objectives, _ = evaluate_design(design, meta, LOCKSTEP_MIN_EPISODES, seed=6)
print(meta.init_params.vector.tobytes().hex())
print(adapted.vector.tobytes().hex())
print(objectives.tobytes().hex())
four = adapt(MetaPolicy(meta.init_params, adapt_episodes=4), TaskSpec(design), design_to_fdvv(design), seed=7)
print(four.vector.tobytes().hex())
"""


def test_training_bits_do_not_depend_on_blas_thread_count():
    # Pooled batches of a few thousand steps are large enough for a
    # threaded BLAS to split the 32x32 weight-gradient sums across
    # threads, so a thread-dependent summation order would show here.
    import buttonlab

    src = os.path.dirname(os.path.dirname(os.path.abspath(buttonlab.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        done = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def constant_velocity_trace(model, speed, samples=400):
    """Press scripted as a constant-velocity ramp over the full travel."""
    d = np.linspace(0.0, model.travel, samples)
    t = d / speed
    f = np.array([force_at(model, float(x), speed) for x in d])
    return FdTrace(t, d, f, np.zeros(samples), sample_rate=speed * (samples - 1) / model.travel)


def head_params(base, out_weights, bias, log_std):
    """``base`` with its output layer and log-std replaced."""
    vector = base.vector.copy()
    n_hidden = base.layer_sizes[-2]
    vector[-(n_hidden + 2) :] = np.concatenate([out_weights, [bias, log_std]])
    return base.replaced(vector)


def assert_same_trajectory(got, want):
    for name in ("observations", "actions", "raw_actions", "log_probs", "rewards"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    for name in ("success", "activation_step", "return_"):
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b) and a == b, name


def mixed_batch():
    """Episodes over design and fitted models, task limits, policies and endings."""
    rng = np.random.default_rng(8)
    designs = [EASY] + [default_task_sampler(rng) for _ in range(3)]
    models = [design_to_fdvv(d) for d in designs]
    # A fitted model: two velocity levels, and many more segments per curve.
    fitted = fit_fdvv([[constant_velocity_trace(models[0], v)] for v in (10.0, 100.0)])
    assert len(fitted.velocity_levels) != len(models[0].velocity_levels)
    assert len(fitted._tables[0][1]) != len(models[0]._tables[0][1])
    models.append(fitted)
    designs.append(EASY)

    base = init_policy(2)
    n_hidden = base.layer_sizes[-2]
    relay = np.zeros(n_hidden)
    relay[0] = -10.0  # hidden unit 0 carries the release cue
    policies = {
        "release": head_params(base, relay, 3.0, -3.0),
        "hold": head_params(base, np.zeros(n_hidden), 5.0, -6.0),
        "idle": head_params(base, np.zeros(n_hidden), -50.0, -0.5),
        "init": base,
        "moved": head_params(base, rng.normal(0.0, 0.3, n_hidden), 2.5, -0.7),
    }
    # (policy, model, horizon, sensory delay, dwell limit)
    plan = [
        ("release", 0, 1000, 10, 300),
        ("hold", 0, 1000, 10, 50),  # dwell timeout
        ("hold", 1, 120, 5, 300),  # horizon timeout after activation
        ("idle", 2, 90, 5, 40),  # no activation at all
        ("init", 4, 700, 30, 200),
        ("release", 4, 1000, 20, 300),
        ("moved", 3, 500, 0, 1),
        ("init", 1, 1000, 50, 300),
        ("moved", 2, 333, 7, 80),
        ("hold", 4, 150, 3, 20),
        ("init", 3, 1000, 50, 300),
        ("release", 2, 800, 15, 250),
    ]
    params, tasks, batch_models, episode_seeds = [], [], [], []
    for k, (policy, m, horizon, delay, dwell) in enumerate(plan):
        params.append(policies[policy])
        tasks.append(TaskSpec(designs[m], horizon, delay, dwell))
        batch_models.append(models[m])
        episode_seeds.append(seeds.seed_for(17, "rollout", k))
    return params, tasks, batch_models, episode_seeds


def test_rollouts_equal_rollout_bit_for_bit():
    params, tasks, models, episode_seeds = mixed_batch()
    want = [rollout(*args) for args in zip(params, tasks, models, episode_seeds)]
    endings = set()
    for traj, task in zip(want, tasks):
        if traj.success:
            endings.add("success")
        elif traj.activation_step is None:
            endings.add("no activation")
        elif len(traj) == task.horizon:
            endings.add("horizon")
        else:
            endings.add("dwell")
    assert endings == {"success", "dwell", "horizon", "no activation"}
    assert len(want) > LOCKSTEP_MIN_EPISODES
    for size in (1, LOCKSTEP_MIN_EPISODES - 1, LOCKSTEP_MIN_EPISODES, len(want)):
        got = rollouts(params[:size], tasks[:size], models[:size], episode_seeds[:size])
        assert len(got) == size
        for g, w in zip(got, want):
            assert_same_trajectory(g, w)


def test_rollouts_share_buffers_and_weights():
    params, tasks, models, episode_seeds = mixed_batch()
    got = rollouts(params, tasks, models, episode_seeds)
    # Trajectories are views of one episode-major buffer per field.
    assert all(t.actions.base is got[0].actions.base for t in got)
    # Layers that every episode holds are not stacked per episode.
    shared = [params[0], params[0].replaced(params[0].vector.copy())]
    assert _layer(shared, 0)[0].ndim == 2
    assert _layer(params, len(params[0].layer_sizes) - 2)[0].ndim == 3


def test_rollouts_validation():
    params, tasks, models, episode_seeds = mixed_batch()
    with pytest.raises(ValueError):
        rollouts(params, tasks[:-1], models, episode_seeds)
    small = init_policy(0, layer_sizes=(5, 4, 1))
    with pytest.raises(ValueError):
        rollouts([small] + params[1:], tasks, models, episode_seeds)
    assert rollouts([], [], [], []) == []


def reference_meta_train(task_sampler, iterations, seed, tasks_per_iteration, meta_lr=0.05):
    """meta_train as one task and one episode at a time."""
    meta = MetaPolicy(init_policy(seeds.seed_for(seed, "meta_init")))
    init = meta.init_params
    for it in range(iterations):
        grads = []
        for j in range(tasks_per_iteration):
            design = task_sampler(seeds.rng_for(seed, "meta_task", it, j))
            model = design_to_fdvv(design)
            task = TaskSpec(design)
            inner = MetaPolicy(init, meta.inner_lr, 4)
            reached = adapt(inner, task, model, seeds.seed_int(seed, "meta_inner", it, j))
            last = [
                rollout(reached, task, model, seeds.seed_for(seed, "meta_post", it, j, r))
                for r in range(4)
            ]
            grads.append(policy_gradient(last, reached))
        step = meta_lr * np.mean(grads, axis=0)
        step[-1] = 0.0
        init = init.replaced(init.vector + step)
    return init


def reference_evaluate(design, meta, episodes, seed):
    """evaluate_design's objectives, one rollout at a time."""
    model = design_to_fdvv(design)
    task = TaskSpec(design)
    adapted = adapt(meta, task, model, seed)
    runs = [rollout(adapted, task, model, seeds.seed_for(seed, "rollout", i)) for i in range(episodes)]
    durations = np.array([len(t) * 0.001 if t.success else 1000 * 0.001 for t in runs])
    efforts = np.array([float(np.sum(t.actions**2)) * 0.001 for t in runs])
    failures = 1.0 - np.array([t.success for t in runs]).mean()
    return np.array([durations.mean(), failures, efforts.mean()])


def test_lockstep_callers_match_sequential_reference():
    meta = meta_train(default_task_sampler, iterations=2, seed=5, tasks_per_iteration=3)
    want = reference_meta_train(default_task_sampler, iterations=2, seed=5, tasks_per_iteration=3)
    assert meta.init_params.vector.tobytes() == want.vector.tobytes()

    rng = np.random.default_rng(9)
    designs = [default_task_sampler(rng) for _ in range(3)]
    tasks = [TaskSpec(d) for d in designs]
    models = [design_to_fdvv(d) for d in designs]
    together = _adapt_tasks(meta, tasks, models, [11, 12, 13])
    for params, task, model, seed in zip(together, tasks, models, (11, 12, 13)):
        assert params.vector.tobytes() == adapt(meta, task, model, seed).vector.tobytes()

    for k, design in enumerate(designs):
        episodes = LOCKSTEP_MIN_EPISODES + 2 * k
        got, _ = evaluate_design(design, meta, episodes, seed=20 + k)
        assert got.tobytes() == reference_evaluate(design, meta, episodes, 20 + k).tobytes()


def shared_policy_batches():
    """Three 12-episode batches, each of one policy, over designs and task limits.

    The first ends in all four ways at scattered ticks.  In the second,
    every episode activates before the first one ends.  The third's
    policy pushes past ACTION_MAX_N and, on the cue, below zero.
    """
    base = init_policy(2)
    relay = np.zeros(base.layer_sizes[-2])
    relay[0] = -10.0  # hidden unit 0 carries the release cue
    policy = head_params(base, relay, 3.0, -3.0)
    hard = head_params(base, 2.0 * relay, 8.0, -1.0)
    rng = np.random.default_rng(8)
    designs = [EASY] + [default_task_sampler(rng) for _ in range(3)]
    models = [design_to_fdvv(d) for d in designs]
    # (design, horizon, sensory delay, dwell limit); design 1 is too
    # heavy to activate, design 3 releases two ticks in.
    plans = (
        [
            (0, 1000, 10, 300), (0, 1000, 10, 5), (0, 8, 5, 40), (1, 60, 40, 300),
            (2, 1000, 100, 300), (3, 1000, 10, 300), (2, 1000, 10, 5), (1, 1000, 10, 300),
            (0, 500, 50, 80), (2, 60, 40, 300), (3, 8, 5, 40), (0, 1000, 100, 300),
        ],
        [
            (0, 1000, 100, 300), (2, 1000, 120, 300), (0, 1000, 150, 60), (2, 400, 200, 300),
            (0, 300, 60, 250), (2, 1000, 90, 40), (0, 1000, 180, 300), (2, 700, 70, 300),
            (0, 200, 100, 300), (2, 1000, 130, 100), (0, 1000, 110, 300), (2, 900, 160, 300),
        ],
    )
    for k, (plan, shared) in enumerate(zip(plans + plans[:1], [policy, policy, hard])):
        yield (
            [shared] * len(plan),
            [TaskSpec(designs[m], horizon, delay, dwell) for m, horizon, delay, dwell in plan],
            [models[m] for m, *_ in plan],
            [seeds.seed_for(23, "rollout", k, i) for i in range(len(plan))],
        )


def test_shared_policy_rollouts_equal_rollout_bit_for_bit():
    scattered, activated_first, clamped = shared_policy_batches()
    wants = {}
    for name, batch in (("scattered", scattered), ("activated first", activated_first), ("clamped", clamped)):
        want = wants[name] = [rollout(*args) for args in zip(*batch)]
        for size in range(LOCKSTEP_MIN_EPISODES, len(want) + 1):
            got = rollouts(*(part[:size] for part in batch))
            for g, w in zip(got, want[:size], strict=True):
                assert_same_trajectory(g, w)
    endings = {
        "success" if t.success else "no activation" if t.activation_step is None
        else "horizon" if len(t) == task.horizon else "dwell"
        for t, task in zip(wants["scattered"], scattered[1])
    }
    assert endings == {"success", "dwell", "horizon", "no activation"}
    first = wants["activated first"]
    assert max(t.activation_step for t in first) < min(len(t) for t in first) - 1
    raws = np.concatenate([t.raw_actions for t in wants["clamped"]])
    assert raws.max() > ACTION_MAX_N and raws.min() < 0.0
