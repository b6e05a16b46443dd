"""User-model policy: distribution math, gradients, episodes, adaptation."""

import dataclasses
import math
import tracemalloc
import weakref

import golden_outputs
import numpy as np
import pytest

from buttonlab import (
    DESIGN_BOUNDS,
    FORCE_CEILING_N,
    ButtonDesignParams,
    FdTrace,
    MetaPolicy,
    PolicyParams,
    TaskSpec,
    Trajectory,
    adapt,
    design_to_fdvv,
    evaluate_designs,
    fit_fdvv,
    force_at,
    init_policy,
    meta_train,
    policy_gradient,
    rollout,
    rollouts,
    scripted_press_trace,
)
from buttonlab import seeds
from buttonlab.policy import (
    ACTION_MAX_N,
    EFFORT_COEF,
    GAMMA,
    LOCKSTEP_MIN_EPISODES,
    STEP_PENALTY,
    SUCCESS_REWARD,
    TIMEOUT_PENALTY,
    _CHUNK,
    _adapt_tasks,
    _batches,
    _gradient,
    _layer,
    _mean_batch,
    _pooled,
    box_task_sampler,
    param_count,
)

# Uniform draws over the default design box.
default_task_sampler = box_task_sampler(DESIGN_BOUNDS)

EASY = ButtonDesignParams(
    travel=2.0,
    activation_fraction=0.5,
    peak_force=1.0,
    snap_ratio=0.2,
    velocity_stiffening=0.1,
    damping=0.01,
)


def surrogate_objective(trajectories, params, baseline=None):
    """Mean over pooled steps of log-probability times advantage.

    Its gradient at the sampling parameters is exactly what
    policy_gradient returns, which makes it the finite-difference
    reference for gradient checks.
    """
    obs, raws, adv = _pooled(trajectories, baseline)
    means, _ = _mean_batch(params, obs)
    sigma = math.exp(params.log_std)
    zs = (raws - means) / sigma
    lps = -0.5 * zs * zs - params.log_std - 0.5 * math.log(2.0 * math.pi)
    return float(np.mean(lps * adv))


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
    # int() would truncate these to (5, 4, 1).
    with pytest.raises(ValueError, match="layer sizes must be an integer"):
        PolicyParams((5, 4.7, 1.2), np.zeros(param_count((5, 4, 1))))


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


def test_raw_actions_are_mean_plus_scaled_seed_normals():
    params = linear_params(weights=[0.5, -0.2, 0.1, 0.0, 0.3], bias=1.0, log_std=-0.3)
    model = design_to_fdvv(EASY)
    sigma = math.exp(-0.3)
    for seed in range(5):
        traj = rollout(params, TaskSpec(EASY, horizon=200), model, seed=seed)
        means, _ = _mean_batch(params, traj.observations)
        z = np.random.default_rng(seed).standard_normal(200)[: len(traj)]
        assert traj.raw_actions == pytest.approx(means + sigma * z, abs=1e-12)
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


def reference_gradient(trajectories, params, baseline, depth):
    """``_gradient`` with its backward product out of place, as a fresh
    (delta @ w.T) * (1 - h**2) per layer."""
    obs, raws, adv = _pooled(trajectories, baseline)
    n = obs.shape[0]
    means, hidden = _mean_batch(params, obs)
    sigma = math.exp(params.log_std)
    zs = (raws - means) / sigma
    layers = params.weights
    first = len(layers) - depth
    delta = (adv * zs / sigma / n)[:, None]
    grads = []
    for li in range(len(layers) - 1, first - 1, -1):
        w, _ = layers[li]
        x = obs if li == 0 else hidden[li - 1]
        grads.append(np.concatenate([np.einsum("ni,nj->ij", x, delta).ravel(), delta.sum(axis=0)]))
        if li > first:
            delta = (delta @ w.T) * (1.0 - hidden[li - 1] ** 2)
    grads.reverse()
    g_log_std = float(np.mean(adv * (zs * zs - 1.0)))
    return np.concatenate(grads + [np.array([g_log_std])])


# Too heavy for a fresh policy's push: its episodes time out at the horizon.
HEAVY = ButtonDesignParams(3.0, 0.6, FORCE_CEILING_N, 0.3, 0.5, 0.01)


def long_batch(params, designs):
    """One episode per design at horizon 1000, on seeds fixed per position."""
    tasks = [TaskSpec(d, 1000, 50 + 10 * i, 1000) for i, d in enumerate(designs)]
    models = [design_to_fdvv(d) for d in designs]
    episode_seeds = [seeds.seed_for(41, "rollout", i) for i in range(len(designs))]
    return rollouts([params] * len(designs), tasks, models, episode_seeds)


@pytest.mark.parametrize("layer_sizes", [(5, 32, 32, 1), (5, 16, 16, 16, 1)])
def test_gradient_at_every_depth_equals_out_of_place_backward_bit_for_bit(layer_sizes):
    params = init_policy(2, layer_sizes)
    batch = long_batch(params, [HEAVY, EASY, HEAVY, EASY])
    assert [len(t) for t in batch][::2] == [1000, 1000] and not any(t.success for t in batch[::2])
    assert all(t.success for t in batch[1::2])
    for baseline in (None, -1.5):
        for depth in range(1, len(layer_sizes)):
            got = _gradient(batch, params, baseline, depth)
            want = reference_gradient(batch, params, baseline, depth)
            assert got.tobytes() == want.tobytes(), (depth, baseline)
    want = reference_gradient(batch, params, None, len(layer_sizes) - 1)
    assert policy_gradient(batch, params).tobytes() == want.tobytes()


def test_full_gradient_peak_memory_stays_near_the_forward_pass():
    # Four 1000-tick timeouts of the default policy.  The forward pass
    # holds three (n, 32) hidden-layer arrays at once, and the backward
    # pass, run in the dead hidden layers, no more; the pooled arrays
    # add under one more.  A fresh square, difference and product per
    # layer would take the peak to about 6.3 such arrays.
    params = init_policy(2)
    batch = long_batch(params, [HEAVY] * 4)
    for t in batch:
        t.returns_to_go  # cached on the trajectory, not the gradient's memory
    n = sum(len(t) for t in batch)
    assert n == 4000
    tracemalloc.start()
    try:
        policy_gradient(batch, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * n * 32 * 8


def zeroed_trajectory(params, n=20):
    rng = np.random.default_rng(5)
    obs = rng.uniform(-1.0, 1.0, size=(n, 5))
    raws = rng.normal(size=n)
    return Trajectory(
        observations=obs,
        actions=np.clip(raws, 0.0, ACTION_MAX_N),
        raw_actions=raws,
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
        n = len(traj)
        trace = scripted_press_trace(model, traj.actions)
        d = trace.displacement
        assert np.array_equal(d[:n], traj.observations[:, 0] * model.travel)
        # Tick t moves row t to row t + 1.  It activates on the first
        # upward crossing of activation_disp, which starts the burst on
        # row t + 1; once activated, a downward crossing of release_disp
        # releases, and the episode ends there.
        activations = np.flatnonzero((d[:-1] < model.activation_disp) & (model.activation_disp <= d[1:]))
        activation_step = int(activations[0]) if activations.size else None
        assert activation_step == traj.activation_step
        onsets = np.flatnonzero(trace.vibration)
        assert (int(onsets[0]) - 1 if onsets.size else None) == activation_step
        released = False
        if activation_step is not None:
            releases = np.flatnonzero((d[1:] <= model.release_disp) & (model.release_disp < d[:-1]))
            releases = releases[releases > activation_step].tolist()
            assert releases in ([], [n - 1])
            released = releases == [n - 1]
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


@pytest.mark.parametrize("field", ["horizon", "sensory_delay", "dwell_limit"])
def test_task_spec_counts_must_be_integers(field):
    # Each is a count of ticks; an integral float is refused too, as
    # PolicyParams and MetaPolicy refuse theirs.
    for value in (300.0, 2.5):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TaskSpec(EASY, **{field: value})
    task = TaskSpec(EASY, **{field: np.int64(40)})
    assert getattr(task, field) == 40 and type(getattr(task, field)) is int


def test_meta_policy_validation():
    for inner_lr in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            MetaPolicy(init_policy(0), inner_lr=inner_lr)
    with pytest.raises(ValueError):
        MetaPolicy(init_policy(0), adapt_episodes=-1)
    # A float count passed here would fail only in adapt, with a TypeError.
    for episodes in (8.5, 2.0):
        with pytest.raises(ValueError, match="adapt_episodes must be an integer"):
            MetaPolicy(init_policy(0), adapt_episodes=episodes)
    assert MetaPolicy(init_policy(0), adapt_episodes=np.int64(4)).adapt_episodes == 4


def test_meta_train_zero_iterations_returns_seeded_init():
    def sampler(rng):
        return EASY

    meta = meta_train(sampler, iterations=0, seed=7, layer_sizes=(5, 4, 1))
    again = meta_train(sampler, iterations=0, seed=7, layer_sizes=(5, 4, 1))
    assert np.array_equal(meta.init_params.vector, again.init_params.vector)
    with pytest.raises(ValueError):
        meta_train(sampler, iterations=-1)
    with pytest.raises(ValueError, match="tasks_per_iteration"):
        meta_train(sampler, iterations=1, tasks_per_iteration=0)


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


_THREAD_PROBE = """
import numpy as np
from buttonlab import DESIGN_BOUNDS, MetaPolicy, TaskSpec, adapt, design_to_fdvv, evaluate_designs, meta_train
from buttonlab.policy import LOCKSTEP_MIN_EPISODES, box_task_sampler

default_task_sampler = box_task_sampler(DESIGN_BOUNDS)

meta = meta_train(default_task_sampler, iterations=2, seed=3, tasks_per_iteration=4)
rng = np.random.default_rng(5)
design = default_task_sampler(rng)
adapted = adapt(meta, TaskSpec(design), design_to_fdvv(design), seed=4)
[(objectives, _)] = evaluate_designs([design], meta, LOCKSTEP_MIN_EPISODES, [6])
print(meta.init_params.vector.tobytes().hex())
print(adapted.vector.tobytes().hex())
print(objectives.tobytes().hex())
# Three designs adapt in one lockstep, on stacked per-design head weights.
trio = [design, default_task_sampler(rng), default_task_sampler(rng)]
for objectives, _ in evaluate_designs(trio, meta, LOCKSTEP_MIN_EPISODES, [6, 7, 8]):
    print(objectives.tobytes().hex())
four = adapt(MetaPolicy(meta.init_params, adapt_episodes=4), TaskSpec(design), design_to_fdvv(design), seed=7)
print(four.vector.tobytes().hex())
"""


def test_training_bits_do_not_depend_on_blas_thread_count():
    # Pooled batches of a few thousand steps are large enough for a
    # threaded BLAS to split the 32x32 products across threads.  On an
    # AVX-512 CPU's default path the bits did not follow the split; on
    # the pinned one (x86-64-v3, OpenBLAS Haswell) one thread and two
    # differed on every line until the gradient ran on one thread.
    one, two = golden_outputs.thread_count_outputs(_THREAD_PROBE, pinned=False)
    assert one == two
    reason = golden_outputs.unpinned_reason(golden_outputs.platform_info())
    if reason is not None:
        pytest.skip(f"the default CPU path passed; the pinned one needs: {reason}")
    one, two = golden_outputs.thread_count_outputs(_THREAD_PROBE, pinned=True)
    assert one == two


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
    for name in ("observations", "actions", "raw_actions", "rewards"):
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
        ("hold", 0, 1000, 200, 300),  # activates early, and its cue comes late
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
    # The full batch hands its last few episodes to the scalar tail at the
    # end tick after which fewer than LOCKSTEP_MIN_EPISODES still run.  The
    # tail rebuilds each one's cue and deadline from its activation step:
    # one is handed over between its activation and its cue, one after.
    lengths = [len(t) for t in want]
    handoff = min(k for k in lengths if sum(n > k for n in lengths) < LOCKSTEP_MIN_EPISODES)
    phases = {
        "before cue" if handoff <= t.activation_step + task.sensory_delay else "after cue"
        for t, task in zip(want, tasks)
        if len(t) > handoff and t.activation_step is not None and t.activation_step < handoff
    }
    assert phases == {"before cue", "after cue"}
    for size in (*range(1, LOCKSTEP_MIN_EPISODES + 1), len(want)):
        got = rollouts(params[:size], tasks[:size], models[:size], episode_seeds[:size])
        assert len(got) == size
        for g, w in zip(got, want):
            assert_same_trajectory(g, w)


def test_actions_and_rewards_follow_the_scalar_rule():
    """Every tick's action and reward, bit for bit, from Python floats."""
    batches = [mixed_batch(), *shared_policy_batches()]
    trajectories = [t for batch in batches for t in rollouts(*batch)]
    assert {t.success for t in trajectories} == {True, False}
    for t in trajectories:
        actions, rewards = [], []
        for raw in t.raw_actions.tolist():
            a = min(max(raw, 0.0), ACTION_MAX_N)
            actions.append(a)
            rewards.append(STEP_PENALTY - EFFORT_COEF * a * a)
        rewards[-1] += SUCCESS_REWARD if t.success else TIMEOUT_PENALTY
        assert t.actions.tobytes() == np.array(actions).tobytes()
        assert t.rewards.tobytes() == np.array(rewards).tobytes()


def test_rollouts_share_buffers_and_weights():
    params, tasks, models, episode_seeds = mixed_batch()
    got = rollouts(params, tasks, models, episode_seeds)
    # What the engines record is each episode's own: one array per field
    # of exactly the ticks it ran, a view of no chunk or other buffer.
    for t in got:
        for name in ("observations", "raw_actions"):
            array = getattr(t, name)
            assert array.base is None and array.shape[0] == len(t), name
    # Layers that every episode holds are not stacked per episode.
    shared = [params[0], params[0].replaced(params[0].vector.copy())]
    assert _layer(shared, 0)[0].ndim == 2
    assert _layer(params, len(params[0].layer_sizes) - 2)[0].ndim == 3


@pytest.mark.parametrize("count", [1, 3, 8])
def test_rollouts_without_observations_run_the_same_episodes(count):
    # 1 and 3 episodes run alone in the scalar loop; 8 start in the
    # lockstep, and the last LOCKSTEP_MIN_EPISODES - 1 finish alone.
    args = [part[:count] for part in mixed_batch()]
    want = rollouts(*args)
    got = rollouts(*args, observe=False)
    for g, w in zip(got, want, strict=True):
        assert g.observations.shape == (0, 5) and g.observations.dtype == w.observations.dtype
        assert_same_trajectory(dataclasses.replace(g, observations=w.observations), w)
    if count > LOCKSTEP_MIN_EPISODES:
        assert max(len(t) for t in want) > 2 * _CHUNK


def test_gradient_refuses_an_episode_without_observations():
    args = [part[:4] for part in mixed_batch()]
    episodes = rollouts(*args)
    blind = rollouts(*args, observe=False)
    for batch in (blind, [*episodes[:3], blind[3]]):
        with pytest.raises(ValueError, match="one observation per step"):
            _pooled(batch, None)
        with pytest.raises(ValueError, match="one observation per step"):
            policy_gradient(batch, args[0][0])


@pytest.mark.parametrize(
    "short, observe",
    [
        pytest.param(short, observe, id=str(short) if observe else f"{short}-unobserved")
        for observe in (True, False)
        for short in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK)
    ],
)
def test_rollouts_hand_over_at_chunk_boundaries(short, observe):
    # One episode times out at tick ``short - 1`` and leaves three to the
    # scalar loop: at a chunk's last tick, on its boundary and past it,
    # with and without noise drawn ahead in the chunk.  Unobserved, the
    # chunk rows narrowed and handed over are empty.
    idle = head_params(init_policy(2), np.zeros(32), -50.0, -0.5)
    model = design_to_fdvv(EASY)
    horizons = [short, 3 * _CHUNK, 2 * _CHUNK + 1, 300]
    args = (
        [idle] * 4,
        [TaskSpec(EASY, h, 5, 300) for h in horizons],
        [model] * 4,
        [seeds.seed_for(31, "rollout", short, k) for k in range(4)],
    )
    got = rollouts(*args, observe=observe)
    assert [len(t) for t in got] == horizons
    for g, one in zip(got, zip(*args), strict=True):
        want = rollout(*one)
        if not observe:
            assert g.observations.shape == (0, 5) and g.observations.dtype == want.observations.dtype
            g = dataclasses.replace(g, observations=want.observations)
        assert_same_trajectory(g, want)


def batches_args(task_count, count, seed):
    """``_batches`` arguments: one policy, design and short task per task."""
    rng = np.random.default_rng(seed)
    designs = [default_task_sampler(rng) for _ in range(task_count)]
    base = init_policy(2)
    params = [base.replaced(base.vector + 0.05 * k) for k in range(task_count)]
    tasks = [TaskSpec(d, 150, 20 + 5 * k, 60) for k, d in enumerate(designs)]
    models = [design_to_fdvv(d) for d in designs]
    episode_seeds = [seeds.seed_for(seed, "rollout", k, j) for k in range(task_count) for j in range(count)]
    return params, tasks, models, episode_seeds


@pytest.mark.parametrize("task_count", [1, 3, 8])
@pytest.mark.parametrize("count", [1, 4, 20])
def test_batches_hand_out_each_tasks_slice_of_one_rollouts_call(task_count, count):
    params, tasks, models, episode_seeds = batches_args(task_count, count, 10 * task_count + count)
    want = rollouts(
        *([x for x in items for _ in range(count)] for items in (params, tasks, models)), episode_seeds
    )
    got = list(_batches(params, tasks, models, episode_seeds, count))
    assert len(got) == task_count
    for k, batch in enumerate(got):
        assert len(batch) == count
        for g, w in zip(batch, want[k * count : (k + 1) * count], strict=True):
            assert_same_trajectory(g, w)


def test_batches_drop_each_tasks_episodes_once_the_next_are_taken():
    batches = _batches(*batches_args(3, 4, 5), 4)
    first = [weakref.ref(t) for t in next(batches)]
    assert all(ref() is not None for ref in first)
    second = next(batches)
    assert all(ref() is None for ref in first)
    later = [weakref.ref(t) for t in second]
    del second
    assert all(ref() is not None for ref in later)
    next(batches)
    assert all(ref() is None for ref in later)
    assert next(batches, None) is None


def test_lockstep_memory_follows_the_ticks_run():
    # 32 episodes at horizon 1000 that all release within a few ticks.
    # Buffers sized by the horizon would hold 56 bytes per episode and
    # tick of it (observations, raw action and noise); records by chunk
    # hold a few kilobytes per episode, far below that.
    scattered = next(shared_policy_batches())
    policy, task, model = (part[5] for part in scattered[:3])  # design 3, released two ticks in
    count = 32
    episode_seeds = [seeds.seed_for(29, "rollout", i) for i in range(count)]
    tracemalloc.start()
    try:
        got = rollouts([policy] * count, [task] * count, [model] * count, episode_seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert task.horizon == 1000
    assert all(t.success for t in got) and max(len(t) for t in got) <= 5
    assert peak < count * task.horizon * 56 / 4


def test_noise_drawn_in_pieces_is_one_draw_bit_for_bit():
    # The engines draw each episode's standard normals a chunk at a time,
    # into chunk rows and as whole arrays.
    rng = np.random.default_rng(43)
    for case in range(40):
        seed = seeds.seed_for(int(rng.integers(1 << 62)), "rollout", case)
        count = int(rng.integers(1, 3000))
        cuts = sorted(rng.integers(0, count + 1, size=int(rng.integers(1, 9))).tolist())
        stream = np.random.default_rng(seed)
        pieces = []
        for k, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, count])):
            if k % 2:
                pieces.append(stream.standard_normal(hi - lo))
            else:
                pieces.append(np.empty(hi - lo))
                stream.standard_normal(out=pieces[-1])
        want = np.random.default_rng(seed).standard_normal(count)
        assert np.concatenate(pieces).tobytes() == want.tobytes(), (case, count, cuts)


def test_rollouts_validation():
    params, tasks, models, episode_seeds = mixed_batch()
    with pytest.raises(ValueError):
        rollouts(params, tasks[:-1], models, episode_seeds)
    small = init_policy(0, layer_sizes=(5, 4, 1))
    # One architecture per call, at every batch size, lockstep or not.
    for size in (2, LOCKSTEP_MIN_EPISODES - 1, LOCKSTEP_MIN_EPISODES, len(params)):
        with pytest.raises(ValueError, match="architecture"):
            rollouts([small] + params[1:size], tasks[:size], models[:size], episode_seeds[:size])
    assert rollouts([], [], [], []) == []


def reference_meta_train(task_sampler, iterations, seed, tasks_per_iteration, meta_lr=0.05):
    """meta_train as one task and one episode at a time."""
    meta = MetaPolicy(init_policy(seeds.seed_for(seed, "meta_init")))
    init = meta.init_params
    for it in range(iterations):
        grads = []
        for j in range(tasks_per_iteration):
            design = task_sampler(np.random.default_rng(seeds.seed_for(seed, "meta_task", it, j)))
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
    """evaluate_designs' objectives for one design, one rollout at a time."""
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
        [(got, _)] = evaluate_designs([design], meta, episodes, [20 + k])
        assert got.tobytes() == reference_evaluate(design, meta, episodes, 20 + k).tobytes()

    # One batch over all three: their episodes end after a few ticks
    # (designs[2]), after about 65 (designs[1]) and never (designs[0]), and
    # a lockstep mixing them keeps every design's bits.
    batch = evaluate_designs(designs, meta, LOCKSTEP_MIN_EPISODES, [30, 31, 32])
    for k, (design, (got, _)) in enumerate(zip(designs, batch, strict=True)):
        assert got.tobytes() == reference_evaluate(design, meta, LOCKSTEP_MIN_EPISODES, 30 + k).tobytes()


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
