"""Simulated button user: Gaussian policy, REINFORCE, meta-adaptation.

The policy is a small tanh network mapping a 5-feature observation to a
mean commanded force, with one global log-std.  Training is REINFORCE
with a time-dependent baseline.  Per-design adaptation moves only the
output layer and the log-std, on top of hidden layers shared by every
design (ANIL; Raghu et al. 2020).  Meta-training is first-order MAML
(Finn et al. 2017) of every parameter but the log-std, for exactly
that adaptation recipe.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import seeds
from .button import (
    _ZERO,
    ACTIVATION,
    DEFAULT_DT_S,
    DEFAULT_MASS_KG,
    DESIGN_BOUNDS,
    FORCE_CEILING_N,
    RELEASE,
    ButtonDesignParams,
    FdvvModel,
    SpringTables,
    _tick,
    design_to_fdvv,
)

_log = logging.getLogger(__name__)

GAMMA = 0.995
ACTION_MAX_N = 6.0
STEP_PENALTY = -0.01
EFFORT_COEF = 1e-4
SUCCESS_REWARD = 10.0
TIMEOUT_PENALTY = -5.0
# Observation scaling constants.
VELOCITY_SCALE = 500.0
LOG_STD_INIT = -0.5
# Fresh policies start with a pressing prior so an activation signal exists.
OUTPUT_BIAS_INIT_N = 2.0
# ... and let go once the release cue arrives, so that light buttons,
# which a steady push holds down for good, give a success signal too.
RELEASE_DROP_N = 2.0
# Input weight of the hidden units that carry the cue to the output.
_CUE_RELAY_GAIN = 2.0
_CUE = 3  # observation index of the release cue
# Step size of one adaptation step on the output layer.
DEFAULT_INNER_LR = 0.3
# The log-std steps this many times further: its gradient pools every
# step of a batch into one number, the best-measured direction there is.
LOG_STD_STEP_SCALE = 10.0

DEFAULT_LAYER_SIZES = (5, 32, 32, 1)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def param_count(layer_sizes: tuple[int, ...]) -> int:
    n = sum(a * b + b for a, b in zip(layer_sizes, layer_sizes[1:]))
    return n + 1  # global log-std


@dataclass(frozen=True)
class PolicyParams:
    """Flat parameter vector plus the architecture that shapes it.

    Layout: per layer the weight matrix (row-major) then the bias, with
    the global log-std as the final entry.
    """

    layer_sizes: tuple[int, ...]
    vector: np.ndarray

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        vec = np.asarray(self.vector, dtype=float).ravel()
        if len(sizes) < 2 or sizes[0] != 5 or sizes[-1] != 1:
            raise ValueError(f"layer sizes must run 5 -> ... -> 1, got {sizes}")
        if vec.size != param_count(sizes):
            raise ValueError(f"expected {param_count(sizes)} parameters, got {vec.size}")
        if not np.all(np.isfinite(vec)):
            raise ValueError("policy parameters must be finite")
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "vector", vec)

    @property
    def log_std(self) -> float:
        return float(self.vector[-1])

    @cached_property
    def weights(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        out = []
        at = 0
        for n_in, n_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            w = self.vector[at : at + n_in * n_out].reshape(n_in, n_out)
            at += n_in * n_out
            b = self.vector[at : at + n_out]
            at += n_out
            out.append((w, b))
        return tuple(out)

    def replaced(self, vector: np.ndarray) -> "PolicyParams":
        return PolicyParams(self.layer_sizes, vector)


def init_policy(seed, layer_sizes: tuple[int, ...] = DEFAULT_LAYER_SIZES) -> PolicyParams:
    """Seeded random initialization with a pressing output bias and a cued release.

    Hidden unit 0 of every hidden layer relays the release cue alone,
    and the output subtracts about RELEASE_DROP_N newtons once it fires.
    """
    rng = np.random.default_rng(seed)
    weights = [
        rng.normal(0.0, 1.0 / math.sqrt(n_in), size=(n_in, n_out))
        for n_in, n_out in zip(layer_sizes, layer_sizes[1:])
    ]
    for k, w in enumerate(weights[:-1]):
        w[:, 0] = 0.0
        w[_CUE if k == 0 else 0, 0] = _CUE_RELAY_GAIN
    weights[-1][_CUE if len(weights) == 1 else 0, 0] = -RELEASE_DROP_N
    parts = []
    for w in weights:
        parts += [w.ravel(), np.zeros(w.shape[1])]
    parts[-1] = np.full(layer_sizes[-1], OUTPUT_BIAS_INIT_N)
    parts.append(np.array([LOG_STD_INIT]))
    return PolicyParams(tuple(layer_sizes), np.concatenate(parts))


def _mean_batch(params: PolicyParams, obs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Batched forward pass; returns means and hidden activations."""
    layers = params.weights
    hidden = []
    h = obs
    for w, b in layers[:-1]:
        h = np.tanh(h @ w + b)
        hidden.append(h)
    w, b = layers[-1]
    return (h @ w + b)[:, 0], hidden


@dataclass(frozen=True)
class TaskSpec:
    """One press task: reach activation, then release, within the horizon."""

    design: ButtonDesignParams
    horizon: int = 1000
    sensory_delay: int = 50
    dwell_limit: int = 300

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.sensory_delay < 0 or self.dwell_limit < 1:
            raise ValueError("sensory_delay must be >= 0 and dwell_limit >= 1")


@dataclass(frozen=True)
class Trajectory:
    observations: np.ndarray
    actions: np.ndarray
    raw_actions: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray
    success: bool
    activation_step: int | None

    def __len__(self) -> int:
        return self.actions.size

    @property
    def return_(self) -> float:
        """The episode's discounted return."""
        return float(self.returns_to_go[0])

    @cached_property
    def returns_to_go(self) -> np.ndarray:
        out = []
        acc = 0.0  # Python floats round as float64 scalars do
        for r in reversed(self.rewards.tolist()):
            acc = r + GAMMA * acc
            out.append(acc)
        out.reverse()
        return np.array(out, dtype=float)


def rollout(params: PolicyParams, task: TaskSpec, model: FdvvModel, seed) -> Trajectory:
    """One seeded episode against the simulated button at 1 kHz.

    Each tick runs the public stepper's physics, ``button._tick``, on the
    same spring lookup, so replaying the actions through
    :func:`~buttonlab.button.step` reproduces the episode bit for bit.
    Pre-drawing the noise makes the episode a pure function of (params,
    task, model, seed).
    """
    horizon = task.horizon
    z = np.random.default_rng(seed).standard_normal(horizon)
    obs = np.empty((horizon, 5))
    actions, raws, rewards = np.empty(horizon), np.empty(horizon), np.empty(horizon)
    ending = _press(params, task, model, z, obs, actions, raws, rewards, 0, 0.0, 0.0, None)
    return _trajectory(params, z, obs, actions, raws, rewards, *ending)


def _press(params, task, model, z, obs_buf, actions, raws, rewards, start, d, v, activation_step):
    """Ticks ``start`` on of one episode, from displacement ``d``, velocity
    ``v`` and its activation step so far (None before activation), written
    into its buffers; returns (steps, success, activation_step)."""
    horizon = task.horizon
    sigma = math.exp(params.log_std)
    layers = params.weights
    hidden_wb = layers[:-1]
    w_out, b_out = layers[-1]

    activated = activation_step is not None
    for t in range(start, horizon):
        spring = model._spring_force(d, v)
        cue = 1.0 if activation_step is not None and t >= activation_step + task.sensory_delay else 0.0
        obs = obs_buf[t]
        obs[0] = d / model.travel
        obs[1] = v / VELOCITY_SCALE
        obs[2] = spring / FORCE_CEILING_N
        obs[3] = cue
        obs[4] = (horizon - t) / horizon

        h = obs
        for w, b in hidden_wb:
            h = np.tanh(h @ w + b)
        mean = float((h @ w_out)[0]) + b_out[0]
        raw = mean + sigma * z[t]
        a = min(max(raw, 0.0), ACTION_MAX_N)
        actions[t] = a
        raws[t] = raw

        d, v, event = _tick(model, d, v, spring, a, activated, DEFAULT_DT_S, DEFAULT_MASS_KG)
        reward = STEP_PENALTY - EFFORT_COEF * a * a
        if event == ACTIVATION:
            activated = True
            activation_step = t
        elif event == RELEASE:
            rewards[t] = reward + SUCCESS_REWARD
            return t + 1, True, activation_step

        if (activated and t - activation_step >= task.dwell_limit) or t == horizon - 1:
            rewards[t] = reward + TIMEOUT_PENALTY
            return t + 1, False, activation_step
        rewards[t] = reward
    raise AssertionError("an episode always ends by its horizon")


def _trajectory(params, z, obs, actions, raws, rewards, steps, success, activation_step):
    """The first ``steps`` ticks of an episode's buffers as a Trajectory."""
    return Trajectory(
        observations=obs[:steps],
        actions=actions[:steps],
        raw_actions=raws[:steps],
        log_probs=-0.5 * z[:steps] * z[:steps] - params.log_std - _HALF_LOG_2PI,
        rewards=rewards[:steps],
        success=success,
        activation_step=activation_step,
    )


# Below this many running episodes, rollouts runs each one alone: a
# lockstep tick costs about as much as four scalar steps at batch sizes
# this small (the table in rollouts' docstring).
LOCKSTEP_MIN_EPISODES = 4


def rollouts(params, tasks, models, seeds) -> list[Trajectory]:
    """B independent episodes; each equals the :func:`rollout` of the same inputs.

    ``params``, ``tasks``, ``models`` and ``seeds`` are sequences of one
    entry per episode, and every episode's trajectory is byte-identical
    to ``rollout(params[i], tasks[i], models[i], seeds[i])``.  From
    LOCKSTEP_MIN_EPISODES episodes on they advance together, one tick for
    all of them, in the same elementwise arithmetic as :func:`rollout`,
    until fewer than that are still running; each of those then finishes
    alone from where it stands.

    Lockstep time over one-at-a-time time, each batch run with that rule
    at threshold min(B, 4) (2 cores, numpy 2.4, OpenBLAS; 24 batches
    each).  Evaluation style is one adapted policy on one design;
    adaptation style is the initial policy on 4 episodes per design:

        B             2     3     4     6     8
        evaluation   1.79  1.20  0.93  0.66  0.53
        adaptation   1.60  1.19  0.94  0.85  0.78

    Raises:
        ValueError: sequences of different lengths, or policies of
            different architectures in one lockstep batch.
    """
    params, tasks, models, seeds = list(params), list(tasks), list(models), list(seeds)
    if not len(params) == len(tasks) == len(models) == len(seeds):
        raise ValueError("need one policy, task, model and seed per episode")
    if len(params) < LOCKSTEP_MIN_EPISODES:
        return [rollout(p, t, m, s) for p, t, m, s in zip(params, tasks, models, seeds)]
    return _lockstep(params, tasks, models, seeds)


def _layer(params: list[PolicyParams], k: int):
    """Layer k of every policy: its weights, one shared matrix when every
    policy holds the same bits, else a (B, n_in, n_out) stack, and its
    biases, one row per policy."""
    w0 = params[0].weights[k][0]
    biases = np.array([p.weights[k][1] for p in params])
    if all(p.weights[k][0].tobytes() == w0.tobytes() for p in params[1:]):
        return w0, biases
    return np.stack([p.weights[k][0] for p in params]), biases


# Operands of the lockstep tick, as 0-d arrays (see button._ZERO).
_ONE, _MAX_N = np.array(1.0), np.array(ACTION_MAX_N)
_KG_MM, _MASS, _DT = np.array(1000.0), np.array(DEFAULT_MASS_KG), np.array(DEFAULT_DT_S)
_TICK, _OBS_TICK = np.array(1), np.array(5)  # flat-index steps of one tick


def _clamp(raw: np.ndarray, out: np.ndarray, below: np.ndarray) -> np.ndarray:
    """``min(max(raw, 0.0), ACTION_MAX_N)`` elementwise, as :func:`_press`
    clamps: a zero keeps its sign and a NaN stays."""
    np.minimum(raw, _MAX_N, out=out)
    np.putmask(out, np.less(raw, _ZERO, out=below), _ZERO)
    return out


def _lockstep(params: list[PolicyParams], tasks: list[TaskSpec], models: list[FdvvModel], seeds):
    """:func:`rollouts` with every episode advanced one tick at a time."""
    sizes = params[0].layer_sizes
    if any(p.layer_sizes != sizes for p in params):
        raise ValueError("a lockstep batch needs one policy architecture")
    n = len(params)
    span = max(t.horizon for t in tasks)
    z = np.zeros((n, span))
    for e, (task, seed) in enumerate(zip(tasks, seeds)):
        z[e, : task.horizon] = np.random.default_rng(seed).standard_normal(task.horizon)
    sigma = np.array([math.exp(p.log_std) for p in params])
    noise = np.multiply(z, sigma[:, None]).ravel()
    # Episode-major buffers: a trajectory's arrays, but for its
    # log-probabilities, are views of one row of each.  A tick writes the
    # observations and raw actions; the actions and rewards follow from
    # the raw actions, all at once, when the ticks are done.
    obs_buf = np.empty((n, span, 5))
    raws = np.zeros((n, span))
    steps = np.zeros(n, dtype=int)
    success = np.zeros(n, dtype=bool)
    never = np.iinfo(np.int64).max // 2  # activation step of an unactivated episode

    # The forward pass is a stack of vector-times-matrix products: each
    # row's matmul gives the bits of rollout's ``h @ w``, where a single
    # (B, n) @ (n, m) product would not.  Biases are per episode, for
    # flat elementwise adds.
    layers = [_layer(params, k) for k in range(len(sizes) - 1)]
    springs = SpringTables(models)
    # Per episode, by batch index: what only an event or a timeout reads.
    act_step = np.full(n, never)
    cue_at = np.full(n, never)
    # The tick that times the episode out: its horizon's last, or the
    # dwell limit's after activation if that comes first.
    deadline = np.array([t.horizon - 1 for t in tasks])
    delay = np.array([t.sensory_delay for t in tasks])
    dwell = np.array([t.dwell_limit for t in tasks])
    rel_disp = np.array([m.release_disp for m in models])
    # Per running episode, narrowed as others end: what every tick reads.
    # An observation is ``numer / denom``: displacement over travel,
    # velocity over VELOCITY_SCALE, spring force over FORCE_CEILING_N,
    # the release cue over 1 and the ticks left over the horizon.  The
    # column views of ``numer`` are the episodes' state.
    state = {
        "rows": np.arange(n),
        "at": np.arange(n) * span,  # flat index of the tick in (n, span)
        "obs_at": np.arange(n)[:, None] * span * 5 + np.arange(5),
        "numer": np.array([[0.0, 0.0, 0.0, 0.0, t.horizon] for t in tasks]),
        "denom": np.array(
            [[m.travel, VELOCITY_SCALE, FORCE_CEILING_N, 1.0, t.horizon] for t, m in zip(tasks, models)]
        ),
        "damping": np.array([m.damping for m in models]),
        # One comparison, ``edges <= signs * d``, finds the stops, d <= 0
        # and d >= travel, and the event test: d at or past its edge, the
        # activation displacement upward, then the release one downward.
        # An event is that test turning true, and ``beyond`` holds its
        # last outcome.  Both edges lie inside (0, travel), so the test's
        # outcome is the same before the stops' clamp as after it.
        "edges": np.array([[0.0, m.travel, m.activation_disp] for m in models]),
        "signs": np.tile([-1.0, 1.0, 1.0], (n, 1)),
        "beyond": np.zeros(n, dtype=bool),
    }
    obs_flat, raws_flat = obs_buf.reshape(-1), raws.reshape(-1)
    next_cue, next_deadline = never, int(deadline.min())
    t = 0
    while True:
        # The running episodes and their scratch arrays until one ends.
        b = state["rows"].size
        rows, at, obs_at, numer, denom = (state[k] for k in ("rows", "at", "obs_at", "numer", "denom"))
        damping, edges, signs, beyond = (state[k] for k in ("damping", "edges", "signs", "beyond"))
        d, v, spring, cue, left = numer.T
        travel, sign, edge = edges[:, 1], signs[:, 2], edges[:, 2]
        obs = np.empty((b, 5))
        rows_in = obs[:, None, :]
        hidden = []
        for w, bias in layers[:-1]:
            out = np.empty((b, 1, w.shape[-1]))
            hidden.append((w, bias.reshape(-1), out, out.reshape(-1)))
        w_out, b_out = layers[-1][0], layers[-1][1].reshape(-1)
        mean = np.empty((b, 1, 1))
        mean_flat = mean.reshape(-1)
        raw, a, accel, drag = np.empty((4, b))
        below, stop, cross = np.empty((3, b), dtype=bool)
        signed, tests = np.empty((b, 3)), np.empty((b, 3), dtype=bool)
        below_zero, past_travel, now = tests.T
        done = None
        while done is None:
            if t >= next_cue:
                running_cues = cue_at[rows]
                np.greater_equal(t, running_cues, out=cue)
                later = running_cues[running_cues > t]
                next_cue = int(later.min()) if later.size else never
            springs.force(d, v, out=spring)
            np.divide(numer, denom, out=obs)
            np.subtract(left, _ONE, out=left)
            obs_flat[obs_at] = obs

            h = rows_in
            for w, bias, out, flat in hidden:
                np.matmul(h, w, out=out)
                np.add(flat, bias, out=flat)
                np.tanh(flat, out=flat)
                h = out
            np.matmul(h, w_out, out=mean)
            np.add(mean_flat, b_out, out=raw)
            np.add(raw, noise[at], out=raw)
            raws_flat[at] = raw
            _clamp(raw, a, below)

            # button._tick, elementwise and in the same operation order.
            np.subtract(a, spring, out=accel)
            np.subtract(accel, np.multiply(damping, v, out=drag), out=accel)
            np.multiply(accel, _KG_MM, out=accel)
            np.divide(accel, _MASS, out=accel)
            np.multiply(accel, _DT, out=accel)
            np.add(v, accel, out=v)
            np.add(d, np.multiply(v, _DT, out=drag), out=d)
            np.less_equal(edges, np.multiply(signs, d[:, None], out=signed), out=tests)
            np.putmask(v, np.logical_or(below_zero, past_travel, out=stop), _ZERO)
            # d is never -0.0, and travel > 0: no tie differs in sign.
            np.maximum(d, _ZERO, out=d)
            np.minimum(d, travel, out=d)
            np.greater(now, beyond, out=cross)
            np.copyto(beyond, now)
            np.add(at, _TICK, out=at)
            np.add(obs_at, _OBS_TICK, out=obs_at)
            if np.count_nonzero(cross) or t == next_deadline:
                hit = np.flatnonzero(cross)
                pressed, released = hit[sign[hit] > 0.0], hit[sign[hit] < 0.0]
                if pressed.size:
                    e = rows[pressed]
                    act_step[e] = t
                    cue_at[e] = t + delay[e]
                    deadline[e] = np.minimum(t + dwell[e], deadline[e])
                    sign[pressed] = -1.0
                    edge[pressed] = -rel_disp[e]
                    beyond[pressed] = edge[pressed] <= -d[pressed]
                    next_cue = min(next_cue, int(cue_at[e].min()))
                    next_deadline = int(deadline[rows].min())
                ended = deadline[rows] == t
                ended[released] = True
                if ended.any():
                    done = ended
                    success[rows[released]] = True
            t += 1

        steps[rows[done]] = t
        keep = ~done
        state = {k: x[keep] for k, x in state.items()}
        if state["rows"].size < LOCKSTEP_MIN_EPISODES:
            break
        layers = [(w[keep] if w.ndim == 3 else w, bias[keep]) for w, bias in layers]
        springs.take(keep)
        next_deadline = int(deadline[state["rows"]].min())

    actions = _clamp(raws, np.empty_like(raws), np.empty(raws.shape, dtype=bool))
    rewards = STEP_PENALTY - EFFORT_COEF * actions * actions
    ended = np.flatnonzero(steps)
    rewards[ended, steps[ended] - 1] += np.where(success[ended], SUCCESS_REWARD, TIMEOUT_PENALTY)
    # Too few left to share a tick: each finishes alone.
    for e, (d, v) in zip(state["rows"], state["numer"][:, :2].tolist()):
        act = int(act_step[e])
        steps[e], success[e], act = _press(
            params[e], tasks[e], models[e], z[e], obs_buf[e], actions[e], raws[e], rewards[e],
            t, d, v, None if act == never else act,
        )
        act_step[e] = never if act is None else act

    return [
        _trajectory(
            params[e], z[e], obs_buf[e], actions[e], raws[e], rewards[e], k, bool(success[e]),
            None if act_step[e] == never else int(act_step[e]),
        )
        for e, k in enumerate(steps)
    ]


def _pooled(trajectories: list[Trajectory], baseline: float | None):
    obs = np.concatenate([t.observations for t in trajectories])
    raws = np.concatenate([t.raw_actions for t in trajectories])
    gains = np.concatenate([t.returns_to_go for t in trajectories])
    if baseline is None:
        # Mean return-to-go at each step over the episodes still running.
        total = np.zeros(max(len(t) for t in trajectories))
        running = np.zeros_like(total)
        for t in trajectories:
            total[: len(t)] += t.returns_to_go
            running[: len(t)] += 1.0
        per_step = total / running
        baseline = np.concatenate([per_step[: len(t)] for t in trajectories])
    return obs, raws, gains - baseline


def surrogate_objective(
    trajectories: list[Trajectory], params: PolicyParams, baseline: float | None = None
) -> float:
    """Mean over pooled steps of log-probability times advantage.

    Its gradient at the sampling parameters is exactly what
    :func:`policy_gradient` returns, which makes it the finite-difference
    reference for gradient checks.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    obs, raws, adv = _pooled(trajectories, baseline)
    means, _ = _mean_batch(params, obs)
    sigma = math.exp(params.log_std)
    zs = (raws - means) / sigma
    lps = -0.5 * zs * zs - params.log_std - _HALF_LOG_2PI
    return float(np.mean(lps * adv))


def policy_gradient(
    trajectories: list[Trajectory], params: PolicyParams, baseline: float | None = None
) -> np.ndarray:
    """REINFORCE gradient, averaged over all pooled steps.

    Advantage is the discounted return-to-go minus a baseline: a supplied
    constant, or by default the mean return-to-go at the same step over
    the batch's episodes still running then.  Episode lengths differ
    many times over within a batch, and a single batch-mean return would
    credit a short success's few steps against a long timeout's many.
    By default a lone episode is its own baseline and has zero gradient.

    Raises:
        ValueError: empty batch.
    """
    return _gradient(trajectories, params, baseline, len(params.layer_sizes) - 1)


def _gradient(
    trajectories: list[Trajectory], params: PolicyParams, baseline: float | None, depth: int
) -> np.ndarray:
    """The tail of :func:`policy_gradient`: its last ``depth`` layers and the log-std."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    obs, raws, adv = _pooled(trajectories, baseline)
    n = obs.shape[0]
    means, hidden = _mean_batch(params, obs)
    sigma = math.exp(params.log_std)
    zs = (raws - means) / sigma

    layers = params.weights
    first = len(layers) - depth
    # d(surrogate)/d(mean_i), including the 1/n of the pooled mean.
    delta = (adv * zs / sigma / n)[:, None]
    grads: list[np.ndarray] = []
    for li in range(len(layers) - 1, first - 1, -1):
        w, _ = layers[li]
        x = obs if li == 0 else hidden[li - 1]
        # The weight gradient sums over every pooled step.  A BLAS product
        # would split that sum across threads, and the bits would then
        # depend on the thread count; einsum keeps one summation order.
        grads.append(np.concatenate([np.einsum("ni,nj->ij", x, delta).ravel(), delta.sum(axis=0)]))
        if li > first:
            delta = (delta @ w.T) * (1.0 - hidden[li - 1] ** 2)
    grads.reverse()
    g_log_std = float(np.mean(adv * (zs * zs - 1.0)))
    return np.concatenate(grads + [np.array([g_log_std])])


@dataclass(frozen=True)
class MetaPolicy:
    """Shared initialization plus the adaptation recipe it is trained for.

    :func:`adapt` runs the recipe: ``adapt_episodes`` episodes in batches
    of 4, each batch followed by one gradient step on the output layer
    (size ``inner_lr``) and the log-std (LOG_STD_STEP_SCALE times that).
    :func:`meta_train` trains the initialization for exactly the recipe
    it returns.
    """

    init_params: PolicyParams
    inner_lr: float = DEFAULT_INNER_LR
    adapt_episodes: int = 8

    def __post_init__(self):
        if not 0 < self.inner_lr < math.inf:  # written so that nan fails too
            raise ValueError(f"inner_lr must be finite and > 0, got {self.inner_lr}")
        if self.adapt_episodes < 0:
            raise ValueError("adapt_episodes must be >= 0")


_BATCH = 4


def adapt(meta: MetaPolicy, task: TaskSpec, model: FdvvModel, seed) -> PolicyParams:
    """Per-task adaptation: K episodes in batches of 4, one step per batch.

    Each step moves only the output layer, by ``inner_lr`` times its
    REINFORCE gradient, and the log-std, by LOG_STD_STEP_SCALE times
    that.  The hidden layers are the features meta-training shares across
    designs; a 4-episode gradient over all of them is noisy enough to
    undo what the initialization already does well.
    """
    return _adapt_tasks(meta, [task], [model], [seed])[0]


def _repeat(items, count: int) -> list:
    return [x for x in items for _ in range(count)]


def _adapt_tasks(meta: MetaPolicy, tasks, models, task_seeds) -> list[PolicyParams]:
    """:func:`adapt` on several tasks at once, each batch's episodes in one
    :func:`rollouts` call; task k's result equals ``adapt(meta, tasks[k],
    models[k], task_seeds[k])``."""
    params = [meta.init_params] * len(tasks)
    head = param_count(meta.init_params.layer_sizes[-2:])
    rates = np.full(head, meta.inner_lr)
    rates[-1] *= LOG_STD_STEP_SCALE
    remaining = meta.adapt_episodes
    batch_index = 0
    while remaining > 0:
        size = min(_BATCH, remaining)
        episodes = rollouts(
            _repeat(params, size),
            _repeat(tasks, size),
            _repeat(models, size),
            [seeds.seed_for(s, "adapt", batch_index, j) for s in task_seeds for j in range(size)],
        )
        stepped = []
        for k, p in enumerate(params):
            vector = p.vector.copy()
            vector[-head:] += rates * _gradient(episodes[k * size : (k + 1) * size], p, None, 1)
            stepped.append(p.replaced(vector))
        params = stepped
        remaining -= size
        batch_index += 1
    return params


def default_task_sampler(rng) -> ButtonDesignParams:
    """Uniform draw over the optimizer's design box."""
    values = {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in DESIGN_BOUNDS.items()}
    return ButtonDesignParams(**values)


def meta_train(
    task_sampler,
    iterations: int,
    meta_lr: float = 0.05,
    seed: int = 0,
    layer_sizes: tuple[int, ...] = DEFAULT_LAYER_SIZES,
    inner_lr: float = DEFAULT_INNER_LR,
    adapt_episodes: int = 8,
    tasks_per_iteration: int = 8,
    log_every: int = 0,
) -> MetaPolicy:
    """First-order MAML of the policy initialization for the recipe it returns.

    The returned ``MetaPolicy(init, inner_lr, adapt_episodes)`` adapts as
    :func:`adapt` describes.  Per iteration and task, :func:`adapt` runs
    every batch of that recipe but the last; the last batch is drawn from
    the parameters reached, and its policy gradient over all layers is
    the task's first-order meta-gradient.  The initialization moves by
    ``meta_lr`` times the mean over tasks, except for its log-std: every
    design starts from the same exploration noise, and adaptation, whose
    log-std steps are too long for a first-order meta-gradient to carry
    back one for one, sets it per design.  With the default 8 episodes
    that is one inner step on 4 episodes and a meta-gradient from the
    4 episodes the recipe's second step draws, so each task costs
    ``adapt_episodes`` rollouts per iteration.  The tasks of an iteration
    adapt together, and their last batches run in one :func:`rollouts`
    call; the result is the same as one task at a time.

    Raises:
        ValueError: iterations < 0, or adapt_episodes < 1.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if adapt_episodes < 1:
        raise ValueError("meta-training needs adapt_episodes >= 1")
    inner_episodes = _BATCH * ((adapt_episodes - 1) // _BATCH)
    last_episodes = adapt_episodes - inner_episodes
    init = init_policy(seeds.seed_for(seed, "meta_init"), layer_sizes)
    for it in range(iterations):
        tasks, models = [], []
        for j in range(tasks_per_iteration):
            design = task_sampler(seeds.rng_for(seed, "meta_task", it, j))
            models.append(design_to_fdvv(design))
            tasks.append(TaskSpec(design))
        reached = _adapt_tasks(
            MetaPolicy(init, inner_lr, inner_episodes),
            tasks,
            models,
            [seeds.seed_int(seed, "meta_inner", it, j) for j in range(tasks_per_iteration)],
        )
        last = rollouts(
            _repeat(reached, last_episodes),
            _repeat(tasks, last_episodes),
            _repeat(models, last_episodes),
            [
                seeds.seed_for(seed, "meta_post", it, j, r)
                for j in range(tasks_per_iteration)
                for r in range(last_episodes)
            ],
        )
        grads = [
            policy_gradient(last[j * last_episodes : (j + 1) * last_episodes], p)
            for j, p in enumerate(reached)
        ]
        step = meta_lr * np.mean(grads, axis=0)
        step[-1] = 0.0  # the log-std is left to adaptation
        init = init.replaced(init.vector + step)
        if log_every and (it + 1) % log_every == 0:
            _log.info("meta iteration %d of %d done", it + 1, iterations)
    return MetaPolicy(init, inner_lr, adapt_episodes)
