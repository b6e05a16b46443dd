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
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from . import _blas, seeds
from .button import (
    _ZERO,
    ACTIVATION,
    DEFAULT_DT_S,
    DEFAULT_MASS_KG,
    DESIGN_FIELDS,
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
# Step size of one meta-update of the initialization.
META_LR = 0.05

DEFAULT_LAYER_SIZES = (5, 32, 32, 1)


def _whole(value, name: str) -> int:
    """``value`` as an int; a float, even 2.0, is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
        sizes = tuple(_whole(s, "layer sizes") for s in self.layer_sizes)
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


def _mean_batch(params: PolicyParams, obs: np.ndarray, keep: int = 0) -> tuple[np.ndarray, list]:
    """Batched forward pass in place; means and hidden activations (None
    before layer ``keep``)."""
    layers = params.weights
    hidden = []
    h = obs
    for k, (w, b) in enumerate(layers[:-1]):
        h = h @ w
        h += b
        np.tanh(h, out=h)
        hidden.append(h if k >= keep else None)
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
        for name in ("horizon", "sensory_delay", "dwell_limit"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.sensory_delay < 0 or self.dwell_limit < 1:
            raise ValueError("sensory_delay must be >= 0 and dwell_limit >= 1")


@dataclass(frozen=True)
class Trajectory:
    observations: np.ndarray
    actions: np.ndarray
    raw_actions: np.ndarray
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
    """One seeded episode against the simulated button: :func:`rollouts` of one."""
    return rollouts([params], [task], [model], [seed])[0]


# The activation step of an episode not yet activated, in both engines.
_NEVER = np.iinfo(np.int64).max // 2


def _press(params, task, model, noise, records, start, d, v, act, observe):
    """Ticks ``start`` on of one episode, from displacement ``d``, velocity
    ``v`` and its activation step so far (_NEVER before activation), with
    its scaled noise from tick ``start`` on; appends their observations
    (none unless ``observe``) and raw actions to ``records`` as one
    (observations, raw actions) piece, and returns (success, activation
    step)."""
    horizon = task.horizon
    scratch = np.empty(5)
    obs_buf, raws = np.empty((horizon - start if observe else 0, 5)), np.empty(horizon - start)
    layers = params.weights
    hidden_wb = layers[:-1]
    w_out, b_out = layers[-1]

    # As the lockstep keeps them: the tick the release cue starts, and the
    # tick that times the episode out.
    activated = act != _NEVER
    cue_at = act + task.sensory_delay
    deadline = min(horizon - 1, act + task.dwell_limit)
    for k, t in enumerate(range(start, horizon)):
        spring = model._spring_force(d, v)
        obs = obs_buf[k] if observe else scratch
        obs[0] = d / model.travel
        obs[1] = v / VELOCITY_SCALE
        obs[2] = spring / FORCE_CEILING_N
        obs[3] = 1.0 if t >= cue_at else 0.0
        obs[4] = (horizon - t) / horizon

        h = obs
        for w, b in hidden_wb:
            h = np.tanh(h @ w + b)
        mean = float((h @ w_out)[0]) + b_out[0]
        raw = mean + noise[k]
        a = min(max(raw, 0.0), ACTION_MAX_N)
        raws[k] = raw

        d, v, event = _tick(model, d, v, spring, a, activated, DEFAULT_DT_S, DEFAULT_MASS_KG)
        if event == ACTIVATION:
            activated, act = True, t
            cue_at = t + task.sensory_delay
            deadline = min(deadline, t + task.dwell_limit)
        if event == RELEASE or t == deadline:
            records.append((obs_buf[: k + 1], raws[: k + 1]))
            return event == RELEASE, act
    raise AssertionError("an episode always ends by its horizon")


def _trajectory(records, success, act):
    """An episode's records, its (observations, raw actions) pieces in tick
    order, as a Trajectory.

    The records hold what the engines record; the rest follows from it
    here: the clamped actions, and the rewards, each tick's step penalty
    and effort cost plus, on the last tick, the success bonus or the
    timeout penalty.
    """
    raw = np.concatenate([r for _, r in records])
    steps = raw.size
    actions = _clamp(raw, np.empty(steps), np.empty(steps, dtype=bool))
    rewards = STEP_PENALTY - EFFORT_COEF * actions * actions
    rewards[-1] += SUCCESS_REWARD if success else TIMEOUT_PENALTY
    return Trajectory(
        observations=np.concatenate([o for o, _ in records]),
        actions=actions,
        raw_actions=raw,
        rewards=rewards,
        success=success,
        activation_step=None if act == _NEVER else int(act),
    )


def _layer(params: list[PolicyParams], k: int):
    """Layer k of every policy: its weights, one shared matrix when every
    policy holds the same bits, else a (B, n_in, n_out) stack, and its
    biases, one row per policy."""
    w0 = params[0].weights[k][0]
    biases = np.array([p.weights[k][1] for p in params])
    if all(p.weights[k][0].tobytes() == w0.tobytes() for p in params[1:]):
        return w0, biases
    return np.stack([p.weights[k][0] for p in params]), biases


# Ticks per chunk of the lockstep's record buffers.  A chunk holds 56
# bytes per running episode and tick (observation, raw action and noise;
# 16 unobserved), and each chunk costs every running episode a copy and a
# draw.
# At 128 ticks, evaluating 8 designs' episodes together peaked at 2.4
# times one design's, against 2.0 at 64.
_CHUNK = 64
# Operands of the lockstep tick, as 0-d arrays (see button._ZERO).
_ONE, _MAX_N = np.array(1.0), np.array(ACTION_MAX_N)
_KG_MM, _MASS, _DT = np.array(1000.0), np.array(DEFAULT_MASS_KG), np.array(DEFAULT_DT_S)


def _clamp(raw: np.ndarray, out: np.ndarray, below: np.ndarray) -> np.ndarray:
    """``min(max(raw, 0.0), ACTION_MAX_N)`` elementwise, as :func:`_press`
    clamps: a zero keeps its sign and a NaN stays."""
    np.minimum(raw, _MAX_N, out=out)
    np.putmask(out, np.less(raw, _ZERO, out=below), _ZERO)
    return out


# Below this many running episodes, rollouts runs each one alone: a
# lockstep tick costs about as much as four scalar steps at batch sizes
# this small (the table in rollouts' docstring).
LOCKSTEP_MIN_EPISODES = 4


def rollouts(params, tasks, models, seeds, observe: bool = True) -> list[Trajectory]:
    """B independent seeded episodes against the simulated button at 1 kHz.

    ``params``, ``tasks``, ``models`` and ``seeds`` are sequences of one
    entry per episode; a seed is what ``np.random.default_rng`` makes a
    new generator from each time (an int or a SeedSequence, not a
    generator).  Each tick runs the press physics of ``button._tick`` on
    the same spring lookup, so replaying an episode's actions through
    :func:`~buttonlab.button.scripted_press_trace` reproduces its
    displacements, activation and release bit for bit.  Each episode draws its noise from its own seed's
    stream, so every episode is a pure function of its own (params, task,
    model, seed): its trajectory is byte-identical in any batch, alone or
    not.  The lockstep draws that noise and records each tick a chunk of
    _CHUNK ticks at a time, and an episode that runs alone records into
    one buffer of the ticks it has left, so a batch holds memory by the
    ticks its episodes run, not by their horizons.  While at least LOCKSTEP_MIN_EPISODES episodes
    are running they advance together, one tick for all of them, in the
    same elementwise arithmetic as one episode alone; each of the rest
    then finishes alone from where it stands, so a batch of fewer runs
    each episode alone from its start.  With ``observe`` false, the
    engines store no observation: each trajectory's are an empty (0, 5)
    array, and no gradient takes it.

    Lockstep time over one-at-a-time time, each batch run with that rule
    at threshold min(B, 4) (2 cores, numpy 2.4, OpenBLAS; 24 batches
    each).  Evaluation style is one adapted policy on one design;
    adaptation style is the initial policy on 4 episodes per design:

        B             2     3     4     6     8
        evaluation   1.79  1.20  0.93  0.66  0.53
        adaptation   1.60  1.19  0.94  0.85  0.78

    Raises:
        ValueError: sequences of different lengths, or policies of
            different architectures in one call, at any batch size.
    """
    params, tasks, models, seeds = list(params), list(tasks), list(models), list(seeds)
    if not len(params) == len(tasks) == len(models) == len(seeds):
        raise ValueError("need one policy, task, model and seed per episode")
    if len({p.layer_sizes for p in params}) > 1:
        raise ValueError("one rollouts call needs one policy architecture")
    n = len(params)
    horizons = [t.horizon for t in tasks]
    span = max(horizons, default=0)
    sigmas = np.array([math.exp(p.log_std) for p in params])
    # What a tick records, the observations and raw actions, goes into
    # the running episodes' rows of a chunk of _CHUNK ticks.  When a chunk
    # is full, each episode's row there is copied into its records; when
    # an episode ends, its trajectory is built from them and they go.  So
    # what a batch holds follows the ticks its episodes ran.
    records = [[] for _ in range(n)]
    trajectories = [None] * n
    t = t0 = chunk_end = 0
    # Per running episode, narrowed as others end; ``rows`` maps each back
    # to its batch index.  An observation is ``numer / denom``:
    # displacement over travel, velocity over VELOCITY_SCALE, spring force
    # over FORCE_CEILING_N, the release cue over 1 and the ticks left over
    # the horizon.  The column views of ``numer`` are the episodes' state.
    state = {
        "rows": np.arange(n),
        # The chunk, ticks t0 on, column t - t0 for tick t: the recorded
        # observations and raw actions, and the exploration noise drawn
        # for its ticks.  It is empty until the lockstep starts one.
        "obs_rec": np.empty((n, 0, 5)),
        "raw_rec": np.empty((n, 0)),
        "noise_rec": np.empty((n, 0)),
        "numer": np.array([[0.0, 0.0, 0.0, 0.0, t.horizon] for t in tasks]),
        "denom": np.array(
            [[m.travel, VELOCITY_SCALE, FORCE_CEILING_N, 1.0, t.horizon] for t, m in zip(tasks, models)]
        ),
        "sigma": sigmas,
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
        # What only an event or a timeout reads.  The deadline is the tick
        # that times the episode out: its horizon's last, or the dwell
        # limit's after activation if that comes first.
        "act_step": np.full(n, _NEVER),
        "cue_at": np.full(n, _NEVER),
        "deadline": np.array(horizons) - 1,
        "delay": np.array([t.sensory_delay for t in tasks]),
        "dwell": np.array([t.dwell_limit for t in tasks]),
        "rel_disp": np.array([m.release_disp for m in models]),
    }
    if n >= LOCKSTEP_MIN_EPISODES:
        # What a tick reads of the policies and models, built only for a
        # batch large enough to share a tick and narrowed with ``state``:
        # each episode's noise stream, drawn a chunk at a time, the layers
        # and the spring tables.  The forward pass is a stack of
        # vector-times-matrix products: each row's matmul gives the bits
        # of _press's ``h @ w``, where a single (B, n) @ (n, m) product
        # would not.  Biases are per episode, for flat elementwise adds.
        streams = [np.random.default_rng(seed) for seed in seeds]
        layers = [_layer(params, k) for k in range(len(params[0].weights))]
        springs = SpringTables(models)
    next_cue = _NEVER
    while state["rows"].size >= LOCKSTEP_MIN_EPISODES:
        # The running episodes and their scratch arrays until one ends.
        b = state["rows"].size
        rows, obs_rec, raw_rec, noise_rec = (state[k] for k in ("rows", "obs_rec", "raw_rec", "noise_rec"))
        numer, denom = state["numer"], state["denom"]
        damping, edges, signs, beyond = (state[k] for k in ("damping", "edges", "signs", "beyond"))
        act_step, cue_at, deadline = state["act_step"], state["cue_at"], state["deadline"]
        d, v, spring, cue, left = numer.T
        travel, sign, edge = edges[:, 1], signs[:, 2], edges[:, 2]
        next_deadline = int(deadline.min())
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
            if t == chunk_end:
                # The chunk is full, or there is none yet: its rows are
                # copied into the records, and the running episodes start
                # the next, with each one's next standard normals times its
                # sigma drawn as its noise.  A stream drawn past its
                # episode's horizon is never read again.  Rows are taken by
                # index: a loop variable left on a row would keep its whole
                # chunk alive.
                if t > t0:
                    for i, e in enumerate(rows.tolist()):
                        records[e].append((obs_rec[i].copy(), raw_rec[i].copy()))
                t0, size = t, min(_CHUNK, span - t)
                chunk_end = t + size
                noise_rec = np.empty((b, size))
                for i, stream in enumerate(streams):
                    stream.standard_normal(out=noise_rec[i])
                noise_rec *= state["sigma"][:, None]
                obs_rec, raw_rec = np.empty((b, size if observe else 0, 5)), np.empty((b, size))
                state.update(obs_rec=obs_rec, raw_rec=raw_rec, noise_rec=noise_rec)
            if t >= next_cue:
                np.greater_equal(t, cue_at, out=cue)
                later = cue_at[cue_at > t]
                next_cue = int(later.min()) if later.size else _NEVER
            springs.force(d, v, out=spring)
            np.divide(numer, denom, out=obs)
            np.subtract(left, _ONE, out=left)
            k = t - t0
            if observe:
                obs_rec[:, k] = obs

            h = rows_in
            for w, bias, out, flat in hidden:
                np.matmul(h, w, out=out)
                np.add(flat, bias, out=flat)
                np.tanh(flat, out=flat)
                h = out
            np.matmul(h, w_out, out=mean)
            np.add(mean_flat, b_out, out=raw)
            np.add(raw, noise_rec[:, k], out=raw)
            raw_rec[:, k] = raw
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
            if np.count_nonzero(cross) or t == next_deadline:
                released = cross & (sign < 0.0)
                pressed = np.flatnonzero(cross & (sign > 0.0))
                if pressed.size:
                    act_step[pressed] = t
                    cue_at[pressed] = t + state["delay"][pressed]
                    deadline[pressed] = np.minimum(t + state["dwell"][pressed], deadline[pressed])
                    sign[pressed] = -1.0
                    edge[pressed] = -state["rel_disp"][pressed]
                    beyond[pressed] = edge[pressed] <= -d[pressed]
                    next_cue = min(next_cue, int(cue_at[pressed].min()))
                    next_deadline = int(deadline.min())
                ended = (deadline == t) | released
                if ended.any():
                    done = ended
            t += 1

        keep = ~done
        # The ended episodes' noise streams go before their trajectories
        # are built.
        streams = list(compress(streams, keep))
        finished = zip(np.flatnonzero(done).tolist(), released[done].tolist(), act_step[done].tolist())
        for i, ok, act in finished:
            e = int(rows[i])
            records[e].append((obs_rec[i, : t - t0], raw_rec[i, : t - t0]))
            trajectories[e] = _trajectory(records[e], ok, act)
            records[e] = None
        state = {k: x[keep] for k, x in state.items()}
        layers = [(w[keep] if w.ndim == 3 else w, bias[keep]) for w, bias in layers]
        springs.take(keep)

    # Too few running to share a tick: each finishes alone, its noise from
    # tick t on drawn afresh from its seed (a stream drawn in pieces gives
    # the bits of one draw, so these are the lockstep's bits).  Each first
    # records its row of the chunk, empty if the lockstep never ran.
    tail = zip(state["rows"].tolist(), state["numer"].tolist(), state["act_step"].tolist())
    for i, (e, (d, v, *_), act) in enumerate(tail):
        records[e].append((state["obs_rec"][i, : t - t0], state["raw_rec"][i, : t - t0]))
        noise = np.random.default_rng(seeds[e]).standard_normal(horizons[e])[t:] * sigmas[e]
        ok, act = _press(params[e], tasks[e], models[e], noise, records[e], t, d, v, act, observe)
        trajectories[e] = _trajectory(records[e], ok, act)
        records[e] = None
    return trajectories


def _pooled(trajectories: list[Trajectory], baseline: float | None):
    if any(len(t.observations) != len(t) for t in trajectories):
        raise ValueError("a gradient needs one observation per step")
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


@_blas.one_thread()
def _gradient(
    trajectories: list[Trajectory], params: PolicyParams, baseline: float | None, depth: int
) -> np.ndarray:
    """The tail of :func:`policy_gradient`: its last ``depth`` layers and the log-std."""
    if not trajectories:
        raise ValueError("need at least one trajectory")
    obs, raws, adv = _pooled(trajectories, baseline)
    n = obs.shape[0]
    layers = params.weights
    first = len(layers) - depth
    means, hidden = _mean_batch(params, obs, first - 1)
    sigma = math.exp(params.log_std)
    zs = (raws - means) / sigma

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
            # (delta @ w.T) * (1 - h**2), written into h: the einsum above
            # was the last reader of this hidden layer.
            h = hidden[li - 1]
            np.square(h, out=h)
            np.subtract(1.0, h, out=h)
            delta = np.multiply(delta @ w.T, h, out=h)
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
        if _whole(self.adapt_episodes, "adapt_episodes") < 0:
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


def _batches(params, tasks, models, episode_seeds, count: int, observe: bool = True):
    """``count`` episodes of every task from one :func:`rollouts` call,
    one task's list at a time; task k's run under ``params[k]`` and
    ``models[k]`` on the k-th ``count`` of ``episode_seeds``.  Each task's
    episodes go when the next task's are taken and the last task's with
    the generator, so a caller that runs it in one comprehension holds no
    batch past it.  The seeds are read once: a generator of them keeps
    none alive past the rollouts call.  ``observe`` is rollouts'."""
    episodes = rollouts(
        [p for p in params for _ in range(count)],
        [t for t in tasks for _ in range(count)],
        [m for m in models for _ in range(count)],
        episode_seeds,
        observe,
    )
    for _ in tasks:
        batch = episodes[:count]
        del episodes[:count]
        yield batch


def _adapt_tasks(meta: MetaPolicy, tasks, models, task_seeds) -> list[PolicyParams]:
    """:func:`adapt` on several tasks at once, each batch's episodes in one
    :func:`rollouts` call; task k's result equals ``adapt(meta, tasks[k],
    models[k], task_seeds[k])``."""
    params = [meta.init_params] * len(tasks)
    head = param_count(meta.init_params.layer_sizes[-2:])
    rates = np.full(head, meta.inner_lr)
    rates[-1] *= LOG_STD_STEP_SCALE
    for batch_index, start in enumerate(range(0, meta.adapt_episodes, _BATCH)):
        size = min(_BATCH, meta.adapt_episodes - start)
        episode_seeds = (seeds.seed_for(s, "adapt", batch_index, j) for s in task_seeds for j in range(size))
        params = [
            p.replaced(np.concatenate([p.vector[:-head], p.vector[-head:] + rates * _gradient(batch, p, None, 1)]))
            for p, batch in zip(params, _batches(params, tasks, models, episode_seeds, size))
        ]
    return params


def box_task_sampler(bounds):
    """A task sampler for :func:`meta_train`: each design field drawn
    uniformly from its ``(low, high)`` in ``bounds``, in DESIGN_FIELDS order."""

    def sample(rng) -> ButtonDesignParams:
        return ButtonDesignParams(**{name: float(rng.uniform(*bounds[name])) for name in DESIGN_FIELDS})

    return sample


def meta_train(
    task_sampler,
    iterations: int,
    seed: int = 0,
    layer_sizes: tuple[int, ...] = DEFAULT_LAYER_SIZES,
    inner_lr: float = DEFAULT_INNER_LR,
    adapt_episodes: int = MetaPolicy.adapt_episodes,
    tasks_per_iteration: int = 8,
    log_every: int = 0,
    horizon: int = TaskSpec.horizon,
    sensory_delay: int = TaskSpec.sensory_delay,
    dwell_limit: int = TaskSpec.dwell_limit,
) -> MetaPolicy:
    """First-order MAML of the policy initialization for the recipe it returns.

    The returned ``MetaPolicy(init, inner_lr, adapt_episodes)`` adapts as
    :func:`adapt` describes.  Per iteration and task, :func:`adapt` runs
    every batch of that recipe but the last; the last batch is drawn from
    the parameters reached, and its policy gradient over all layers is
    the task's first-order meta-gradient.  The initialization moves by
    ``META_LR`` times the mean over tasks, except for its log-std: every
    design starts from the same exploration noise, and adaptation, whose
    log-std steps are too long for a first-order meta-gradient to carry
    back one for one, sets it per design.  With the default 8 episodes
    that is one inner step on 4 episodes and a meta-gradient from the
    4 episodes the recipe's second step draws, so each task costs
    ``adapt_episodes`` rollouts per iteration.  The tasks of an iteration
    adapt together, and their last batches run in one :func:`rollouts`
    call; the result is the same as one task at a time.  Every task is
    ``TaskSpec(task_sampler(rng), horizon, sensory_delay, dwell_limit)``.

    Raises:
        ValueError: iterations < 0, adapt_episodes < 1, or
            tasks_per_iteration < 1.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if adapt_episodes < 1:
        raise ValueError("meta-training needs adapt_episodes >= 1")
    if tasks_per_iteration < 1:
        raise ValueError("meta-training needs tasks_per_iteration >= 1")
    inner_episodes = _BATCH * ((adapt_episodes - 1) // _BATCH)
    last_episodes = adapt_episodes - inner_episodes
    init = init_policy(seeds.seed_for(seed, "meta_init"), layer_sizes)
    for it in range(iterations):
        tasks, models = [], []
        for j in range(tasks_per_iteration):
            design = task_sampler(np.random.default_rng(seeds.seed_for(seed, "meta_task", it, j)))
            models.append(design_to_fdvv(design))
            tasks.append(TaskSpec(design, horizon, sensory_delay, dwell_limit))
        reached = _adapt_tasks(
            MetaPolicy(init, inner_lr, inner_episodes),
            tasks,
            models,
            [seeds.seed_int(seed, "meta_inner", it, j) for j in range(tasks_per_iteration)],
        )
        post_seeds = (
            seeds.seed_for(seed, "meta_post", it, j, r)
            for j in range(tasks_per_iteration)
            for r in range(last_episodes)
        )
        grads = [
            policy_gradient(batch, p)
            for p, batch in zip(reached, _batches(reached, tasks, models, post_seeds, last_episodes))
        ]
        step = META_LR * np.mean(grads, axis=0)
        step[-1] = 0.0  # the log-std is left to adaptation
        init = init.replaced(init.vector + step)
        if log_every and (it + 1) % log_every == 0:
            _log.info("meta iteration %d of %d done", it + 1, iterations)
    return MetaPolicy(init, inner_lr, adapt_episodes)
