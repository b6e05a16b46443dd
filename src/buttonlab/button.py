"""Software push-button: FDVV representation and press dynamics.

An FdvvModel holds one force-displacement B-spline per sampled press
velocity plus a vibration burst triggered at activation.  One control
period of a point mass (finger plus cap) against that force field is
:func:`_tick`: semi-implicit Euler, the stops, and activation/release
events with hysteresis.  The public stepper :func:`step`, the scripted
trace and the policy's scalar rollout all run it; the policy's lockstep
batch holds the one vectorized copy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bspline import BSplineCurve, fit_lsq_spline

# Hardware-motivated force ceiling in newtons.
FORCE_CEILING_N = 4.4
# Renderable vibration band in hertz.
VIBRATION_BAND_HZ = (50.0, 20000.0)
# Effective moving mass (fingertip plus cap) in kilograms.
DEFAULT_MASS_KG = 0.005
# Control-rate timestep in seconds.
DEFAULT_DT_S = 0.001
# Velocity levels (mm/s) at which generated designs sample FD curves.
DESIGN_VELOCITY_LEVELS = (10.0, 100.0, 300.0)
# Release displacement as a fraction of the activation displacement.
RELEASE_FRACTION = 0.7
# Vibration waveform is truncated once its envelope falls to 0.1%.
_VIB_ENVELOPE_FLOOR = 1e-3
_VIB_MAX_DURATION_S = 0.25
# numpy converts a Python float operand on every ufunc call, which costs
# small-array kernels about a third of the call; a 0-d array does not.
_ZERO = np.array(0.0)


@dataclass(frozen=True)
class FdTrace:
    """Captured press: time, displacement, force, and vibration channels."""

    time: np.ndarray
    displacement: np.ndarray
    force: np.ndarray
    vibration: np.ndarray
    sample_rate: float

    def __post_init__(self):
        t = np.asarray(self.time, dtype=float)
        d = np.asarray(self.displacement, dtype=float)
        f = np.asarray(self.force, dtype=float)
        v = np.asarray(self.vibration, dtype=float)
        if not (t.size == d.size == f.size == v.size):
            raise ValueError("trace channels differ in length")
        if t.size and np.any(np.diff(t) <= 0):
            raise ValueError("trace time must be strictly increasing")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be > 0, got {self.sample_rate}")
        if np.any(d < 0):
            raise ValueError("displacement must be nonnegative")
        for name, ch in (("time", t), ("displacement", d), ("force", f), ("vibration", v)):
            if not np.all(np.isfinite(ch)):
                raise ValueError(f"{name} channel contains non-finite values")
        object.__setattr__(self, "time", t)
        object.__setattr__(self, "displacement", d)
        object.__setattr__(self, "force", f)
        object.__setattr__(self, "vibration", v)

    def __len__(self) -> int:
        return self.time.size


@dataclass(frozen=True)
class VibrationSpec:
    """Decaying-sinusoid click transient."""

    frequency: float
    amplitude: float
    decay: float

    def __post_init__(self):
        lo, hi = VIBRATION_BAND_HZ
        if not lo <= self.frequency <= hi:
            raise ValueError(f"vibration frequency {self.frequency} outside [{lo}, {hi}] Hz")
        if self.amplitude < 0:
            raise ValueError("vibration amplitude must be >= 0")
        if self.decay <= 0:
            raise ValueError("vibration decay must be > 0")

    def waveform(self, dt: float) -> np.ndarray:
        """Sampled burst starting one step after onset, truncated at 0.1% envelope."""
        if self.amplitude == 0.0:
            return np.zeros(0)
        duration = min(-math.log(_VIB_ENVELOPE_FLOOR) / self.decay, _VIB_MAX_DURATION_S)
        count = max(int(math.ceil(duration / dt)), 1)
        t = dt * np.arange(1, count + 1)
        return self.amplitude * np.exp(-self.decay * t) * np.sin(2.0 * math.pi * self.frequency * t)


@dataclass(frozen=True)
class FdvvModel:
    """Force-displacement-vibration button characterization.

    One FD curve (force in N versus displacement in mm) per ascending
    velocity level; forces between levels interpolate linearly and clamp
    to the outermost curves.  ``damping`` is the velocity-proportional
    resistance the stepper applies (N*s/mm).
    """

    velocity_levels: tuple[float, ...]
    fd_curves: tuple[BSplineCurve, ...]
    travel: float
    activation_disp: float
    release_disp: float
    vibration: VibrationSpec
    max_force: float = FORCE_CEILING_N
    damping: float = 0.005

    def __post_init__(self):
        levels = tuple(float(v) for v in self.velocity_levels)
        curves = tuple(self.fd_curves)
        if len(levels) < 2:
            raise ValueError("need at least 2 velocity levels")
        if len(curves) != len(levels):
            raise ValueError(f"{len(curves)} curves for {len(levels)} velocity levels")
        if any(v <= 0 for v in levels) or any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("velocity levels must be positive and strictly ascending")
        if not 0 < self.release_disp < self.activation_disp < self.travel:
            raise ValueError(
                "need 0 < release_disp < activation_disp < travel, got "
                f"{self.release_disp}, {self.activation_disp}, {self.travel}"
            )
        for curve in curves:
            lo, hi = curve.domain
            if lo > 1e-12 or hi < self.travel - 1e-12:
                raise ValueError(f"curve domain [{lo}, {hi}] does not cover [0, {self.travel}]")
        if not 0 < self.max_force <= FORCE_CEILING_N + 1e-9:
            raise ValueError(f"max_force must be in (0, {FORCE_CEILING_N}], got {self.max_force}")
        if self.damping <= 0:
            raise ValueError("damping must be > 0")
        object.__setattr__(self, "velocity_levels", levels)
        object.__setattr__(self, "fd_curves", curves)

    @cached_property
    def _tables(self) -> list[tuple[list[float], list[tuple[float, float, float, float]]]]:
        # Piecewise-polynomial form of each curve for cheap scalar lookups.
        # Zero-width intervals at repeated knots are dropped so the edge
        # lookup always lands on a real segment.
        tables = []
        for curve in self.fd_curves:
            c = curve.power_coefficients()
            pad = 4 - c.shape[0]
            coeffs = np.vstack([np.zeros((pad, c.shape[1])), c]) if pad > 0 else c
            keep = np.flatnonzero(np.diff(curve.knots) > 0.0)
            breaks = list(curve.knots[keep]) + [float(curve.knots[-1])]
            tables.append((breaks, [tuple(coeffs[:, j]) for j in keep]))
        return tables

    def _spring_force(self, displacement: float, velocity: float) -> float:
        speed = abs(velocity)
        levels = self.velocity_levels
        if speed <= levels[0]:
            lo_i, hi_i, w = 0, 0, 0.0
        elif speed >= levels[-1]:
            lo_i, hi_i, w = len(levels) - 1, len(levels) - 1, 0.0
        else:
            hi_i = bisect_right(levels, speed)
            lo_i = hi_i - 1
            w = (speed - levels[lo_i]) / (levels[hi_i] - levels[lo_i])
        f = _table_eval(self._tables[lo_i], displacement)
        if w > 0.0:
            f += w * (_table_eval(self._tables[hi_i], displacement) - f)
        return min(max(f, 0.0), self.max_force)


def _table_eval(table, x: float) -> float:
    breaks, coeffs = table
    if x <= breaks[0]:
        x = breaks[0]
    elif x >= breaks[-1]:
        x = breaks[-1]
    i = min(max(bisect_right(breaks, x) - 1, 0), len(coeffs) - 1)
    c3, c2, c1, c0 = coeffs[i]
    t = x - breaks[i]
    return ((c3 * t + c2) * t + c1) * t + c0


def _segments(table, travel: float) -> tuple[list[float], list[tuple[float, float, float, float]]]:
    """A curve's segment starts and coefficients over [0, travel].

    Where the curve's domain starts above 0 or ends below travel, a
    constant segment continues it with the value :func:`_table_eval`
    clamps to.  Its coefficients -0.0, -0.0, -0.0 and that value give the
    value bit for bit under Horner's rule at any t >= 0.
    """
    breaks, coeffs = table
    starts, segments = list(breaks[:-1]), list(coeffs)
    if breaks[0] > 0.0:
        starts.insert(0, 0.0)
        segments.insert(0, (-0.0, -0.0, -0.0, _table_eval(table, breaks[0])))
    if breaks[-1] < travel:
        starts.append(breaks[-1])
        segments.append((-0.0, -0.0, -0.0, _table_eval(table, breaks[-1])))
    return starts, segments


class SpringTables:
    """The spring lookups of a batch of episodes, one model per episode.

    ``force(d, v)[i]`` equals ``models[i]._spring_force(d[i], v[i])`` bit
    for bit for every displacement in [0, travel] but -0.0, the range the
    stepper keeps to: the same tables, Horner steps, blend and clamps.
    Each curve is evaluated on every level at once; one extra level of
    zeros above every model's last keeps the level above the lookup's in
    range, and its blend weight is never positive.  ``bisect_right`` over
    a curve's segment starts (or a model's levels) becomes a count of the
    starts (levels) at or below the value, padded with +inf to a common
    length.  All comparisons are exact, so the counts are too.

    A lookup is about thirty numpy calls on one-dimensional arrays: one
    comparison and one sum count the segments of every (episode, level)
    curve and the levels of every episode together, one subtraction takes
    every x from its segment's start and every |v| from its level, and
    each table is read by a one-dimensional gather, numpy's cheapest
    indexing.
    """

    def __init__(self, models):
        ids: dict[int, int] = {}
        self._which = np.array([ids.setdefault(id(m), len(ids)) for m in models])
        unique = list({id(m): m for m in models}.values())
        curves = [[_segments(table, m.travel) for table in m._tables] for m in unique]
        n_levels = max(len(c) for c in curves) + 1
        n_segments = max(len(starts) for c in curves for starts, _ in c)
        # Per curve (model, level): its segments' starts and coefficients.
        # A level of zeros has one segment, at 0, of zeros.
        starts = np.full((len(unique), n_levels, n_segments), np.inf)
        starts[:, :, 0] = 0.0
        coeffs = np.zeros((len(unique), n_levels, n_segments, 4))
        # Per model: the thresholds counted, each curve's starts after its
        # first (d is never below that) and the levels after the first,
        # padded with +inf to one height; then per level its value and the
        # gap to the next (inf from the last on).
        height = max(n_segments - 1, n_levels - 2)
        segment_rows = np.full((len(unique), n_levels, height), np.inf)
        level_rows = np.full((len(unique), height), np.inf)
        lower = np.zeros((len(unique), n_levels))
        gap = np.full((len(unique), n_levels), np.inf)
        for k, (model, model_curves) in enumerate(zip(unique, curves)):
            levels = np.array(model.velocity_levels)
            level_rows[k, : levels.size - 1] = levels[1:]
            lower[k, : levels.size] = levels
            gap[k, : levels.size - 1] = levels[1:] - levels[:-1]
            for li, (curve_starts, segment) in enumerate(model_curves):
                starts[k, li, : len(segment)] = curve_starts
                coeffs[k, li, : len(segment)] = segment
        segment_rows[..., : n_segments - 1] = starts[..., 1:]
        self._levels = n_levels
        self._starts = starts.ravel()
        self._coeffs = [coeffs[..., j].ravel() for j in range(4)]
        self._model = {
            "segment_rows": segment_rows,
            "level_rows": level_rows,
            "first_segment": (np.arange(len(unique) * n_levels) * n_segments).reshape(-1, n_levels),
            "lower": lower,
            "gap": gap,
            "max_force": np.array([m.max_force for m in unique]),
        }
        self._select()

    def take(self, keep: np.ndarray) -> None:
        """Keep only the episodes where ``keep`` is true, in order."""
        self._which = self._which[keep]
        self._select()

    def _select(self) -> None:
        """The episodes' rows of the model tables, and their scratch arrays."""
        model, which, levels, tables = self._model, self._which, self._levels, self._starts.size
        n = which.size
        curves = n * levels
        self._spread = np.repeat(np.arange(n), levels)
        # The thresholds counted, one column per (episode, level) curve
        # and then one per episode.
        height = model["level_rows"].shape[1]
        self._thresholds = np.concatenate(
            [model["segment_rows"][which].reshape(curves, height).T, model["level_rows"][which].T], axis=1
        )
        # Gathers read [every curve's segments; every episode's levels]: an
        # index is a curve's first segment or an episode's first level,
        # plus its count.  The tally's first row holds those offsets and
        # the others the comparisons, so its column sums are the indices.
        self._tally = np.empty((height + 1, curves + n), dtype=np.intp)
        self._tally[0] = np.concatenate([model["first_segment"][which].ravel(), tables + np.arange(n) * levels])
        self._below = self._tally[1:]
        self._origin = np.concatenate([self._starts, model["lower"][which].ravel()])
        self._gap = np.concatenate([np.ones(tables), model["gap"][which].ravel()])
        self._max_force = model["max_force"][which]
        self._values = np.empty(curves + n)  # the x of each curve, then |v|
        self._x, self._speed = self._values[:curves], self._values[curves:]
        self._index = np.empty(curves + n, dtype=np.intp)
        self._segment, self._level = self._index[:curves], self._index[curves:]
        self._offset = np.empty(curves + n)  # t of each curve, then |v| less its level
        self._t, self._w = self._offset[:curves], self._offset[curves:]
        # Every curve's value, placed where its level's index points, and a
        # view one place on: at the same index, the level above's value.
        self._curve_values = np.empty(tables + curves)
        self._curves, self._next = self._curve_values[tables:], self._curve_values[1:]
        self._mask = np.empty(n, dtype=bool)

    def force(self, d: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Every episode's spring force at (d, v), written into ``out`` if given."""
        segment, level, t, w = self._segment, self._level, self._t, self._w
        # Find every curve's segment at d and every episode's level below |v|.
        self._x[:] = d[self._spread]
        np.absolute(v, out=self._speed)
        np.less_equal(self._thresholds, self._values, out=self._below)
        np.add.reduce(self._tally, axis=0, out=self._index)
        np.subtract(self._values, self._origin[self._index], out=self._offset)
        # Horner's rule on every level's curve.
        c3, c2, c1, c0 = self._coeffs
        curves = np.multiply(c3[segment], t, out=self._curves)
        np.add(curves, c2[segment], out=curves)
        np.multiply(curves, t, out=curves)
        np.add(curves, c1[segment], out=curves)
        np.multiply(curves, t, out=curves)
        np.add(curves, c0[segment], out=curves)
        # Blend the levels around |v|; below the first level the weight is
        # negative, and from the last one on the gap is infinite.
        np.divide(w, self._gap[level], out=w)
        f = self._curve_values[level]
        step = self._next[level]
        np.subtract(step, f, out=step)
        np.multiply(w, step, out=step)
        np.add(f, step, out=f, where=np.greater(w, _ZERO, out=self._mask))
        # Then min(max(f, 0), max_force): a zero keeps its sign, max_force > 0.
        np.putmask(f, np.less(f, _ZERO, out=self._mask), _ZERO)
        return np.minimum(f, self._max_force, out=out)


@dataclass(frozen=True)
class ButtonDesignParams:
    """The six-dimensional design space the optimizer searches.

    Each field lies in its DESIGN_LIMITS range: travel mm in [0.5, 5];
    activation_fraction in (0.2, 0.9); peak_force N in (0.3, 4.4];
    snap_ratio in [0, 0.8]; velocity_stiffening in [0, 1] (fractional force
    increase per 100 mm/s); damping N*s/mm in (0, 1].
    """

    travel: float
    activation_fraction: float
    peak_force: float
    snap_ratio: float
    velocity_stiffening: float
    damping: float

    def __post_init__(self):
        for name in DESIGN_FIELDS:
            value = getattr(self, name)
            if not within_limits(name, value):
                raise ValueError(f"{name} = {value} outside its allowed range")

    def to_array(self) -> np.ndarray:
        return np.array([getattr(self, f) for f in DESIGN_FIELDS])

    @classmethod
    def from_array(cls, values) -> "ButtonDesignParams":
        v = np.asarray(values, dtype=float).ravel()
        if v.size != len(DESIGN_FIELDS):
            raise ValueError(f"expected {len(DESIGN_FIELDS)} design values, got {v.size}")
        return cls(**dict(zip(DESIGN_FIELDS, v)))


DESIGN_FIELDS = (
    "travel",
    "activation_fraction",
    "peak_force",
    "snap_ratio",
    "velocity_stiffening",
    "damping",
)

# Admissible range of each design field: (low, high, low included, high
# included).  Design parameters and configured bounds must stay inside.
DESIGN_LIMITS = {
    "travel": (0.5, 5.0, True, True),
    "activation_fraction": (0.2, 0.9, False, False),
    "peak_force": (0.3, FORCE_CEILING_N, False, True),
    "snap_ratio": (0.0, 0.8, True, True),
    "velocity_stiffening": (0.0, 1.0, True, True),
    "damping": (0.0, 1.0, False, True),
}


def within_limits(name: str, value: float) -> bool:
    """Whether ``value`` lies in design field ``name``'s admissible range (nan never does)."""
    lo, hi, closed_lo, closed_hi = DESIGN_LIMITS[name]
    return (lo <= value if closed_lo else lo < value) and (value <= hi if closed_hi else value < hi)


# Optimizer box per design field; inner margins keep the open-interval
# fields strictly inside their admissible ranges.
DESIGN_BOUNDS = {
    "travel": (0.5, 5.0),
    "activation_fraction": (0.25, 0.85),
    "peak_force": (0.35, FORCE_CEILING_N),
    "snap_ratio": (0.0, 0.8),
    "velocity_stiffening": (0.0, 1.0),
    "damping": (0.001, 0.02),
}


def _smoothstep(u: np.ndarray) -> np.ndarray:
    return u * u * (3.0 - 2.0 * u)


def _tactile_shape(d: np.ndarray, travel: float, activation: float, peak: float, snap: float) -> np.ndarray:
    """Rise-drop-rise force profile, C1 at the segment joins."""
    mid = activation + 0.5 * (travel - activation)
    drop = peak * snap
    out = np.empty_like(d)
    seg1 = d <= activation
    out[seg1] = peak * _smoothstep(d[seg1] / activation)
    seg2 = (d > activation) & (d <= mid)
    out[seg2] = peak - drop * _smoothstep((d[seg2] - activation) / (mid - activation))
    seg3 = d > mid
    out[seg3] = (peak - drop) + drop * _smoothstep((d[seg3] - mid) / (travel - mid))
    return out


def design_to_fdvv(params: ButtonDesignParams) -> FdvvModel:
    """Render design parameters into a concrete FDVV model.

    The canonical tactile shape is piecewise cubic with C1 joins at the
    activation point and at the drop midpoint, so a cubic spline with
    doubled knots there represents it exactly; each velocity level scales
    force by (1 + velocity_stiffening * v / 100).
    """
    activation = params.activation_fraction * params.travel
    mid = activation + 0.5 * (params.travel - activation)
    knots = np.concatenate(
        [
            np.full(4, 0.0),
            [activation, activation, mid, mid],
            np.full(4, params.travel),
        ]
    )
    grid = np.linspace(0.0, params.travel, 240)
    base = _tactile_shape(grid, params.travel, activation, params.peak_force, params.snap_ratio)
    curves = []
    for level in DESIGN_VELOCITY_LEVELS:
        scale = 1.0 + params.velocity_stiffening * level / 100.0
        curve, _ = fit_lsq_spline(grid, scale * base, knots, 3)
        curves.append(curve)
    vibration = VibrationSpec(
        frequency=125.0 + 375.0 * params.snap_ratio,
        amplitude=params.snap_ratio * params.peak_force,
        decay=200.0,
    )
    return FdvvModel(
        velocity_levels=DESIGN_VELOCITY_LEVELS,
        fd_curves=tuple(curves),
        travel=params.travel,
        activation_disp=activation,
        release_disp=RELEASE_FRACTION * activation,
        vibration=vibration,
        max_force=FORCE_CEILING_N,
        damping=params.damping,
    )


def force_at(model: FdvvModel, displacement: float, velocity: float) -> float:
    """Button reaction force at a displacement (mm) and press velocity (mm/s).

    Linear interpolation between the FD curves bracketing |velocity|,
    clamped to the outermost curves and to [0, max_force].

    Raises:
        ValueError: displacement outside [0, travel].
    """
    if not 0.0 <= displacement <= model.travel:
        raise ValueError(f"displacement {displacement} outside [0, {model.travel}] mm")
    return model._spring_force(float(displacement), float(velocity))


@dataclass(frozen=True)
class SimState:
    """Point-mass press state between steps.

    ``vibration_sample`` is the waveform value emitted during the step
    that produced this state; ``pending_vibration`` holds the rest.
    """

    displacement: float = 0.0
    velocity: float = 0.0
    activated: bool = False
    time: float = 0.0
    pending_vibration: tuple[float, ...] = ()
    vibration_sample: float = 0.0


@dataclass(frozen=True)
class SimEvent:
    kind: str
    time: float


ACTIVATION = "activation"
RELEASE = "release"


def _check_period(dt: float, mass_kg: float) -> None:
    # Written so that nan fails too.
    if not 0.0 < dt < math.inf:
        raise ValueError(f"need a finite dt > 0, got {dt}")
    if not 0.0 < mass_kg < math.inf:
        raise ValueError(f"need a finite mass_kg > 0, got {mass_kg}")


def _tick(
    model: FdvvModel,
    d: float,
    v: float,
    spring: float,
    applied: float,
    activated: bool,
    dt: float,
    mass_kg: float,
) -> tuple[float, float, str | None]:
    """One control period from displacement ``d`` and velocity ``v``.

    ``spring`` is ``model._spring_force(d, v)``, which callers need
    anyway.  Returns the new displacement and velocity and the event of
    the period: ACTIVATION, RELEASE or None.
    """
    # Convert newtons against kilograms to mm/s^2 (1 N = 1000 kg*mm/s^2).
    accel = (applied - spring - model.damping * v) * 1000.0 / mass_kg
    v1 = v + accel * dt
    d1 = d + v1 * dt
    if d1 <= 0.0:
        d1, v1 = 0.0, 0.0
    elif d1 >= model.travel:
        d1, v1 = model.travel, 0.0
    if not activated and d < model.activation_disp <= d1:
        return d1, v1, ACTIVATION
    if activated and d1 <= model.release_disp < d:
        return d1, v1, RELEASE
    return d1, v1, None


def step(
    model: FdvvModel,
    state: SimState,
    applied_force: float,
    dt: float = DEFAULT_DT_S,
    mass_kg: float = DEFAULT_MASS_KG,
) -> tuple[SimState, tuple[SimEvent, ...]]:
    """Advance the press by one control period.

    Semi-implicit Euler: acceleration from net force (applied minus
    spring minus damping), velocity update, then position update with
    clamping to [0, travel] and velocity zeroed at the stops.  Emits an
    Activation event on crossing activation_disp while pressing
    unactivated (starting the vibration burst) and a Release event on
    rising back through release_disp while activated.

    Raises:
        ValueError: non-finite applied_force, or dt or mass_kg not
            finite and > 0.
    """
    if not math.isfinite(applied_force):
        raise ValueError(f"need a finite applied_force, got {applied_force}")
    _check_period(dt, mass_kg)
    d0, v0 = state.displacement, state.velocity
    spring = model._spring_force(d0, v0)
    d1, v1, event = _tick(model, d0, v0, spring, applied_force, state.activated, dt, mass_kg)
    time = state.time + dt
    pending = state.pending_vibration
    if event == ACTIVATION:
        pending = tuple(model.vibration.waveform(dt))
    vib, pending = (pending[0], pending[1:]) if pending else (0.0, ())
    activated = state.activated if event is None else event == ACTIVATION
    events = () if event is None else (SimEvent(event, time),)
    return SimState(d1, v1, activated, time, pending, vib), events


def scripted_press_trace(
    model: FdvvModel,
    profile: np.ndarray,
    dt: float = DEFAULT_DT_S,
    mass_kg: float = DEFAULT_MASS_KG,
) -> FdTrace:
    """Run a scripted force profile through the stepper and record a trace.

    Row i holds the state after i steps; row 0 is the initial rest state.
    The force channel records the button reaction force at each state.
    Every channel equals what :func:`step` gives for the same profile.

    Raises:
        ValueError: non-finite profile, or dt or mass_kg not finite and > 0.
    """
    profile = np.asarray(profile, dtype=float).ravel()
    if not np.all(np.isfinite(profile)):
        raise ValueError("profile contains non-finite forces")
    _check_period(dt, mass_kg)
    d, v, activated = 0.0, 0.0, False
    spring = model._spring_force(d, v)
    disp, force, onsets = [d], [spring], []
    for i, applied in enumerate(profile.tolist(), start=1):
        d, v, event = _tick(model, d, v, spring, applied, activated, dt, mass_kg)
        if event is not None:
            activated = event == ACTIVATION
            if activated:
                onsets.append(i)
        # The reaction force at state i is also tick i+1's spring.
        spring = model._spring_force(d, v)
        disp.append(d)
        force.append(spring)
    # Each activation plays the burst from its start, cutting off the last.
    wave = model.vibration.waveform(dt)
    vib = np.zeros(len(disp))
    for i in onsets:
        burst = vib[i : i + wave.size]
        burst[:] = wave[: burst.size]
    time = np.cumsum(np.append(0.0, np.full(profile.size, dt)))  # in order, as step sums
    return FdTrace(time, np.array(disp), np.array(force), vib, sample_rate=1.0 / dt)
