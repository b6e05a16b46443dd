"""Software push-button: FDVV representation and press dynamics.

An FdvvModel holds one force-displacement B-spline per sampled press
velocity plus a vibration burst triggered at activation.  One control
period of a point mass (finger plus cap) against that force field is
:func:`_tick`: semi-implicit Euler, the stops, and activation/release
events with hysteresis.  The one public stepper,
:func:`scripted_press_trace`, and the policy's scalar episode loop run
it; the policy's lockstep batch holds the one vectorized copy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bspline import BSplineCurve

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
        if not 0 < self.sample_rate < math.inf:  # written so that nan fails too
            raise ValueError(f"sample_rate must be finite and > 0, got {self.sample_rate}")
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
        if not 0 <= self.amplitude < math.inf:  # written so that nan fails too
            raise ValueError(f"vibration amplitude must be finite and >= 0, got {self.amplitude}")
        if not 0 < self.decay < math.inf:
            raise ValueError(f"vibration decay must be finite and > 0, got {self.decay}")

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

    One FD curve (force in N versus displacement in mm, of degree 3 at
    most) per ascending velocity level; forces between levels
    interpolate linearly and clamp to the outermost curves.  ``damping``
    is the velocity-proportional resistance the stepper applies (N*s/mm).
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
        # Written so that nan fails too.
        if not all(0 < v < math.inf for v in levels) or not all(a < b for a, b in zip(levels, levels[1:])):
            raise ValueError(f"velocity levels must be finite, positive and strictly ascending, got {levels}")
        if not 0 < self.release_disp < self.activation_disp < self.travel:
            raise ValueError(
                "need 0 < release_disp < activation_disp < travel, got "
                f"{self.release_disp}, {self.activation_disp}, {self.travel}"
            )
        for curve in curves:
            if curve.degree > 3:
                raise ValueError(f"curve degree {curve.degree} is above 3; the spring lookup evaluates cubics at most")
            lo, hi = curve.domain
            if lo > 1e-12 or hi < self.travel - 1e-12:
                raise ValueError(f"curve domain [{lo}, {hi}] does not cover [0, {self.travel}]")
        if not 0 < self.max_force <= FORCE_CEILING_N + 1e-9:
            raise ValueError(f"max_force must be in (0, {FORCE_CEILING_N}], got {self.max_force}")
        if not 0 < self.damping < math.inf:  # written so that nan fails too
            raise ValueError(f"damping must be finite and > 0, got {self.damping}")
        object.__setattr__(self, "velocity_levels", levels)
        object.__setattr__(self, "fd_curves", curves)

    @cached_property
    def _tables(self) -> list[tuple[list[float], list[list[float]], float, float, list[float]]]:
        # Piecewise-polynomial form of each curve over [0, travel], read by
        # the scalar lookup and by SpringTables: the segment starts, each
        # segment's coefficients, the clamp range and the starts after the
        # first.  Zero-width intervals at repeated knots are dropped so the
        # edge lookup always lands on a real segment.  Where the curve's
        # domain starts above 0 or ends below travel, a constant segment
        # continues it with its edge value: coefficients -0.0, -0.0, -0.0
        # and that value give the value bit for bit under Horner's rule at
        # any t >= 0.
        tables = []
        for curve in self.fd_curves:
            c = curve.power_coefficients()
            coeffs = np.vstack([np.zeros((4 - c.shape[0], c.shape[1])), c])
            keep = np.flatnonzero(np.diff(curve.knots) > 0.0)
            breaks = curve.knots[keep].tolist() + [float(curve.knots[-1])]
            starts, segments, first, last = breaks[:-1], coeffs[:, keep].T.tolist(), breaks[0], breaks[-1]
            edges = [_table_eval((starts, segments, first, last, breaks[1:-1]), x) for x in (first, last)]
            if first > 0.0:
                starts.insert(0, 0.0)
                segments.insert(0, [-0.0, -0.0, -0.0, edges[0]])
            if last < self.travel:
                starts.append(last)
                segments.append([-0.0, -0.0, -0.0, edges[1]])
            tables.append((starts, segments, min(first, 0.0), max(last, self.travel), starts[1:]))
        return tables

    @cached_property
    def _lookup(self) -> tuple:
        """What :meth:`_spring_force` reads, built once per model."""
        levels = self.velocity_levels
        gaps = [b - a for a, b in zip(levels, levels[1:])]
        return levels[0], levels[-1], levels, gaps, self._tables, self.max_force

    def _spring_force(self, displacement: float, velocity: float) -> float:
        slowest, fastest, levels, gaps, tables, max_force = self._lookup
        speed = abs(velocity)
        if speed <= slowest:
            f = _table_eval(tables[0], displacement)
        elif speed >= fastest:
            f = _table_eval(tables[-1], displacement)
        else:
            hi = bisect_right(levels, speed)
            w = (speed - levels[hi - 1]) / gaps[hi - 1]
            f = _table_eval(tables[hi - 1], displacement)
            if w > 0.0:
                f += w * (_table_eval(tables[hi], displacement) - f)
        # min(max(f, 0.0), max_force), keeping a nan and a -0.0.
        if f < 0.0:
            return 0.0
        if f > max_force:
            return max_force
        return f


def _table_eval(table, x: float) -> float:
    starts, coeffs, first, last, inner = table
    if x <= first:
        x = first
    elif x >= last:
        x = last
    # x is in [first, last] (or nan): its segment is the count of inner
    # breaks at or below it, and last belongs to the last segment.
    i = bisect_right(inner, x)
    c3, c2, c1, c0 = coeffs[i]
    t = x - starts[i]
    return ((c3 * t + c2) * t + c1) * t + c0


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
        curves = [m._tables for m in unique]
        n_levels = max(len(c) for c in curves) + 1
        n_segments = max(len(table[0]) for c in curves for table in c)
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
            for li, (curve_starts, segment, *_) in enumerate(model_curves):
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


def design_to_fdvv(params: ButtonDesignParams) -> FdvvModel:
    """Render design parameters into a concrete FDVV model.

    The canonical tactile shape rises from 0 to the peak force at the
    activation point, drops by ``snap_ratio`` of the peak to the midpoint
    of the remaining travel, and rises back to the peak at full travel.
    Each piece is a smoothstep, a cubic with zero slope at both ends, so
    its Bezier points repeat its end values; with doubled knots at the
    joins those points are the cubic B-spline's coefficients, and the
    spline is the shape exactly.  Each velocity level scales force by
    (1 + velocity_stiffening * v / 100).
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
    peak = params.peak_force
    dip = peak * (1.0 - params.snap_ratio)
    base = np.array([0.0, 0.0, peak, peak, dip, dip, peak, peak])
    curves = tuple(
        BSplineCurve(3, knots, (1.0 + params.velocity_stiffening * level / 100.0) * base)
        for level in DESIGN_VELOCITY_LEVELS
    )
    vibration = VibrationSpec(
        frequency=125.0 + 375.0 * params.snap_ratio,
        amplitude=params.snap_ratio * params.peak_force,
        decay=200.0,
    )
    return FdvvModel(
        velocity_levels=DESIGN_VELOCITY_LEVELS,
        fd_curves=curves,
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


# The events a period can end in.
ACTIVATION = "activation"
RELEASE = "release"


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


def scripted_press_trace(
    model: FdvvModel,
    profile: np.ndarray,
    dt: float = DEFAULT_DT_S,
    mass_kg: float = DEFAULT_MASS_KG,
) -> FdTrace:
    """Run a scripted force profile through the press and record a trace.

    Row i holds the state after i control periods of :func:`_tick`; row
    0 is the initial rest state.  The force channel records the button
    reaction force at each state, and each activation starts the
    vibration burst over the rest of the one before.

    Raises:
        ValueError: a profile that is not one-dimensional or not finite,
            or dt or mass_kg not finite and > 0.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.ndim != 1:
        raise ValueError(f"need a one-dimensional profile, got shape {profile.shape}")
    if not np.all(np.isfinite(profile)):
        raise ValueError("profile contains non-finite forces")
    # Written so that nan fails too.
    if not 0.0 < dt < math.inf:
        raise ValueError(f"need a finite dt > 0, got {dt}")
    if not 0.0 < mass_kg < math.inf:
        raise ValueError(f"need a finite mass_kg > 0, got {mass_kg}")
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
    time = np.cumsum(np.append(0.0, np.full(profile.size, dt)))  # a running sum of periods
    return FdTrace(time, np.array(disp), np.array(force), vib, sample_rate=1.0 / dt)
