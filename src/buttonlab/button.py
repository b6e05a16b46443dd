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
# Vibration waveform is truncated once its envelope falls to 0.1%.
_VIB_ENVELOPE_FLOOR = 1e-3
_VIB_MAX_DURATION_S = 0.25


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


class SpringTables:
    """The spring lookups of a batch of episodes, one model per episode.

    ``force(d, v)[i]`` equals ``models[i]._spring_force(d[i], v[i])`` bit
    for bit for every displacement but -0.0, which the stepper never
    produces: the same tables, clamps, Horner steps and blend.  Each curve is
    evaluated on every level at once; one extra level of zeros above
    every model's last keeps the level above the lookup's in range, and
    its blend weight is never positive.  ``bisect_right`` over a curve's
    breaks (or a model's levels) becomes a count of the breaks (levels)
    at or below the value, padded with +inf to a common length.  All
    comparisons are exact, so the counts are too.
    """

    def __init__(self, models):
        ids: dict[int, int] = {}
        which = np.array([ids.setdefault(id(m), len(ids)) for m in models])
        unique = list({id(m): m for m in models}.values())
        tables = [m._tables for m in unique]
        n_levels = max(len(t) for t in tables) + 1
        n_segments = max(len(coeffs) for t in tables for _, coeffs in t)
        # Per curve (model, level): its clamp range, and its segments'
        # starts and coefficients.  Counting the starts at or below the
        # clamped x finds the segment.  A level of zeros gets one start,
        # at 0, so that its value, which is never blended in, is 0 too.
        bounds = np.zeros((len(unique), n_levels, 2))
        starts = np.full((len(unique), n_levels, n_segments), np.inf)
        starts[:, :, 0] = 0.0
        coeffs = np.zeros((len(unique), n_levels, n_segments, 4))
        # Per model: the levels above its first, the levels, and the gaps
        # to the next level (inf from the last on).
        upper = np.full((len(unique), n_levels), np.inf)
        lower = np.zeros((len(unique), n_levels))
        gap = np.full((len(unique), n_levels), np.inf)
        for k, (model, table) in enumerate(zip(unique, tables)):
            levels = np.array(model.velocity_levels)
            upper[k, : levels.size - 1] = levels[1:]
            lower[k, : levels.size] = levels
            gap[k, : levels.size - 1] = levels[1:] - levels[:-1]
            for li, (breaks, segment) in enumerate(table):
                bounds[k, li] = breaks[0], breaks[-1]
                starts[k, li, : len(segment)] = breaks[:-1]
                coeffs[k, li, : len(segment)] = segment
        self._starts = starts.ravel()
        self._coeffs = [coeffs[..., j].ravel() for j in range(4)]
        self._lower = lower.ravel()
        self._gap = gap.ravel()
        # Per episode.  The breaks and levels counted over lead their
        # arrays, as numpy sums fastest over a leading axis.
        self._rows = [
            bounds[which, :, 0],
            bounds[which, :, 1],
            np.ascontiguousarray(np.moveaxis(starts[which], -1, 0)),
            (which[:, None] * n_levels + np.arange(n_levels)) * n_segments,
            np.ascontiguousarray(upper[which].T),
            which * n_levels,
            np.array([m.max_force for m in models]),
        ]
        self._row_base = np.arange(len(models)) * n_levels

    def take(self, keep: np.ndarray) -> None:
        """Keep only the episodes where ``keep`` is true, in order."""
        first, last, starts, curve_base, upper, level_base, max_force = self._rows
        self._rows = [
            first[keep], last[keep], np.ascontiguousarray(starts[:, keep]), curve_base[keep],
            np.ascontiguousarray(upper[:, keep]), level_base[keep], max_force[keep],
        ]
        self._row_base = self._row_base[: np.count_nonzero(keep)]

    def force(self, d: np.ndarray, v: np.ndarray) -> np.ndarray:
        first, last, starts, curve_base, upper, level_base, max_force = self._rows
        # Every level's curve at d: clamp, find the segment, Horner's rule.
        # Equal values differ at most in the sign of zero, and d is never -0.0.
        x = np.minimum(np.maximum(d[:, None], first), last)
        i = curve_base + (starts <= x).sum(axis=0) - 1
        c3, c2, c1, c0 = (c[i] for c in self._coeffs)
        t = x - self._starts[i]
        curves = (((c3 * t + c2) * t + c1) * t + c0).ravel()
        # Blend the levels around |v|; below the first level the weight is
        # negative, and from the last one on the gap is infinite.
        speed = np.abs(v)
        lo = (upper <= speed).sum(axis=0)
        at = level_base + lo
        w = (speed - self._lower[at]) / self._gap[at]
        at = self._row_base + lo
        f = curves[at]
        f = np.where(w > 0.0, f + w * (curves[at + 1] - f), f)
        f = np.where(0.0 > f, 0.0, f)
        return np.where(max_force < f, max_force, f)


@dataclass(frozen=True)
class ButtonDesignParams:
    """The six-dimensional design space the optimizer searches.

    travel mm in [0.5, 5]; activation_fraction in (0.2, 0.9); peak_force N
    in (0.3, 4.4]; snap_ratio in [0, 0.8]; velocity_stiffening in [0, 1]
    (fractional force increase per 100 mm/s); damping N*s/mm > 0.
    """

    travel: float
    activation_fraction: float
    peak_force: float
    snap_ratio: float
    velocity_stiffening: float
    damping: float

    def __post_init__(self):
        checks = (
            ("travel", self.travel, 0.5 <= self.travel <= 5.0),
            (
                "activation_fraction",
                self.activation_fraction,
                0.2 < self.activation_fraction < 0.9,
            ),
            ("peak_force", self.peak_force, 0.3 < self.peak_force <= FORCE_CEILING_N),
            ("snap_ratio", self.snap_ratio, 0.0 <= self.snap_ratio <= 0.8),
            (
                "velocity_stiffening",
                self.velocity_stiffening,
                0.0 <= self.velocity_stiffening <= 1.0,
            ),
            ("damping", self.damping, self.damping > 0.0),
        )
        for name, value, ok in checks:
            if not ok or not np.isfinite(value):
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
        release_disp=0.7 * activation,
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
