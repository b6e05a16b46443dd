"""Capture-side processing: trace filtering, model fitting, compensation.

Turns raw press recordings into an FdvvModel (filter, pool, B-spline fit
per speed group, vibration parameter extraction) and pre-distorts drive
waveforms so a system with a known impulse response reproduces a target.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import butter, filtfilt

from .bspline import fit_bspline_bic
from .button import (
    FORCE_CEILING_N,
    VIBRATION_BAND_HZ,
    FdTrace,
    FdvvModel,
    VibrationSpec,
)

_MIN_FILTER_SAMPLES = 8


def low_pass_filter(trace: FdTrace, cutoff: float) -> FdTrace:
    """Zero-phase second-order low-pass on force and displacement.

    The vibration channel passes through untouched.  Filtered
    displacement is clipped at zero, since ringing undershoot has no
    physical meaning for a press depth.

    Raises:
        ValueError: cutoff outside (0, sample_rate/2) or trace shorter
            than 8 samples.
    """
    n = len(trace)
    if n < _MIN_FILTER_SAMPLES:
        raise ValueError(f"need at least {_MIN_FILTER_SAMPLES} samples, got {n}")
    if not 0.0 < cutoff < trace.sample_rate / 2.0:
        raise ValueError(
            f"cutoff {cutoff} Hz outside (0, {trace.sample_rate / 2.0}) Hz"
        )
    b, a = butter(2, cutoff, fs=trace.sample_rate)
    padlen = min(3 * max(len(a), len(b)), n - 1)
    disp = filtfilt(b, a, trace.displacement, padlen=padlen)
    force = filtfilt(b, a, trace.force, padlen=padlen)
    return FdTrace(
        trace.time,
        np.clip(disp, 0.0, None),
        force,
        trace.vibration,
        trace.sample_rate,
    )


def compensate_drive(
    target,
    impulse_response,
    max_iters: int = 50,
    tol: float = 1e-6,
) -> tuple[np.ndarray, float]:
    """Drive waveform whose convolution with ``impulse_response`` tracks ``target``.

    Starts from target / h[0] (exact for a pure-gain response) and
    refines with drive += mu * residual, mu = 0.5 / ||h||_1, until the
    residual RMSE reaches ``tol`` or ``max_iters`` passes.

    Returns:
        (drive, achieved residual RMSE).

    Raises:
        ValueError: empty impulse response, zero leading tap, or
            max_iters < 1.
    """
    y = np.asarray(target, dtype=float).ravel()
    h = np.asarray(impulse_response, dtype=float).ravel()
    if h.size == 0 or h[0] == 0.0:
        raise ValueError("impulse response must start with a nonzero tap")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if y.size == 0:
        return y.copy(), 0.0
    mu = 0.5 / np.sum(np.abs(h))
    drive = y / h[0]
    rmse = math.inf
    for _ in range(max_iters):
        resid = y - np.convolve(drive, h)[: y.size]
        rmse = float(np.sqrt(np.mean(resid**2)))
        if rmse <= tol:
            return drive, rmse
        drive = drive + mu * resid
    resid = y - np.convolve(drive, h)[: y.size]
    return drive, float(np.sqrt(np.mean(resid**2)))


def _press_speed(trace: FdTrace) -> np.ndarray:
    return np.gradient(trace.displacement, trace.time)


def _group_velocity_level(traces: list[FdTrace]) -> float:
    """Median absolute press speed over the moving part of each trace."""
    speeds = []
    for trace in traces:
        v = np.abs(_press_speed(trace))
        moving = v > 0.1 * np.max(v) if np.max(v) > 0 else np.ones_like(v, bool)
        speeds.append(v[moving])
    return float(np.median(np.concatenate(speeds)))


def _first_peak(curve, travel: float) -> float:
    """Displacement of the first prominent force peak."""
    grid = np.linspace(0.0, travel, 2000)
    f = curve(grid)
    scale = max(float(np.max(f)), 1e-12)
    rising = np.diff(f) > 0
    for i in np.flatnonzero(rising[:-1] & ~rising[1:]) + 1:
        if f[i] - float(np.min(f[i:])) > 0.02 * scale:
            return float(grid[i])
    return float(grid[int(np.argmax(f))])


def _fit_vibration(traces: list[FdTrace]) -> VibrationSpec:
    """Decaying-sinusoid parameters from the first burst in the vib channel."""
    lo_hz, hi_hz = VIBRATION_BAND_HZ
    for trace in traces:
        live = np.flatnonzero(np.abs(trace.vibration) > 1e-9)
        if live.size < 4:
            continue
        start = live[0]
        gaps = np.flatnonzero(np.diff(live) > 1)
        end = live[gaps[0]] if gaps.size else live[-1]
        seg = trace.vibration[start : end + 1]
        t = trace.time[start : end + 1]
        if seg.size < 4 or t[-1] <= t[0]:
            continue
        crossings = int(np.sum(np.diff(np.signbit(seg)) != 0))
        freq = crossings / (2.0 * (t[-1] - t[0]))
        amplitude = float(np.max(np.abs(seg)))
        peaks = np.flatnonzero(
            (np.abs(seg)[1:-1] >= np.abs(seg)[:-2]) & (np.abs(seg)[1:-1] >= np.abs(seg)[2:])
        ) + 1
        if peaks.size >= 2:
            slope = np.polyfit(t[peaks], np.log(np.abs(seg[peaks]) + 1e-30), 1)[0]
            decay = max(-float(slope), 1.0)
        else:
            decay = 200.0
        return VibrationSpec(min(max(freq, lo_hz), hi_hz), amplitude, decay)
    # No burst captured: a silent (snap-free) click transient.
    return VibrationSpec(125.0, 0.0, 200.0)


def fit_fdvv(trace_groups: list[list[FdTrace]]) -> FdvvModel:
    """Fit an FdvvModel from filtered traces grouped by press speed.

    Per group, pools (displacement, force) samples into one B-spline fit
    with BIC knot selection; the group's velocity level is its median
    absolute press speed.  Activation is read from the first prominent
    force peak of the slowest group, release from the same 0.7 ratio the
    forward mapping uses.

    Raises:
        ValueError: fewer than 2 groups, an empty group, or two groups
            with indistinguishable speed levels.
    """
    if len(trace_groups) < 2:
        raise ValueError("need at least 2 speed groups")
    if any(len(group) == 0 for group in trace_groups):
        raise ValueError("every speed group needs at least one trace")

    levels = [_group_velocity_level(group) for group in trace_groups]
    order = np.argsort(levels)
    levels = [levels[i] for i in order]
    groups = [trace_groups[i] for i in order]
    for a, b in zip(levels, levels[1:]):
        if b - a <= 1e-6 * max(abs(a), abs(b), 1e-12):
            raise ValueError(f"speed levels {a:.3g} and {b:.3g} mm/s are indistinguishable")

    curves = []
    max_disps = []
    for group in groups:
        d = np.concatenate([t.displacement for t in group])
        f = np.concatenate([t.force for t in group])
        curve, _, _ = fit_bspline_bic(np.column_stack([d, f]))
        curves.append(curve)
        max_disps.append(float(np.max(d)))

    travel = min(min(c.domain[1] for c in curves), min(max_disps))
    activation = min(max(_first_peak(curves[0], travel), 1e-3), travel * 0.999)
    release = 0.7 * activation

    grid = np.linspace(0.0, travel, 400)
    peak_force = max(float(np.max(c(grid))) for c in curves)
    return FdvvModel(
        velocity_levels=tuple(levels),
        fd_curves=tuple(curves),
        travel=travel,
        activation_disp=activation,
        release_disp=release,
        vibration=_fit_vibration(groups[0] + [t for g in groups[1:] for t in g]),
        max_force=min(max(peak_force, 1e-3), FORCE_CEILING_N),
    )
