"""Capture-side processing: trace filtering, model fitting, compensation.

Turns raw press recordings into an FdvvModel (filter, pool, B-spline fit
per speed group, vibration parameter extraction) and pre-distorts drive
waveforms so a system with a known impulse response reproduces a target.

The low-pass is a second-order Butterworth design (bilinear transform
with frequency prewarping), run forward and backward from steady-state
initial conditions over odd extensions of the trace ends.  It performs
the operations of scipy.signal's ``butter`` and ``filtfilt`` in their
order, so its outputs are the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from .bspline import fit_bspline_bic
from .button import (
    FORCE_CEILING_N,
    RELEASE_FRACTION,
    VIBRATION_BAND_HZ,
    FdTrace,
    FdvvModel,
    VibrationSpec,
)

_MIN_FILTER_SAMPLES = 8


def low_pass_filter(trace: FdTrace, cutoff: float) -> FdTrace:
    """Zero-phase second-order Butterworth low-pass on force and displacement.

    Each channel is padded at both ends with an odd extension of 9
    samples (fewer on short traces) and filtered forward, then backward,
    as scipy's ``filtfilt`` does.  Filtering twice squares the Butterworth
    magnitude, so ``cutoff`` is where the response is down 6 dB, not
    3 dB.  The vibration channel passes through untouched.  Filtered
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
    b, a = _butter2(cutoff, trace.sample_rate)
    padlen = min(9, n - 1)
    return FdTrace(
        trace.time,
        np.clip(_filtfilt2(b, a, trace.displacement, padlen), 0.0, None),
        _filtfilt2(b, a, trace.force, padlen),
        trace.vibration,
        trace.sample_rate,
    )


def _butter2(cutoff: float, sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Transfer function (b, a) of the 2nd-order digital Butterworth low-pass.

    The analog prototype's poles, frequency prewarping and the bilinear
    transform, with numpy's complex arithmetic in scipy.signal.butter's
    order of operations, so the coefficients are the same bits.
    """
    wn = np.float64(cutoff) / (float(sample_rate) / 2)
    warped = float(2 * 2.0 * np.tan(np.pi * wn / 2.0))
    analog = warped * -np.exp(1j * np.pi * np.array([-1.0, 1.0]) / 4)
    gain = warped**2 * np.real(1.0 / np.prod(4.0 - analog))
    a = np.ones(1, dtype=complex)
    for pole in (4.0 + analog) / (4.0 - analog):
        a = np.convolve(a, np.array([1.0, -pole]))
    return gain * np.array([1.0, 2.0, 1.0]), a.real.copy()


def _filtfilt2(b: np.ndarray, a: np.ndarray, x: np.ndarray, padlen: int) -> np.ndarray:
    """Second-order IIR filter run forward, then backward (scipy's ``filtfilt``).

    Both passes over the odd extension start from the steady state for
    the first sample they see, so a constant signal passes unchanged.
    """
    ext = np.concatenate((2 * x[:1] - x[padlen:0:-1], x, 2 * x[-1:] - x[-2 : -(padlen + 2) : -1]))
    steady = np.linalg.solve(np.array([[1.0 + a[1], -1.0], [a[2], 1.0]]), b[1:] - a[1:] * b[0])
    forward = _lfilter2(b, a, ext.tolist(), steady * ext[0])
    backward = _lfilter2(b, a, forward[::-1], steady * forward[-1])
    return np.array(backward[::-1][padlen:-padlen])


def _lfilter2(b: np.ndarray, a: np.ndarray, x: list[float], state: np.ndarray) -> list[float]:
    """Direct form II transposed, in the order of scipy's ``lfilter`` loop."""
    b0, b1, b2 = b.tolist()
    a1, a2 = a[1:].tolist()
    z0, z1 = state.tolist()
    out = []
    for xi in x:
        y = z0 + b0 * xi
        z0 = z1 + xi * b1 - y * a1
        z1 = xi * b2 - y * a2
        out.append(y)
    return out


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
    force peak of the slowest group, release from RELEASE_FRACTION of it,
    as in the forward mapping.

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
    release = RELEASE_FRACTION * activation

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
