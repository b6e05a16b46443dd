"""Trace filtering, drive compensation, and FDVV model recovery."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.signal import butter, filtfilt

import buttonlab
from buttonlab import (
    ButtonDesignParams,
    FdTrace,
    compensate_drive,
    design_to_fdvv,
    fit_fdvv,
    force_at,
    low_pass_filter,
)
from buttonlab.capture import _median


def make_trace(force, disp=None, vib=None, fs=1000.0):
    force = np.asarray(force, dtype=float)
    n = force.size
    t = np.arange(n) / fs
    d = np.zeros(n) if disp is None else np.asarray(disp, dtype=float)
    v = np.zeros(n) if vib is None else np.asarray(vib, dtype=float)
    return FdTrace(t, d, force, v, fs)


def test_low_pass_preserves_dc():
    trace = make_trace(np.full(256, 1.7), disp=np.full(256, 0.4))
    out = low_pass_filter(trace, 50.0)
    assert np.allclose(out.force, 1.7, atol=1e-9)
    assert np.allclose(out.displacement, 0.4, atol=1e-9)
    assert np.array_equal(out.time, trace.time)
    assert out.sample_rate == trace.sample_rate


def test_low_pass_attenuates_past_cutoff():
    fs = 1000.0
    t = np.arange(2048) / fs
    tone = np.sin(2.0 * np.pi * 200.0 * t)
    out = low_pass_filter(make_trace(tone, fs=fs), 20.0)
    mid = slice(512, 1536)
    ratio = np.max(np.abs(out.force[mid])) / 1.0
    assert ratio < 0.1  # at least 20 dB down at 10x cutoff


def test_low_pass_leaves_vibration_untouched_and_disp_nonnegative():
    rng = np.random.default_rng(0)
    vib = rng.normal(size=300)
    disp = 0.05 + 0.05 * np.sin(2.0 * np.pi * 3.0 * np.arange(300) / 1000.0)
    noisy = disp + rng.normal(0.0, 0.05, size=300)
    trace = make_trace(np.zeros(300), disp=np.clip(noisy, 0.0, None), vib=vib)
    out = low_pass_filter(trace, 30.0)
    assert np.array_equal(out.vibration, vib)
    assert np.all(out.displacement >= 0.0)


@pytest.mark.parametrize("n", [8, 9, 10, 11, 64, 551, 20_000])
def test_low_pass_is_scipys_butterworth_filtfilt_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for fs, cutoff in ((1000.0, 50.0), (2734.5, 0.3), (48_000.0, 23_999.0), (137.0, 137.0 / 20.0)):
        force = np.cumsum(rng.standard_normal(n)) * 3.0
        disp = np.abs(np.cumsum(rng.standard_normal(n)))
        out = low_pass_filter(make_trace(force, fs=fs, disp=disp), cutoff)
        b, a = butter(2, cutoff, fs=fs)
        padlen = min(3 * max(len(a), len(b)), n - 1)
        assert out.force.tobytes() == filtfilt(b, a, force, padlen=padlen).tobytes(), (fs, cutoff)
        want_disp = np.clip(filtfilt(b, a, disp, padlen=padlen), 0.0, None)
        assert out.displacement.tobytes() == want_disp.tobytes(), (fs, cutoff)


def test_low_pass_cutoff_is_the_6_db_point():
    # Forward and backward passes square the Butterworth magnitude: 1/2 at cutoff.
    fs, cutoff = 1000.0, 40.0
    tone = np.sin(2.0 * np.pi * cutoff * np.arange(4000) / fs)
    out = low_pass_filter(make_trace(tone, fs=fs), cutoff)
    assert np.max(np.abs(out.force[1000:3000])) == pytest.approx(0.5, abs=2e-3)


def test_low_pass_validation():
    trace = make_trace(np.zeros(100))
    with pytest.raises(ValueError):
        low_pass_filter(trace, 0.0)
    with pytest.raises(ValueError):
        low_pass_filter(trace, 500.0)
    with pytest.raises(ValueError):
        low_pass_filter(make_trace(np.zeros(4)), 50.0)


def test_compensation_converges_for_two_tap_response():
    rng = np.random.default_rng(1)
    h = np.array([0.7, 0.3])
    for _ in range(20):
        target = rng.normal(size=200)
        drive, rmse = compensate_drive(target, h, max_iters=50, tol=1e-6)
        resid = target - np.convolve(drive, h)[: target.size]
        achieved = float(np.sqrt(np.mean(resid**2)))
        assert achieved == pytest.approx(rmse, abs=1e-12)
        assert achieved < 1e-3


def test_compensation_residual_is_monotone():
    rng = np.random.default_rng(2)
    target = rng.normal(size=150)
    h = np.array([0.7, 0.3])
    history = [
        compensate_drive(target, h, max_iters=k, tol=0.0)[1] for k in range(1, 13)
    ]
    for earlier, later in zip(history, history[1:]):
        assert later <= earlier + 1e-12


def test_compensation_pure_gain_is_exact():
    target = np.array([1.0, -2.0, 0.5, 3.0])
    drive, rmse = compensate_drive(target, np.array([2.0]), max_iters=1)
    assert rmse == 0.0
    assert np.array_equal(drive, target / 2.0)


def test_compensation_validation():
    with pytest.raises(ValueError):
        compensate_drive(np.ones(5), np.array([]))
    with pytest.raises(ValueError):
        compensate_drive(np.ones(5), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        compensate_drive(np.ones(5), np.array([1.0]), max_iters=0)
    # Non-finite input would run every pass and return a nan drive.
    for target, h in [
        (np.array([1.0, np.nan, 2.0]), np.array([0.7, 0.3])),
        (np.ones(5), np.array([np.nan, 0.3])),
        (np.ones(5), np.array([0.7, np.inf])),
        (np.array([-np.inf]), np.array([1.0])),
    ]:
        with pytest.raises(ValueError, match="finite"):
            compensate_drive(target, h)
    drive, rmse = compensate_drive(np.array([]), np.array([0.7, 0.3]))
    assert drive.size == 0 and rmse == 0.0


def constant_velocity_trace(model, speed, samples=400):
    """Press scripted as a constant-velocity ramp over the full travel."""
    d = np.linspace(0.0, model.travel, samples)
    t = d / speed
    t[0] = 0.0
    f = np.array([force_at(model, float(x), speed) for x in d])
    vib = np.zeros(samples)
    onset = int(np.argmax(d >= model.activation_disp))
    dt = t[1] - t[0]
    burst = model.vibration.waveform(dt)
    count = min(burst.size, samples - onset)
    vib[onset : onset + count] = burst[:count]
    return FdTrace(t, d, f, vib, sample_rate=1.0 / dt)


def test_fit_fdvv_round_trip():
    params = ButtonDesignParams(
        travel=3.0,
        activation_fraction=0.5,
        peak_force=2.0,
        snap_ratio=0.4,
        velocity_stiffening=0.3,
        damping=0.01,
    )
    model = design_to_fdvv(params)
    groups = [[constant_velocity_trace(model, v)] for v in (10.0, 100.0, 300.0)]
    refit = fit_fdvv(groups)

    assert abs(refit.activation_disp - model.activation_disp) < 0.1
    assert refit.release_disp == pytest.approx(0.7 * refit.activation_disp)
    assert refit.travel == pytest.approx(model.travel, abs=1e-9)
    for level, truth in zip(refit.velocity_levels, (10.0, 100.0, 300.0)):
        assert level == pytest.approx(truth, rel=0.05)

    grid = np.linspace(0.0, model.travel, 500)
    for speed, curve in zip((10.0, 100.0, 300.0), refit.fd_curves):
        truth = np.array([force_at(model, float(x), speed) for x in grid])
        rmse = float(np.sqrt(np.mean((curve(grid) - truth) ** 2)))
        assert rmse < 0.05 * np.max(truth)

    assert refit.vibration.amplitude > 0.0
    assert refit.vibration.frequency == pytest.approx(model.vibration.frequency, rel=0.4)


def test_fit_fdvv_silent_button_has_zero_amplitude():
    params = ButtonDesignParams(2.0, 0.5, 1.0, 0.0, 0.0, 0.01)
    model = design_to_fdvv(params)
    groups = [[constant_velocity_trace(model, v)] for v in (10.0, 100.0)]
    refit = fit_fdvv(groups)
    assert refit.vibration.amplitude == 0.0


def test_fit_fdvv_validation():
    params = ButtonDesignParams(2.0, 0.5, 1.0, 0.2, 0.0, 0.01)
    model = design_to_fdvv(params)
    slow = [constant_velocity_trace(model, 10.0)]
    with pytest.raises(ValueError):
        fit_fdvv([slow])
    with pytest.raises(ValueError):
        fit_fdvv([slow, []])
    with pytest.raises(ValueError):
        fit_fdvv([slow, [constant_velocity_trace(model, 10.0)]])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 63, 64])
def test_median_is_numpys_bit_for_bit(n):
    rng = np.random.default_rng(n)
    samples = (
        rng.random(n),
        rng.normal(size=n) * 1e300,
        np.round(rng.random(n), 1),  # ties
        np.exp(rng.normal(size=n) * 50.0),
        rng.random(n) * 1e-310,  # subnormals
    )
    for values in samples:
        before = values.copy()
        want = np.median(values)
        got = _median(values)
        assert type(got) is float and np.float64(got).tobytes() == want.tobytes()
        assert values.tobytes() == before.tobytes()  # sorted a copy
    values = rng.random(n)
    values[n // 2] = np.nan
    assert math.isnan(_median(values)) and math.isnan(np.median(values))


def test_trace_load_and_fit_leave_numpy_ma_unimported():
    # np.median's NaN check imports numpy.ma (about 10 ms) on its first call.
    code = (
        "import os, sys, tempfile\n"
        "import numpy as np\n"
        "from buttonlab import ButtonDesignParams, FdTrace, design_to_fdvv, fit_fdvv, force_at\n"
        "from buttonlab import load_trace, save_trace\n"
        "model = design_to_fdvv(ButtonDesignParams(2.0, 0.5, 1.0, 0.2, 0.0, 0.01))\n"
        "d = np.linspace(0.0, model.travel, 200)\n"
        "groups = []\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    for speed in (10.0, 100.0):\n"
        "        force = np.array([force_at(model, float(x), speed) for x in d])\n"
        "        trace = FdTrace(np.arange(200) * (d[1] / speed), d, force, np.zeros(200), speed / d[1])\n"
        "        save_trace(os.path.join(tmp, 'trace.csv'), trace)\n"
        "        groups.append([load_trace(os.path.join(tmp, 'trace.csv'))])\n"
        "fit_fdvv(groups)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(buttonlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split() == ["False"]
