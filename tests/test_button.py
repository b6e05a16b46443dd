"""Button simulator physics and the FDVV model surface.

The linear-spring check integrates the same second-order ODE three
independent ways: the package's scripted trace, a closed-form overdamped
solution, and an RK4 integrator local to this file.  Checks that read a
period's velocity or event run ``button._tick`` through
:func:`press_ticks`, which other test modules import too.
"""

import dataclasses
import itertools
import math
from bisect import bisect_right

import numpy as np
import pytest

from buttonlab import (
    DESIGN_BOUNDS,
    DESIGN_FIELDS,
    FORCE_CEILING_N,
    BSplineCurve,
    ButtonDesignParams,
    FdTrace,
    FdvvModel,
    VibrationSpec,
    design_to_fdvv,
    force_at,
    scripted_press_trace,
)
from buttonlab.button import ACTIVATION, DEFAULT_DT_S, DEFAULT_MASS_KG, RELEASE, SpringTables, _tick

SPRING_K = 1.0  # N/mm
TRAVEL = 4.0
DAMPING = 0.005  # N*s/mm
MASS = 0.005  # kg
PRESS_N = 2.0


def linear_model(k=SPRING_K, travel=TRAVEL, damping=DAMPING):
    line = BSplineCurve(1, np.array([0.0, 0.0, travel, travel]), np.array([0.0, k * travel]))
    return FdvvModel(
        velocity_levels=(10.0, 100.0),
        fd_curves=(line, line),
        travel=travel,
        activation_disp=3.0,
        release_disp=2.1,
        vibration=VibrationSpec(200.0, 0.0, 200.0),
        max_force=FORCE_CEILING_N,
        damping=damping,
    )


def press_ticks(model, profile, dt=DEFAULT_DT_S, mass_kg=DEFAULT_MASS_KG):
    """Each period's (displacement, velocity, event) from rest under
    ``profile``, one ``button._tick`` at a time; an event is ACTIVATION,
    RELEASE or None."""
    d, v, activated = 0.0, 0.0, False
    rows = []
    for applied in profile:
        d, v, event = _tick(model, d, v, model._spring_force(d, v), float(applied), activated, dt, mass_kg)
        if event is not None:
            activated = event == ACTIVATION
        rows.append((d, v, event))
    return rows


def closed_form(t):
    """Overdamped response of (m/1000) d'' + c d' + k d = F from rest."""
    mstar = MASS / 1000.0
    disc = DAMPING * DAMPING - 4.0 * SPRING_K * mstar
    assert disc > 0.0
    r1 = (-DAMPING + math.sqrt(disc)) / (2.0 * mstar)
    r2 = (-DAMPING - math.sqrt(disc)) / (2.0 * mstar)
    dinf = PRESS_N / SPRING_K
    a = dinf * r2 / (r1 - r2)
    b = -dinf * r1 / (r1 - r2)
    return dinf + a * np.exp(r1 * t) + b * np.exp(r2 * t)


def rk4_reference(t_end, h):
    def deriv(y):
        d, v = y
        return np.array([v, (PRESS_N - SPRING_K * d - DAMPING * v) * 1000.0 / MASS])

    y = np.zeros(2)
    t = 0.0
    out = [(0.0, 0.0)]
    steps = int(round(t_end / h))
    for _ in range(steps):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * h * k1)
        k3 = deriv(y + 0.5 * h * k2)
        k4 = deriv(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        out.append((t, y[0]))
    return np.array(out)


def test_linear_spring_matches_closed_form():
    trace = scripted_press_trace(linear_model(), np.full(500, PRESS_N), dt=1e-4, mass_kg=MASS)
    times, disps = trace.time, trace.displacement
    reference = closed_form(times)
    dinf = PRESS_N / SPRING_K
    assert np.max(np.abs(disps - reference)) / dinf < 0.02

    rk = rk4_reference(0.05, 1e-5)
    assert np.max(np.abs(closed_form(rk[:, 0]) - rk[:, 1])) < 1e-8


def random_design(rng):
    values = [rng.uniform(lo, hi) for lo, hi in (DESIGN_BOUNDS[f] for f in DESIGN_FIELDS)]
    return ButtonDesignParams(*values)


def press_release_profile(rng, n=400):
    # Blocks of constant force alternating between hard press and release.
    forces = []
    while len(forces) < n:
        span = int(rng.integers(20, 90))
        level = rng.uniform(2.0, 6.0) if len(forces) // span % 2 == 0 else rng.uniform(0.0, 0.3)
        forces.extend([level] * span)
    return np.array(forces[:n])


def test_events_alternate_starting_with_activation():
    rng = np.random.default_rng(0)
    saw_both = 0
    for _ in range(50):
        model = design_to_fdvv(random_design(rng))
        profile = press_release_profile(rng)
        kinds = [event for _, _, event in press_ticks(model, profile) if event is not None]
        for i, kind in enumerate(kinds):
            assert kind == (ACTIVATION if i % 2 == 0 else RELEASE)
        saw_both += len(kinds) >= 2
    assert saw_both >= 25


def test_activation_event_fires_at_first_crossing():
    model = linear_model()
    crossed_at = None
    for i, (d, _, event) in enumerate(press_ticks(model, np.full(200, 3.5))):
        if event is not None:
            assert event == ACTIVATION
            crossed_at = i
            assert d >= model.activation_disp
            break
        assert d < model.activation_disp
    assert crossed_at is not None
    # The trace's row i is the state after i periods.
    trace = scripted_press_trace(model, np.full(200, 3.5))
    assert np.argmax(trace.displacement >= model.activation_disp) == crossed_at + 1


def test_repeated_runs_are_bit_identical():
    rng = np.random.default_rng(1)
    model = design_to_fdvv(random_design(rng))
    profile = press_release_profile(rng, n=300)
    a = scripted_press_trace(model, profile)
    b = scripted_press_trace(model, profile)
    assert np.array_equal(a.time, b.time)
    assert np.array_equal(a.displacement, b.displacement)
    assert np.array_equal(a.force, b.force)
    assert np.array_equal(a.vibration, b.vibration)


def test_scripted_trace_structure():
    rng = np.random.default_rng(2)
    model = design_to_fdvv(random_design(rng))
    profile = np.full(50, 3.0)
    trace = scripted_press_trace(model, profile)
    assert len(trace) == 51
    assert trace.time[0] == 0.0 and trace.displacement[0] == 0.0
    assert trace.vibration[0] == 0.0
    assert trace.force[0] == pytest.approx(force_at(model, 0.0, 0.0), abs=1e-12)
    assert trace.sample_rate == pytest.approx(1000.0)
    assert np.allclose(np.diff(trace.time), 0.001)

    # A multi-cycle profile replayed one period at a time gives every
    # channel bit for bit, at the loop's rate and at a finer one with a
    # heavier finger.  Each activation restarts the vibration burst, here
    # while the previous burst is still playing.
    rng = np.random.default_rng(3)
    model = design_to_fdvv(random_design(rng))
    profile = press_release_profile(rng, n=4000)
    for dt, mass_kg, n in ((0.001, 0.005, 400), (1e-4, 0.007, 4000)):
        trace = scripted_press_trace(model, profile[:n], dt, mass_kg)
        channels, onsets = replay_per_tick(model, profile[:n], dt, mass_kg)
        for name, want in channels.items():
            assert getattr(trace, name).tobytes() == want.tobytes(), name
        burst = model.vibration.waveform(dt).size
        assert any(b - a < burst for a, b in zip(onsets, onsets[1:]))


def replay_per_tick(model, profile, dt, mass_kg):
    """A scripted trace's channels, and its activation ticks, a period at
    a time: a clock summed per period, and a burst that each activation
    queues afresh, dropping what is left of the one playing."""
    rows = [(0.0, 0.0, force_at(model, 0.0, 0.0), 0.0)]
    onsets, pending, time = [], [], 0.0
    for i, (d, v, event) in enumerate(press_ticks(model, profile, dt, mass_kg), start=1):
        time += dt
        if event == ACTIVATION:
            onsets.append(i)
            pending = model.vibration.waveform(dt).tolist()
        vibration = pending.pop(0) if pending else 0.0
        rows.append((time, d, force_at(model, d, v), vibration))
    columns = np.array(rows).T
    return dict(zip(("time", "displacement", "force", "vibration"), columns)), onsets


def test_design_to_fdvv_shape_arithmetic():
    params = ButtonDesignParams(
        travel=3.0,
        activation_fraction=0.5,
        peak_force=2.0,
        snap_ratio=0.4,
        velocity_stiffening=0.5,
        damping=0.01,
    )
    model = design_to_fdvv(params)
    act = 1.5
    mid = act + 0.5 * (params.travel - act)
    assert model.activation_disp == pytest.approx(act)
    assert model.release_disp == pytest.approx(0.7 * act)
    assert model.travel == params.travel
    assert model.damping == params.damping
    assert model.vibration.frequency == pytest.approx(125.0 + 375.0 * 0.4)
    assert model.vibration.amplitude == pytest.approx(0.4 * 2.0)
    assert model.vibration.decay == pytest.approx(200.0)
    for level, curve in zip(model.velocity_levels, model.fd_curves):
        scale = 1.0 + 0.5 * level / 100.0
        assert curve(0.0) == pytest.approx(0.0, abs=1e-8)
        assert curve(act) == pytest.approx(2.0 * scale, abs=1e-8)
        assert curve(mid) == pytest.approx(2.0 * (1.0 - 0.4) * scale, abs=1e-8)
        assert curve(params.travel) == pytest.approx(2.0 * scale, abs=1e-8)


def smoothstep(u):
    return u * u * (3.0 - 2.0 * u)


def tactile_shape(d, travel, activation, peak, snap):
    """Rise-drop-rise force profile from smoothsteps, C1 at the segment joins."""
    mid = activation + 0.5 * (travel - activation)
    drop = peak * snap
    out = np.empty_like(d)
    seg1 = d <= activation
    out[seg1] = peak * smoothstep(d[seg1] / activation)
    seg2 = (d > activation) & (d <= mid)
    out[seg2] = peak - drop * smoothstep((d[seg2] - activation) / (mid - activation))
    seg3 = d > mid
    out[seg3] = (peak - drop) + drop * smoothstep((d[seg3] - mid) / (travel - mid))
    return out


def test_design_to_fdvv_curves_are_the_smoothstep_shape_in_closed_form():
    rng = np.random.default_rng(30)
    designs = [random_design(rng) for _ in range(40)]
    designs += [dataclasses.replace(d, snap_ratio=0.0) for d in designs[:5]]
    corners = itertools.product(*(DESIGN_BOUNDS[f] for f in DESIGN_FIELDS))
    designs += [ButtonDesignParams(*c) for c in corners]
    for params in designs:
        model = design_to_fdvv(params)
        activation = params.activation_fraction * params.travel
        peak = params.peak_force
        dip = peak * (1.0 - params.snap_ratio)
        grid = np.linspace(0.0, params.travel, 2000)
        shape = tactile_shape(grid, params.travel, activation, peak, params.snap_ratio)
        for level, curve in zip(model.velocity_levels, model.fd_curves):
            scale = 1.0 + params.velocity_stiffening * level / 100.0
            want = scale * np.array([0.0, 0.0, peak, peak, dip, dip, peak, peak])
            assert curve.coefficients.tobytes() == want.tobytes()
            assert np.max(np.abs(curve(grid) - scale * shape)) <= 1e-12


def test_force_interpolates_between_velocity_levels():
    rng = np.random.default_rng(3)
    model = design_to_fdvv(random_design(rng))
    levels = model.velocity_levels
    for d in np.linspace(0.0, model.travel, 9):
        f_lo = float(model.fd_curves[0](d))
        f_hi = float(model.fd_curves[1](d))
        v = 0.5 * (levels[0] + levels[1])
        w = (v - levels[0]) / (levels[1] - levels[0])
        expected = min(max(f_lo + w * (f_hi - f_lo), 0.0), model.max_force)
        assert force_at(model, d, v) == pytest.approx(expected, abs=1e-9)
        # Outside the outermost levels the nearest curve applies; sign of
        # velocity is irrelevant.
        assert force_at(model, d, 5.0) == pytest.approx(
            min(max(f_lo, 0.0), model.max_force), abs=1e-9
        )
        assert force_at(model, d, -5.0) == force_at(model, d, 5.0)
        assert force_at(model, d, 900.0) == pytest.approx(
            min(max(float(model.fd_curves[-1](d)), 0.0), model.max_force), abs=1e-9
        )


# The scalar spring lookup as it was first written, kept as a fixed
# reference for FdvvModel._spring_force and SpringTables: each curve's
# breaks and power-basis coefficients, a bisect per lookup, and builtin
# min/max clamps.


def reference_tables(model):
    tables = []
    for curve in model.fd_curves:
        c = curve.power_coefficients()
        pad = 4 - c.shape[0]
        coeffs = np.vstack([np.zeros((pad, c.shape[1])), c]) if pad > 0 else c
        keep = np.flatnonzero(np.diff(curve.knots) > 0.0)
        breaks = list(curve.knots[keep]) + [float(curve.knots[-1])]
        tables.append((breaks, [tuple(coeffs[:, j]) for j in keep]))
    return tables


def reference_table_eval(table, x):
    breaks, coeffs = table
    if x <= breaks[0]:
        x = breaks[0]
    elif x >= breaks[-1]:
        x = breaks[-1]
    i = min(max(bisect_right(breaks, x) - 1, 0), len(coeffs) - 1)
    c3, c2, c1, c0 = coeffs[i]
    t = x - breaks[i]
    return ((c3 * t + c2) * t + c1) * t + c0


def reference_spring_force(model, tables, displacement, velocity):
    speed = abs(velocity)
    levels = model.velocity_levels
    if speed <= levels[0]:
        lo_i, hi_i, w = 0, 0, 0.0
    elif speed >= levels[-1]:
        lo_i, hi_i, w = len(levels) - 1, len(levels) - 1, 0.0
    else:
        hi_i = bisect_right(levels, speed)
        lo_i = hi_i - 1
        w = (speed - levels[lo_i]) / (levels[hi_i] - levels[lo_i])
    f = reference_table_eval(tables[lo_i], displacement)
    if w > 0.0:
        f += w * (reference_table_eval(tables[hi_i], displacement) - f)
    return min(max(f, 0.0), model.max_force)


def reference_forces(models, d, v):
    tables = {id(m): reference_tables(m) for m in {id(m): m for m in models}.values()}
    return np.array([reference_spring_force(m, tables[id(m)], float(x), float(y)) for m, x, y in zip(models, d, v)])


def odd_models():
    """Models whose curves leave the design shapes' paths.

    Curves whose domain sits just inside [0, travel] clamp at both ends;
    a quadratic on four levels adds levels and segments; a line that
    dips below zero and one above max_force reach both clamps.
    """
    inner = BSplineCurve(1, np.array([1e-13, 1e-13, TRAVEL - 1e-13, TRAVEL - 1e-13]),
                         np.array([0.1, 3.0]))
    quad = BSplineCurve(2, np.array([0.0, 0.0, 0.0, 1.0, 2.5, TRAVEL, TRAVEL, TRAVEL]),
                        np.array([0.0, 0.5, 2.0, 1.0, 4.0]))
    kinked = BSplineCurve(1, np.array([1e-13, 1e-13, 2.0, TRAVEL - 1e-13, TRAVEL - 1e-13]),
                          np.array([0.1, 3.0, 1.0]))
    dipping = BSplineCurve(1, np.array([0.0, 0.0, 1.0, TRAVEL, TRAVEL]), np.array([-0.0, -1.0, 5.0]))
    vib = VibrationSpec(200.0, 0.0, 200.0)
    return [
        FdvvModel((5.0, 50.0, 150.0, 400.0), (inner, quad, inner, quad), TRAVEL, 3.0, 2.1, vib,
                  max_force=3.5, damping=DAMPING),
        FdvvModel((5.0, 50.0, 150.0), (kinked, kinked, kinked), TRAVEL, 3.0, 2.1, vib,
                  max_force=3.5, damping=DAMPING),
        FdvvModel((5.0, 50.0), (dipping, quad), TRAVEL, 3.0, 2.1, vib, max_force=3.5, damping=DAMPING),
        linear_model(),
    ]


def lookup_speeds(model):
    """Every level and its neighbours, signed, zeros, and far past the last level."""
    levels = np.array(model.velocity_levels)
    between = 0.5 * (levels[1:] + levels[:-1])
    speeds = np.concatenate([
        levels, np.nextafter(levels, 0.0), np.nextafter(levels, np.inf), between,
        [0.0, 0.5 * levels[0], 10.0 * levels[-1], 1e300, np.inf],
    ])
    return np.concatenate([speeds, -speeds])


def test_scalar_spring_lookup_matches_reference():
    rng = np.random.default_rng(23)
    models = odd_models() + [design_to_fdvv(random_design(rng)) for _ in range(6)]
    for model in models:
        breaks = sorted({x for table_breaks, _ in reference_tables(model) for x in table_breaks})
        d = np.concatenate([np.linspace(0.0, model.travel, 401), breaks, [0.0, -0.0, model.travel, np.nan]])
        d = np.concatenate([d, np.nextafter(d, -np.inf).clip(0.0), np.nextafter(d, np.inf).clip(None, model.travel)])
        for v in lookup_speeds(model):
            got = np.array([model._spring_force(float(x), float(v)) for x in d])
            want = reference_forces([model] * d.size, d, np.full(d.size, v))
            assert got.tobytes() == want.tobytes(), (model.velocity_levels, v)


def test_spring_tables_match_scalar_lookup():
    rng = np.random.default_rng(21)
    models = [design_to_fdvv(random_design(rng)) for _ in range(4)] + odd_models()
    for _ in range(20):
        which = rng.integers(0, len(models), 64)
        batch = [models[k] for k in which]
        travel = np.array([m.travel for m in batch])
        d = rng.uniform(0.0, 1.0, 64) * travel
        d[::7] = 0.0
        d[3::7] = travel[3::7]
        v = rng.uniform(-500.0, 500.0, 64)
        v[::5] = rng.choice([0.0, 5.0, 10.0, -100.0, 150.0, 300.0, 400.0, 1e4], v[::5].size)
        got = SpringTables(batch).force(d, v)
        assert got.tobytes() == reference_forces(batch, d, v).tobytes()


def test_spring_tables_match_scalar_lookup_on_breaks_and_levels():
    # Lookups exactly on a segment start or a velocity level, where a
    # count that used < for <= would pick the segment or level below.
    rng = np.random.default_rng(22)
    for model in [design_to_fdvv(random_design(rng)) for _ in range(4)] + odd_models():
        breaks = sorted({x for table_breaks, _ in reference_tables(model) for x in table_breaks})
        d = np.array([x for x in breaks if 0.0 <= x <= model.travel] + [0.0, model.travel])
        for level in model.velocity_levels:
            for v in (level, -level):
                got = SpringTables([model] * d.size).force(d, np.full(d.size, v))
                want = reference_forces([model] * d.size, d, np.full(d.size, v))
                assert got.tobytes() == want.tobytes(), (model.velocity_levels, v)


def test_force_respects_ceiling():
    params = ButtonDesignParams(3.0, 0.5, FORCE_CEILING_N, 0.2, 1.0, 0.01)
    model = design_to_fdvv(params)
    for d in np.linspace(0.0, 3.0, 25):
        for v in (0.0, 150.0, 300.0, 1000.0):
            assert force_at(model, d, v) <= FORCE_CEILING_N + 1e-9


def test_force_at_rejects_out_of_range_displacement():
    model = linear_model()
    with pytest.raises(ValueError):
        force_at(model, -0.01, 0.0)
    with pytest.raises(ValueError):
        force_at(model, TRAVEL + 0.01, 0.0)


def test_press_clamps_at_the_stops():
    model = linear_model()
    ticks = press_ticks(model, np.concatenate([np.full(3000, 6.0), np.full(3000, -1.0)]))
    assert ticks[2999][:2] == (TRAVEL, 0.0)
    assert ticks[-1][:2] == (0.0, 0.0)


def test_scripted_trace_input_validation():
    model = linear_model()
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            scripted_press_trace(model, np.array([1.0, bad]))
    for dt in (0.0, -0.001, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dt"):
            scripted_press_trace(model, np.ones(3), dt=dt)
    for mass in (0.0, -0.005, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="mass"):
            scripted_press_trace(model, np.ones(3), mass_kg=mass)
    for profile in (np.ones((3, 2)), np.ones((1, 3)), np.float64(1.0)):
        with pytest.raises(ValueError, match="one-dimensional"):
            scripted_press_trace(model, profile)


def test_vibration_waveform():
    spec = VibrationSpec(frequency=300.0, amplitude=0.8, decay=200.0)
    dt = 0.001
    w = spec.waveform(dt)
    assert w.size > 0
    t1 = dt
    assert w[0] == pytest.approx(0.8 * math.exp(-200.0 * t1) * math.sin(2 * math.pi * 300.0 * t1))
    envelope_end = 0.8 * math.exp(-200.0 * dt * w.size)
    assert envelope_end <= 0.8 * 1e-3 * (1.0 + 1e-9)
    assert w.size * dt <= 0.25 + dt

    assert VibrationSpec(300.0, 0.0, 200.0).waveform(dt).size == 0


def test_vibration_spec_validation():
    with pytest.raises(ValueError):
        VibrationSpec(10.0, 0.5, 200.0)
    with pytest.raises(ValueError):
        VibrationSpec(30000.0, 0.5, 200.0)
    with pytest.raises(ValueError):
        VibrationSpec(300.0, -0.1, 200.0)
    with pytest.raises(ValueError):
        VibrationSpec(300.0, 0.5, 0.0)
    for amplitude in (math.nan, math.inf):
        with pytest.raises(ValueError, match="amplitude"):
            VibrationSpec(300.0, amplitude, 200.0)
    with pytest.raises(ValueError, match="decay"):
        VibrationSpec(300.0, 0.5, math.nan)


def test_vibration_burst_appears_in_trace_after_activation():
    params = ButtonDesignParams(3.0, 0.5, 2.0, 0.5, 0.0, 0.005)
    model = design_to_fdvv(params)
    trace = scripted_press_trace(model, np.full(400, 3.5))
    onset = int(np.argmax(trace.displacement >= model.activation_disp))
    assert onset > 0
    assert np.all(trace.vibration[:onset] == 0.0)
    expected = model.vibration.waveform(0.001)
    got = trace.vibration[onset : onset + expected.size]
    assert np.allclose(got, expected[: got.size], atol=1e-12)


def test_design_params_validation():
    good = dict(
        travel=2.0,
        activation_fraction=0.5,
        peak_force=1.5,
        snap_ratio=0.3,
        velocity_stiffening=0.2,
        damping=0.01,
    )
    ButtonDesignParams(**good)
    bad_cases = [
        ("travel", 0.4),
        ("travel", 5.1),
        ("activation_fraction", 0.2),
        ("activation_fraction", 0.9),
        ("peak_force", 0.3),
        ("peak_force", 4.5),
        ("snap_ratio", -0.01),
        ("snap_ratio", 0.81),
        ("velocity_stiffening", 1.01),
        ("damping", 0.0),
        ("travel", float("nan")),
    ]
    for field_name, value in bad_cases:
        kwargs = dict(good)
        kwargs[field_name] = value
        with pytest.raises(ValueError):
            ButtonDesignParams(**kwargs)


def test_design_params_array_round_trip():
    rng = np.random.default_rng(4)
    params = random_design(rng)
    arr = np.array([getattr(params, name) for name in DESIGN_FIELDS])
    assert arr.shape == (len(DESIGN_FIELDS),)
    again = ButtonDesignParams.from_array(arr)
    assert again == params
    with pytest.raises(ValueError):
        ButtonDesignParams.from_array(arr[:4])


def test_fd_trace_validation():
    t = np.linspace(0.0, 0.1, 11)
    z = np.zeros(11)
    FdTrace(t, z, z, z, 100.0)
    with pytest.raises(ValueError):
        FdTrace(t, z[:-1], z, z, 100.0)
    bad_t = t.copy()
    bad_t[5] = bad_t[4]
    with pytest.raises(ValueError):
        FdTrace(bad_t, z, z, z, 100.0)
    with pytest.raises(ValueError):
        FdTrace(t, z - 1.0, z, z, 100.0)
    with pytest.raises(ValueError):
        FdTrace(t, z, z, z, 0.0)
    for rate in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sample_rate"):
            FdTrace(t, z, z, z, rate)
    bad_f = z.copy()
    bad_f[2] = np.inf
    with pytest.raises(ValueError):
        FdTrace(t, z, bad_f, z, 100.0)


def test_fdvv_model_validation():
    line = BSplineCurve(1, np.array([0.0, 0.0, 4.0, 4.0]), np.array([0.0, 4.0]))
    vib = VibrationSpec(200.0, 0.0, 200.0)
    with pytest.raises(ValueError):
        FdvvModel((10.0,), (line,), 4.0, 3.0, 2.0, vib)
    with pytest.raises(ValueError):
        FdvvModel((100.0, 10.0), (line, line), 4.0, 3.0, 2.0, vib)
    with pytest.raises(ValueError):
        FdvvModel((10.0, 100.0), (line, line), 4.0, 2.0, 3.0, vib)
    short = BSplineCurve(1, np.array([0.0, 0.0, 2.0, 2.0]), np.array([0.0, 2.0]))
    with pytest.raises(ValueError):
        FdvvModel((10.0, 100.0), (short, short), 4.0, 3.0, 2.0, vib)
    with pytest.raises(ValueError):
        FdvvModel((10.0, 100.0), (line, line), 4.0, 3.0, 2.0, vib, max_force=9.0)
    with pytest.raises(ValueError):
        FdvvModel((10.0, 100.0), (line, line), 4.0, 3.0, 2.0, vib, damping=0.0)
    for damping in (math.nan, math.inf):
        with pytest.raises(ValueError, match="damping"):
            FdvvModel((10.0, 100.0), (line, line), 4.0, 3.0, 2.0, vib, damping=damping)
    # The spring lookup evaluates cubics at most: a quartic is refused.
    quartic = BSplineCurve(4, np.array([0.0] * 5 + [4.0] * 5), np.linspace(0.0, 4.0, 5))
    with pytest.raises(ValueError, match="curve degree 4 is above 3"):
        FdvvModel((10.0, 100.0), (line, quartic), 4.0, 3.0, 2.0, vib)
    # A nan level fails every comparison the check used to make.
    for levels in ((10.0, math.nan, 300.0), (math.nan, 100.0), (10.0, math.inf), (0.0, 100.0), (10.0, 10.0)):
        with pytest.raises(ValueError, match="velocity levels"):
            FdvvModel(levels, (line,) * len(levels), 4.0, 3.0, 2.0, vib)
