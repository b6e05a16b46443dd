"""Config parsing, artifact and trace serialization, CLI round trips."""

import dataclasses
import json
import math
import os
import re
import stat
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import buttonlab
from buttonlab import (
    DESIGN_BOUNDS,
    DESIGN_FIELDS,
    ButtonDesignParams,
    CidConfig,
    FdTrace,
    FormatError,
    MetaPolicy,
    RunState,
    cid_step,
    config_fingerprint,
    design_to_fdvv,
    export_front,
    init_policy,
    initial_state,
    load_artifact,
    load_trace,
    make_provider,
    parse_config,
    run,
    save_artifact,
    save_trace,
    serialize_config,
)
from buttonlab import policy, storage
from buttonlab.cli import main
from buttonlab.config import _SCALAR_KEYS
from buttonlab.loop import Provider, run_space
from buttonlab.storage import export_evaluations

SMALL_SCHAFFER = """
[run]
provider = schaffer
budget = 3
init_count = 3
master_seed = 5

[optimizer]
scan_count = 64
"""


def test_empty_config_gives_defaults():
    config = parse_config("")
    assert config == CidConfig()
    assert config.budget == 40
    assert config.init_count == 8
    assert config.provider == "simulated_button"
    assert config.objectives == ("completion_time_s", "error_rate", "effort")


def test_config_round_trip_and_fingerprint():
    config = parse_config(SMALL_SCHAFFER)
    text = serialize_config(config)
    again = parse_config(text)
    assert again == config
    assert config_fingerprint(again) == config_fingerprint(config)
    assert config_fingerprint(config) != config_fingerprint(CidConfig())


@pytest.mark.parametrize(
    "config, digest",
    [
        (CidConfig(), "1c5001f85a0c2d5d843c798df1cfeb121c4d5306a0a8f8fe17dac787e92d7aff"),
        (
            CidConfig(provider="zdt1", budget=60, master_seed=3, kernel="squared_exponential",
                      policy_path="p.json", inner_lr=0.1),
            "06d35d9dff3ce9663ace7f4bf205d1fe197759be0861f4c05a5f3912cc746f6f",
        ),
    ],
)
def test_config_fingerprint_is_frozen(config, digest):
    # Saved run states carry this digest; resume refuses any other.
    assert config_fingerprint(config) == digest


def test_config_rejects_zero_budget_by_name():
    with pytest.raises(FormatError, match="run.budget"):
        parse_config("[run]\nbudget = 0\n")


def test_negative_master_seed_is_rejected_by_name(tmp_path, capsys):
    with pytest.raises(FormatError, match="run.master_seed: must be >= 0, got -3"):
        parse_config("[run]\nmaster_seed = -3\n")
    assert parse_config("[run]\nmaster_seed = 0\n").master_seed == 0
    cfg = config_file(tmp_path, "[run]\nmaster_seed = -1\n")
    assert main(["optimize", "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 2
    assert main(["bench", "--problem", "zdt1", "--seed", "-3"]) == 2
    assert main(["meta-train", "--iterations", "0", "--out", str(tmp_path / "p.json"), "--seed", "-3"]) == 2
    err = capsys.readouterr().err
    assert err.count("run.master_seed: must be >= 0") == 3
    assert not os.path.exists(tmp_path / "run")


def test_config_rejects_unknown_names():
    with pytest.raises(FormatError):
        parse_config("[run]\nwarp_speed = 9\n")
    with pytest.raises(FormatError):
        parse_config("[warp]\nbudget = 3\n")
    with pytest.raises(FormatError):
        parse_config("[run]\nprovider = antigravity\n")
    with pytest.raises(FormatError, match="design_space.warp: unknown design parameter"):
        parse_config("[design_space]\nwarp = 1, 2\n")
    # Keys that once parsed but steered nothing.
    with pytest.raises(FormatError, match="optimizer.ehvi_samples"):
        parse_config("[optimizer]\nehvi_samples = 128\n")
    with pytest.raises(FormatError, match="simulator"):
        parse_config("[simulator]\nmass_kg = 0.005\n")


def test_config_rejects_bad_values():
    with pytest.raises(FormatError):
        parse_config("[run]\nbudget = soon\n")
    with pytest.raises(FormatError):
        parse_config("[run]\ninit_count = 1\n")
    with pytest.raises(FormatError, match="travel"):
        parse_config("[design_space]\ntravel = 3.0, 1.0\n")
    with pytest.raises(FormatError):
        parse_config("[objectives]\nminimize = completion_time_s, sparkle\n")
    with pytest.raises(FormatError):
        parse_config("[user_model]\ninner_lr = -0.5\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_config_rejects_non_finite_inner_lr(value):
    with pytest.raises(FormatError, match="user_model.inner_lr"):
        parse_config(f"[user_model]\ninner_lr = {value}\n")


def test_config_bounds_admissible_exactly_where_design_values_are():
    # Probes at, just inside and just outside every edge of every field's range.
    edges = (-1.0, 0.0, 0.2, 0.3, 0.5, 0.8, 0.9, 1.0, 4.4, 5.0, 6.0)
    probes = sorted({e + s for e in edges for s in (-1e-9, 0.0, 1e-9)})
    interior = {k: 0.5 * (lo + hi) for k, (lo, hi) in DESIGN_BOUNDS.items()}

    def design_ok(key, value):
        try:
            ButtonDesignParams(**{**interior, key: value})
        except ValueError:
            return False
        return True

    def bounds_ok(key, lo, hi):
        try:
            CidConfig(bounds={**DESIGN_BOUNDS, key: (lo, hi)})
        except FormatError:
            return False
        return True

    for key in DESIGN_FIELDS:
        ok = {v: design_ok(key, v) for v in probes}
        for i, lo in enumerate(probes):
            for hi in probes[i + 1 :]:
                assert bounds_ok(key, lo, hi) == (ok[lo] and ok[hi]), (key, lo, hi)


# Per row of the config's scalar table: a value just outside its rule,
# or None where every value parses, and values on its boundary.  A rule
# is a least integer, an exclusive float bound or a tuple of choices.
def _just_outside_and_boundary(key, rule):
    if isinstance(rule, tuple):
        return "nonesuch", rule
    if isinstance(rule, int):
        return str(rule - 1), (str(rule),)
    if isinstance(rule, float):
        return repr(rule), (repr(math.nextafter(rule, math.inf)),)
    return None, ("", "p.json")


@pytest.mark.parametrize("section, key, kind, rule", _SCALAR_KEYS, ids=[key for _, key, _, _ in _SCALAR_KEYS])
def test_every_scalar_key_refuses_past_its_rule_and_parses_its_boundary(section, key, kind, rule):
    outside, boundary = _just_outside_and_boundary(key, rule)
    if outside is not None:
        with pytest.raises(FormatError, match=re.escape(f"{section}.{key}: ")):
            parse_config(f"[{section}]\n{key} = {outside}\n")
    for value in boundary:
        assert getattr(parse_config(f"[{section}]\n{key} = {value}\n"), key) == kind(value)


class _Text(str):
    pass


def _mistyped(kind, rule):
    """Values of other Python types for a scalar key: ``(refused, normalized)``;
    each normalized value is admissible and equals what the config stores."""
    if kind is int:
        return (2.5, 3.0, np.float64(3.0), True, "3", None), (np.int64(7), np.uint8(7))
    if kind is float:
        return ("0.5", True, np.bool_(True), None, 10**400, 1j), (1, np.int64(2), np.float32(0.5))
    valid = rule[0] if isinstance(rule, tuple) else "p.json"
    return (None, 1, True, b"p.json", ["p.json"]), (_Text(valid),)


@pytest.mark.parametrize("section, key, kind, rule", _SCALAR_KEYS, ids=[key for _, key, _, _ in _SCALAR_KEYS])
def test_every_scalar_key_refuses_or_normalizes_a_mistyped_value(section, key, kind, rule):
    refused, normalized = _mistyped(kind, rule)
    for value in refused:
        with pytest.raises(FormatError, match=re.escape(f"{section}.{key}: expected ")):
            CidConfig(**{key: value})
    for value in normalized:
        config = CidConfig(**{key: value})
        assert type(getattr(config, key)) is kind and getattr(config, key) == value
        again = parse_config(serialize_config(config))
        assert again == config and config_fingerprint(again) == config_fingerprint(config)


def _scalar_values(kind, rule):
    """Values of a scalar key's own type, or ones it normalizes, in and just past its rule."""
    if isinstance(rule, tuple):
        return st.sampled_from(rule) | st.text(max_size=4).map(_Text)
    if kind is int:
        return st.integers(min_value=rule - 1) | st.integers(min_value=rule - 1, max_value=2**62).map(np.int64)
    if kind is float:
        return st.floats() | st.integers(min_value=-1) | st.floats(width=32).map(np.float32)
    return st.text() | st.text().map(_Text)


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({}, optional={key: _scalar_values(kind, rule) for _, key, kind, rule in _SCALAR_KEYS}))
def test_every_config_the_constructor_accepts_round_trips_through_its_text(values):
    try:
        config = CidConfig(**values)
    except FormatError:
        return
    for _, key, kind, _ in _SCALAR_KEYS:
        assert type(getattr(config, key)) is kind, key
    again = parse_config(serialize_config(config))
    assert again == config
    assert config_fingerprint(again) == config_fingerprint(config)


def test_config_objective_subset_parses():
    config = parse_config("[objectives]\nminimize = error_rate, effort\n")
    assert config.objectives == ("error_rate", "effort")


def test_config_refuses_one_objective_name_as_a_string():
    # Nor anything else that is no sequence of names.
    for objectives in ("error_rate", None, 3):
        with pytest.raises(FormatError, match=re.escape("objectives.minimize: expected a sequence of objective names")):
            CidConfig(objectives=objectives)


def test_design_box_bounds_follow_the_float_keys_rule():
    # A bound is a real number that is not a bool, as a float key's value is.
    with pytest.raises(FormatError, match=re.escape("design_space.travel: expected a number, got '0.5'")):
        CidConfig(bounds={k: (str(lo), str(hi)) for k, (lo, hi) in DESIGN_BOUNDS.items()})
    with pytest.raises(FormatError, match=re.escape("design_space.velocity_stiffening: expected a number, got True")):
        CidConfig(bounds={**DESIGN_BOUNDS, "velocity_stiffening": (0.0, True)})
    # A bound is a pair, and the box a mapping of them.
    for pair in ((1.0, 2.0, 3.0), (1.0,), 1.0, None):
        with pytest.raises(FormatError, match=re.escape(f"design_space.travel: expected (low, high), got {pair!r}")):
            CidConfig(bounds={**DESIGN_BOUNDS, "travel": pair})
    for bounds in (None, [(0.5, 5.0)]):
        with pytest.raises(FormatError, match=re.escape("design_space: expected a mapping")):
            CidConfig(bounds=bounds)
    config = CidConfig(bounds={**DESIGN_BOUNDS, "travel": (1, 5)})
    assert [type(x) for x in config.bounds["travel"]] == [float, float]
    assert config.bounds["travel"] == (1.0, 5.0)
    assert parse_config(serialize_config(config)) == config


def make_trace(n=64, fs=1000.0):
    t = np.arange(n) / fs
    d = np.linspace(0.0, 1.5, n)
    f = np.sin(np.linspace(0.0, 2.0, n)) + 1.0
    v = np.zeros(n)
    v[10:14] = [0.2, -0.1, 0.05, -0.02]
    return FdTrace(t, d, f, v, fs)


def test_trace_round_trip(tmp_path):
    path = str(tmp_path / "trace.csv")
    trace = make_trace()
    save_trace(path, trace)
    back = load_trace(path)
    assert np.allclose(back.time, trace.time, atol=1e-9)
    assert np.allclose(back.displacement, trace.displacement, atol=1e-9)
    assert np.allclose(back.force, trace.force, atol=1e-9)
    assert np.allclose(back.vibration, trace.vibration, atol=1e-9)
    assert back.sample_rate == pytest.approx(1000.0, rel=1e-9)

    with open(path) as handle:
        assert handle.readline().strip() == "t_s,disp_mm,force_n,vib"


def test_trace_file_format_is_pinned(tmp_path):
    # Signed zeros, subnormals, tiny and huge magnitudes and a sum that
    # is not its decimal: each cell is "%.12g" of its value.
    path = str(tmp_path / "trace.csv")
    trace = FdTrace(
        np.array([0.0, 0.001, 0.002]),
        np.array([-0.0, 1e-300, float(2**53 + 1)]),
        np.array([0.1 + 0.2, -0.0, 5e-324]),
        np.array([5e-324, float(2**53 + 1), -1e-300]),
        1000.0,
    )
    save_trace(path, trace)
    with open(path, newline="") as handle:
        text = handle.read()
    assert text == (
        "t_s,disp_mm,force_n,vib\n"
        "0,-0,0.3,4.94065645841e-324\n"
        "0.001,1e-300,-0,9.00719925474e+15\n"
        "0.002,9.00719925474e+15,4.94065645841e-324,-1e-300\n"
    )
    back = load_trace(path)
    cells = [[float(cell) for cell in line.split(",")] for line in text.splitlines()[1:]]
    got = np.column_stack([back.time, back.displacement, back.force, back.vibration])
    assert got.tobytes() == np.array(cells).tobytes()


@settings(max_examples=30, deadline=None, database=None)
@given(
    n=st.integers(2, 40),
    start=st.floats(0.0, 1e3),
    dt=st.floats(1e-4, 1.0),
    data=st.data(),
)
def test_trace_round_trip_is_the_printed_value(tmp_path_factory, n, start, dt, data):
    cells = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)
    trace = FdTrace(
        start + dt * np.arange(n),
        np.array(data.draw(st.lists(st.floats(0.0, allow_infinity=False), min_size=n, max_size=n))),
        np.array(data.draw(cells)),
        np.array(data.draw(cells)),
        1.0 / dt,
    )
    path = str(tmp_path_factory.mktemp("trace") / "trace.csv")
    save_trace(path, trace)
    back = load_trace(path)
    for name in ("time", "displacement", "force", "vibration"):
        want = np.array([float("%.12g" % x) for x in getattr(trace, name)])
        assert getattr(back, name).tobytes() == want.tobytes(), name


def write_rows(path, rows):
    with open(path, "w") as handle:
        handle.write("\n".join(rows) + "\n")


def test_load_trace_errors_cite_rows(tmp_path):
    path = str(tmp_path / "bad.csv")

    write_rows(path, ["wrong,header"])
    with pytest.raises(FormatError, match="header"):
        load_trace(path)

    write_rows(path, ["t_s,disp_mm,force_n,vib", "0,0,1,0"])
    with pytest.raises(FormatError):
        load_trace(path)

    write_rows(path, ["t_s,disp_mm,force_n,vib", "0,0,1,0", "0.001,0,x,0", "0.002,0,1,0"])
    with pytest.raises(FormatError, match="row 3"):
        load_trace(path)

    write_rows(path, ["t_s,disp_mm,force_n,vib", "0,0,1,0", "0.002,0,1,0", "0.001,0,1,0"])
    with pytest.raises(FormatError, match="row 4"):
        load_trace(path)

    rows = ["t_s,disp_mm,force_n,vib"] + [f"{i/1000.0},0,1,0" for i in range(10)]
    rows[5] = "0.0045,0,1,0"
    write_rows(path, rows)
    with pytest.raises(FormatError, match="row"):
        load_trace(path)

    # Each body row error names its row; the first bad row wins.
    head = ["t_s,disp_mm,force_n,vib", "0,0,1,0"]
    cases = [
        (["0.001,0,1", "0.002,0,1,0"], "row 3: expected 4 columns, found 3"),
        (["0.001,0,1,0", "0.002,0,1,0,5"], "row 4: expected 4 columns, found 5"),
        (["0.001,0,1,0", ""], "row 4: expected 4 columns, found 0"),
        (["0.001,0,nan,0", "0.002,0,1"], "row 3: non-finite value"),
        (["0.001,0,1,0", "0.002,inf,1,0"], "row 4: non-finite value"),
        (["0.001,0,1,-Infinity", "0.002,0,x,0"], "row 3: non-finite value"),
        (["0.001,0,x,0", "0.002,0,nan,0"], "row 3: non-numeric value in ['0.001', '0', 'x', '0']"),
        (["0.001,-0.1,1,0", "0.002,0,1,0"], "row 3: negative displacement -0.1"),
        (["0.001,0,1,0", "0.002,-1e-300,1,0"], "row 4: negative displacement -1e-300"),
    ]
    for body, message in cases:
        write_rows(path, head + body)
        with pytest.raises(FormatError) as info:
            load_trace(path)
        assert str(info.value) == f"{path}: {message}"

    # A signed zero is not a negative displacement.
    write_rows(path, head + ["0.001,-0,1,0", "0.002,0,1,0"])
    assert np.signbit(load_trace(path).displacement[1])


def test_fdvv_artifact_round_trip(tmp_path):
    params = ButtonDesignParams(2.5, 0.5, 2.0, 0.4, 0.3, 0.01)
    model = design_to_fdvv(params)
    path = str(tmp_path / "model.json")
    save_artifact(path, model)
    back = load_artifact(path)
    assert back.velocity_levels == model.velocity_levels
    assert back.travel == model.travel
    assert back.activation_disp == model.activation_disp
    assert back.release_disp == model.release_disp
    assert back.max_force == model.max_force
    assert back.damping == model.damping
    assert back.vibration == model.vibration
    grid = np.linspace(0.0, model.travel, 200)
    for a, b in zip(back.fd_curves, model.fd_curves):
        assert np.allclose(a(grid), b(grid), atol=1e-12)


def test_policy_artifact_round_trip(tmp_path):
    meta = MetaPolicy(init_policy(3), inner_lr=0.07, adapt_episodes=6)
    path = str(tmp_path / "policy.json")
    save_artifact(path, meta)
    back = load_artifact(path)
    assert isinstance(back, MetaPolicy)
    assert np.array_equal(back.init_params.vector, meta.init_params.vector)
    assert back.init_params.layer_sizes == meta.init_params.layer_sizes
    assert back.inner_lr == meta.inner_lr
    assert back.adapt_episodes == meta.adapt_episodes


def test_policy_artifact_with_nan_inner_lr_is_rejected(tmp_path):
    path = str(tmp_path / "policy.json")
    save_artifact(path, MetaPolicy(init_policy(3)))
    with open(path) as handle:
        doc = json.load(handle)
    doc["inner_lr"] = math.nan
    with open(path, "w") as handle:
        json.dump(doc, handle)
    with pytest.raises(FormatError, match="inner_lr"):
        load_artifact(path)


@pytest.mark.parametrize(
    "key, value",
    [("adapt_episodes", 8.5), ("adapt_episodes", 2.0), ("layer_sizes", [5, 4.7, 1.2])],
)
def test_policy_artifact_with_non_integral_count_is_rejected(tmp_path, key, value):
    # Loaded, a float adapt_episodes would fail only in adapt, and int()
    # would truncate the layer sizes to (5, 4, 1).
    path = str(tmp_path / "policy.json")
    save_artifact(path, MetaPolicy(init_policy(3, layer_sizes=(5, 4, 1))))
    with open(path) as handle:
        doc = json.load(handle)
    doc[key] = value
    with open(path, "w") as handle:
        json.dump(doc, handle)
    with pytest.raises(FormatError, match="must be an integer"):
        load_artifact(path)


@pytest.mark.parametrize(
    "field",
    ["damping", "vibration.decay", "velocity_levels.1", "curves.0.knots.5", "curves.1.coefficients.2"],
)
def test_model_artifact_with_nan_parameter_is_rejected(tmp_path, field):
    # A NaN damping, velocity level, knot or coefficient used to load; the
    # first press then failed with an IndexError deep in the spring-force
    # lookup, or, for a level, ran on.
    path = str(tmp_path / "model.json")
    save_artifact(path, design_to_fdvv(ButtonDesignParams(2.0, 0.5, 1.0, 0.2, 0.1, 0.01)))
    with open(path) as handle:
        doc = json.load(handle)
    keys = [int(k) if k.isdigit() else k for k in field.split(".")]
    *parents, key = keys
    target = doc
    for name in parents:
        target = target[name]
    target[key] = math.nan
    with open(path, "w") as handle:
        json.dump(doc, handle)
    named = [k for k in keys if isinstance(k, str)][-1].replace("_", " ")
    with pytest.raises(FormatError, match=named):
        load_artifact(path)


def test_model_artifact_with_a_quartic_curve_is_rejected(tmp_path):
    # It used to load, and its first spring lookup failed to unpack five
    # coefficients.
    path = str(tmp_path / "model.json")
    save_artifact(path, design_to_fdvv(ButtonDesignParams(2.0, 0.5, 1.0, 0.2, 0.1, 0.01)))
    with open(path) as handle:
        doc = json.load(handle)
    travel = doc["travel"]
    doc["curves"][0] = {"degree": 4, "knots": [0.0] * 5 + [travel] * 5, "coefficients": [0.0, 0.2, 0.4, 0.6, 0.8]}
    with open(path, "w") as handle:
        json.dump(doc, handle)
    with pytest.raises(FormatError, match="curve degree 4"):
        load_artifact(path)


def test_runstate_artifact_round_trip(tmp_path):
    config = parse_config(SMALL_SCHAFFER)
    state = initial_state(config)
    path = str(tmp_path / "state.json")
    save_artifact(path, state)
    back = load_artifact(path)
    assert isinstance(back, RunState)
    assert back.config == config
    assert back.iteration == state.iteration
    assert len(back.records) == len(state.records)
    for ra, rb in zip(back.records, state.records):
        assert np.array_equal(ra.design, rb.design)
        assert np.array_equal(ra.objectives, rb.objectives)
        assert ra.seeds == rb.seeds
    assert {e.record_id for e in back.archive.entries} == {
        e.record_id for e in state.archive.entries
    }
    assert np.array_equal(back.reference.values, state.reference.values)
    for ma, mb in zip(back.models, state.models):
        assert ma.kernel.family == mb.kernel.family
        assert ma.kernel.signal_variance == mb.kernel.signal_variance
        assert np.array_equal(ma.kernel.lengthscales, mb.kernel.lengthscales)

    # On the button's design box the unit rescaling does not round-trip
    # exactly, yet the reloaded state must hold the live state's bits.
    config = CidConfig(budget=4, init_count=6, master_seed=3, scan_count=256)
    provider = sphere_provider()
    state = initial_state(config, provider)
    for step in range(config.budget + 1):
        if step:
            state = cid_step(state, provider)
        save_artifact(path, state)
        back = load_artifact(path)
        assert back.iteration == state.iteration == step
        assert back.archive.design_matrix.tobytes() == state.archive.design_matrix.tobytes(), step
        for mb, ms in zip(back.models, state.models, strict=True):
            for name in ("inputs", "inverse_factor", "whitened"):
                assert getattr(mb, name).tobytes() == getattr(ms, name).tobytes(), (step, name)


def test_runstate_round_trip_keeps_never_activated_episodes(tmp_path):
    from test_loop import TINY_BUTTON, small_meta

    state = initial_state(TINY_BUTTON, make_provider(TINY_BUTTON, small_meta(TINY_BUTTON)))
    path = str(tmp_path / "state.json")
    save_artifact(path, state)
    back = load_artifact(path)
    for rb, rs in zip(back.records, state.records, strict=True):
        assert rb.episodes == rs.episodes
    # The records hold episodes that activated and episodes that never did.
    times = [ep.time_to_activation_s for rec in state.records for ep in rec.episodes]
    assert None in times and any(t is not None for t in times)


def sphere_provider():
    """Three closed-form objectives over the button's design box: the
    first two unit coordinates place a point on the unit sphere's octant."""
    lower = np.array([DESIGN_BOUNDS[k][0] for k in DESIGN_FIELDS])
    upper = np.array([DESIGN_BOUNDS[k][1] for k in DESIGN_FIELDS])

    def evaluate(design, seed):
        a, b = (design[:2] - lower[:2]) / (upper[:2] - lower[:2]) * (math.pi / 2.0)
        return np.array([math.cos(a) * math.cos(b), math.cos(a) * math.sin(b), math.sin(a)]), (), ()

    return Provider(DESIGN_FIELDS, ("f1", "f2", "f3"), lower, upper, np.full(3, 1.1), evaluate)


def test_runstate_resume_continues_from_artifact(tmp_path):
    config = parse_config(SMALL_SCHAFFER)
    state = initial_state(config)
    path = str(tmp_path / "state.json")
    save_artifact(path, state)
    back = load_artifact(path)
    finished, _ = run(config, resume_from=back)
    direct, _ = run(config)
    assert len(finished.records) == len(direct.records)
    for ra, rb in zip(finished.records, direct.records):
        assert np.array_equal(ra.design, rb.design)
        assert np.array_equal(ra.objectives, rb.objectives)


def test_artifact_version_mismatch_is_refused(tmp_path):
    path = str(tmp_path / "model.json")
    model = design_to_fdvv(ButtonDesignParams(2.0, 0.5, 1.0, 0.2, 0.1, 0.01))
    save_artifact(path, model)
    with open(path) as handle:
        payload = json.load(handle)
    payload["format"] = "fdvv/9"
    with open(path, "w") as handle:
        json.dump(payload, handle)
    with pytest.raises(FormatError, match="fdvv/9"):
        load_artifact(path)


def test_truncated_artifact_is_a_format_error(tmp_path):
    path = str(tmp_path / "model.json")
    save_artifact(path, design_to_fdvv(ButtonDesignParams(2.0, 0.5, 1.0, 0.2, 0.1, 0.01)))
    with open(path) as handle:
        text = handle.read()
    with open(path, "w") as handle:
        handle.write(text[: len(text) // 2])
    with pytest.raises(FormatError):
        load_artifact(path)


def test_tampered_runstate_fingerprint_is_refused(tmp_path):
    config = parse_config(SMALL_SCHAFFER)
    state = initial_state(config)
    path = str(tmp_path / "state.json")
    save_artifact(path, state)
    with open(path) as handle:
        payload = json.load(handle)
    assert "fingerprint" in payload
    payload["fingerprint"] = "0" * 64
    with open(path, "w") as handle:
        json.dump(payload, handle)
    with pytest.raises(FormatError, match="fingerprint"):
        load_artifact(path)


def _drop_last_kernel(doc):
    doc["kernels"].pop()


def _add_kernel(doc):
    doc["kernels"].append(doc["kernels"][0])


def _shorten_reference(doc):
    doc["reference"].pop()


def _drop_record(doc):
    doc["records"].pop()


def _drop_objective(doc):
    for record in doc["records"]:
        record["objectives"].pop()


def _add_objective(doc):
    for record in doc["records"]:
        record["objectives"].append(record["objectives"][0])


def _shorten_design(doc):
    doc["records"][1]["design"].pop()


def _design_above_box(doc):
    doc["records"][1]["design"][0] = 1e6


def _design_below_box(doc):
    doc["records"][1]["design"][-1] = -1e6


def _nan_objective(doc):
    doc["records"][2]["objectives"][1] = math.nan


def _kernel_dimension(doc):
    doc["kernels"][1]["lengthscales"].append(1.0)


def _kernel_family(doc):
    doc["kernels"][1]["family"] = "squared_exponential"


# Episode and seed tampers, on a button state: synthetic records keep neither.
def _success_not_a_boolean(doc):
    doc["records"][1]["episodes"][0]["success"] = "no"


def _success_as_a_number(doc):
    doc["records"][1]["episodes"][0]["success"] = 1


def _return_not_a_number(doc):
    doc["records"][1]["episodes"][1]["return"] = "oops"


def _return_as_a_boolean(doc):
    doc["records"][1]["episodes"][1]["return"] = True


def _activation_time_not_a_number(doc):
    doc["records"][1]["episodes"][0]["time_to_activation_s"] = "soon"


def _seed_not_an_integer(doc):
    doc["records"][1]["seeds"][0] = 1.7


BUTTON_TAMPERS = (
    _success_not_a_boolean, _success_as_a_number, _return_not_a_number, _return_as_a_boolean,
    _activation_time_not_a_number, _seed_not_an_integer,
)


@pytest.fixture(scope="module")
def tiny_button_state():
    from test_loop import TINY_BUTTON, small_meta

    return initial_state(TINY_BUTTON, make_provider(TINY_BUTTON, small_meta(TINY_BUTTON)))


@pytest.mark.parametrize(
    "tamper",
    [_add_kernel, _drop_last_kernel, _shorten_reference, _drop_record, _drop_objective, _add_objective,
     _shorten_design, _design_above_box, _design_below_box, _nan_objective, _kernel_dimension, _kernel_family,
     *BUTTON_TAMPERS],
)
def test_malformed_runstate_is_a_format_error(tmp_path, capsys, request, tamper):
    path = str(tmp_path / "state.json")
    if tamper in BUTTON_TAMPERS:
        save_artifact(path, request.getfixturevalue("tiny_button_state"))
    else:
        save_artifact(path, initial_state(parse_config(SMALL_SCHAFFER)))
    with open(path) as handle:
        payload = json.load(handle)
    tamper(payload)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    with pytest.raises(FormatError, match="run state") as raised:
        load_artifact(path)
    assert path in str(raised.value)
    if tamper in BUTTON_TAMPERS:
        assert "run state record 1 " in str(raised.value)
    assert main(["report", "--state", path, "--out-dir", str(tmp_path / "report")]) == 2
    err = capsys.readouterr().err
    assert "run state" in err and path in err


def test_runstate_loads_and_exports_without_fitting_a_surrogate(tmp_path, monkeypatch):
    config = parse_config(SMALL_SCHAFFER)
    state, _ = run(config)
    path = str(tmp_path / "state.json")
    save_artifact(path, state)
    live = [str(tmp_path / name) for name in ("live_front.csv", "live_hv.csv")]
    export_front(state, *live)

    def no_fit(*args, **kwargs):
        raise AssertionError("a run state was loaded or exported through a GP fit")

    monkeypatch.setattr("buttonlab.loop.gp_fit", no_fit)
    back = load_artifact(path)
    reloaded = [str(tmp_path / name) for name in ("front.csv", "hv.csv")]
    export_front(back, *reloaded)
    for a, b in zip(live, reloaded):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()


def test_nan_objective_fails_the_step_before_the_state_is_saved(tmp_path, monkeypatch):
    config = parse_config(SMALL_SCHAFFER)
    provider = buttonlab.loop.make_provider(config)
    calls = []

    def evaluate(design, seed):
        calls.append(seed)
        objectives, summaries, used = provider.evaluate(design, seed)
        if len(calls) > config.init_count:
            objectives = np.array([objectives[0], math.nan])
        return objectives, summaries, used

    nan_provider = dataclasses.replace(provider, evaluate=evaluate)
    monkeypatch.setattr("buttonlab.loop.make_provider", lambda config: nan_provider)
    path = str(tmp_path / "state.json")
    saved = []

    def persist(state):
        save_artifact(path, state)
        with open(path, "rb") as handle:
            saved.append(handle.read())

    with pytest.raises(ValueError, match="objective values must be finite"):
        run(config, persist=persist)
    assert len(saved) == 1
    with open(path, "rb") as handle:
        assert handle.read() == saved[0]
    assert len(load_artifact(path).records) == config.init_count


def test_runstate_record_on_the_design_box_bounds_loads(tmp_path):
    config = parse_config(SMALL_SCHAFFER)
    _, _, lower, upper, _ = run_space(config)
    path = str(tmp_path / "state.json")
    save_artifact(path, initial_state(config))
    with open(path) as handle:
        payload = json.load(handle)
    payload["records"][1]["design"] = lower.tolist()
    payload["records"][2]["design"] = upper.tolist()
    with open(path, "w") as handle:
        json.dump(payload, handle)
    back = load_artifact(path)
    assert back.records[1].design.tolist() == lower.tolist()
    assert back.records[2].design.tolist() == upper.tolist()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
def test_outputs_follow_the_umask(tmp_path, umask, mode):
    state = initial_state(parse_config(SMALL_SCHAFFER))
    trace = FdTrace(np.arange(3) * 1e-3, np.zeros(3), np.zeros(3), np.zeros(3), sample_rate=1e3)
    names = ["state.json", "trace.csv", "front.csv", "hv_curve.csv", "evaluations.jsonl"]
    previous = os.umask(umask)
    try:
        save_artifact(str(tmp_path / names[0]), state)
        save_trace(str(tmp_path / names[1]), trace)
        export_front(state, str(tmp_path / names[2]), str(tmp_path / names[3]))
        export_evaluations(state, str(tmp_path / names[4]))
    finally:
        os.umask(previous)
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    for name in names:
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode, name


def test_save_artifact_rejects_unknown_types(tmp_path):
    # A library object of no type in the format table is refused too, and nothing is written.
    for unsupported in ({"not": "supported"}, make_trace()):
        with pytest.raises(TypeError, match=type(unsupported).__name__):
            save_artifact(str(tmp_path / "x.json"), unsupported)
    assert not os.path.exists(tmp_path / "x.json")


ARTIFACTS = {
    "fdvv/1": lambda: design_to_fdvv(ButtonDesignParams(2.5, 0.5, 2.0, 0.4, 0.3, 0.01)),
    "policy/1": lambda: MetaPolicy(init_policy(3), inner_lr=0.07, adapt_episodes=6),
    "runstate/1": lambda: initial_state(parse_config(SMALL_SCHAFFER)),
}


def test_every_artifact_type_round_trips_through_the_format_table(tmp_path):
    assert [tag for _, tag, _, _ in storage._FORMATS] == list(ARTIFACTS)
    for kind, tag, _, _ in storage._FORMATS:
        artifact = ARTIFACTS[tag]()
        path, again = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_artifact(path, artifact)
        with open(path) as handle:
            assert json.load(handle)["format"] == tag
        back = load_artifact(path)
        assert type(back) is kind
        save_artifact(again, back)
        with open(path, "rb") as a, open(again, "rb") as b:
            assert a.read() == b.read(), tag


def test_all_lists_exactly_the_public_names_the_package_imports():
    public = {
        name for name, value in vars(buttonlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(buttonlab.__all__) == sorted(public)


def config_file(tmp_path, text):
    path = tmp_path / "config.ini"
    path.write_text(text)
    return str(path)


def test_cli_bench_prints_ratio(capsys):
    code = main([
        "bench", "--problem", "schaffer", "--budget", "2", "--init-count", "3",
        "--seed", "7",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("schaffer budget=2 seed=7 hv_ratio=0.")


def test_cli_import_leaves_out_heavy_scipy_subpackages():
    # scipy is no run-time dependency: importing any of it costs a large
    # share of a second and a second BLAS on every start.
    code = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "import buttonlab\n"
        "print(scipy_modules())\n"
        "import buttonlab.cli\n"
        "print(scipy_modules())\n"
    )
    # The child imports the same buttonlab as this process.
    src = os.path.dirname(os.path.dirname(buttonlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_cli_usage_errors_exit_1(capsys):
    assert main(["bench", "--problem", "rosenbrock"]) == 1
    assert main(["--nonsense"]) == 1
    assert main([]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_cli_missing_file_exits_2(capsys):
    assert main(["simulate", "--model", "missing.json", "--profile", "x.csv",
                 "--out", "y.csv"]) == 2
    assert main(["report", "--state", "missing.json", "--out-dir", "."]) == 2
    err = capsys.readouterr().err
    assert "missing.json" in err


def test_cli_optimize_is_reproducible(tmp_path, capsys):
    cfg = config_file(tmp_path, SMALL_SCHAFFER)
    dir_a = str(tmp_path / "a")
    dir_b = str(tmp_path / "b")
    assert main(["optimize", "--config", cfg, "--out-dir", dir_a]) == 0
    assert main(["optimize", "--config", cfg, "--out-dir", dir_b]) == 0
    capsys.readouterr()
    for name in ("front.csv", "hv_curve.csv", "run_state.json"):
        with open(os.path.join(dir_a, name), "rb") as fa, open(
            os.path.join(dir_b, name), "rb"
        ) as fb:
            assert fa.read() == fb.read(), name

    with open(os.path.join(dir_a, "evaluations.jsonl")) as handle:
        lines = [json.loads(line) for line in handle]
    config = parse_config(SMALL_SCHAFFER)
    assert len(lines) == config.init_count + config.budget
    assert [entry["iteration"] for entry in lines] == list(range(len(lines)))
    assert all(len(entry["design"]) == 1 for entry in lines)


def test_cli_optimize_resume_matches_full_run(tmp_path, capsys):
    cfg = config_file(tmp_path, SMALL_SCHAFFER)
    full_dir = str(tmp_path / "full")
    assert main(["optimize", "--config", cfg, "--out-dir", full_dir]) == 0

    config = parse_config(SMALL_SCHAFFER)
    provider = make_provider(config)
    half = initial_state(config, provider)
    half = cid_step(half, provider)
    half_path = str(tmp_path / "half.json")
    save_artifact(half_path, half)
    # Older run states also store `iteration` and `seed_cursor`, which
    # restate the record count, and each record's index as its
    # `iteration`, all indented; the decoder ignores the three keys.
    with open(half_path) as handle:
        payload = json.load(handle)
    payload.update(iteration=1, seed_cursor=len(payload["records"]))
    for index, record in enumerate(payload["records"]):
        record["iteration"] = index
    legacy_path = str(tmp_path / "legacy.json")
    with open(legacy_path, "w") as handle:
        json.dump(payload, handle, indent=2)

    for state_path in (half_path, legacy_path):
        resume_dir = str(tmp_path / ("resumed-" + os.path.basename(state_path)))
        assert main([
            "optimize", "--config", cfg, "--out-dir", resume_dir, "--resume", state_path,
        ]) == 0
        capsys.readouterr()
        for name in ("front.csv", "hv_curve.csv", "run_state.json", "evaluations.jsonl"):
            with open(os.path.join(full_dir, name), "rb") as fa, open(
                os.path.join(resume_dir, name), "rb"
            ) as fb:
                assert fa.read() == fb.read(), (state_path, name)


def test_cli_optimize_resumes_a_crash_between_log_and_state(tmp_path, capsys, monkeypatch):
    import buttonlab.storage as storage

    class Crash(Exception):
        pass

    write = storage._atomic_write
    calls, crash_at = [], None

    def crashing_write(path, text):
        calls.append(path)
        if len(calls) == crash_at:
            raise Crash
        write(path, text)

    monkeypatch.setattr(storage, "_atomic_write", crashing_write)
    cfg = config_file(tmp_path, SMALL_SCHAFFER)
    config = parse_config(SMALL_SCHAFFER)
    full_dir = str(tmp_path / "full")
    assert main(["optimize", "--config", cfg, "--out-dir", full_dir]) == 0
    original = _run_outputs(full_dir)
    # The log, then the state, once per state (the initial one and one per
    # step), then the front and the curve.
    persisted = 2 * (config.budget + 1)
    assert len(calls) == persisted + 2

    for k in range(1, len(calls) + 1):
        calls.clear()
        crash_at = k
        crash_dir = str(tmp_path / f"crash-{k}")
        with pytest.raises(Crash):
            main(["optimize", "--config", cfg, "--out-dir", crash_dir])
        crash_at = None
        state_path = os.path.join(crash_dir, "run_state.json")
        if k % 2 == 0 and k <= persisted:
            # A state write died: the log is one state ahead of the state file.
            with open(os.path.join(crash_dir, "evaluations.jsonl")) as handle:
                assert len(handle.readlines()) == config.init_count + k // 2 - 1, k
            if k > 2:
                assert load_artifact(state_path).iteration == k // 2 - 2, k
        again = ["optimize", "--config", cfg, "--out-dir", crash_dir]
        if os.path.exists(state_path):
            again += ["--resume", state_path]
        assert main(again) == 0, k
        assert _run_outputs(crash_dir) == original, k
    capsys.readouterr()


def test_cli_optimize_resumes_past_a_killed_writers_temporary_file(tmp_path, capsys, monkeypatch):
    # A process killed between writing its temporary file and os.replace
    # runs no exception handler, so the partial file stays behind.
    cfg = config_file(tmp_path, SMALL_SCHAFFER)
    full_dir = str(tmp_path / "full")
    assert main(["optimize", "--config", cfg, "--out-dir", full_dir]) == 0
    original = _run_outputs(full_dir)

    class Killed(BaseException):
        pass

    write = storage._atomic_write
    calls = []

    def killed_write(path, text):
        calls.append(path)
        if len(calls) == 6:  # the state write after the second step
            tmp = f"{os.path.abspath(path)}.{os.getpid()}.{os.urandom(8).hex()}.tmp"
            with open(tmp, "w") as handle:
                handle.write(text[: len(text) // 2])
            raise Killed
        write(path, text)

    monkeypatch.setattr(storage, "_atomic_write", killed_write)
    cut_dir = str(tmp_path / "cut")
    with pytest.raises(Killed):
        main(["optimize", "--config", cfg, "--out-dir", cut_dir])
    monkeypatch.setattr(storage, "_atomic_write", write)
    [planted] = [name for name in os.listdir(cut_dir) if name.endswith(".tmp")]
    assert planted.startswith("run_state.json.")
    with open(os.path.join(cut_dir, planted), "rb") as handle:
        partial = handle.read()

    state_path = os.path.join(cut_dir, "run_state.json")
    assert load_artifact(state_path).iteration == 1
    assert main(["optimize", "--config", cfg, "--out-dir", cut_dir, "--resume", state_path]) == 0
    capsys.readouterr()
    assert _run_outputs(cut_dir) == original
    assert sorted(os.listdir(cut_dir)) == sorted([*original, planted])
    with open(os.path.join(cut_dir, planted), "rb") as handle:
        assert handle.read() == partial


def _run_outputs(out_dir):
    outputs = {}
    for name in ("front.csv", "hv_curve.csv", "run_state.json", "evaluations.jsonl"):
        with open(os.path.join(out_dir, name), "rb") as handle:
            outputs[name] = handle.read()
    return outputs


def test_cli_optimize_resume_of_a_finished_run_writes_every_file(tmp_path, capsys):
    cfg = config_file(tmp_path, SMALL_SCHAFFER)
    full_dir = str(tmp_path / "full")
    assert main(["optimize", "--config", cfg, "--out-dir", full_dir]) == 0
    original = _run_outputs(full_dir)
    state_path = os.path.join(full_dir, "run_state.json")

    fresh_dir = str(tmp_path / "fresh")
    assert main(["optimize", "--config", cfg, "--out-dir", fresh_dir, "--resume", state_path]) == 0
    assert _run_outputs(fresh_dir) == original
    # Into the run's own directory, the resume rewrites the same bytes.
    assert main(["optimize", "--config", cfg, "--out-dir", full_dir, "--resume", state_path]) == 0
    assert _run_outputs(full_dir) == original
    capsys.readouterr()


def test_cli_fit_and_simulate_round_trip(tmp_path, capsys):
    from test_capture import constant_velocity_trace

    params = ButtonDesignParams(3.0, 0.5, 2.0, 0.4, 0.3, 0.01)
    model = design_to_fdvv(params)
    args = ["fit", "--out", str(tmp_path / "model.json")]
    for speed in (10.0, 100.0, 300.0):
        path = str(tmp_path / f"v{int(speed)}.csv")
        save_trace(path, constant_velocity_trace(model, speed))
        args += ["--group", path]
    assert main(args) == 0

    profile_path = str(tmp_path / "profile.csv")
    with open(profile_path, "w") as handle:
        handle.write("force_n\n" + "\n".join(["3.0"] * 100) + "\n")
    out_path = str(tmp_path / "sim.csv")
    assert main([
        "simulate", "--model", str(tmp_path / "model.json"),
        "--profile", profile_path, "--out", out_path,
    ]) == 0
    capsys.readouterr()
    trace = load_trace(out_path)
    assert len(trace) == 101
    assert trace.displacement[0] == 0.0
    assert np.max(trace.displacement) > 0.0


def test_cli_simulate_rejects_a_bad_mass(tmp_path, capsys):
    model_path = str(tmp_path / "model.json")
    save_artifact(model_path, design_to_fdvv(ButtonDesignParams(3.0, 0.5, 2.0, 0.4, 0.3, 0.01)))
    profile_path = str(tmp_path / "profile.csv")
    with open(profile_path, "w") as handle:
        handle.write("force_n\n3.0\n3.0\n")
    for mass in ("0", "-0.005"):
        assert main([
            "simulate", "--model", model_path, "--profile", profile_path,
            "--out", str(tmp_path / "sim.csv"), "--mass-kg", mass,
        ]) == 2
        assert "mass_kg" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "sim.csv")


def test_cli_simulate_rejects_a_bad_profile_row(tmp_path, capsys):
    model_path = str(tmp_path / "model.json")
    save_artifact(model_path, design_to_fdvv(ButtonDesignParams(3.0, 0.5, 2.0, 0.4, 0.3, 0.01)))
    profile_path = str(tmp_path / "profile.csv")
    out_path = str(tmp_path / "sim.csv")
    for row, cells in (
        ("1.0,junk", "['1.0', 'junk']"),
        ("1.0,2.0", "['1.0', '2.0']"),
        ("junk", "['junk']"),
        ("nan", "['nan']"),
        ("inf", "['inf']"),
        ("-inf", "['-inf']"),
        ("", "[]"),
    ):
        with open(profile_path, "w") as handle:
            handle.write(f"force_n\n3.0\n{row}\n3.0\n")
        assert main(["simulate", "--model", model_path, "--profile", profile_path, "--out", out_path]) == 2
        err = capsys.readouterr().err
        assert f"{profile_path}: row 3: expected one finite force value, found {cells}" in err, row
    assert not os.path.exists(out_path)


def test_cli_report_exports_front(tmp_path, capsys):
    cfg = config_file(tmp_path, SMALL_SCHAFFER)
    out_dir = str(tmp_path / "opt")
    assert main(["optimize", "--config", cfg, "--out-dir", out_dir]) == 0
    report_dir = str(tmp_path / "report")
    assert main([
        "report", "--state", os.path.join(out_dir, "run_state.json"),
        "--out-dir", report_dir,
    ]) == 0
    capsys.readouterr()
    with open(os.path.join(report_dir, "front.csv")) as handle:
        header = handle.readline().strip().split(",")
    assert header == ["x0", "f1", "f2", "record_id"]
    with open(os.path.join(out_dir, "front.csv"), "rb") as fa, open(
        os.path.join(report_dir, "front.csv"), "rb"
    ) as fb:
        assert fa.read() == fb.read()


def test_cli_meta_train_reads_the_config_box_and_task_timing(tmp_path, capsys, monkeypatch):
    box = {"travel": (2.0, 2.5), "peak_force": (1.0, 1.5), "damping": (0.004, 0.006)}
    text = "[design_space]\n" + "".join(f"{k} = {lo}, {hi}\n" for k, (lo, hi) in box.items())
    text += "[user_model]\nhorizon = 120\nsensory_delay = 20\ndwell_limit = 60\n"
    config = parse_config(text)
    seen = []
    engine = policy.rollouts

    def recording(params, tasks, models, episode_seeds, observe=True):
        trajectories = engine(params, tasks, models, episode_seeds, observe)
        seen.extend(zip(tasks, trajectories))
        return trajectories

    monkeypatch.setattr(policy, "rollouts", recording)
    out = str(tmp_path / "policy.json")
    assert main(["meta-train", "--config", config_file(tmp_path, text), "--iterations", "2", "--out", out]) == 0
    capsys.readouterr()
    assert len(seen) == 2 * 8 * config.adapt_episodes
    for task, trajectory in seen:
        assert (task.horizon, task.sensory_delay, task.dwell_limit) == (120, 20, 60)
        assert len(trajectory) <= 120
        for key in DESIGN_FIELDS:
            lo, hi = config.bounds[key]
            assert lo <= getattr(task.design, key) <= hi, key
    assert len({task.design for task, _ in seen}) == 2 * 8


# A small simulated-button run; the tests append [user_model] keys.
SMALL_BUTTON = "[run]\nbudget = 1\ninit_count = 2\n\n[user_model]\nhorizon = 100\n"


def test_cli_optimize_runs_a_policy_file_as_loaded(tmp_path, capsys):
    # Untrained, the file holds the initialization a run of the same seed
    # starts from without one, so both runs evaluate the same bits.
    policy_file = str(tmp_path / "policy.json")
    cfg = config_file(tmp_path, SMALL_BUTTON + "adapt_episodes = 4\n")
    assert main(["meta-train", "--config", cfg, "--iterations", "0", "--out", policy_file]) == 0
    assert main(["optimize", "--config", cfg, "--out-dir", str(tmp_path / "fresh")]) == 0
    cfg = config_file(tmp_path, SMALL_BUTTON + f"adapt_episodes = 4\npolicy_path = {policy_file}\n")
    assert main(["optimize", "--config", cfg, "--out-dir", str(tmp_path / "loaded")]) == 0
    capsys.readouterr()
    for name in ("evaluations.jsonl", "front.csv"):
        assert (tmp_path / "loaded" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name


@pytest.mark.parametrize("key, value, trained", [("inner_lr", "0.1", "0.3"), ("adapt_episodes", "3", "8")])
def test_cli_optimize_refuses_a_policy_file_trained_for_another_recipe(tmp_path, capsys, key, value, trained):
    policy_file = str(tmp_path / "policy.json")
    cfg = config_file(tmp_path, SMALL_BUTTON)
    assert main(["meta-train", "--config", cfg, "--iterations", "0", "--out", policy_file]) == 0
    cfg = config_file(tmp_path, SMALL_BUTTON + f"{key} = {value}\npolicy_path = {policy_file}\n")
    capsys.readouterr()
    assert main(["optimize", "--config", cfg, "--out-dir", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"user_model.{key}: " in err and f"trained for {trained}, the config sets {value}" in err
    assert not (tmp_path / "run" / "evaluations.jsonl").exists()


def test_cli_meta_train_writes_policy(tmp_path, capsys):
    out = str(tmp_path / "policy.json")
    code = main(["meta-train", "--iterations", "0", "--out", out, "--seed", "3"])
    assert code == 0
    capsys.readouterr()
    meta = load_artifact(out)
    assert isinstance(meta, MetaPolicy)
    repeat = str(tmp_path / "policy2.json")
    assert main(["meta-train", "--iterations", "0", "--out", repeat, "--seed", "3"]) == 0
    capsys.readouterr()
    again = load_artifact(repeat)
    assert np.array_equal(again.init_params.vector, meta.init_params.vector)
