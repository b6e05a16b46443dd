"""Config parsing, artifact and trace serialization, CLI round trips."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

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
    init_policy,
    initial_state,
    load_artifact,
    load_trace,
    parse_config,
    run,
    save_artifact,
    save_trace,
    serialize_config,
)
from buttonlab.cli import main
from buttonlab.loop import Provider

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


def test_config_rejects_unknown_names():
    with pytest.raises(FormatError):
        parse_config("[run]\nwarp_speed = 9\n")
    with pytest.raises(FormatError):
        parse_config("[warp]\nbudget = 3\n")
    with pytest.raises(FormatError):
        parse_config("[run]\nprovider = antigravity\n")
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


def test_config_objective_subset_parses():
    config = parse_config("[objectives]\nminimize = error_rate, effort\n")
    assert config.objectives == ("error_rate", "effort")


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


@pytest.mark.parametrize("tamper", [_add_kernel, _drop_last_kernel, _shorten_reference, _drop_record])
def test_malformed_runstate_is_a_format_error(tmp_path, capsys, tamper):
    path = str(tmp_path / "state.json")
    save_artifact(path, initial_state(parse_config(SMALL_SCHAFFER)))
    with open(path) as handle:
        payload = json.load(handle)
    tamper(payload)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    with pytest.raises(FormatError, match="run state") as raised:
        load_artifact(path)
    assert path in str(raised.value)
    assert main(["report", "--state", path, "--out-dir", str(tmp_path / "report")]) == 2
    err = capsys.readouterr().err
    assert "run state" in err and path in err


def test_save_artifact_rejects_unknown_types(tmp_path):
    with pytest.raises(TypeError):
        save_artifact(str(tmp_path / "x.json"), {"not": "supported"})


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
    from buttonlab import make_provider

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
    import buttonlab.cli as cli

    cfg = config_file(tmp_path, SMALL_SCHAFFER)
    full_dir = str(tmp_path / "full")
    assert main(["optimize", "--config", cfg, "--out-dir", full_dir]) == 0

    # The third run-state write dies: the log already holds the second
    # step, the state only the first.
    class Crash(Exception):
        pass

    save = cli.save_artifact
    writes = []

    def crashing_save(path, artifact):
        writes.append(path)
        if len(writes) == 3:
            raise Crash
        save(path, artifact)

    monkeypatch.setattr(cli, "save_artifact", crashing_save)
    crash_dir = str(tmp_path / "crashed")
    with pytest.raises(Crash):
        main(["optimize", "--config", cfg, "--out-dir", crash_dir])
    monkeypatch.setattr(cli, "save_artifact", save)
    state_path = os.path.join(crash_dir, "run_state.json")
    assert load_artifact(state_path).iteration == 1
    with open(os.path.join(crash_dir, "evaluations.jsonl")) as handle:
        assert len(handle.readlines()) == 5

    assert main(["optimize", "--config", cfg, "--out-dir", crash_dir, "--resume", state_path]) == 0
    capsys.readouterr()
    for name in ("front.csv", "hv_curve.csv", "run_state.json", "evaluations.jsonl"):
        with open(os.path.join(full_dir, name), "rb") as fa, open(
            os.path.join(crash_dir, name), "rb"
        ) as fb:
            assert fa.read() == fb.read(), name


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
