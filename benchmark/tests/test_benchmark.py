"""The benchmark's own tests: small workloads, metric names, output checks.

    python3 -m pytest benchmark/tests -q
"""

import csv
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmark", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "end_to_end" if trace == 0 else "per_layer"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert f"   {name} = " in proc.stdout
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _run("--workload", "press_replay", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(40))) == (29, 75.0)
    assert run.tail_percentile(list(range(100))) == (89, 90.0)
    assert run.tail_percentile(list(range(10))) == (9, 100.0)


def test_speed_scaling_takes_probe_time_out_and_scales_by_probe_speed():
    sampler = speed.SpeedSampler()
    ref = speed.REFERENCE_PROBE_S
    # Inside [0, 10]: each kind's probes ran twice as long as on the
    # reference machine, so the machine ran at half speed.
    for t, name in [(1.0, "python"), (2.0, "numpy"), (3.0, "python"), (4.0, "numpy")]:
        sampler.kinds[name].add(t, 2 * ref[name])
    probe_s = 4 * ref["python"] + 4 * ref["numpy"]
    assert sampler.factor(0.0, 10.0) == pytest.approx(0.5)
    assert sampler.scaled(0.0, 10.0) == pytest.approx((10.0 - probe_s) * 0.5)
    # A window's factor can be applied to a shorter interval inside it.
    assert sampler.scaled(2.5, 3.5, 0.5) == pytest.approx((1.0 - 2 * ref["python"]) * 0.5)
    # An interval without probes of every kind is left unscaled.
    assert sampler.factor(2.5, 3.5) == 1.0


def test_reference_hypervolume_on_known_fronts():
    ref2 = np.array([1.0, 1.0])
    assert workloads.reference_hypervolume(np.array([[0.5, 0.5]]), ref2) == 0.25
    assert workloads.reference_hypervolume(np.array([[0.0, 0.5], [0.5, 0.0]]), ref2) == 0.75
    ref3 = np.array([1.0, 1.0, 1.0])
    two = np.array([[0.0, 0.0, 0.5], [0.5, 0.5, 0.0]])
    assert workloads.reference_hypervolume(two, ref3) == pytest.approx(0.5 + 0.125)


def test_nondominance_check_rejects_dominated_or_nonfinite_rows():
    assert workloads.nondominated_and_finite(np.array([[0.0, 1.0], [1.0, 0.0]]))[0]
    assert not workloads.nondominated_and_finite(np.array([[0.0, 1.0], [1.0, 1.0]]))[0]
    assert not workloads.nondominated_and_finite(np.array([[0.0, np.nan], [1.0, 0.0]]))[0]


def _front_state():
    from buttonlab.pareto import ParetoArchive, ReferencePoint

    archive = ParetoArchive(())
    for i, objs in enumerate([[0.2, 0.8, 0.5], [0.8, 0.2, 0.5], [0.5, 0.5, 0.1]]):
        archive = archive.inserted(np.zeros(2), np.array(objs), i)
    return SimpleNamespace(archive=archive, reference=ReferencePoint(np.ones(3)))


def _write_front(path, state, objectives):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x0", "x1", "f1", "f2", "f3", "record_id"])
        for entry, objs in zip(state.archive.entries, objectives):
            writer.writerow(["0", "0"] + [f"{v:.9g}" for v in objs] + [entry.record_id])


def test_front_check_passes_on_the_archive_and_fails_when_corrupted(tmp_path):
    state = _front_state()
    objs = state.archive.objective_matrix
    hv = workloads.reference_hypervolume(objs, state.reference.values)
    path = str(tmp_path / "front.csv")

    _write_front(path, state, objs)
    assert all(ok for _, ok, _ in workloads.check_front_csv(path, state, hv))

    corrupted = objs.copy()
    corrupted[1, 0] -= 0.1
    _write_front(path, state, corrupted)
    failed = {name for name, ok, _ in workloads.check_front_csv(path, state, hv) if not ok}
    assert failed == {"front_rows", "front_hypervolume"}

    _write_front(path, state, objs[:2])
    assert not all(ok for _, ok, _ in workloads.check_front_csv(path, state, hv))


def test_corrupted_export_fails_a_workload_check(tmp_path, monkeypatch):
    from buttonlab import storage

    export = storage.export_front

    def corrupting_export(state, front_path, hv_path):
        export(state, front_path, hv_path)
        with open(front_path) as handle:
            rows = list(csv.reader(handle))
        rows[1][-2] = repr(float(rows[1][-2]) * 0.5)
        with open(front_path, "w", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)

    monkeypatch.setattr(storage, "export_front", corrupting_export)
    ctx = workloads.Context(0, workloads.SIZES["tradeoff3"]["small"], str(tmp_path))
    workloads.tradeoff3(ctx)
    failed = {name for name, ok, _ in ctx.checks if not ok}
    assert "front_rows" in failed
