"""Benchmark of buttonlab's closed design loop, end to end and per layer.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  Workloads run in fresh worker
processes (benchmark/worker.py), one job after another: one client, no
concurrency.  ``--trace 0`` runs as many jobs as fill ``--seconds`` on
the reference machine, on seeds derived from ``--seed``, in one worker,
plus two workers that stop once ready, for set-up time; it reports the
end-to-end metrics BENCHMARK.json names, as medians over the jobs.
``--trace 1`` runs one job at ``--seed`` untraced and twice traced,
each in its own worker, and reports the per-layer metrics, the tracing
overhead, and whether quality numbers and exact counts repeated bit for
bit.
``--workload all`` does both for every workload.  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes a result file with the environment block under benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("button_design", "zdt1_bench", "tradeoff3", "meta_train", "press_replay")
# Quality numbers per workload, with the direction that is better.
QUALITY = {
    "button_design": ("hv_final", "higher"),
    "zdt1_bench": ("hv_ratio", "higher"),
    "tradeoff3": ("hv_final", "higher"),
    "meta_train": ("post_adapt_return", "higher"),
    "press_replay": ("refit_error", "lower"),
}
MIN_SETUP_SAMPLES = 3
# A run makes one job per this many seconds of ``--seconds``.  A job
# takes 2-3 s on the reference machine (2 cores, see benchmark/NOTES.md);
# with its share of the set-up workers and output checks, about 4 s.
# Workloads whose job time varies more from seed to seed get more jobs,
# so that the median over a run's jobs is steady, and press_replay,
# which varies least, fewer (benchmark/NOTES.md, "Steadiness").
NOMINAL_JOB_S = {
    "button_design": 2.6,
    "zdt1_bench": 3.1,
    "tradeoff3": 3.1,
    "meta_train": 4.0,
    "press_replay": 5.3,
}
# A run must end within 180 s; no worker may outlive this budget.
RUN_BUDGET_S = 170.0
ENV_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(Exception):
    pass


def job_seeds(seed: int, count: int) -> list[int]:
    """Job 0 runs the given seed; later jobs run seeds derived from it."""
    return [seed + 1_000_003 * j for j in range(count)]


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        **{name: os.environ.get(name, "unset") for name in ENV_THREAD_VARS},
    }


def run_worker(workload: str, seeds: list[int], size: str, trace: int, deadline: float,
               setup_only: bool = False) -> dict:
    """One worker process running a job per seed; its result dict, or WorkerFailed."""
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-s{seeds[0]}-t{trace}-{os.getpid()}-{time.monotonic_ns()}"
    workdir = os.path.join(OUT, "work", tag)
    os.makedirs(workdir)
    result_path = os.path.join(workdir, "result.json")
    log_path = os.path.join(workdir, "worker.log")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seeds", ",".join(map(str, seeds)), "--size", size,
        "--trace", str(trace), "--workdir", workdir, "--out", result_path,
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        with open(log_path, "w") as log:
            spawned = time.monotonic_ns()
            proc = subprocess.Popen(cmd + ["--spawned-at", str(spawned)], cwd=ROOT,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or not os.path.exists(result_path):
            with open(log_path) as log:
                tail = log.read()[-2000:]
            raise WorkerFailed(f"{workload} seeds {seeds} exited {proc.returncode}:\n{tail}")
        with open(result_path) as handle:
            result = json.load(handle)
        result["process_s"] = (time.monotonic_ns() - spawned) / 1e9
        spans = os.path.join(workdir, "spans.jsonl")
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(OUT, f"spans-{workload}-s{seeds[0]}.jsonl"))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that percentile.

    That is the eleventh largest value; with ten samples or fewer, the largest.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _failures(job: dict) -> int:
    return job["faults"] + sum(1 for _, ok, _ in job["checks"] if not ok)


def _failed_checks(jobs: list[dict]):
    return [c for job in jobs for c in job["checks"] if not c[1]] or "all passed"


def job_count(workload: str, seconds: float) -> int:
    """Jobs of ``workload`` that fill ``seconds`` on the reference machine.

    The count depends only on ``seconds`` and the workload, never on how fast this run
    goes, so two versions of the program always measure the same seeds.
    """
    return max(1, int(seconds // NOMINAL_JOB_S[workload]))


def measure(workload: str, seed: int, seconds: float, size: str) -> dict:
    """Untraced jobs on seeds derived from ``seed``; end-to-end metrics."""
    deadline = time.monotonic() + RUN_BUDGET_S
    seeds = job_seeds(seed, job_count(workload, seconds))
    summary = {"workload": workload, "seed": seed, "size": size, "trace": 0, "errors": []}
    try:
        result = run_worker(workload, seeds, size, 0, deadline)
        setups = [result]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(run_worker(workload, seeds, size, 0, deadline, setup_only=True))
    except WorkerFailed as exc:
        # A crashed run fails every operation it attempted; at least one.
        summary.update(correct=False, attempted=len(seeds), failed=len(seeds), errors=[str(exc)])
        return summary

    jobs = result["jobs"]
    steps = [s for job in jobs for s in job["steps_s"]]
    tail, pct = tail_percentile(steps)
    raw = {
        "setup_s": statistics.median(r["raw_setup_s"] for r in setups),
        "wall_s": statistics.median(job["raw_wall_s"] for job in jobs),
    }
    summary.update({
        "correct": all(ok for job in jobs for _, ok, _ in job["checks"]),
        "attempted": sum(job["attempted"] for job in jobs),
        "failed": sum(_failures(job) for job in jobs),
        "metrics": {
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "wall_s": statistics.median(job["wall_s"] for job in jobs),
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "raw_s": raw,
        "speed": [r["speed"] for r in setups],
        "step_mean_s": statistics.fmean(steps),
        "step_p50_s": statistics.median(steps),
        "step_tail_s": tail,
        "step_tail_percentile": pct,
        "step_samples": len(steps),
        "setup_samples": len(setups),
        "quality": jobs[0]["quality"],
        "job_seeds": seeds,
        "job_walls_s": [job["wall_s"] for job in jobs],
        "job_raw_walls_s": [job["raw_wall_s"] for job in jobs],
        "job_speed_factors": [job["speed_factor"] for job in jobs],
        "process_s": result["process_s"],
        "checks": _failed_checks(jobs),
        "libraries": result["libraries"],
    })
    return summary


def trace_layers(workload: str, seed: int, size: str) -> dict:
    """Per-layer metrics from a traced job, its overhead, and the determinism guard."""
    deadline = time.monotonic() + RUN_BUDGET_S
    summary = {"workload": workload, "seed": seed, "size": size, "trace": 1, "errors": []}
    try:
        plain = run_worker(workload, [seed], size, 0, deadline)
        traced = [run_worker(workload, [seed], size, 1, deadline) for _ in range(2)]
    except WorkerFailed as exc:
        summary.update(correct=False, attempted=1, failed=1, errors=[str(exc)])
        return summary
    jobs = [r["jobs"][0] for r in [plain] + traced]
    same_quality = all(job["quality"] == jobs[0]["quality"] for job in jobs)
    same_counts = traced[0]["counts"] == traced[1]["counts"]
    layers = dict(traced[0]["layers"])
    # Both walls in reference-machine seconds, each scaled by its own worker's speed samples.
    walls = [job["wall_s"] for job in jobs]
    layers["trace.overhead_s"] = walls[1] - walls[0]
    summary.update({
        "correct": all(ok for job in jobs for _, ok, _ in job["checks"]) and same_quality and same_counts,
        "attempted": sum(job["attempted"] for job in jobs),
        "failed": sum(_failures(job) for job in jobs) + (not same_quality) + (not same_counts),
        "metrics": layers,
        "untraced_wall_s": walls[0],
        "traced_wall_s": walls[1],
        "spans": traced[0]["spans"],
        "quality": jobs[0]["quality"],
        "determinism": {
            "quality_repeats": same_quality,
            "counts_repeat": same_counts,
            "counts": traced[0]["counts"],
        },
        "checks": _failed_checks(jobs),
        "libraries": plain["libraries"],
    })
    return summary


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(summary: dict, spec: dict) -> dict:
    """Print one workload's metrics by name, unit and direction; return the JSON metrics."""
    kind = "end_to_end" if summary["trace"] == 0 else "per_layer"
    print(f"== {summary['workload']} seed {summary['seed']} ({kind}, size {summary['size']})")
    for error in summary["errors"]:
        print(f"   error: {error}")
    out = {}
    if "metrics" not in summary:
        return out
    for metric in spec[kind]:
        value = summary["metrics"][metric["name"]]
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"   {metric['name']} = {_fmt(value)} {metric['unit']} ({metric['better']} is better)")
    name, better = QUALITY[summary["workload"]]
    if name in summary["quality"]:
        print(f"   quality {name} = {summary['quality'][name]!r} ({better} is better, exact per seed)")
    if kind == "end_to_end":
        factors = ", ".join(_fmt(f) for f in summary["job_speed_factors"])
        print(f"   as measured, before scaling by machine speed (per job: {factors}): "
              f"setup_s = {_fmt(summary['raw_s']['setup_s'])} s, wall_s = {_fmt(summary['raw_s']['wall_s'])} s")
        print(f"   step_mean_s = {_fmt(summary['step_mean_s'])} s, step_p50_s = {_fmt(summary['step_p50_s'])} s, "
              f"step_tail_s = {_fmt(summary['step_tail_s'])} s (p{summary['step_tail_percentile']:.1f}) "
              f"over {summary['step_samples']} steps; "
              f"{len(summary['job_seeds'])} jobs, {summary['setup_samples']} set-up samples")
    else:
        print(f"   tracing overhead {_fmt(summary['metrics']['trace.overhead_s'])} s "
              f"(traced wall {_fmt(summary['traced_wall_s'])} s, untraced {_fmt(summary['untraced_wall_s'])} s, "
              f"{summary['spans']} spans); determinism {summary['determinism']}; "
              "loop.evaluate.self_s includes rendering the design")
    failed_ratio = summary["failed"] / summary["attempted"] if summary["attempted"] else 1.0
    print(f"   fail_ratio = {failed_ratio:.6g} ({summary['failed']} of {summary['attempted']} operations); "
          f"checks {summary['checks']}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small runs tiny workloads for the benchmark's own tests")
    args = parser.parse_args(argv)
    # Stopped from outside, still stop and wait for the running worker
    # (run_worker's finally) before exiting.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "buttonlab", "__init__.py")):
        print(f"benchmark: no buttonlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]
    summaries, metrics = [], {}
    for workload, trace in plan:
        if trace:
            summary = trace_layers(workload, args.seed, args.size)
        else:
            summary = measure(workload, args.seed, args.seconds, args.size)
        summaries.append(summary)
        printed = report(summary, spec)
        if args.workload == "all":
            printed = {f"{workload}.{k}": v for k, v in printed.items()}
        metrics.update(printed)
    if summaries and "libraries" in summaries[0]:
        env.update(summaries[0]["libraries"])
        print("libraries: " + ", ".join(f"{k}={v}" for k, v in summaries[0]["libraries"].items()))

    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{args.size}.json"
    with open(os.path.join(OUT, name), "w") as handle:
        json.dump({"environment": env, "seconds": args.seconds, "runs": summaries}, handle, indent=1)
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
