"""Jobs of one workload, one after another, in a fresh process.

    python3 benchmark/worker.py --workload NAME --seeds N[,N...] --size full|small
        --trace 0|1 --spawned-at NS --workdir DIR --out RESULT.json [--setup-only]

Runs one job per seed.  ``--spawned-at`` is the parent's
``time.monotonic_ns()`` just before it started this process; set-up
time runs from there until the first job is ready to evaluate its first
design.  From its first line to its last the worker samples the
machine's speed (speed.py); every time it reports is both as measured
and in reference-machine seconds.  A traced worker runs exactly one
job.  The result is a JSON file.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import sys
import time

from speed import SpeedSampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Counts that must repeat exactly at one seed.
EXACT_COUNTS = ("policy.rollout.env_steps", "gp.gp_fit.calls", "acquisition.candidates_scored")


class _FaultCount(logging.Handler):
    """Counts evaluations where a fault put worst-case objectives in place."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.faults = 0

    def emit(self, record):
        if record.getMessage().startswith("evaluation fault"):
            self.faults += 1


def _library_versions() -> dict:
    import numpy as np
    import scipy

    info = {"numpy": np.__version__, "scipy": scipy.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=lambda text: [int(v) for v in text.split(",")])
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop as soon as the first job is ready")
    args = parser.parse_args(argv)
    if args.trace and len(args.seeds) != 1:
        parser.error("a traced worker runs one job")
    sampler = SpeedSampler()
    sampler.start()
    try:
        return _run(args, sampler)
    finally:
        sampler.stop()


def _run(args, sampler: SpeedSampler) -> int:
    sys.path.insert(0, SRC)
    # numpy is already loaded: the sampler's probes use it.
    started = time.monotonic()
    import buttonlab.cli  # noqa: F401  (the import users wait for)

    imported = time.monotonic()
    if not os.path.abspath(sys.modules["buttonlab"].__file__).startswith(SRC + os.sep):
        raise SystemExit(f"buttonlab imported from outside {SRC}")

    from tracer import Tracer, install, layer_metrics
    from workloads import SIZES, WORKLOADS, Context, SetupDone

    tracer = None
    if args.trace:
        tracer = Tracer(run_id=f"{args.workload}-{args.seeds[0]}-{os.getpid()}")
        install(tracer)
    loop_log = logging.getLogger("buttonlab.loop")
    loop_log.setLevel(logging.WARNING)

    spawned = args.spawned_at / 1e9
    jobs = []
    for index, seed in enumerate(args.seeds):
        job_dir = os.path.join(args.workdir, f"job{index}")
        os.makedirs(job_dir)
        ctx = Context(seed, SIZES[args.workload][args.size], job_dir, tracer,
                      setup_only=args.setup_only)
        faults = _FaultCount()
        loop_log.addHandler(faults)
        try:
            WORKLOADS[args.workload](ctx)
        except SetupDone:
            with open(args.out, "w") as handle:
                json.dump({"setup_s": sampler.scaled(spawned, ctx.ready), "raw_setup_s": ctx.ready - spawned,
                           "speed": sampler.summary()}, handle)
            return 0
        finally:
            loop_log.removeHandler(faults)
        if index == 0:
            setup_s, raw_setup_s = sampler.scaled(spawned, ctx.ready), ctx.ready - spawned
        factor = sampler.factor(ctx.ready, ctx.end)
        jobs.append({
            "seed": seed,
            "wall_s": sampler.scaled(ctx.ready, ctx.end, factor),
            "raw_wall_s": ctx.end - ctx.ready,
            "speed_factor": factor,
            "steps_s": [sampler.scaled(a, b, factor) for a, b in zip(ctx.boundaries, ctx.boundaries[1:])],
            "attempted": ctx.attempted,
            "faults": faults.faults,
            "quality": ctx.quality,
            "checks": ctx.checks,
        })

    result = {
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "jobs": jobs,
        "speed": sampler.summary(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": sampler.scaled(started, imported),
        "libraries": _library_versions(),
    }
    if tracer is not None:
        # Self times in reference-machine seconds, like every other time.
        layers = layer_metrics(tracer, lambda a, b: sampler.scaled(a, b, factor))
        layers["cli.import_s"] = result["import_s"]
        layers["loop.faults"] = jobs[0]["faults"]
        layers["pareto.archive_size"] = ctx.archive_size
        result["layers"] = layers
        result["counts"] = {name: layers[name] for name in EXACT_COUNTS}
        tracer.write(os.path.join(args.workdir, "spans.jsonl"))
        result["spans"] = len(tracer.spans)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
