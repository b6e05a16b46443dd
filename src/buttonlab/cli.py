"""Command-line surface: fit, simulate, meta-train, optimize, bench, report.

Exit codes: 0 success, 1 usage error, 2 data or validation error.
CID_LOG_LEVEL (error, info, debug) controls diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import os
import sys

import numpy as np

from .button import DEFAULT_DT_S, DEFAULT_MASS_KG, scripted_press_trace
from .capture import fit_fdvv
from .config import CidConfig, parse_config
from .errors import FormatError, NumericalError, StateError
from .loop import RunState, run
from .pareto import hypervolume
from .policy import box_task_sampler, meta_train
from .storage import export_evaluations, export_front, load_artifact, load_trace, save_artifact, save_trace
from .synthetic import PROBLEMS, get_problem

_log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here
    # reserves 2 for data errors, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="buttonlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fit", help="fit a button model from recorded press traces")
    p.add_argument("--group", action="append", required=True, metavar="CSV[,CSV...]",
                   help="trace files for one press speed; repeat per speed")
    p.add_argument("--out", required=True, help="output model file (JSON)")

    p = sub.add_parser("simulate", help="run a scripted force profile through a model")
    p.add_argument("--model", required=True, help="model file from `fit`")
    p.add_argument("--profile", required=True, help="CSV with a force_n column, one row per step")
    p.add_argument("--out", required=True, help="output trace CSV")
    p.add_argument("--dt", type=float, default=DEFAULT_DT_S)
    p.add_argument("--mass-kg", type=float, default=DEFAULT_MASS_KG)

    p = sub.add_parser("meta-train", help="meta-train the simulated-user policy")
    p.add_argument("--config", help="config file; defaults apply when omitted")
    p.add_argument("--iterations", type=int, default=300)
    p.add_argument("--out", required=True, help="output policy file (JSON)")
    p.add_argument("--seed", type=int, help="override the master seed")

    p = sub.add_parser("optimize", help="run the closed design loop")
    p.add_argument("--config", help="config file; defaults apply when omitted")
    p.add_argument("--out-dir", required=True, help="directory for state and exports")
    p.add_argument("--resume", help="run-state file to continue from")
    p.add_argument("--seed", type=int, help="override the master seed")

    p = sub.add_parser("bench", help="benchmark the optimizer on a synthetic problem")
    p.add_argument("--problem", required=True, choices=tuple(PROBLEMS))
    p.add_argument("--budget", type=int, default=40)
    p.add_argument("--init-count", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("report", help="export the front and convergence curve of a run state")
    p.add_argument("--state", required=True, help="run-state file")
    p.add_argument("--out-dir", required=True)
    return parser


def _load_config(path: str | None, seed: int | None) -> CidConfig:
    if path is None:
        config = parse_config("")
    else:
        with open(path) as handle:
            config = parse_config(handle.read())
    if seed is not None:
        config = dataclasses.replace(config, master_seed=seed)
    return config


def _load_profile(path: str) -> np.ndarray:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != ["force_n"]:
        found = ",".join(rows[0]) if rows else "<empty file>"
        raise FormatError(f"{path}: expected header force_n, found {found}")
    values = []
    for i, row in enumerate(rows[1:], start=2):
        try:
            [value] = [float(cell) for cell in row]
        except ValueError:
            value = np.nan
        if not np.isfinite(value):
            raise FormatError(f"{path}: row {i}: expected one finite force value, found {row}")
        values.append(value)
    if not values:
        raise FormatError(f"{path}: profile has no samples")
    return np.array(values)


def _cmd_fit(args) -> int:
    groups = [[load_trace(p) for p in spec.split(",") if p] for spec in args.group]
    model = fit_fdvv(groups)
    save_artifact(args.out, model)
    print(f"wrote {args.out}: {len(model.velocity_levels)} speed levels, "
          f"travel {model.travel:.3g} mm, activation {model.activation_disp:.3g} mm")
    return 0


def _cmd_simulate(args) -> int:
    model = load_artifact(args.model)
    profile = _load_profile(args.profile)
    trace = scripted_press_trace(model, profile, dt=args.dt, mass_kg=args.mass_kg)
    save_trace(args.out, trace)
    print(f"wrote {args.out}: {len(trace)} samples at {trace.sample_rate:.6g} Hz")
    return 0


def _cmd_meta_train(args) -> int:
    config = _load_config(args.config, args.seed)
    meta = meta_train(
        box_task_sampler(config.bounds),
        args.iterations,
        seed=config.master_seed,
        inner_lr=config.inner_lr,
        adapt_episodes=config.adapt_episodes,
        log_every=max(1, args.iterations // 20) if args.iterations else 0,
        horizon=config.horizon,
        sensory_delay=config.sensory_delay,
        dwell_limit=config.dwell_limit,
    )
    save_artifact(args.out, meta)
    print(f"wrote {args.out}: {args.iterations} meta-iterations, seed {config.master_seed}")
    return 0


def _cmd_optimize(args) -> int:
    config = _load_config(args.config, args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    state_path = os.path.join(args.out_dir, "run_state.json")
    log_path = os.path.join(args.out_dir, "evaluations.jsonl")

    resume = None
    if args.resume:
        resume = load_artifact(args.resume)
        if not isinstance(resume, RunState):
            raise FormatError(f"{args.resume} is not a run-state artifact")

    def persist(state):
        # The log first: a crash between the two writes leaves a log one
        # step ahead of the state, which the resume rewrites.
        export_evaluations(state, log_path)
        save_artifact(state_path, state)

    state, archive = run(config, resume_from=resume, persist=persist)
    export_front(state, os.path.join(args.out_dir, "front.csv"),
                 os.path.join(args.out_dir, "hv_curve.csv"))
    print(f"done: {len(state.records)} evaluations, {len(archive)} front points, "
          f"state in {state_path}")
    return 0


def _cmd_bench(args) -> int:
    problem = get_problem(args.problem)
    config = CidConfig(
        provider=args.problem,
        budget=args.budget,
        init_count=args.init_count,
        master_seed=args.seed,
    )
    state, archive = run(config)
    found = hypervolume(archive.objective_matrix, state.reference).value
    ideal = hypervolume(problem.true_front(2048), state.reference).value
    ratio = found / ideal if ideal > 0 else 0.0
    print(f"{args.problem} budget={args.budget} seed={args.seed} hv_ratio={ratio:.4f}")
    return 0


def _cmd_report(args) -> int:
    state = load_artifact(args.state)
    if not isinstance(state, RunState):
        raise FormatError(f"{args.state} is not a run-state artifact")
    os.makedirs(args.out_dir, exist_ok=True)
    front = os.path.join(args.out_dir, "front.csv")
    curve = os.path.join(args.out_dir, "hv_curve.csv")
    export_front(state, front, curve)
    print(f"wrote {front} and {curve}")
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "simulate": _cmd_simulate,
    "meta-train": _cmd_meta_train,
    "optimize": _cmd_optimize,
    "bench": _cmd_bench,
    "report": _cmd_report,
}

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def main(argv=None) -> int:
    level = os.environ.get("CID_LOG_LEVEL", "error").lower()
    logging.basicConfig(stream=sys.stderr, level=_LOG_LEVELS.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (FormatError, StateError, NumericalError, ValueError, OSError) as exc:
        print(f"buttonlab {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
