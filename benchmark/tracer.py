"""Spans around calls into buttonlab's public functions, recorded from outside.

The program is not edited: ``install`` replaces a function in every
buttonlab module namespace that refers to it with a wrapper that
records one span per call (name, start, end, parent span, run id) in
memory.  Self time is a span's duration minus the time its direct
children cover.  Functions bound as default arguments when the program
was defined (``model_factory=design_to_fdvv`` in ``loop``) cannot be
reached this way; their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory span recorder; one per worker process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = True
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, str]] = []
        self._ids = itertools.count(1)

    def inside(self, name: str) -> bool:
        return any(open_name == name for _, open_name in self._stack)

    def wrap(self, name: str, fn, count=None):
        """Wrapper that records a span per call and then runs ``count``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append((span_id, name))
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                self._stack.pop()
                self.spans.append((span_id, name, start, end, parent))
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def self_times(self, duration) -> tuple[dict[str, float], Counter]:
        """Per-name summed self time and call count.

        ``duration(start, end)`` turns a span's start and end into seconds.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += duration(start, end)
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span_id, name, start, end, _ in self.spans:
            self_s[name] += duration(start, end) - child_time[span_id]
            calls[name] += 1
        return dict(self_s), calls

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one object per span."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


def replace_everywhere(original, replacement) -> None:
    """Point every buttonlab module global that is ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "buttonlab" or module_name.startswith("buttonlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


# --- counters: work done per call, read from arguments and results ----------

def _count_rollout(tracer, args, kwargs, traj):
    tracer.counts["policy.rollout.env_steps"] += len(traj)
    tracer.counts["policy.rollout.successes"] += int(traj.success)


def _count_gradient(tracer, args, kwargs, grad):
    tracer.counts["policy.policy_gradient.pooled_steps"] += sum(len(t) for t in args[0])


def _count_press(tracer, args, kwargs, trace):
    tracer.counts["button.scripted_press_trace.steps"] += len(trace) - 1


def _count_fit(tracer, args, kwargs, model):
    tracer.counts["gp.gp_fit.jittered"] += int(model.jitter > 0.0)


def _count_predict(tracer, args, kwargs, result):
    rows = len(result[0])
    tracer.counts["gp.gp_predict_batch.points"] += rows
    if tracer.inside("acquisition.propose_next"):
        tracer.counts["acquisition.points_predicted"] += rows


def _count_propose(tracer, args, kwargs, choice):
    # Each scored candidate is predicted once per objective surrogate.
    tracer.counts["acquisition.objectives"] = len(args[0])


def _count_save(tracer, args, kwargs, result):
    tracer.counts["storage.save_artifact.bytes"] += os.path.getsize(args[0])


# (module, attribute, span name, counter).  ``ParetoArchive.inserted`` is
# a method and is replaced on its class.
TARGETS = (
    ("buttonlab.policy", "rollout", "policy.rollout", _count_rollout),
    ("buttonlab.policy", "adapt", "policy.adapt", None),
    ("buttonlab.policy", "policy_gradient", "policy.policy_gradient", _count_gradient),
    ("buttonlab.button", "design_to_fdvv", "button.design_to_fdvv", None),
    ("buttonlab.button", "scripted_press_trace", "button.scripted_press_trace", _count_press),
    ("buttonlab.gp", "optimize_hyperparams", "gp.optimize_hyperparams", None),
    ("buttonlab.gp", "gp_fit", "gp.gp_fit", _count_fit),
    ("buttonlab.gp", "gp_predict_batch", "gp.gp_predict_batch", _count_predict),
    ("buttonlab.acquisition", "propose_next", "acquisition.propose_next", _count_propose),
    ("buttonlab.acquisition", "scan_candidates", "acquisition.scan_candidates", None),
    ("buttonlab.pareto", "ParetoArchive.inserted", "pareto.inserted", None),
    ("buttonlab.pareto", "hypervolume", "pareto.hypervolume", None),
    ("buttonlab.loop", "initial_state", "loop.initial_state", None),
    ("buttonlab.loop", "cid_step", "loop.cid_step", None),
    ("buttonlab.storage", "save_artifact", "storage.save_artifact", _count_save),
    ("buttonlab.storage", "export_front", "storage.export_front", None),
    ("buttonlab.storage", "save_trace", "storage.save_trace", None),
    ("buttonlab.storage", "load_trace", "storage.load_trace", None),
    ("buttonlab.capture", "low_pass_filter", "capture.low_pass_filter", None),
    ("buttonlab.capture", "fit_fdvv", "capture.fit_fdvv", None),
    ("buttonlab.capture", "compensate_drive", "capture.compensate_drive", None),
    ("buttonlab.bspline", "fit_bspline_bic", "bspline.fit_bspline_bic", None),
    ("buttonlab.config", "parse_config", "config.parse_config", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every target, and every provider's ``evaluate`` as ``loop.evaluate``.

    ``loop.evaluate`` includes rendering the design (``design_to_fdvv``
    is bound as a default argument inside ``loop``) and the user model's
    adaptation and rollouts, which appear as child spans.
    """
    for module_name, attr, span_name, count in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.partition(".")
        if method:
            owner = getattr(module, owner_name)
            original = getattr(owner, method)
            setattr(owner, method, tracer.wrap(span_name, original, count))
        else:
            original = getattr(module, attr)
            replace_everywhere(original, tracer.wrap(span_name, original, count))

    loop = importlib.import_module("buttonlab.loop")
    make_provider = loop.make_provider

    def traced_make_provider(*args, **kwargs):
        return traced_provider(tracer, make_provider(*args, **kwargs))

    replace_everywhere(make_provider, traced_make_provider)


def traced_provider(tracer: Tracer, provider):
    """The same provider with its ``evaluate`` recorded as ``loop.evaluate``."""
    import dataclasses

    return dataclasses.replace(provider, evaluate=tracer.wrap("loop.evaluate", provider.evaluate))


def layer_metrics(tracer: Tracer, duration) -> dict[str, float]:
    """Per-layer numbers named in BENCHMARK.json, from the recorded spans.

    ``duration`` is passed to ``Tracer.self_times``.
    """
    self_s, calls = tracer.self_times(duration)
    counts = tracer.counts
    out: dict[str, float] = {}

    def timed(name: str, with_calls: bool = True):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        if with_calls:
            out[f"{name}.calls"] = calls.get(name, 0)

    def rate(numerator: float, seconds: float) -> float:
        return numerator / seconds if seconds > 0 else 0.0

    timed("policy.rollout")
    steps = counts["policy.rollout.env_steps"]
    out["policy.rollout.env_steps"] = steps
    out["policy.rollout.env_steps_per_s"] = rate(steps, self_s.get("policy.rollout", 0.0))
    n_rollouts = calls.get("policy.rollout", 0)
    out["policy.rollout.success_ratio"] = (
        counts["policy.rollout.successes"] / n_rollouts if n_rollouts else 0.0
    )
    timed("policy.adapt")
    timed("policy.policy_gradient")
    out["policy.policy_gradient.pooled_steps"] = counts["policy.policy_gradient.pooled_steps"]

    timed("button.design_to_fdvv")
    press_steps = counts["button.scripted_press_trace.steps"]
    out["button.scripted_press_trace.calls"] = calls.get("button.scripted_press_trace", 0)
    out["button.scripted_press_trace.steps"] = press_steps
    out["button.scripted_press_trace.steps_per_s"] = rate(
        press_steps, self_s.get("button.scripted_press_trace", 0.0)
    )

    timed("gp.optimize_hyperparams")
    timed("gp.gp_fit")
    n_fits = calls.get("gp.gp_fit", 0)
    out["gp.gp_fit.jitter_ratio"] = counts["gp.gp_fit.jittered"] / n_fits if n_fits else 0.0
    timed("gp.gp_predict_batch")
    points = counts["gp.gp_predict_batch.points"]
    out["gp.gp_predict_batch.points"] = points
    out["gp.gp_predict_batch.points_per_s"] = rate(points, self_s.get("gp.gp_predict_batch", 0.0))

    timed("acquisition.propose_next")
    timed("acquisition.scan_candidates", with_calls=False)
    objectives = counts["acquisition.objectives"]
    out["acquisition.candidates_scored"] = (
        counts["acquisition.points_predicted"] // objectives if objectives else 0
    )

    timed("pareto.inserted")
    timed("pareto.hypervolume")

    timed("loop.initial_state", with_calls=False)
    timed("loop.cid_step", with_calls=False)
    timed("loop.evaluate", with_calls=False)

    timed("storage.save_artifact")
    out["storage.save_artifact.bytes"] = counts["storage.save_artifact.bytes"]
    timed("storage.export_front", with_calls=False)
    timed("storage.save_trace", with_calls=False)
    timed("storage.load_trace", with_calls=False)

    timed("capture.low_pass_filter", with_calls=False)
    timed("capture.fit_fdvv")
    timed("bspline.fit_bspline_bic")
    timed("capture.compensate_drive", with_calls=False)

    timed("config.parse_config", with_calls=False)
    return out
