"""Artifact files: JSON for models and run state, CSV for bulk numbers.

Every writer goes through a temp file and an atomic rename, so a
crashed process never leaves a torn artifact behind.  Floats are
serialized with full round-trip precision in JSON; CSV exports use
fixed significant digits so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import os

import numpy as np

from .bspline import BSplineCurve
from .button import FdTrace, FdvvModel, VibrationSpec
from .capture import _median
from .config import config_fingerprint, parse_config, serialize_config
from .errors import FormatError
from .gp import KernelFamily, KernelSpec
from .loop import EpisodeSummary, EvaluationRecord, RunState, run_space, unit_designs
from .pareto import ReferencePoint
from .policy import MetaPolicy, PolicyParams

TRACE_HEADER = ("t_s", "disp_mm", "force_n", "vib")


def _atomic_write(path: str, text: str):
    # A new temporary file in the same directory, created with mode 0o666
    # (mkstemp's is 0o600), so that the umask sets the artifact's mode as
    # it would for a plain open().
    tmp = f"{os.path.abspath(path)}.{os.getpid()}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values, dtype=float).ravel()]


def _encode_fdvv(model: FdvvModel) -> dict:
    return {
        "velocity_levels": _floats(model.velocity_levels),
        "curves": [
            {
                "degree": int(c.degree),
                "knots": _floats(c.knots),
                "coefficients": _floats(c.coefficients),
            }
            for c in model.fd_curves
        ],
        "travel": float(model.travel),
        "activation_disp": float(model.activation_disp),
        "release_disp": float(model.release_disp),
        "vibration": {
            "frequency": float(model.vibration.frequency),
            "amplitude": float(model.vibration.amplitude),
            "decay": float(model.vibration.decay),
        },
        "max_force": float(model.max_force),
        "damping": float(model.damping),
    }


def _decode_fdvv(doc: dict) -> FdvvModel:
    vib = doc["vibration"]
    return FdvvModel(
        velocity_levels=tuple(doc["velocity_levels"]),
        fd_curves=tuple(
            BSplineCurve(int(c["degree"]), np.array(c["knots"]), np.array(c["coefficients"]))
            for c in doc["curves"]
        ),
        travel=doc["travel"],
        activation_disp=doc["activation_disp"],
        release_disp=doc["release_disp"],
        vibration=VibrationSpec(vib["frequency"], vib["amplitude"], vib["decay"]),
        max_force=doc["max_force"],
        damping=doc["damping"],
    )


def _encode_policy(meta: MetaPolicy) -> dict:
    return {
        "layer_sizes": list(meta.init_params.layer_sizes),
        "vector": _floats(meta.init_params.vector),
        "inner_lr": float(meta.inner_lr),
        "adapt_episodes": int(meta.adapt_episodes),
    }


def _decode_policy(doc: dict) -> MetaPolicy:
    params = PolicyParams(tuple(doc["layer_sizes"]), np.array(doc["vector"], dtype=float))
    return MetaPolicy(params, doc["inner_lr"], doc["adapt_episodes"])


def _encode_runstate(state: RunState) -> dict:
    return {
        "fingerprint": config_fingerprint(state.config),
        "config": serialize_config(state.config),
        "reference": _floats(state.reference.values),
        "kernels": [
            {
                "signal_variance": float(k.signal_variance),
                "lengthscales": _floats(k.lengthscales),
                "noise_variance": float(k.noise_variance),
                "family": k.family.value,
            }
            for k in state.kernels
        ],
        "records": [
            {
                "design": _floats(r.design),
                "objectives": _floats(r.objectives),
                "seeds": [int(s) for s in r.seeds],
                "episodes": [
                    {
                        "return": float(e.return_),
                        "success": bool(e.success),
                        "time_to_activation_s": e.time_to_activation_s,
                    }
                    for e in r.episodes
                ],
            }
            for r in state.records
        ],
    }


# Each stored episode field, in EpisodeSummary's order, with the JSON
# types it may hold; json reads true and false as bool, which is no number.
_EPISODE_FIELDS = (
    ("return", (int, float)),
    ("success", (bool,)),
    ("time_to_activation_s", (int, float, type(None))),
)


def _decode_runstate(doc: dict) -> RunState:
    config = parse_config(doc["config"])
    if config_fingerprint(config) != doc["fingerprint"]:
        raise FormatError("run state fingerprint does not match its embedded config")
    kernels = tuple(
        KernelSpec(k["signal_variance"], np.array(k["lengthscales"], dtype=float), k["noise_variance"],
                   KernelFamily(k["family"]))
        for k in doc["kernels"]
    )
    reference = ReferencePoint(np.array(doc["reference"], dtype=float))
    names, obj_names, _, _, _ = run_space(config)
    d, m = len(names), len(obj_names)
    if len(kernels) != m:
        raise FormatError(f"run state has {len(kernels)} kernels for {m} objectives")
    for j, k in enumerate(kernels):
        if k.dim != d:
            raise FormatError(f"run state kernel {j} has {k.dim} lengthscales for {d} design parameters")
        # The next hyperparameter search starts from this kernel, in the config's family.
        if k.family.value != config.kernel:
            raise FormatError(f"run state kernel {j} is {k.family.value}; its config's kernel is {config.kernel}")
    if reference.values.size != m:
        raise FormatError(f"run state reference has {reference.values.size} values for {m} objectives")
    rows = doc["records"]
    if len(rows) < config.init_count:
        raise FormatError(f"run state has {len(rows)} records, fewer than init_count {config.init_count}")
    records = []
    for i, r in enumerate(rows):
        design, objectives = np.array(r["design"], dtype=float), np.array(r["objectives"], dtype=float)
        if design.shape != (d,) or objectives.shape != (m,):
            raise FormatError(
                f"run state record {i} has {design.size} design values and {objectives.size} "
                f"objectives; its config has {d} design parameters and {m} objectives"
            )
        if not np.all(np.isfinite(objectives)):
            raise FormatError(f"run state record {i} has a non-finite objective")
        for e in r["episodes"]:
            for key, kinds in _EPISODE_FIELDS:
                if type(e[key]) not in kinds:
                    raise FormatError(f"run state record {i} has an episode whose {key} is {e[key]!r}")
        if any(type(s) is not int for s in r["seeds"]):
            raise FormatError(f"run state record {i} has a seed that is not an integer: {r['seeds']!r}")
        episodes = tuple(EpisodeSummary(*(e[key] for key, _ in _EPISODE_FIELDS)) for e in r["episodes"])
        records.append(EvaluationRecord(design, objectives, tuple(r["seeds"]), episodes))
    # The slack admits a design that lower + unit * (upper - lower) rounded one ulp past a bound;
    # the comparisons also refuse a non-finite design.
    unit = unit_designs(config, records)
    outside = np.flatnonzero(~np.all((unit >= -1e-9) & (unit <= 1.0 + 1e-9), axis=1))
    if outside.size:
        raise FormatError(f"run state record {outside[0]} has a design outside its config's design box")
    return RunState(config, tuple(records), kernels, reference)


# Each artifact type with its format tag, encoder and decoder.  The
# encoders give the document without its tag, which save_artifact adds.
_FORMATS = (
    (FdvvModel, "fdvv/1", _encode_fdvv, _decode_fdvv),
    (MetaPolicy, "policy/1", _encode_policy, _decode_policy),
    (RunState, "runstate/1", _encode_runstate, _decode_runstate),
)


def save_artifact(path: str, artifact) -> None:
    """Write a model, policy, or run state as a tagged JSON document."""
    for kind, tag, encode, _ in _FORMATS:
        if isinstance(artifact, kind):
            doc = {"format": tag, **encode(artifact)}
            break
    else:
        raise TypeError(f"cannot serialize {type(artifact).__name__} as an artifact")
    _atomic_write(path, json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")


def load_artifact(path: str):
    """Read back an artifact written by :func:`save_artifact`.

    Raises:
        FormatError: unreadable JSON, missing fields, or a format tag
            this version does not understand; nothing partial is returned.
    """
    with open(path) as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not a complete JSON artifact ({exc})") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: artifact must be a JSON object")
    tag = doc.get("format")
    decoders = {name: decode for _, name, _, decode in _FORMATS}
    if tag not in decoders:
        known = ", ".join(sorted(decoders))
        raise FormatError(f"{path}: unsupported format tag {tag!r} (known: {known})")
    try:
        return decoders[tag](doc)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise FormatError(f"{path}: {exc}") from exc
        raise FormatError(f"{path}: malformed {tag} artifact ({exc})") from exc


def save_trace(path: str, trace: FdTrace) -> None:
    """Write a trace as CSV with the canonical four-column header."""
    rows = np.column_stack((trace.time, trace.displacement, trace.force, trace.vibration))
    body = "%.12g,%.12g,%.12g,%.12g\n" * len(rows) % tuple(rows.ravel().tolist())
    _atomic_write(path, ",".join(TRACE_HEADER) + "\n" + body)


def load_trace(path: str) -> FdTrace:
    """Read a four-column trace CSV, validating every row.

    Cells must be finite numbers and displacement nonnegative.  Time
    must be strictly increasing and uniformly sampled within 1% of the
    median interval; the sample rate is derived from that median.

    Raises:
        FormatError: wrong header, short file, a wrong column count,
            non-numeric or non-finite cells, negative displacement,
            non-monotone time, or irregular sampling; the message cites
            the first offending row (1-based, header is row 1).
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows = list(reader)
    if not rows or tuple(rows[0]) != TRACE_HEADER:
        found = ",".join(rows[0]) if rows else "<empty file>"
        raise FormatError(f"{path}: expected header {','.join(TRACE_HEADER)}, found {found}")
    if len(rows) < 3:
        raise FormatError(f"{path}: need at least 2 samples, found {len(rows) - 1}")
    try:
        # numpy parses each cell as float() does.
        data = np.array(rows[1:], dtype=float)
    except ValueError:
        data = None
    if data is None or data.shape[1] != 4 or not np.all(np.isfinite(data)):
        data = _parse_rows(path, rows)
    negative = np.flatnonzero(data[:, 1] < 0.0)
    if negative.size:
        i = negative[0]
        raise FormatError(f"{path}: row {i + 2}: negative displacement {data[i, 1]:.6g}")
    time = data[:, 0]
    steps = np.diff(time)
    bad = np.flatnonzero(steps <= 0)
    if bad.size:
        raise FormatError(f"{path}: row {bad[0] + 3}: time does not increase")
    dt = _median(steps)
    off = np.flatnonzero(np.abs(steps - dt) > 0.01 * dt)
    if off.size:
        raise FormatError(
            f"{path}: row {off[0] + 3}: sampling interval {steps[off[0]]:.6g} deviates "
            f"more than 1% from the median {dt:.6g}"
        )
    return FdTrace(time, data[:, 1], data[:, 2], data[:, 3], sample_rate=1.0 / dt)


def _parse_rows(path: str, rows: list[list[str]]) -> np.ndarray:
    """The body rows as floats, checked one row at a time.

    Raises:
        FormatError: naming the first row with a wrong column count, a
            non-numeric cell or a non-finite value.
    """
    data = np.empty((len(rows) - 1, 4))
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise FormatError(f"{path}: row {i}: expected 4 columns, found {len(row)}")
        try:
            data[i - 2] = [float(cell) for cell in row]
        except ValueError:
            raise FormatError(f"{path}: row {i}: non-numeric value in {row}") from None
        if not np.all(np.isfinite(data[i - 2])):
            raise FormatError(f"{path}: row {i}: non-finite value")
    return data


def export_front(state: RunState, front_path: str, hv_path: str) -> None:
    """Write the archive front and the hypervolume convergence curve.

    Formatting only: the state derives both.  The front CSV has one row
    per archive entry (raw design columns, objective columns, source
    record id), in record order.  The companion CSV holds
    ``state.hypervolume_curve()``, one row per iteration, against the
    frozen reference.  Numbers carry 9 significant digits.
    """
    names, obj_names, _, _, _ = run_space(state.config)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(names) + list(obj_names) + ["record_id"])
    for entry in state.archive.entries:
        record = state.records[entry.record_id]
        row = [f"{v:.9g}" for v in record.design] + [f"{v:.9g}" for v in record.objectives]
        writer.writerow(row + [str(entry.record_id)])
    _atomic_write(front_path, out.getvalue())

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["iteration", "hypervolume"])
    for k, value in enumerate(state.hypervolume_curve()):
        writer.writerow([str(k), f"{value:.9g}"])
    _atomic_write(hv_path, out.getvalue())


def export_evaluations(state: RunState, path: str) -> None:
    """Rewrite the evaluation log from the state: one JSON line per record, in order."""
    _atomic_write(path, "".join(
        json.dumps({
            "iteration": index,
            "design": [float(v) for v in record.design],
            "objectives": [float(v) for v in record.objectives],
        }, sort_keys=True) + "\n"
        for index, record in enumerate(state.records)
    ))
