"""Run configuration: the sectioned key-value document and its parsing.

Every key has a default, unknown keys are rejected, and validation
errors name the offending ``section.key``.  ``parse_config`` and
``serialize_config`` round-trip exactly.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import numbers
import operator
from dataclasses import dataclass, field

from .button import DESIGN_BOUNDS, DESIGN_FIELDS, DESIGN_LIMITS, within_limits
from .errors import FormatError
from .policy import DEFAULT_INNER_LR, MetaPolicy, TaskSpec
from .synthetic import PROBLEMS

OBJECTIVE_NAMES = ("completion_time_s", "error_rate", "effort")


@dataclass(frozen=True)
class CidConfig:
    """Everything a closed-loop run needs, besides file paths."""

    provider: str = "simulated_button"
    objectives: tuple[str, ...] = OBJECTIVE_NAMES
    bounds: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DESIGN_BOUNDS)
    )
    budget: int = 40
    init_count: int = 8
    master_seed: int = 0
    scan_count: int = 1024
    inner_lr: float = DEFAULT_INNER_LR
    adapt_episodes: int = MetaPolicy.adapt_episodes
    episodes_per_eval: int = 20
    horizon: int = TaskSpec.horizon
    sensory_delay: int = TaskSpec.sensory_delay
    dwell_limit: int = TaskSpec.dwell_limit
    policy_path: str = ""

    def __post_init__(self):
        object.__setattr__(self, "objectives", _objectives(self.objectives))
        try:
            pairs = self.bounds.items()
        except AttributeError:
            _fail("design_space", f"expected a mapping of design parameters to (low, high), got {self.bounds!r}")
        object.__setattr__(self, "bounds", {k: _bound(f"design_space.{k}", pair) for k, pair in pairs})
        for section, key, kind, _ in _SCALAR_KEYS:
            object.__setattr__(self, key, _typed(f"{section}.{key}", kind, getattr(self, key)))
        _validate(self)


def _fail(path: str, message: str):
    raise FormatError(f"{path}: {message}")


def _objectives(value) -> tuple:
    """``value`` as a tuple of names; a single name is no sequence of them."""
    if not isinstance(value, str):
        try:
            return tuple(value)
        except TypeError:
            pass
    _fail("objectives.minimize", "expected a sequence of objective names")


def _bound(path: str, pair) -> tuple[float, float]:
    """A design box entry as (low, high), each stored as a float key is."""
    try:
        lo, hi = pair
    except (TypeError, ValueError):
        _fail(path, f"expected (low, high), got {pair!r}")
    return _typed(path, float, lo), _typed(path, float, hi)


def _typed(path: str, kind: type, value):
    """``value`` stored as ``kind`` by its ``_KINDS`` row; a bool is no number."""
    name, accepted, convert = _KINDS[kind]
    if isinstance(value, accepted) and not isinstance(value, bool):
        try:
            return convert(value)
        except (TypeError, OverflowError):
            pass
    _fail(path, f"expected {name}, got {value!r}")


def _validate(cfg: CidConfig):
    if len(cfg.objectives) < 2:
        _fail("objectives.minimize", "need at least 2 objectives")
    for name in cfg.objectives:
        if name not in OBJECTIVE_NAMES:
            _fail("objectives.minimize", f"unknown objective {name!r}")
    if len(set(cfg.objectives)) != len(cfg.objectives):
        _fail("objectives.minimize", "objectives must be distinct")
    if not cfg.bounds:
        _fail("design_space", "bounds must be nonempty")
    for key in cfg.bounds:
        if key not in DESIGN_FIELDS:
            _fail(f"design_space.{key}", "unknown design parameter")
    for key in DESIGN_FIELDS:
        if key not in cfg.bounds:
            _fail(f"design_space.{key}", "missing bounds")
        lo, hi = cfg.bounds[key]
        if not lo < hi:
            _fail(f"design_space.{key}", f"lower bound {lo} must be < upper bound {hi}")
        if not (within_limits(key, lo) and within_limits(key, hi)):
            lim_lo, lim_hi, closed_lo, closed_hi = DESIGN_LIMITS[key]
            bracket = f"{'[' if closed_lo else '('}{lim_lo}, {lim_hi}{']' if closed_hi else ')'}"
            _fail(f"design_space.{key}", f"bounds ({lo}, {hi}) outside admissible {bracket}")
    for section, key, _, rule in _SCALAR_KEYS:
        value = getattr(cfg, key)
        if isinstance(rule, tuple) and value not in rule:
            _fail(f"{section}.{key}", f"must be one of {rule}, got {value!r}")
        if isinstance(rule, int) and value < rule:
            _fail(f"{section}.{key}", f"must be >= {rule}, got {value}")
        if isinstance(rule, float) and not rule < value < math.inf:  # written so that nan fails too
            _fail(f"{section}.{key}", f"must be finite and > {rule:g}, got {value}")
        if rule is None and (value != value.strip() or len(value.splitlines()) > 1):
            _fail(f"{section}.{key}", f"must be one line without surrounding whitespace, got {value!r}")


# Every scalar key as (section, key, type, rule), in the order
# serialize_config writes them; each key is also its CidConfig field's
# name.  A rule is the least admissible value of an integer key, the
# exclusive lower bound of a finite float key, or the tuple of a key's
# admissible values; None admits any one-line text that the document
# reads back as itself.
_SCALAR_KEYS = (
    ("optimizer", "scan_count", int, 1),
    ("user_model", "inner_lr", float, 0.0),
    ("user_model", "adapt_episodes", int, 0),
    ("user_model", "episodes_per_eval", int, 1),
    ("user_model", "horizon", int, 1),
    ("user_model", "sensory_delay", int, 0),
    ("user_model", "dwell_limit", int, 1),
    ("user_model", "policy_path", str, None),
    ("run", "provider", str, ("simulated_button", *PROBLEMS)),
    ("run", "budget", int, 1),
    ("run", "init_count", int, 2),
    ("run", "master_seed", int, 0),
)
_KEY_TYPES = {(section, key): kind for section, key, kind, _ in _SCALAR_KEYS}
# Each scalar type as (name, accepted class, converter): an int key holds
# what operator.index takes, a float key any real number, a str key a str.
_KINDS = {
    int: ("an integer", object, operator.index),
    float: ("a number", numbers.Real, float),
    str: ("a string", str, str),
}
_SECTIONS = ("design_space", "objectives", "optimizer", "user_model", "run")


def parse_config(text: str) -> CidConfig:
    """Parse the sectioned document, filling defaults for missing keys.

    Raises:
        FormatError: syntax errors, unknown sections or keys, type or
            range violations; messages name ``section.key``.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise FormatError(f"config syntax error: {exc}") from exc

    values: dict = {}
    bounds = dict(DESIGN_BOUNDS)
    for section in parser.sections():
        if section not in _SECTIONS:
            _fail(section, f"unknown section; expected one of {_SECTIONS}")
        for key, raw in parser.items(section):
            path = f"{section}.{key}"
            if section == "design_space":
                parts = [p.strip() for p in raw.split(",")]
                if len(parts) != 2:
                    _fail(path, f"expected 'low, high', got {raw!r}")
                try:
                    bounds[key] = (float(parts[0]), float(parts[1]))
                except ValueError:
                    _fail(path, f"expected two numbers, got {raw!r}")
            elif section == "objectives":
                if key != "minimize":
                    _fail(path, "the only objectives key is 'minimize'")
                values["objectives"] = tuple(p.strip() for p in raw.split(",") if p.strip())
            elif (section, key) in _KEY_TYPES:
                kind = _KEY_TYPES[section, key]
                try:
                    values[key] = kind(raw.strip())
                except ValueError:
                    _fail(path, f"expected {_KINDS[kind][0]}, got {raw!r}")
            else:
                _fail(path, "unknown key")
    values["bounds"] = bounds
    return CidConfig(**values)


def serialize_config(cfg: CidConfig) -> str:
    """Render a config as the sectioned text document, all keys explicit."""
    parser = configparser.ConfigParser(interpolation=None)
    parser["design_space"] = {
        key: f"{cfg.bounds[key][0]!r}, {cfg.bounds[key][1]!r}" for key in DESIGN_FIELDS
    }
    parser["objectives"] = {"minimize": ", ".join(cfg.objectives)}
    for section, key, kind, _ in _SCALAR_KEYS:
        value = getattr(cfg, key)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, repr(value) if kind is float else str(value))
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def config_fingerprint(cfg: CidConfig) -> str:
    """Stable digest identifying a config for resume compatibility."""
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()
