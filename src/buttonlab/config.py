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
from dataclasses import dataclass, field

from .button import DESIGN_BOUNDS, DESIGN_FIELDS, DESIGN_LIMITS, within_limits
from .errors import FormatError
from .policy import DEFAULT_INNER_LR

OBJECTIVE_NAMES = ("completion_time_s", "error_rate", "effort")
PROVIDERS = ("simulated_button", "schaffer", "zdt1")
KERNELS = ("matern52", "squared_exponential")


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
    kernel: str = "matern52"
    inner_lr: float = DEFAULT_INNER_LR
    adapt_episodes: int = 8
    episodes_per_eval: int = 20
    horizon: int = 1000
    sensory_delay: int = 50
    dwell_limit: int = 300
    policy_path: str = ""

    def __post_init__(self):
        object.__setattr__(self, "objectives", tuple(self.objectives))
        object.__setattr__(
            self,
            "bounds",
            {k: (float(lo), float(hi)) for k, (lo, hi) in self.bounds.items()},
        )
        _validate(self)


def _fail(path: str, message: str):
    raise FormatError(f"{path}: {message}")


def _validate(cfg: CidConfig):
    if cfg.provider not in PROVIDERS:
        _fail("run.provider", f"must be one of {PROVIDERS}, got {cfg.provider!r}")
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
    if cfg.init_count < 2:
        _fail("run.init_count", f"must be >= 2 to fit surrogates, got {cfg.init_count}")
    positives = (
        ("run.budget", cfg.budget),
        ("optimizer.scan_count", cfg.scan_count),
        ("user_model.episodes_per_eval", cfg.episodes_per_eval),
        ("user_model.horizon", cfg.horizon),
        ("user_model.dwell_limit", cfg.dwell_limit),
    )
    for path, value in positives:
        if value < 1:
            _fail(path, f"must be >= 1, got {value}")
    if cfg.kernel not in KERNELS:
        _fail("optimizer.kernel", f"must be one of {KERNELS}, got {cfg.kernel!r}")
    if not 0 < cfg.inner_lr < math.inf:  # written so that nan fails too
        _fail("user_model.inner_lr", f"must be finite and > 0, got {cfg.inner_lr}")
    if cfg.adapt_episodes < 0:
        _fail("user_model.adapt_episodes", f"must be >= 0, got {cfg.adapt_episodes}")
    if cfg.sensory_delay < 0:
        _fail("user_model.sensory_delay", f"must be >= 0, got {cfg.sensory_delay}")


# Every scalar key as (section, key, type), in the order serialize_config
# writes them; each key is also its CidConfig field's name.
_SCALAR_KEYS = (
    ("optimizer", "scan_count", int),
    ("optimizer", "kernel", str),
    ("user_model", "inner_lr", float),
    ("user_model", "adapt_episodes", int),
    ("user_model", "episodes_per_eval", int),
    ("user_model", "horizon", int),
    ("user_model", "sensory_delay", int),
    ("user_model", "dwell_limit", int),
    ("user_model", "policy_path", str),
    ("run", "provider", str),
    ("run", "budget", int),
    ("run", "init_count", int),
    ("run", "master_seed", int),
)
_KEY_TYPES = {(section, key): kind for section, key, kind in _SCALAR_KEYS}
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
                if key not in DESIGN_FIELDS:
                    _fail(path, "unknown design parameter")
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
                    _fail(path, f"expected {'an integer' if kind is int else 'a number'}, got {raw!r}")
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
    for section, key, kind in _SCALAR_KEYS:
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
