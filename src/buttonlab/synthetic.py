"""Closed-form multi-objective test problems for optimizer benchmarking.

These bypass the simulator and user model entirely so the optimizer can
be scored against known Pareto fronts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class SyntheticProblem:
    """A deterministic vector objective with a known Pareto front."""

    dim: int
    lower: np.ndarray
    upper: np.ndarray
    reference: np.ndarray
    objective_names: tuple[str, ...]
    evaluate: Callable[[np.ndarray], np.ndarray]
    true_front: Callable[[int], np.ndarray]


def _schaffer_eval(x: np.ndarray) -> np.ndarray:
    v = float(np.asarray(x).ravel()[0])
    return np.array([v * v, (v - 2.0) * (v - 2.0)])


def _schaffer_front(n: int) -> np.ndarray:
    x = np.linspace(0.0, 2.0, n)
    return np.column_stack([x * x, (x - 2.0) ** 2])


def _zdt1_eval(x: np.ndarray) -> np.ndarray:
    v = np.asarray(x, dtype=float).ravel()
    f1 = v[0]
    g = 1.0 + 9.0 * np.sum(v[1:]) / (v.size - 1)
    return np.array([f1, g * (1.0 - np.sqrt(f1 / g))])


def _zdt1_front(n: int) -> np.ndarray:
    f1 = np.linspace(0.0, 1.0, n)
    return np.column_stack([f1, 1.0 - np.sqrt(f1)])


PROBLEMS = {
    "schaffer": SyntheticProblem(
        dim=1,
        lower=np.array([-10.0]),
        upper=np.array([10.0]),
        reference=np.array([4.0, 4.0]),
        objective_names=("f1", "f2"),
        evaluate=_schaffer_eval,
        true_front=_schaffer_front,
    ),
    "zdt1": SyntheticProblem(
        dim=6,
        lower=np.zeros(6),
        upper=np.ones(6),
        reference=np.array([1.1, 1.1]),
        objective_names=("f1", "f2"),
        evaluate=_zdt1_eval,
        true_front=_zdt1_front,
    ),
}


def get_problem(name: str) -> SyntheticProblem:
    if name not in PROBLEMS:
        raise ValueError(f"unknown synthetic problem {name!r}; have {sorted(PROBLEMS)}")
    return PROBLEMS[name]
