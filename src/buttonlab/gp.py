"""Gaussian-process regression over the design space.

One independent GP per objective, Matern-5/2 or squared-exponential
kernels with ARD lengthscales, exact inference through a cached Cholesky
factorization.  Hyperparameters are selected by maximizing the log
marginal likelihood with a seeded multi-start search in log space.

Models are immutable after fitting and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .errors import NumericalError

_SQRT5 = math.sqrt(5.0)
# Diagonal jitter escalation tried after a failed factorization.
_JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
# Relative residual above which a "rescued" solve is declared inconsistent
# (e.g. duplicate noise-free inputs with conflicting targets).
_SOLVE_RTOL = 1e-6


class KernelFamily(str, Enum):
    MATERN52 = "matern52"
    SQUARED_EXPONENTIAL = "squared_exponential"


@dataclass(frozen=True)
class KernelSpec:
    """Stationary ARD kernel hyperparameters.

    signal_variance and every lengthscale must be strictly positive;
    noise_variance may be zero for noise-free interpolation.
    """

    signal_variance: float
    lengthscales: np.ndarray
    noise_variance: float = 1e-6
    family: KernelFamily = KernelFamily.MATERN52

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        if self.signal_variance <= 0 or not np.isfinite(self.signal_variance):
            raise ValueError(f"signal_variance must be > 0, got {self.signal_variance}")
        if np.any(ls <= 0) or not np.all(np.isfinite(ls)):
            raise ValueError("every lengthscale must be > 0 and finite")
        if self.noise_variance < 0 or not np.isfinite(self.noise_variance):
            raise ValueError(f"noise_variance must be >= 0, got {self.noise_variance}")
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "family", KernelFamily(self.family))

    @property
    def dim(self) -> int:
        return self.lengthscales.size


@dataclass(frozen=True)
class GpModel:
    """Fitted GP: training set plus cached factorization.

    ``factor`` is the lower Cholesky factor of K + (noise + jitter) I and
    ``alpha`` solves that matrix against the targets.
    """

    inputs: np.ndarray
    targets: np.ndarray
    kernel: KernelSpec
    factor: np.ndarray
    alpha: np.ndarray
    jitter: float = 0.0

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class PosteriorPrediction:
    mean: float
    variance: float


def _scaled_sqdist(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared distance of rows after ARD scaling."""
    sa = a / spec.lengthscales
    sb = b / spec.lengthscales
    d2 = (
        np.sum(sa**2, axis=1)[:, None]
        + np.sum(sb**2, axis=1)[None, :]
        - 2.0 * sa @ sb.T
    )
    return np.maximum(d2, 0.0)


def _kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    r2 = _scaled_sqdist(spec, a, b)
    if spec.family is KernelFamily.SQUARED_EXPONENTIAL:
        return spec.signal_variance * np.exp(-0.5 * r2)
    r = np.sqrt(r2)
    return spec.signal_variance * (1.0 + _SQRT5 * r + (5.0 / 3.0) * r2) * np.exp(-_SQRT5 * r)


def _as_points(x, dim: int, what: str) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[1] != dim:
        raise ValueError(f"{what} has dimension {pts.shape[1]}, expected {dim}")
    return pts


def kernel_eval(spec: KernelSpec, a, b) -> float:
    """Covariance k(a, b) for two design points."""
    pa = _as_points(a, spec.dim, "first point")
    pb = _as_points(b, spec.dim, "second point")
    return float(_kernel_matrix(spec, pa, pb)[0, 0])


def gp_fit(inputs, targets, spec: KernelSpec) -> GpModel:
    """Fit a GP by factorizing K + noise I, escalating jitter on failure.

    Raises:
        ValueError: shape mismatch between inputs and targets.
        NumericalError: factorization fails (or the solve is inconsistent,
            as with duplicate noise-free inputs and conflicting targets)
            even at the largest jitter; the message names the jitter tried.
    """
    x = np.asarray(inputs, dtype=float).reshape(-1, spec.dim)
    y = np.asarray(targets, dtype=float).ravel()
    if x.shape[0] != y.size:
        raise ValueError(f"{x.shape[0]} inputs vs {y.size} targets")
    if x.shape[0] == 0:
        return GpModel(x, y, spec, np.zeros((0, 0)), np.zeros(0))

    gram = _kernel_matrix(spec, x, x)
    cov = gram + spec.noise_variance * np.eye(x.shape[0])
    last_exc: Exception | None = None
    for jitter in _JITTERS:
        try:
            factor = cholesky(cov + jitter * np.eye(x.shape[0]), lower=True)
        except np.linalg.LinAlgError as exc:
            last_exc = exc
            continue
        alpha = cho_solve((factor, True), y)
        # Jitter can force a factorization of a genuinely singular system;
        # reject the fit if the solve does not reproduce the targets.
        resid = np.max(np.abs(cov @ alpha - y)) if y.size else 0.0
        scale = max(np.max(np.abs(y)), 1.0)
        if jitter > 0.0 and resid > _SOLVE_RTOL * scale:
            last_exc = None
            continue
        return GpModel(x, y, spec, factor, alpha, jitter=jitter)
    raise NumericalError(
        f"covariance factorization failed with jitter up to {_JITTERS[-1]:g}"
        + (f": {last_exc}" if last_exc else " (inconsistent linear system)")
    )


def gp_predict(model: GpModel, query) -> PosteriorPrediction:
    """Posterior mean and variance at one query point: one row of
    :func:`gp_predict_batch`.

    An empty model returns the prior (zero mean, signal variance).
    """
    mean, variance = gp_predict_batch(model, query)
    return PosteriorPrediction(float(mean[0]), float(variance[0]))


def gp_predict_batch(model: GpModel, queries) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized posterior over an (m, d) block of query points."""
    spec = model.kernel
    q = _as_points(queries, spec.dim, "queries")
    if model.n == 0:
        return np.zeros(q.shape[0]), np.full(q.shape[0], spec.signal_variance)
    k = _kernel_matrix(spec, model.inputs, q)
    mean = k.T @ model.alpha
    v = solve_triangular(model.factor, k, lower=True)
    variance = spec.signal_variance - np.sum(v * v, axis=0)
    return mean, np.clip(variance, 0.0, spec.signal_variance)


def log_marginal_likelihood(model: GpModel) -> float:
    """-1/2 y^T (K+sI)^-1 y - 1/2 log|K+sI| - n/2 log 2pi."""
    if model.n == 0:
        raise ValueError("log marginal likelihood needs at least one observation")
    logdet = 2.0 * float(np.sum(np.log(np.diag(model.factor))))
    quad = float(model.targets @ model.alpha)
    return -0.5 * quad - 0.5 * logdet - 0.5 * model.n * math.log(2.0 * math.pi)


def _lml_of(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    try:
        return log_marginal_likelihood(gp_fit(x, y, spec))
    except NumericalError:
        return -np.inf


def optimize_hyperparams(
    inputs,
    targets,
    search_budget: int = 8,
    seed: int = 0,
    family: KernelFamily = KernelFamily.MATERN52,
) -> KernelSpec:
    """Pick the kernel maximizing log marginal likelihood.

    Log-space random restarts (``search_budget`` of them) followed by
    coordinate-wise multiplicative refinement of the best start.  The
    returned spec scores at least as well as every probed candidate, and
    the whole search is a pure function of the seed.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float).ravel()
    if x.shape[0] < 2:
        raise ValueError("hyperparameter search needs at least 2 observations")
    if search_budget < 1:
        raise ValueError("search_budget must be >= 1")
    d = x.shape[1]
    rng = np.random.default_rng(seed)

    y_scale = max(float(np.var(y)), 1e-12)
    span = np.maximum(np.max(x, axis=0) - np.min(x, axis=0), 1e-3)

    def make(sv: float, ls: np.ndarray, nv: float) -> KernelSpec:
        # Box constraints keep the search away from degenerate optima
        # (unbounded lengthscales with vanishing noise make the Gram
        # matrix numerically singular); the noise floor is relative to
        # the signal variance because that sets the matrix scale.
        sv = min(max(sv, 1e-8 * y_scale), 1e8 * y_scale)
        ls = np.clip(ls, 1e-3 * span, 1e2 * span)
        nv = min(max(nv, 1e-8 * sv), 1e2 * y_scale)
        return KernelSpec(sv, ls, nv, family)

    # A sensible anchor plus log-uniform random restarts.
    candidates = [make(y_scale, 0.3 * span, 1e-4 * y_scale)]
    for _ in range(search_budget):
        sv = y_scale * 10.0 ** rng.uniform(-1.0, 1.0)
        ls = span * 10.0 ** rng.uniform(-1.5, 0.7, size=d)
        nv = y_scale * 10.0 ** rng.uniform(-8.0, -0.5)
        candidates.append(make(sv, ls, nv))

    scored = [(_lml_of(spec, x, y), i, spec) for i, spec in enumerate(candidates)]
    best_lml, _, best = max(scored, key=lambda t: (t[0], -t[1]))

    # Coordinate-wise refinement: scale one log-coordinate at a time,
    # shrinking the step when a full sweep makes no progress.
    for step in (4.0, 2.0, 1.4, 1.15):
        improved = True
        while improved:
            improved = False
            for coord in range(d + 2):
                for factor in (step, 1.0 / step):
                    sv, ls, nv = best.signal_variance, best.lengthscales.copy(), best.noise_variance
                    if coord < d:
                        ls[coord] *= factor
                    elif coord == d:
                        sv *= factor
                    else:
                        nv *= factor
                    trial = make(sv, ls, nv)
                    lml = _lml_of(trial, x, y)
                    if lml > best_lml:
                        best_lml, best = lml, trial
                        improved = True
    return best
