"""Gaussian-process regression over the design space.

One independent GP per objective, Matern-5/2 or squared-exponential
kernels with ARD lengthscales, exact inference on ``numpy.linalg`` alone:
one Cholesky factorization of the Gram matrix bordered by the targets
gives the log marginal likelihood, and a cached inverse factor gives the
posterior.  Hyperparameters are selected by maximizing the log marginal
likelihood with a seeded multi-start search in log space that scores
each distinct candidate once, through ``gp_fit``'s factorization.

Models are immutable after fitting and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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
    """Fitted GP: what the posterior and the log marginal likelihood read.

    With L the lower Cholesky factor of K + (noise + jitter) I over the
    training inputs, ``inverse_factor`` is L^-1 and ``whitened`` is
    L^-1 y.  A query whose covariances with the inputs are k has
    v = L^-1 k, posterior mean v.whitened and variance k(q, q) - v.v.
    ``log_likelihood`` is the targets' log marginal likelihood.
    """

    inputs: np.ndarray
    kernel: KernelSpec
    inverse_factor: np.ndarray
    whitened: np.ndarray
    log_likelihood: float
    jitter: float = 0.0

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


def _kernel_matrix(sv: float, ls: np.ndarray, family: KernelFamily, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Covariance between the rows of ``a`` and ``b`` (signal variance, ARD lengthscales)."""
    sa = a / ls
    sb = b / ls
    r2 = np.maximum(np.sum(sa**2, axis=1)[:, None] + np.sum(sb**2, axis=1)[None, :] - 2.0 * sa @ sb.T, 0.0)
    if family is KernelFamily.SQUARED_EXPONENTIAL:
        return sv * np.exp(-0.5 * r2)
    r = np.sqrt(r2)
    return sv * (1.0 + _SQRT5 * r + (5.0 / 3.0) * r2) * np.exp(-_SQRT5 * r)


def _as_points(x, dim: int, what: str) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[1] != dim:
        raise ValueError(f"{what} has dimension {pts.shape[1]}, expected {dim}")
    return pts


def _check_finite(x: np.ndarray, y: np.ndarray) -> None:
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("inputs and targets must be finite")


def _factor(gram: np.ndarray, noise: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(L, L^-1 y, jitter) for L the lower Cholesky factor of
    gram + (noise + jitter) I, escalating jitter on failure.

    Each try is one ``np.linalg.cholesky`` call on the Gram matrix
    bordered by the targets, [[gram + (noise + jitter) I, y], [y^T, inf]]:
    its leading block is L and its last row is (L^-1 y)^T.  The infinite
    corner makes the last pivot succeed, so a try fails exactly when the
    Gram matrix does.
    """
    n = y.size
    bordered = np.empty((n + 1, n + 1))
    bordered[:n, :n] = gram
    bordered[:n, n] = y
    bordered[n, :n] = y
    bordered[n, n] = np.inf
    diag = gram.diagonal() + noise
    failure = ""
    for jitter in _JITTERS:
        bordered.flat[: n * (n + 2) : n + 2] = diag + jitter
        try:
            lower = np.linalg.cholesky(bordered)
        except np.linalg.LinAlgError:
            failure = ": the matrix is not positive definite"
            continue
        factor, whitened = lower[:n, :n], lower[n, :n]
        # Jitter can force a factorization of a genuinely singular system;
        # reject the fit if the solve does not reproduce the targets.
        if jitter > 0.0:
            alpha = np.linalg.solve(factor.T, whitened)
            if np.max(np.abs(gram @ alpha + noise * alpha - y)) > _SOLVE_RTOL * max(np.max(np.abs(y)), 1.0):
                failure = " (inconsistent linear system)"
                continue
        return factor, whitened, jitter
    raise NumericalError(f"covariance factorization failed with jitter up to {_JITTERS[-1]:g}{failure}")


def _lml(factor: np.ndarray, whitened: np.ndarray) -> float:
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor))))
    quad = float(whitened @ whitened)
    return -0.5 * quad - 0.5 * logdet - 0.5 * whitened.size * math.log(2.0 * math.pi)


def gp_fit(inputs, targets, spec: KernelSpec) -> GpModel:
    """Fit a GP by factorizing K + noise I, escalating jitter on failure.

    Raises:
        ValueError: shape mismatch between inputs and targets, or a
            non-finite input or target.
        NumericalError: factorization fails (or the solve is inconsistent,
            as with duplicate noise-free inputs and conflicting targets)
            even at the largest jitter; the message names the jitter tried.
    """
    x = np.asarray(inputs, dtype=float).reshape(-1, spec.dim)
    y = np.asarray(targets, dtype=float).ravel()
    if x.shape[0] != y.size:
        raise ValueError(f"{x.shape[0]} inputs vs {y.size} targets")
    _check_finite(x, y)
    if x.shape[0] == 0:
        return GpModel(x, spec, np.zeros((0, 0)), np.zeros(0), 0.0)
    gram = _kernel_matrix(spec.signal_variance, spec.lengthscales, spec.family, x, x)
    factor, whitened, jitter = _factor(gram, spec.noise_variance, y)
    return GpModel(x, spec, np.linalg.inv(factor), whitened, _lml(factor, whitened), jitter)


def gp_predict_batch(model: GpModel, queries) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances over an (m, d) block of query points.

    An empty model returns the prior (zero mean, signal variance).
    """
    spec = model.kernel
    q = _as_points(queries, spec.dim, "queries")
    if model.n == 0:
        return np.zeros(q.shape[0]), np.full(q.shape[0], spec.signal_variance)
    k = _kernel_matrix(spec.signal_variance, spec.lengthscales, spec.family, model.inputs, q)
    v = model.inverse_factor @ k
    mean = model.whitened @ v
    variance = spec.signal_variance - np.sum(v * v, axis=0)
    return mean, np.clip(variance, 0.0, spec.signal_variance)


def log_marginal_likelihood(model: GpModel) -> float:
    """-1/2 y^T (K+sI)^-1 y - 1/2 log|K+sI| - n/2 log 2pi."""
    if model.n == 0:
        raise ValueError("log marginal likelihood needs at least one observation")
    return model.log_likelihood


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
    the whole search is a pure function of the seed.  Each distinct
    candidate, after clipping to the search box, is scored once.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float).ravel()
    if x.shape[0] < 2:
        raise ValueError("hyperparameter search needs at least 2 observations")
    if search_budget < 1:
        raise ValueError("search_budget must be >= 1")
    _check_finite(x, y)
    d = x.shape[1]
    family = KernelFamily(family)
    rng = np.random.default_rng(seed)

    y_scale = max(float(np.var(y)), 1e-12)
    span = np.maximum(np.max(x, axis=0) - np.min(x, axis=0), 1e-3)

    def make(sv: float, ls: np.ndarray, nv: float) -> tuple[float, np.ndarray, float]:
        # Box constraints keep the search away from degenerate optima
        # (unbounded lengthscales with vanishing noise make the Gram
        # matrix numerically singular); the noise floor is relative to
        # the signal variance because that sets the matrix scale.
        sv = min(max(sv, 1e-8 * y_scale), 1e8 * y_scale)
        ls = np.clip(ls, 1e-3 * span, 1e2 * span)
        nv = min(max(nv, 1e-8 * sv), 1e2 * y_scale)
        return sv, ls, nv

    # Clipping to the box makes many trials repeats of a scored candidate.
    scores: dict[bytes, float] = {}

    def score(candidate: tuple[float, np.ndarray, float]) -> float:
        sv, ls, nv = candidate
        key = np.append(ls, (sv, nv)).tobytes()
        if key not in scores:
            try:
                factor, whitened, _ = _factor(_kernel_matrix(sv, ls, family, x, x), nv, y)
                scores[key] = _lml(factor, whitened)
            except NumericalError:
                scores[key] = -np.inf
        return scores[key]

    # A sensible anchor plus log-uniform random restarts.
    candidates = [make(y_scale, 0.3 * span, 1e-4 * y_scale)]
    for _ in range(search_budget):
        sv = y_scale * 10.0 ** rng.uniform(-1.0, 1.0)
        ls = span * 10.0 ** rng.uniform(-1.5, 0.7, size=d)
        nv = y_scale * 10.0 ** rng.uniform(-8.0, -0.5)
        candidates.append(make(sv, ls, nv))

    scored = [(score(c), i, c) for i, c in enumerate(candidates)]
    best_lml, _, best = max(scored, key=lambda t: (t[0], -t[1]))

    # Coordinate-wise refinement: scale one log-coordinate at a time,
    # shrinking the step when a full sweep makes no progress.
    for step in (4.0, 2.0, 1.4, 1.15):
        improved = True
        while improved:
            improved = False
            for coord in range(d + 2):
                for factor in (step, 1.0 / step):
                    sv, ls, nv = best[0], best[1].copy(), best[2]
                    if coord < d:
                        ls[coord] *= factor
                    elif coord == d:
                        sv *= factor
                    else:
                        nv *= factor
                    trial = make(sv, ls, nv)
                    lml = score(trial)
                    if lml > best_lml:
                        best_lml, best = lml, trial
                        improved = True
    return KernelSpec(*best, family)
