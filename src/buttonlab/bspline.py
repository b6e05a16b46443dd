"""Least-squares B-spline fitting with information-criterion knot selection.

Fits clamped B-splines of a fixed degree on uniformly placed interior
knots, trying a list of candidate knot counts and keeping the one with the
lowest Bayesian Information Criterion.  Ties break toward fewer knots so
the selected model is the lowest-parametric one that explains the data.

Basis functions come from the Cox-de Boor recursion (de Boor 1978,
Ch. X) and derivatives from de Boor's coefficient recurrence as in
Dierckx's FITPACK ``splder``, each in the order of operations scipy's
``BSpline`` and ``PPoly.from_spline`` use, so values are the same bits.
The recursion gathers each point's nearby knots once and keeps the bases
basis-major, one contiguous row per nonzero B-spline, so every step of
it works on whole rows of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BSplineCurve:
    """A clamped B-spline curve.

    Attributes:
        degree: polynomial degree (3 for cubic).
        knots: full nondecreasing knot vector with the first and last knot
            each repeated ``degree + 1`` times.
        coefficients: one coefficient per basis function,
            ``len(knots) - degree - 1`` in total.
    """

    degree: int
    knots: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        coeffs = np.asarray(self.coefficients, dtype=float)
        _check_degree(self.degree)
        if coeffs.size != knots.size - self.degree - 1:
            raise ValueError(
                f"coefficient count {coeffs.size} != knot count {knots.size} "
                f"- degree {self.degree} - 1"
            )
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(coeffs))):
            raise ValueError("knots and coefficients must be finite")
        if np.any(np.diff(knots) < 0):
            raise ValueError("knots must be nondecreasing")
        k = self.degree
        if not (np.all(knots[: k + 1] == knots[0]) and np.all(knots[-k - 1 :] == knots[-1])):
            raise ValueError("end knots must be clamped (repeated degree+1 times)")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])

    def __call__(self, x):
        """Evaluate the curve; queries are clipped to the knot span."""
        lo, hi = self.domain
        x = np.clip(np.asarray(x, dtype=float), lo, hi)
        span, bases = _bases(self.knots, self.degree, x.ravel())
        return _combine(self.coefficients, span - self.degree, bases[-1]).reshape(x.shape)

    def power_coefficients(self) -> np.ndarray:
        """Polynomial coefficients per knot interval, shape (degree + 1, len(knots) - 1).

        Column i is the curve on [t_i, t_i+1) in powers of (x - t_i),
        highest power first: the m-th derivative at t_i over m!, with
        FITPACK ``splder``'s arithmetic (the layout of scipy's PPoly.c).
        """
        t, k = self.knots, self.degree
        span, bases = _bases(t, k, t[:-1])
        out = np.empty((k + 1, t.size - 1))
        coef = self.coefficients.copy()
        for m in range(k + 1):
            if m:
                # One more differentiation of the degree k - m + 1 spline;
                # a coefficient over a zero-width support stays as it was.
                count = coef.size - m
                fac = t[k + 1 : k + 1 + count] - t[m : m + count]
                step = (k - m + 1) * (coef[1 : count + 1] - coef[:count])
                np.divide(step, fac, out=coef[:count], where=fac > 0.0)
            value = coef[span - k] if m == k else _combine(coef, span - k, bases[k - m])
            out[k - m] = value / math.factorial(m)
        return out


def _bases(knots: np.ndarray, degree: int, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Knot interval of each x and the B-splines nonzero there, for degrees 0 to ``degree``.

    ``span`` is the l with t_l <= x < t_l+1 in the base interval, whose
    last piece also takes its right end.  Each point's 2k nearby knots are
    gathered once, row m holding t_{span - k + 1 + m}, and the bases are
    basis-major: entry j of the list has shape (j + 1, n), and its row a
    is B_{span - j + a} of degree j.  Cox-de Boor's recursion raises the
    degree one step at a time; a zero-width knot interval adds nothing.
    """
    k = degree
    span = np.clip(np.searchsorted(knots, x, side="right") - 1, k, knots.size - k - 2)
    near = knots[span + np.arange(1 - k, k + 1)[:, None]]
    h = np.ones((1, x.size))
    out = [h]
    for j in range(1, k + 1):
        right = near[k : k + j]
        left = near[k - j : k]
        width = right - left
        w = h / np.where(width > 0.0, width, np.inf)
        # Zeros then add: 0.0 + (-0.0) keeps a -0.0 product from reaching the result.
        h = np.zeros((j + 1, x.size))
        h[:j] += w * (right - x)
        h[1:] += w * (x - left)
        out.append(h)
    return span, out


def _combine(coef: np.ndarray, first: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Sum of coef[first + a] * basis[a], accumulated from a = 0 up."""
    value = np.zeros(basis.shape[1])
    for a in range(basis.shape[0]):
        value += coef[first + a] * basis[a]
    return value


def design_matrix(x: np.ndarray, knots: np.ndarray, degree: int) -> np.ndarray:
    """Dense (n, len(knots) - degree - 1) matrix of every B-spline at each x.

    Each x must lie in the base interval [t_degree, t_n].
    """
    span, bases = _bases(knots, degree, x)
    out = np.zeros((x.size, knots.size - degree - 1))
    flat, first = out.ravel(), np.arange(x.size) * out.shape[1] + span - degree
    for a, row in enumerate(bases[-1]):
        flat[first + a] = row
    return out


def _check_degree(degree: int) -> None:
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")


def uniform_clamped_knots(lo: float, hi: float, degree: int, interior: int) -> np.ndarray:
    """Knot vector with `interior` uniformly spaced interior knots on (lo, hi)."""
    _check_degree(degree)
    if interior < 0:
        raise ValueError(f"interior knot count must be >= 0, got {interior}")
    if hi <= lo:
        raise ValueError(f"empty knot interval [{lo}, {hi}]")
    inner = np.linspace(lo, hi, interior + 2)[1:-1]
    return np.concatenate([np.full(degree + 1, lo), inner, np.full(degree + 1, hi)])


def _lstsq(xq: np.ndarray, y: np.ndarray, knots: np.ndarray, degree: int) -> tuple[np.ndarray, float]:
    """Least-squares coefficients on ``knots`` for x already in the base interval, and the RSS."""
    basis = design_matrix(xq, knots, degree)
    coeffs, _, _, _ = np.linalg.lstsq(basis, y, rcond=None)
    resid = y - basis @ coeffs
    return coeffs, float(resid @ resid)


def fit_bspline_bic(
    points: np.ndarray,
    degree: int = 3,
    knot_counts: tuple[int, ...] = (0, 1, 2, 4, 6, 8, 10, 12, 16, 20),
) -> tuple[BSplineCurve, int, float]:
    """Fit candidate knot counts and keep the BIC minimizer.

    Args:
        points: (n, 2) array of (x, y) samples; x must span a finite
            nondegenerate interval.
        degree: spline degree, at least 1.
        knot_counts: candidate interior-knot counts; negative ones are
            skipped.

    Returns:
        (curve, chosen_interior_knots, bic_value) for the candidate with
        the lowest ``n*ln(RSS/n) + k*ln(n)`` where k is the coefficient
        count.  Candidates with as many coefficients as data points are
        skipped; equal BIC keeps the smaller knot count.  Only the winner
        becomes a curve.

    Raises:
        ValueError: on a degree below 1, empty/degenerate input or if
            every candidate is underdetermined.
    """
    _check_degree(degree)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError(f"expected (n, 2) points with n >= 2, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    x, y = pts[:, 0], pts[:, 1]
    lo, hi = float(np.min(x)), float(np.max(x))
    if hi <= lo:
        raise ValueError("x values must span a nondegenerate interval")

    n = x.size
    # Every candidate's base interval is [lo, hi], so one clip serves them all.
    xq = np.clip(x, lo, hi)
    best: tuple[float, int, np.ndarray, np.ndarray] | None = None
    for interior in sorted(set(int(c) for c in knot_counts)):
        if interior < 0:
            continue
        n_coeff = interior + degree + 1
        if n_coeff >= n:
            continue  # underdetermined, skip
        knots = uniform_clamped_knots(lo, hi, degree, interior)
        coeffs, rss = _lstsq(xq, y, knots, degree)
        # Guard against log(0) on an exact fit; the k*ln(n) term still
        # separates candidates, so ties resolve to fewer knots below.
        bic = n * np.log(max(rss, 1e-300) / n) + n_coeff * np.log(n)
        if best is None or bic < best[0]:
            best = (bic, interior, knots, coeffs)
    if best is None:
        raise ValueError("every candidate knot count is underdetermined for this data")
    bic, interior, knots, coeffs = best
    return BSplineCurve(degree, knots, coeffs), interior, float(bic)
