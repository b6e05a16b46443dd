"""B-spline evaluation against a from-scratch Cox-de Boor oracle.

The oracle builds basis functions by the textbook recursion with explicit
Python loops so it shares nothing with the package implementation.  A
second oracle, scipy.interpolate, pins the bits of evaluation, the design
matrix and the piecewise-polynomial form.
"""

import math

import numpy as np
import pytest
from scipy.interpolate import BSpline, PPoly

from buttonlab import BSplineCurve, fit_bspline_bic, uniform_clamped_knots
from buttonlab.bspline import _lstsq, design_matrix


def cox_de_boor(knots, i, k, x):
    """B-spline basis B_{i,k}(x) by the Cox-de Boor recursion."""
    if k == 0:
        # Half-open spans, except the last nonempty span which closes at
        # the right end so the curve is defined at x == knots[-1].
        if knots[i] <= x < knots[i + 1]:
            return 1.0
        if x == knots[-1] and knots[i] < knots[i + 1] and knots[i + 1] == knots[-1]:
            return 1.0
        return 0.0
    left = 0.0
    if knots[i + k] > knots[i]:
        left = (x - knots[i]) / (knots[i + k] - knots[i]) * cox_de_boor(knots, i, k - 1, x)
    right = 0.0
    if knots[i + k + 1] > knots[i + 1]:
        right = (
            (knots[i + k + 1] - x)
            / (knots[i + k + 1] - knots[i + 1])
            * cox_de_boor(knots, i + 1, k - 1, x)
        )
    return left + right


def oracle_eval(curve, x):
    total = 0.0
    for i, c in enumerate(curve.coefficients):
        total += c * cox_de_boor(curve.knots, i, curve.degree, float(x))
    return total


def random_curve(rng, degree=3, interior=None):
    if interior is None:
        interior = int(rng.integers(0, 7))
    knots = uniform_clamped_knots(0.0, 1.0, degree, interior)
    coeffs = rng.normal(size=knots.size - degree - 1)
    return BSplineCurve(degree, knots, coeffs)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_evaluation_matches_cox_de_boor(degree):
    rng = np.random.default_rng(degree)
    for _ in range(8):
        curve = random_curve(rng, degree=degree)
        xs = np.concatenate([rng.uniform(0.0, 1.0, size=20), [0.0, 1.0], curve.knots[3:5]])
        got = curve(xs)
        for x, g in zip(xs, got):
            assert g == pytest.approx(oracle_eval(curve, x), abs=1e-10)


def test_evaluation_at_repeated_interior_knots():
    # Doubled interior knots drop continuity to C^1; evaluation must still
    # agree with the recursion exactly at the knot.
    degree = 3
    knots = np.array([0.0, 0, 0, 0, 0.4, 0.4, 0.7, 1.0, 1, 1, 1])
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=knots.size - degree - 1)
    curve = BSplineCurve(degree, knots, coeffs)
    for x in [0.0, 0.4, 0.69999, 0.7, 0.94, 1.0]:
        assert curve(x) == pytest.approx(oracle_eval(curve, x), abs=1e-10)


def test_queries_outside_domain_clip_to_ends():
    rng = np.random.default_rng(6)
    curve = random_curve(rng)
    assert curve(-3.0) == pytest.approx(curve(0.0), abs=1e-12)
    assert curve(42.0) == pytest.approx(curve(1.0), abs=1e-12)
    got = curve(np.array([-1.0, 0.5, 2.0]))
    assert got.shape == (3,)


def scipy_cases(rng):
    """Curves of degree 1-5 on uniform, random and repeated interior knots."""
    for t in range(60):
        degree = 3 if t % 2 else int(rng.integers(1, 6))
        interior = int(rng.integers(0, 20))
        lo = float(rng.uniform(-2.0, 2.0))
        if t % 5 == 0:
            lo = 0.0  # so the queries below include -0.0 and +0.0 at the left end
        hi = lo + float(rng.uniform(1e-3, 5.0))
        inner = np.sort(rng.uniform(lo, hi, interior))
        if t % 3 == 0:
            inner = uniform_clamped_knots(lo, hi, degree, interior)[degree + 1 : -degree - 1]
        elif t % 3 == 1 and interior > 2:
            inner[1] = inner[2]
        knots = np.concatenate([np.full(degree + 1, lo), inner, np.full(degree + 1, hi)])
        coeffs = rng.normal(scale=10.0, size=knots.size - degree - 1)
        # Queries between knots, on every knot and one ulp to either side.
        xs = np.concatenate([rng.uniform(lo, hi, 50), knots, np.nextafter(knots, -np.inf)])
        xs = np.concatenate([xs, np.nextafter(knots, np.inf), [-0.0, 0.0]])
        yield BSplineCurve(degree, knots, coeffs), np.clip(xs, lo, hi)


def test_evaluation_and_design_matrix_are_scipys_bit_for_bit():
    for curve, xs in scipy_cases(np.random.default_rng(11)):
        t, c, k = curve.knots, curve.coefficients, curve.degree
        assert curve(xs).tobytes() == BSpline(t, c, k, extrapolate=False)(xs).tobytes()
        assert design_matrix(xs, t, k).tobytes() == BSpline.design_matrix(xs, t, k).toarray().tobytes()


def test_power_coefficients_are_ppoly_from_spline_bit_for_bit():
    for curve, _ in scipy_cases(np.random.default_rng(12)):
        want = PPoly.from_spline((curve.knots, curve.coefficients, curve.degree), extrapolate=False)
        assert curve.power_coefficients().tobytes() == want.c.tobytes()


def test_uniform_clamped_knot_structure():
    knots = uniform_clamped_knots(2.0, 6.0, 3, 4)
    assert knots.size == 4 + 2 * 4
    assert np.all(knots[:4] == 2.0) and np.all(knots[-4:] == 6.0)
    assert np.allclose(np.diff(knots[3:-3]), 0.8)
    with pytest.raises(ValueError):
        uniform_clamped_knots(1.0, 1.0, 3, 2)
    # Both used to return a knot vector: the zero-interior one, and [1/3, 2/3].
    with pytest.raises(ValueError, match="interior"):
        uniform_clamped_knots(0.0, 1.0, 3, -1)
    for degree in (-1, 0):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            uniform_clamped_knots(0.0, 1.0, degree, 2)


def test_curve_validation():
    knots = uniform_clamped_knots(0.0, 1.0, 3, 2)
    with pytest.raises(ValueError):
        BSplineCurve(3, knots, np.zeros(3))
    with pytest.raises(ValueError):
        BSplineCurve(0, knots, np.zeros(6))
    bad = knots.copy()
    bad[5], bad[6] = bad[6], bad[5]
    if bad[5] > bad[6]:
        with pytest.raises(ValueError):
            BSplineCurve(3, bad, np.zeros(6))
    with pytest.raises(ValueError):
        BSplineCurve(3, np.linspace(0, 1, 10), np.zeros(6))
    # A non-finite knot or coefficient used to pass: nan fails no comparison.
    for bad in (math.nan, math.inf):
        odd = knots.copy()
        odd[5] = bad
        with pytest.raises(ValueError, match="finite"):
            BSplineCurve(3, odd, np.zeros(6))
        coefficients = np.zeros(6)
        coefficients[2] = bad
        with pytest.raises(ValueError, match="finite"):
            BSplineCurve(3, knots, coefficients)


def test_lsq_fit_recovers_spline_data_exactly():
    rng = np.random.default_rng(7)
    truth = random_curve(rng, interior=4)
    x = np.linspace(0.0, 1.0, 120)
    y = truth(x)
    coefficients, rss = _lstsq(x, y, truth.knots, truth.degree)
    fitted = BSplineCurve(truth.degree, truth.knots, coefficients)
    assert rss < 1e-18
    assert np.allclose(fitted.coefficients, truth.coefficients, atol=1e-8)
    assert np.allclose(fitted(x), y, atol=1e-10)


def test_bic_recovers_generating_knot_count():
    # x spans [0, 1] exactly so the candidate knot grid for interior=8
    # coincides with the generating spline's knots.
    hits = 0
    for seed in range(5):
        local = np.random.default_rng(seed)
        truth = random_curve(local, interior=8)
        x = np.linspace(0.0, 1.0, 400)
        y = truth(x) + local.normal(0.0, 0.01, size=400)
        curve, interior, _ = fit_bspline_bic(np.column_stack([x, y]))
        assert 6 <= interior <= 10
        dense = np.linspace(0.0, 1.0, 1000)
        rmse = float(np.sqrt(np.mean((curve(dense) - truth(dense)) ** 2)))
        assert rmse < 0.02
        hits += interior == 8
    assert hits >= 3


def test_bic_prefers_no_interior_knots_for_cubic_data():
    rng = np.random.default_rng(9)
    x = np.sort(rng.uniform(0.0, 1.0, size=200))
    y = 2.0 * x**3 - x + 0.5 + rng.normal(0.0, 0.005, size=200)
    _, interior, _ = fit_bspline_bic(np.column_stack([x, y]))
    assert interior == 0


def test_bic_validation():
    with pytest.raises(ValueError):
        fit_bspline_bic(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        fit_bspline_bic(np.array([[0.0, 1.0], [0.0, 2.0]]))
    pts = np.column_stack([np.linspace(0, 1, 30), np.zeros(30)])
    pts[3, 1] = np.nan
    with pytest.raises(ValueError):
        fit_bspline_bic(pts)
    few = np.column_stack([np.linspace(0, 1, 5), np.zeros(5)])
    with pytest.raises(ValueError):
        fit_bspline_bic(few, knot_counts=(10, 20))
    # A negative degree used to raise IndexError from inside the fit.
    line = np.column_stack([np.linspace(0, 1, 30), np.linspace(0, 1, 30)])
    for degree in (-1, 0):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            fit_bspline_bic(line, degree=degree)
    # Negative candidates are skipped, not refused.
    _, interior, _ = fit_bspline_bic(line, knot_counts=(-3, 2))
    assert interior == 2


def test_bic_value_formula():
    rng = np.random.default_rng(10)
    x = np.sort(rng.uniform(0.0, 1.0, size=150))
    y = np.sin(6.0 * x) + rng.normal(0.0, 0.02, size=150)
    curve, interior, bic = fit_bspline_bic(np.column_stack([x, y]))
    _, rss = _lstsq(x, y, curve.knots, curve.degree)
    n = x.size
    k = interior + curve.degree + 1
    assert bic == pytest.approx(n * np.log(rss / n) + k * np.log(n), rel=1e-12)


def bic_oracle(points, degree, knot_counts):
    """The per-candidate BIC search: a design matrix, lstsq and a validated curve for each."""
    x, y = points[:, 0], points[:, 1]
    lo, hi = float(np.min(x)), float(np.max(x))
    n = x.size
    best = None
    for interior in sorted(set(int(c) for c in knot_counts)):
        n_coeff = interior + degree + 1
        if interior < 0 or n_coeff >= n:
            continue
        knots = uniform_clamped_knots(lo, hi, degree, interior)
        basis = design_matrix(np.clip(x, knots[degree], knots[-degree - 1]), knots, degree)
        coeffs, _, _, _ = np.linalg.lstsq(basis, y, rcond=None)
        resid = y - basis @ coeffs
        curve = BSplineCurve(degree, knots, coeffs)
        bic = n * np.log(max(float(resid @ resid), 1e-300) / n) + n_coeff * np.log(n)
        if best is None or bic < best[0]:
            best = (bic, interior, curve)
    bic, interior, curve = best
    return curve, interior, float(bic)


def test_bic_fit_is_the_per_candidate_search_bit_for_bit():
    rng = np.random.default_rng(13)
    for t in range(60):
        degree = int(rng.integers(1, 6))
        counts = [int(c) for c in rng.integers(-3, 14, size=int(rng.integers(1, 8)))]
        counts = [*counts, counts[0], -1, 0]  # unsorted, with a duplicate and negatives
        shape = t % 4
        if shape == 0:  # just more points than the largest candidate has coefficients
            n = max(counts) + degree + 2
        else:
            n = int(rng.integers(max(counts) + degree + 2, 300))
        x = rng.uniform(-3.0, 3.0, n)
        if shape == 1:  # duplicate x
            x = np.round(x, 1)
        elif shape == 2:  # two clusters, so some candidates' knot spans hold no point
            x = np.where(rng.random(n) < 0.5, -3.0, 3.0) + rng.uniform(0.0, 0.01, n)
            x[:2] = [-3.0, 3.01]
        y = np.sin(x) + rng.normal(0.0, 0.1, n)
        points = np.column_stack([x, y])
        want_curve, want_interior, want_bic = bic_oracle(points, degree, counts)
        curve, interior, bic = fit_bspline_bic(points, degree=degree, knot_counts=tuple(counts))
        assert curve.degree == degree
        assert curve.knots.tobytes() == want_curve.knots.tobytes(), t
        assert curve.coefficients.tobytes() == want_curve.coefficients.tobytes(), t
        assert (interior, bic) == (want_interior, want_bic), t
