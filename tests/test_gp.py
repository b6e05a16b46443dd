"""GP regression against a dense linear-algebra oracle.

The oracle below recomputes every kernel entry pairwise and solves the
covariance system with plain np.linalg.solve, sharing no code with the
package's Cholesky path.
"""

import math

import golden_outputs
import numpy as np
import pytest

from buttonlab import (
    GpModel,
    KernelFamily,
    KernelSpec,
    NumericalError,
    gp,
    gp_fit,
    gp_predict_batch,
    optimize_hyperparams,
)
from buttonlab.gp import _kernel_matrix

SQRT5 = math.sqrt(5.0)


def oracle_kernel(spec, a, b):
    r2 = 0.0
    for i in range(len(a)):
        u = (a[i] - b[i]) / spec.lengthscales[i]
        r2 += u * u
    if spec.family is KernelFamily.SQUARED_EXPONENTIAL:
        return spec.signal_variance * math.exp(-0.5 * r2)
    r = math.sqrt(r2)
    return spec.signal_variance * (1.0 + SQRT5 * r + 5.0 * r2 / 3.0) * math.exp(-SQRT5 * r)


def oracle_predict(spec, x, y, q):
    n = x.shape[0]
    cov = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            cov[i, j] = oracle_kernel(spec, x[i], x[j])
    cov += spec.noise_variance * np.eye(n)
    kq = np.array([oracle_kernel(spec, x[i], q) for i in range(n)])
    weights = np.linalg.solve(cov, y)
    mean = float(kq @ weights)
    var = float(oracle_kernel(spec, q, q) - kq @ np.linalg.solve(cov, kq))
    return mean, var


def predict_one(model, query):
    """Posterior (mean, variance) at one point: a one-row, one-model gp_predict_batch."""
    mean, variance = gp_predict_batch([model], query)
    return float(mean[0, 0]), float(variance[0, 0])


def random_problem(rng, family):
    n = int(rng.integers(2, 21))
    d = int(rng.integers(1, 5))
    x = rng.uniform(-2.0, 2.0, size=(n, d))
    y = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
    spec = KernelSpec(
        signal_variance=float(rng.uniform(0.2, 5.0)),
        lengthscales=rng.uniform(0.3, 2.0, size=d),
        noise_variance=float(rng.uniform(1e-4, 0.1)),
        family=family,
    )
    return x, y, spec


@pytest.mark.parametrize("family", list(KernelFamily))
def test_predictions_match_dense_oracle(family):
    rng = np.random.default_rng(42)
    for _ in range(25):
        x, y, spec = random_problem(rng, family)
        model = gp_fit(x, y, spec)
        for _ in range(4):
            q = rng.uniform(-2.5, 2.5, size=x.shape[1])
            mean, var = oracle_predict(spec, x, y, q)
            pred_mean, pred_var = predict_one(model, q)
            assert abs(pred_mean - mean) < 1e-8
            assert abs(pred_var - max(var, 0.0)) < 1e-8


def test_noise_free_interpolation():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 1.0, size=(12, 3))
    y = np.sin(3.0 * x[:, 0]) + x[:, 1] ** 2
    spec = KernelSpec(1.5, np.full(3, 0.8), noise_variance=0.0)
    model = gp_fit(x, y, spec)
    for i in range(x.shape[0]):
        pred_mean, pred_var = predict_one(model, x[i])
        assert abs(pred_mean - y[i]) < 1e-6
        assert pred_var < 1e-6


def test_batch_prediction_agrees_with_scalar_path():
    rng = np.random.default_rng(3)
    x, y, spec = random_problem(rng, KernelFamily.MATERN52)
    model = gp_fit(x, y, spec)
    queries = rng.uniform(-2.0, 2.0, size=(30, x.shape[1]))
    (means,), (variances,) = gp_predict_batch([model], queries)
    for i, q in enumerate(queries):
        pred_mean, pred_var = predict_one(model, q)
        assert means[i] == pytest.approx(pred_mean, abs=1e-12)
        assert variances[i] == pytest.approx(pred_var, abs=1e-12)


def per_model_posterior(model, queries):
    """One model's posterior as gp_predict_batch computed it, one model per
    call, before it stacked them: the kernel's expression for one
    lengthscale row, then L^-1 k, its projections and the clip."""
    spec = model.kernel
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    sa = model.inputs / spec.lengthscales
    sb = q / spec.lengthscales
    r2 = np.maximum(np.square(sa).sum(axis=1)[:, None] + np.square(sb).sum(axis=1)[None, :] - 2.0 * sa @ sb.T, 0.0)
    if spec.family is KernelFamily.SQUARED_EXPONENTIAL:
        k = spec.signal_variance * np.exp(-0.5 * r2)
    else:
        r = np.sqrt(r2)
        k = spec.signal_variance * (1.0 + SQRT5 * r + (5.0 / 3.0) * r2) * np.exp(-SQRT5 * r)
    v = model.inverse_factor @ k
    mean = model.whitened @ v
    variance = spec.signal_variance - np.sum(v * v, axis=0)
    return mean, np.clip(variance, 0.0, spec.signal_variance)


@pytest.mark.parametrize("family", list(KernelFamily))
def test_stacked_posterior_matches_per_model_oracle_bit_for_bit(family):
    # Every model's row of one stacked call is the bits that model alone
    # gave, at every model count and query block size the loop uses.
    rng = np.random.default_rng(23)
    for n, d in [(0, 2), (1, 3), (9, 1), (44, 6), (70, 6)]:
        x = rng.uniform(0.0, 1.0, size=(n, d))
        models = [
            gp_fit(
                x,
                np.sin((j + 2.0) * x).sum(axis=1) + 0.05 * rng.standard_normal(n),
                KernelSpec(float(rng.uniform(0.2, 3.0)), rng.uniform(0.1, 2.0, d), float(rng.uniform(1e-6, 1e-2)), family),
            )
            for j in range(3)
        ]
        for count in (1, 2, 3):
            for rows in (1, 12, 1064):
                queries = rng.uniform(0.0, 1.0, size=(rows, d))
                means, variances = gp_predict_batch(models[:count], queries)
                assert means.shape == variances.shape == (count, rows)
                for j in range(count):
                    mean, variance = per_model_posterior(models[j], queries)
                    assert np.array_equal(means[j], mean), (n, count, rows, j)
                    assert np.array_equal(variances[j], variance), (n, count, rows, j)


def test_stacked_posterior_refuses_models_of_other_inputs_dimension_or_family():
    # A model of another dimension has inputs of another shape.
    rng = np.random.default_rng(29)
    x = rng.uniform(0.0, 1.0, size=(6, 2))
    y = np.sin(3.0 * x).sum(axis=1)
    spec = KernelSpec(1.0, np.full(2, 0.5))
    model = gp_fit(x, y, spec)
    others = [
        ("training inputs", gp_fit(x + 0.1, y, spec)),
        ("training inputs", gp_fit(x[:5], y[:5], spec)),
        ("training inputs", gp_fit(np.hstack([x, x[:, :1]]), y, KernelSpec(1.0, np.full(3, 0.5)))),
        ("kernel family", gp_fit(x, y, KernelSpec(1.0, np.full(2, 0.5), family=KernelFamily.SQUARED_EXPONENTIAL))),
    ]
    for what, other in others:
        for pair in ([model, other], [other, model]):
            with pytest.raises(ValueError, match=what):
                gp_predict_batch(pair, x)
    with pytest.raises(ValueError, match="at least one model"):
        gp_predict_batch([], x)
    # A second fit on the same inputs, with another kernel and targets, is accepted.
    twin = gp_fit(x.copy(), np.cos(x).sum(axis=1), KernelSpec(2.0, np.array([0.3, 0.9])))
    assert gp_predict_batch([model, twin], x)[0].shape == (2, 6)


def test_log_marginal_likelihood_matches_dense_formula():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x, y, spec = random_problem(rng, KernelFamily.MATERN52)
        n = x.shape[0]
        cov = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                cov[i, j] = oracle_kernel(spec, x[i], x[j])
        cov += spec.noise_variance * np.eye(n)
        sign, logdet = np.linalg.slogdet(cov)
        assert sign > 0
        expected = -0.5 * float(y @ np.linalg.solve(cov, y)) - 0.5 * logdet - 0.5 * n * math.log(2 * math.pi)
        model = gp_fit(x, y, spec)
        assert model.log_likelihood == pytest.approx(expected, abs=1e-8)


def test_variance_bounds_and_far_field():
    spec = KernelSpec(2.0, np.array([0.5]), noise_variance=1e-6)
    x = np.array([[0.0], [0.4], [1.1]])
    y = np.array([0.3, -0.2, 0.9])
    model = gp_fit(x, y, spec)
    _, near_var = predict_one(model, np.array([0.2]))
    far_mean, far_var = predict_one(model, np.array([80.0]))
    assert 0.0 <= near_var <= spec.signal_variance
    assert far_var == pytest.approx(spec.signal_variance, rel=1e-6)
    assert far_mean == pytest.approx(0.0, abs=1e-6)


def test_empty_model_returns_prior():
    spec = KernelSpec(1.7, np.array([1.0, 1.0]))
    model = gp_fit(np.zeros((0, 2)), np.zeros(0), spec)
    mean, variance = predict_one(model, np.array([0.3, -0.4]))
    assert mean == 0.0
    assert variance == spec.signal_variance
    assert model.log_likelihood == 0.0  # no targets, no evidence


def test_kernel_eval_symmetry_and_diagonal():
    rng = np.random.default_rng(5)
    spec = KernelSpec(1.3, np.array([0.7, 1.4, 0.9]), family=KernelFamily.SQUARED_EXPONENTIAL)

    def kernel(a, b):
        return float(_kernel_matrix(spec.signal_variance, spec.lengthscales, spec.family, a[None, :], b[None, :])[0, 0])

    for _ in range(20):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        assert kernel(a, b) == pytest.approx(kernel(b, a), rel=1e-12)
        assert kernel(a, a) == pytest.approx(spec.signal_variance, rel=1e-9)
        assert kernel(a, b) <= spec.signal_variance + 1e-12


def test_inconsistent_noise_free_system_is_rejected():
    # Duplicate inputs with conflicting targets cannot be interpolated;
    # silent jitter smoothing would hide real data problems.
    x = np.array([[0.5], [0.5]])
    y = np.array([0.0, 1.0])
    with pytest.raises(NumericalError):
        gp_fit(x, y, KernelSpec(1.0, np.array([1.0]), noise_variance=0.0))


def test_duplicate_inputs_with_matching_targets_fit():
    x = np.array([[0.5], [0.5], [1.5]])
    y = np.array([0.7, 0.7, -0.2])
    model = gp_fit(x, y, KernelSpec(1.0, np.array([1.0]), noise_variance=0.0))
    assert predict_one(model, np.array([0.5]))[0] == pytest.approx(0.7, abs=1e-6)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        gp_fit(np.zeros((3, 1)), np.zeros(4), KernelSpec(1.0, np.array([1.0])))
    model = gp_fit(np.zeros((2, 2)), np.zeros(2), KernelSpec(1.0, np.ones(2)))
    with pytest.raises(ValueError):
        gp_predict_batch([model], np.zeros(3))


def test_hyperparameter_search_improves_on_poor_guess():
    rng = np.random.default_rng(19)
    x = rng.uniform(0.0, 4.0, size=(18, 2))
    y = np.sin(x[:, 0]) * np.cos(0.5 * x[:, 1]) + 0.01 * rng.standard_normal(18)
    poor = KernelSpec(100.0, np.full(2, 50.0), noise_variance=1.0)
    tuned = optimize_hyperparams(x, y, seed=0)
    lml_poor = gp_fit(x, y, poor).log_likelihood
    lml_tuned = gp_fit(x, y, tuned).log_likelihood
    assert lml_tuned > lml_poor
    again = optimize_hyperparams(x, y, seed=0)
    assert again.signal_variance == tuned.signal_variance
    assert np.array_equal(again.lengthscales, tuned.lengthscales)
    assert again.noise_variance == tuned.noise_variance
    assert optimize_hyperparams(x, y, seed=1) is not None


def test_hyperparameter_search_input_validation():
    with pytest.raises(ValueError):
        optimize_hyperparams(np.zeros((1, 1)), np.zeros(1))


def test_model_exposes_training_size():
    x = np.linspace(0, 1, 5)[:, None]
    model = gp_fit(x, np.zeros(5), KernelSpec(1.0, np.array([1.0])))
    assert isinstance(model, GpModel)
    assert model.inputs.shape[0] == 5


def test_non_finite_inputs_or_targets_raise_value_error():
    x = np.linspace(0.0, 1.0, 4)[:, None]
    y = np.array([0.1, -0.3, 0.2, 0.5])
    spec = KernelSpec(1.0, np.array([0.5]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            gp_fit(np.where(np.arange(4)[:, None] == 2, bad, x), y, spec)
        with pytest.raises(ValueError):
            gp_fit(x, np.where(np.arange(4) == 1, bad, y), spec)
        with pytest.raises(ValueError):
            optimize_hyperparams(x, np.where(np.arange(4) == 3, bad, y))


def reference_search(inputs, targets, search_budget, seed, family, tally):
    """optimize_hyperparams before scoring was memoized: a KernelSpec and a
    gp_fit and its log_likelihood for every trial, repeats included.

    ``tally`` counts trials, distinct trials, jittered fits and failed fits.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float).ravel()
    d = x.shape[1]
    rng = np.random.default_rng(seed)
    y_scale = max(float(np.var(y)), 1e-12)
    span = np.maximum(np.max(x, axis=0) - np.min(x, axis=0), 1e-3)

    def make(sv, ls, nv):
        sv = min(max(sv, 1e-8 * y_scale), 1e8 * y_scale)
        ls = np.clip(ls, 1e-3 * span, 1e2 * span)
        nv = min(max(nv, 1e-8 * sv), 1e2 * y_scale)
        return KernelSpec(sv, ls, nv, family)

    def lml_of(spec):
        tally["trials"] += 1
        tally["distinct"].add(spec_bytes(spec))
        try:
            model = gp_fit(x, y, spec)
        except NumericalError:
            tally["failed"] += 1
            return -np.inf
        tally["jittered"] += model.jitter > 0.0
        return model.log_likelihood

    candidates = [make(y_scale, 0.3 * span, 1e-4 * y_scale)]
    for _ in range(search_budget):
        sv = y_scale * 10.0 ** rng.uniform(-1.0, 1.0)
        ls = span * 10.0 ** rng.uniform(-1.5, 0.7, size=d)
        nv = y_scale * 10.0 ** rng.uniform(-8.0, -0.5)
        candidates.append(make(sv, ls, nv))
    scored = [(lml_of(spec), i, spec) for i, spec in enumerate(candidates)]
    best_lml, _, best = max(scored, key=lambda t: (t[0], -t[1]))
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
                    lml = lml_of(trial)
                    if lml > best_lml:
                        best_lml, best = lml, trial
                        improved = True
    return best


def spec_bytes(spec):
    values = np.array([spec.signal_variance, spec.noise_variance])
    return values.tobytes() + spec.lengthscales.tobytes() + spec.family.value.encode()


def search_problems():
    """(family, inputs, targets) across both families, d = 2 and 6, n = 3-70."""
    rng = np.random.default_rng(2024)
    for family in KernelFamily:
        for d in (2, 6):
            for n in (3, 9, 24, 70):
                x = rng.uniform(0.0, 1.0, size=(n, d))
                yield family, x, np.sin(3.0 * x).sum(axis=1) + 0.05 * rng.standard_normal(n)
            # Duplicate inputs with matching, noise-free targets: trials
            # pile up on the noise floor and repeat clipped candidates.
            x = rng.uniform(0.0, 1.0, size=(30, d))
            x[15:] = x[:15]
            yield family, x, np.sin(3.0 * x).sum(axis=1)
            # Far from the origin, cancellation in the distances makes some
            # trials need jitter (on a tiny target scale) or fail outright.
            for scale in (1e-7, 1.0):
                x = 2e5 + rng.uniform(0.0, 1.0, size=(45, d))
                yield family, x, scale * np.sin(3.0 * (x - 2e5)).sum(axis=1)


def test_hyperparameter_search_matches_frozen_reference_bit_for_bit():
    tally = {"trials": 0, "distinct": set(), "jittered": 0, "failed": 0}
    for k, (family, x, y) in enumerate(search_problems()):
        before = len(tally["distinct"])
        want = reference_search(x, y, 8, k, family, tally)
        got = optimize_hyperparams(x, y, seed=k, family=family.value)
        assert spec_bytes(got) == spec_bytes(want), (k, family, x.shape)
        assert len(tally["distinct"]) > before
    # The problem set reaches every branch of the factorization.
    assert tally["trials"] > len(tally["distinct"])
    assert tally["jittered"] > 0
    assert tally["failed"] > 0


@pytest.mark.parametrize("family", list(KernelFamily))
def test_search_builds_fewer_kernel_shapes_than_it_scores_candidates(family, monkeypatch):
    # Signal- and noise-variance trials reuse the best candidate's shape.
    k, x, y = next((k, x, y) for k, (f, x, y) in enumerate(search_problems()) if f is family and x.shape[0] == 24)
    tally = {"trials": 0, "distinct": set(), "jittered": 0, "failed": 0}
    want = reference_search(x, y, 8, k, family, tally)
    build = gp._kernel_shape
    builds = 0

    def counted(*args):
        nonlocal builds
        builds += 1
        return build(*args)

    monkeypatch.setattr(gp, "_kernel_shape", counted)
    got = optimize_hyperparams(x, y, seed=k, family=family)
    assert spec_bytes(got) == spec_bytes(want)
    assert 0 < builds < len(tally["distinct"])


def clipped_to_search_box(spec, x, y):
    """``spec`` clipped to the box ``optimize_hyperparams`` searches on (x, y)."""
    y_scale = max(float(np.var(y)), 1e-12)
    span = np.maximum(np.max(x, axis=0) - np.min(x, axis=0), 1e-3)
    sv = min(max(spec.signal_variance, 1e-8 * y_scale), 1e8 * y_scale)
    ls = np.clip(spec.lengthscales, 1e-3 * span, 1e2 * span)
    nv = min(max(spec.noise_variance, 1e-8 * sv), 1e2 * y_scale)
    return KernelSpec(sv, ls, nv, spec.family)


@pytest.mark.parametrize("family", list(KernelFamily))
def test_warm_search_on_growing_data_factorizes_less_and_keeps_its_start(family, monkeypatch):
    # The loop's refits: each search sees a few more observations than the
    # last, and the warm one starts from the kernel the last one chose.
    rng = np.random.default_rng(31)
    x = rng.uniform(0.0, 1.0, size=(40, 3))
    y = np.sin(3.0 * x).sum(axis=1) + 0.05 * rng.standard_normal(40)
    factor = gp._factor
    factorizations = 0

    def counted(*args):
        nonlocal factorizations
        factorizations += 1
        return factor(*args)

    def searched(n, seed, start=None):
        nonlocal factorizations
        factorizations = 0
        monkeypatch.setattr(gp, "_factor", counted)
        spec = optimize_hyperparams(x[:n], y[:n], seed=seed, family=family, start=start)
        monkeypatch.setattr(gp, "_factor", factor)
        return spec, factorizations

    kernel, _ = searched(10, 0)
    cold_total = warm_total = 0
    for k, n in enumerate(range(15, 41, 5), start=1):
        _, cold = searched(n, k)
        warm_kernel, warm = searched(n, k, kernel)
        cold_total, warm_total = cold_total + cold, warm_total + warm
        start_lml = gp_fit(x[:n], y[:n], clipped_to_search_box(kernel, x[:n], y[:n])).log_likelihood
        assert gp_fit(x[:n], y[:n], warm_kernel).log_likelihood >= start_lml
        kernel = warm_kernel
    assert warm_total < cold_total


def test_warm_search_keeps_a_start_clipped_to_the_box():
    # A start far outside the box is clipped, not refused, and still bounds
    # the result from below.
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, size=(12, 2))
    y = np.cos(2.0 * x).sum(axis=1)
    start = KernelSpec(1e12, np.array([1e-9, 1e9]), 1e6)
    spec = optimize_hyperparams(x, y, seed=3, start=start)
    clipped = clipped_to_search_box(start, x, y)
    assert clipped.signal_variance < start.signal_variance
    assert gp_fit(x, y, spec).log_likelihood >= gp_fit(x, y, clipped).log_likelihood


def test_warm_start_of_another_dimension_or_family_is_refused():
    x = np.linspace(0.0, 1.0, 8).reshape(4, 2)
    y = np.array([0.1, -0.3, 0.2, 0.5])
    with pytest.raises(ValueError, match="3-dimensional"):
        optimize_hyperparams(x, y, start=KernelSpec(1.0, np.ones(3)))
    with pytest.raises(ValueError, match="squared_exponential"):
        optimize_hyperparams(x, y, start=KernelSpec(1.0, np.ones(2), family=KernelFamily.SQUARED_EXPONENTIAL))
    with pytest.raises(ValueError, match="matern52"):
        optimize_hyperparams(x, y, family=KernelFamily.SQUARED_EXPONENTIAL, start=KernelSpec(1.0, np.ones(2)))


_THREAD_PROBE = """
import hashlib
import numpy as np
from buttonlab import KernelFamily, KernelSpec, gp_fit, gp_predict_batch, optimize_hyperparams

def digest(*arrays):
    return hashlib.sha256(b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays)).hexdigest()

rng = np.random.default_rng(9)
for family, n, d in [("matern52", 70, 6), ("squared_exponential", 48, 2), ("matern52", 12, 6)]:
    x = rng.uniform(0.0, 1.0, size=(n, d))
    y = np.sin(3.0 * x).sum(axis=1) + 0.05 * rng.standard_normal(n)
    spec = optimize_hyperparams(x, y, seed=n, family=family)
    print(np.array([spec.signal_variance, spec.noise_variance]).tobytes().hex(), spec.lengthscales.tobytes().hex())

# A search warm-started from the last kernel, on six more observations.
x = np.vstack([x, rng.uniform(0.0, 1.0, size=(6, 6))])
y = np.sin(3.0 * x).sum(axis=1) + 0.05 * rng.standard_normal(x.shape[0])
spec = optimize_hyperparams(x, y, seed=1, start=spec)
print(np.array([spec.signal_variance, spec.noise_variance]).tobytes().hex(), spec.lengthscales.tobytes().hex())

# The posterior over a scan-sized block of queries.
scan = rng.uniform(0.0, 1.0, size=(1064, 6))
for n in (44, 70):
    x = rng.uniform(0.0, 1.0, size=(n, 6))
    y = np.sin(3.0 * x).sum(axis=1) + 0.05 * rng.standard_normal(n)
    model = gp_fit(x, y, optimize_hyperparams(x, y, seed=n))
    print(n, digest(*gp_predict_batch([model], scan)))

# Duplicate noise-free inputs with matching targets: a fit that needs jitter.
x = rng.uniform(0.0, 1.0, size=(30, 6))
x[15:] = x[:15]
model = gp_fit(x, np.sin(3.0 * x).sum(axis=1), KernelSpec(1.0, np.full(6, 0.5), noise_variance=0.0))
assert model.jitter > 0.0
print(model.jitter, digest(model.inverse_factor, model.whitened, model.log_likelihood))

# Three models on shared inputs, each with its own kernel, in one stacked posterior.
x = rng.uniform(0.0, 1.0, size=(60, 6))
models = [
    gp_fit(x, np.sin(3.0 * x).sum(axis=1), KernelSpec(1.3, np.full(6, 0.4), 1e-4)),
    gp_fit(x, np.cos(2.0 * x).sum(axis=1), KernelSpec(0.6, np.linspace(0.2, 1.5, 6), 1e-3)),
    gp_fit(x, x.prod(axis=1), KernelSpec(2.1, np.linspace(1.1, 0.3, 6), 1e-5)),
]
print(digest(*gp_predict_batch(models, scan)))
"""


def test_hyperparameter_search_bits_do_not_depend_on_blas_thread_count():
    # On the pinned CPU path (x86-64-v3, OpenBLAS Haswell), the n = 70
    # posterior over the scan differed between one thread and two until
    # gp_predict_batch ran on one.
    one, two = golden_outputs.thread_count_outputs(_THREAD_PROBE, pinned=False)
    assert one == two
    reason = golden_outputs.unpinned_reason(golden_outputs.platform_info())
    if reason is not None:
        pytest.skip(f"the default CPU path passed; the pinned one needs: {reason}")
    one, two = golden_outputs.thread_count_outputs(_THREAD_PROBE, pinned=True)
    assert one == two
