"""EHVI and proposal selection.

EHVI is exact, so one candidate's EHVI, the ``ehvi`` helper below,
reproduces what propose_next computed inside its batched scan, up to the
last bits of the GP posterior.  Its oracles are quadrature of the normal
CDF, Monte Carlo of the hypervolume difference, and a strip sum free of
cancellation.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy.special import ndtr

from buttonlab import (
    KernelSpec,
    ParetoArchive,
    ReferencePoint,
    gp_fit,
    gp_predict_batch,
    hypervolume,
    propose_next,
    scan_candidates,
)
from buttonlab import acquisition
from buttonlab.acquisition import _cells, _check_models, _ehvi_batch, _gains, _psi
from buttonlab.pareto import _boxes, _reference_values
from test_pareto import slicing_hypervolume3, sweep_hypervolume2


def ehvi(models, candidate, archive, ref):
    """Expected hypervolume improvement of evaluating ``candidate``: one
    row of the library's batched EHVI, with its checks."""
    models = _check_models(models)
    ref_values = _reference_values(ref, len(models))
    point = np.atleast_2d(np.asarray(candidate, dtype=float))
    return float(_ehvi_batch(models, point, _cells(archive.objective_matrix, ref_values))[0])


def two_models(rng, n=6, d=2, noise=1e-6):
    x = rng.uniform(0.0, 1.0, size=(n, d))
    y1 = np.sum((x - 0.3) ** 2, axis=1)
    y2 = np.sum((x - 0.7) ** 2, axis=1)
    spec = KernelSpec(1.0, np.full(d, 0.4), noise_variance=noise)
    return [gp_fit(x, y1, spec), gp_fit(x, y2, spec)], x, np.stack([y1, y2], axis=1)


def three_models(rng, n=8, d=2):
    x = rng.uniform(0.0, 1.0, size=(n, d))
    objs = np.stack([np.sum((x - c) ** 2, axis=1) for c in (0.2, 0.5, 0.8)], axis=1)
    spec = KernelSpec(1.0, np.full(d, 0.4), noise_variance=1e-6)
    return [gp_fit(x, objs[:, j], spec) for j in range(3)], x, objs


def archive_of(x, objs):
    archive = ParetoArchive(())
    for i in range(objs.shape[0]):
        archive = archive.inserted(x[i], objs[i], i)
    return archive


def strip_gains2(front, ref, y1, y2):
    """Hypervolume gained by each (y1, y2) over a 2-D front inside ref:
    the free area above the staircase cut into vertical strips, each
    contributing width x headroom.  Strips past ref[0] are not clipped, so
    this oracle holds only for fronts whose first objective is below ref."""
    if front.shape[0] == 0:
        return np.clip(ref[0] - y1, 0.0, None) * np.clip(ref[1] - y2, 0.0, None)
    f = front[np.lexsort((front[:, 1], front[:, 0]))]
    left = np.concatenate(([-np.inf], f[:, 0]))
    right = np.concatenate((f[:, 0], [ref[0]]))
    bound = np.concatenate(([ref[1]], np.minimum.accumulate(f[:, 1])))
    widths = np.clip(right[None, :] - np.maximum(left[None, :], y1[:, None]), 0.0, None)
    heights = np.clip(np.minimum(bound, ref[1])[None, :] - y2[:, None], 0.0, None)
    gain = np.sum(np.minimum(widths, np.clip(ref[0] - y1, 0.0, None)[:, None]) * heights, axis=1)
    return np.where(y2 >= ref[1], 0.0, gain)


def sample_gains(front, ref, y):
    """Hypervolume each row of ``y`` adds to ``front`` inside ``ref``: the
    strips in 2-D, and in 3-D the strips of each slab between distinct
    third objectives, times the slab's depth above y."""
    front = front[np.all(front < ref, axis=1)]
    if ref.size == 2:
        return strip_gains2(front, ref, y[:, 0], y[:, 1])
    levels = np.concatenate(([-np.inf], np.unique(front[:, 2]), [ref[2]]))
    gain = np.zeros(y.shape[0])
    for z0, z1 in zip(levels[:-1], levels[1:]):
        depth = np.clip(z1 - np.maximum(z0, y[:, 2]), 0.0, None)
        gain += depth * strip_gains2(front[front[:, 2] <= z0, :2], ref[:2], y[:, 0], y[:, 1])
    return gain


def test_box_gains_2d_match_hypervolume_difference():
    # At zero variance the expected gain is the gain of the mean.  Fronts
    # keep dominated points and points past the reference in either
    # objective; the gain is what the sweep oracle adds for y.
    rng = np.random.default_rng(0)
    ref = np.array([1.0, 1.0])
    for t in range(60):
        front = rng.uniform(-0.2, 1.3, size=(int(rng.integers(0, 10)), 2))
        if t % 3 == 1:
            front = np.round(front * 5.0) / 5.0
        base = sweep_hypervolume2(front, ref)
        y = rng.uniform(-0.2, 1.2, size=(30, 2))
        if t % 3 == 1:
            y = np.round(y * 5.0) / 5.0
        gains = _gains(_cells(front, ref), y.T, np.zeros_like(y).T)
        for i in range(30):
            expected = sweep_hypervolume2(np.vstack([front, y[i]]), ref) - base
            assert gains[i] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("m", [2, 3])
def test_boxes_volume_equals_exact_hypervolume(m):
    rng = np.random.default_rng(1)
    ref = np.array([1.0, 1.1, 0.9])[:m]
    oracle = sweep_hypervolume2 if m == 2 else slicing_hypervolume3
    for t in range(60):
        pts = rng.uniform(-0.1, 1.2, size=(int(rng.integers(1, 25)), m))
        if t % 2:
            pts = np.round(pts * 5.0) / 5.0
        lo, hi = _boxes(pts, ref)
        assert lo.shape == hi.shape and lo.shape[0] == m
        assert np.all(hi > lo)
        vol = float(np.sum(np.prod(hi - lo, axis=0)))
        assert vol == pytest.approx(oracle(pts, ref), abs=1e-12)
        if m == 2:
            # One strip per distinct first objective inside the reference.
            assert lo.shape[1] == np.unique(pts[np.all(pts < ref, axis=1), 0]).size
        if lo.shape[1] > 1:
            # Pairwise disjoint: no two boxes overlap in every axis.
            inter_lo = np.maximum(lo.T[:, None, :], lo.T[None, :, :])
            inter_hi = np.minimum(hi.T[:, None, :], hi.T[None, :, :])
            overlap = np.all(inter_hi > inter_lo + 1e-15, axis=2)
            np.fill_diagonal(overlap, False)
            assert not overlap.any()


def test_psi_matches_quadrature_of_the_normal_cdf():
    # psi(c) = E[(c - Y)+] is the integral of P(Y < t) for t up to c.
    mean = np.array([0.3, -1.0, 2.0, 0.0])
    std = np.array([0.5, 2.0, 1e-3, 1.0])
    edges = np.array([-3.0, -0.4, 0.0, 0.3, 0.8, 1.999, 2.0, 2.5, 6.0])
    got = _psi(edges, mean, std)
    for i in range(mean.size):
        for j, c in enumerate(edges):
            t = np.linspace(mean[i] - 40.0 * std[i], c, 200_001)
            if t[-1] <= t[0]:
                assert got[j, i] == 0.0
                continue
            f = ndtr((t - mean[i]) / std[i])
            h = t[1] - t[0]
            want = h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
            assert got[j, i] == pytest.approx(want, rel=1e-9, abs=1e-15), (i, j)
    # A point-mass posterior gives the plain gap.
    flat = _psi(edges, mean, np.zeros(4))
    assert np.array_equal(flat, np.maximum(edges[:, None] - mean, 0.0))


def test_erfc_is_exactly_two_and_zero_on_the_tails_psi_skips():
    # _normal_cdf writes these values without calling math.erfc; a libm
    # that rounds differently there would change _psi's bits.
    below = np.concatenate([np.linspace(-40.0, -6.0, 200_001), [-np.inf]])
    above = np.concatenate([np.linspace(28.0, 40.0, 200_001), [np.inf]])
    assert all(math.erfc(x) == 2.0 for x in below.tolist())
    assert all(math.erfc(x) == 0.0 for x in above.tolist())


_oracle_erfc = np.frompyfunc(math.erfc, 1, 1)


def oracle_psi(edges, mean, std):
    """_psi as it was before its tails were skipped: math.erfc on every
    element, through an object array."""
    gap = edges[:, None] - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        u = gap / std
        cdf = 0.5 * _oracle_erfc(u * -math.sqrt(0.5)).astype(float)
        psi = gap * cdf + std * np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return np.where(std > 0.0, psi, np.maximum(gap, 0.0))


def test_psi_matches_the_all_erfc_oracle_bit_for_bit():
    rng = np.random.default_rng(27)
    n = 400
    mean = rng.normal(0.0, 2.0, n)
    std = 10.0 ** rng.uniform(-6.0, 1.0, n)
    std[::17] = 0.0
    edges = np.concatenate([rng.normal(0.0, 3.0, 60), mean[:20]])  # the last 20 give zero gaps
    assert np.array_equal(_psi(edges, mean, std), oracle_psi(edges, mean, std))
    # x = -u / sqrt 2 a few ulps either side of each tail threshold.
    for threshold in (-6.0, 28.0):
        u0 = -threshold * math.sqrt(2.0)
        u = u0 + np.arange(-40, 41) * np.spacing(u0)
        x = u * -math.sqrt(0.5)
        assert (x < threshold).any() and (x > threshold).any()
        mean, std = np.array([0.0, 1.5]), np.array([1.0, 3.0])
        for edges in (u, 1.5 + 3.0 * u):
            assert np.array_equal(_psi(edges, mean, std), oracle_psi(edges, mean, std))


def per_axis_gains(front, ref, means, stds):
    """_gains as it was before the edge tables, on (n, m) posteriors: each
    axis's distinct edges found and its psi evaluated apart, with the
    all-erfc _psi above."""
    lo_b, hi_b = _boxes(np.reshape(front, (-1, ref.size)), ref)
    boxes = lo_b.shape[1]
    total = overlap = 1.0
    for k in range(ref.size):
        edges, at = np.unique(np.concatenate([lo_b[k], hi_b[k], ref[k : k + 1]]), return_inverse=True)
        psi = oracle_psi(edges, means[:, k], stds[:, k])
        overlap = overlap * (psi[at[boxes : 2 * boxes]] - psi[at[:boxes]])
        total = total * psi[at[-1]]
    return np.clip(total - overlap.sum(axis=0), 0.0, None)


def edge_table_case(rng, m, size):
    """A front (ties on a 0.2 grid, dominated points, points past the
    reference) and (m, 64) posteriors with zero stds, some in every
    objective and some in one, and means on the reference."""
    ref = np.array([1.0, 1.1, 0.9])[:m]
    front = np.round(rng.uniform(-0.1, 1.3, size=(size, m)) * 5.0) / 5.0
    means = rng.uniform(-0.2, 1.2, size=(m, 64))
    means[:, 1] = ref
    stds = rng.uniform(0.0, 0.4, size=(m, 64))
    stds[:, ::7] = 0.0
    stds[int(rng.integers(m)), 3::11] = 0.0
    return front, ref, means, stds


@pytest.mark.parametrize("m", [2, 3])
def test_gains_over_edge_tables_match_per_axis_gains_bit_for_bit(m):
    rng = np.random.default_rng(50 + m)
    padded = 0
    for size in [0] * 3 + list(range(1, 25)):
        front, ref, means, stds = edge_table_case(rng, m, size)
        cells = _cells(front, ref)
        edges = cells[0]
        counts = np.isfinite(edges).sum(axis=1)
        assert np.all(np.isinf(edges[np.arange(edges.shape[1]) >= counts[:, None]]))
        padded += int(counts.min() < counts.max())
        assert np.array_equal(_gains(cells, means, stds), per_axis_gains(front, ref, means.T, stds.T)), size
    # Fronts with axes of unequal edge counts, so padded tables, were met.
    assert padded > 5


@pytest.mark.parametrize("m", [2, 3])
def test_edge_table_padding_calls_no_erfc(m, monkeypatch):
    # The stacked pass calls math.erfc exactly as often as each axis
    # evaluated alone on its own edges: a +inf edge lands on an exact tail.
    rng = np.random.default_rng(60 + m)
    for size in range(4, 30):  # the first front whose table is padded
        front, ref, means, stds = edge_table_case(rng, m, size)
        cells = _cells(front, ref)
        counts = np.isfinite(cells[0]).sum(axis=1)
        if counts.min() < counts.max():
            break
    assert counts.min() < counts.max()
    erfc, calls = math.erfc, 0

    def counted(x):
        nonlocal calls
        calls += 1
        return erfc(x)

    monkeypatch.setattr(math, "erfc", counted)
    _gains(cells, means, stds)
    stacked, calls = calls, 0
    for k in range(m):
        _psi(cells[0][k, : counts[k]], means[k], stds[k])
    assert stacked == calls > 0


@pytest.mark.parametrize("m", [2, 3])
def test_ehvi_batch_blocks_change_no_bit(m):
    # _ehvi_batch hands _gains a long scan in column blocks; every value is
    # the bits of one _gains pass over all the candidates.
    rng = np.random.default_rng(70 + m)
    models, x, objs = (two_models if m == 2 else three_models)(rng, n=12, d=3)
    ref = ReferencePoint.from_observations(objs)
    cells = _cells(archive_of(x, objs).objective_matrix, ref.values)
    block = acquisition.GAIN_BLOCK
    for rows in (1, 2, 2 * block - 1, 2 * block, 1064):
        cands = scan_candidates(3, rows, rows)
        means, variances = gp_predict_batch(models, cands)
        whole = _gains(cells, means, np.sqrt(variances))
        assert np.array_equal(_ehvi_batch(models, cands, cells), whole), rows
        assert np.max(whole) > 0.0


@pytest.mark.parametrize(
    "m, size", [(2, 0), (2, 12), (3, 0), (3, 14)], ids=["2d-empty", "2d-front", "3d-empty", "3d-front"]
)
def test_ehvi_matches_monte_carlo_of_the_hypervolume_difference(m, size):
    # Fronts on a 0.2 grid hold ties, dominated points and points past
    # the reference.
    rng = np.random.default_rng(40 + size + m)
    ref = np.array([1.0, 1.1, 0.9])[:m]
    front = np.round(rng.uniform(0.0, 1.3, size=(size, m)) * 5.0) / 5.0
    # Posteriors inside, around and past the reference; the last rows
    # have zero variance.
    means = rng.uniform(-0.2, 1.2, size=(8, m))
    stds = rng.uniform(0.02, 0.4, size=(8, m))
    stds[-2:] = 0.0
    got = _gains(_cells(front, ref), means.T, stds.T)

    base = hypervolume(front, ref).value
    z = np.random.default_rng(size).standard_normal((200_000, m))
    for i in range(means.shape[0]):
        y = means[i] + stds[i] * z
        gains = sample_gains(front, ref, y)
        # The vectorized gains are the hypervolume difference, checked
        # at every 2,000th sample.
        for s in range(0, 200_000, 2_000):
            oracle = hypervolume(np.vstack([front, y[s]]), ref).value - base
            assert gains[s] == pytest.approx(oracle, abs=1e-12)
        stderr = gains.std() / math.sqrt(gains.size)
        # Within 5 standard errors of 2e5 samples; exact at zero variance.
        assert abs(got[i] - gains.mean()) <= 5.0 * stderr + 1e-12, i


def strip_sum2(front, ref, means, stds):
    """EHVI over a 2-D front inside ref as a sum over the free strips above
    its staircase, sum_i [psi_1(x_{i+1}) - psi_1(x_i)] psi_2(h_i), which
    adds only nonnegative terms."""
    f = front[np.lexsort((front[:, 1], front[:, 0]))]
    xs = np.append(f[:, 0], ref[0])
    heights = np.append(ref[1], np.minimum.accumulate(f[:, 1]))
    psi1 = np.vstack([np.zeros((1, means.shape[0])), _psi(xs, means[:, 0], stds[:, 0])])
    return np.sum(np.diff(psi1, axis=0) * _psi(heights, means[:, 1], stds[:, 1]), axis=0)


def test_ehvi_2d_agrees_with_strip_formula():
    # The closed form subtracts the box overlaps from prod psi(r), so it
    # keeps only absolute precision where the true gain is tiny, deep in
    # the dominated region.  The strip sum subtracts nothing large, and the
    # two agree to a few ulps of prod psi(r).
    rng = np.random.default_rng(34)
    models, x, objs = two_models(rng, n=24, d=3, noise=1e-4)
    cases = []
    ref = np.full(2, 1.1) * np.max(objs, axis=0)
    cands = rng.uniform(0.0, 1.0, size=(300, 3))
    for size in (0, 1, 6, 24):
        front = archive_of(x[:size], objs[:size]).objective_matrix if size else np.zeros((0, 2))
        means, variances = gp_predict_batch(models, cands)
        cases.append((front, ref, means.T, np.sqrt(variances).T))
    t = np.linspace(0.0, 1.0, 12)
    staircase = np.stack([t, (1.0 - np.sqrt(t)) * 0.9], axis=1)
    deep = rng.uniform(0.4, 0.9, size=(300, 2)), rng.uniform(1e-3, 0.1, size=(300, 2))
    cases.append((staircase, np.ones(2), *deep))
    eps = np.finfo(float).eps
    for front, ref, means, stds in cases:
        got = _gains(_cells(front, ref), means.T, stds.T)
        want = strip_sum2(front, ref, means, stds)
        scale = np.prod(np.vstack([_psi(ref[k : k + 1], means[:, k], stds[:, k]) for k in range(2)]), axis=0)
        assert np.max(want) > 0.0
        assert np.all(np.abs(got - want) <= 4.0 * eps * scale), front.shape
    # Deep in the dominated region some true gains fall below one ulp of
    # prod psi(r), where the closed form's relative precision is gone.
    assert np.any((want > 0.0) & (want < eps * scale))


def test_ehvi_collapses_to_deterministic_gain_at_zero_variance():
    # At a noise-free training input the posterior is a point mass, so
    # the expectation equals the plain hypervolume gain of the mean.
    rng = np.random.default_rng(4)
    models, x, objs = two_models(rng, noise=0.0)
    keep = [0, 2, 5]
    archive = archive_of(x[keep], objs[keep])
    ref = ReferencePoint.from_observations(objs)
    # Training input 4 dominates archived input 5, so it gains volume.
    idx = 4
    assert np.all(gp_predict_batch(models, x[idx][None, :])[1] == 0.0)
    value = ehvi(models, x[idx], archive, ref)
    front = archive.objective_matrix
    base = hypervolume(front, ref).value
    joined = np.vstack([front, objs[idx][None, :]])
    expected = hypervolume(joined, ref).value - base
    assert expected > 0.0
    assert value == pytest.approx(expected, abs=1e-12)


def test_ehvi_three_objective_path_matches_union_oracle():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, size=(5, 2))
    objs = rng.random((5, 3))
    spec = KernelSpec(1.0, np.full(2, 0.5), noise_variance=1e-6)
    models = [gp_fit(x, objs[:, j], spec) for j in range(3)]
    archive = archive_of(x, objs)
    ref = ReferencePoint(np.full(3, 1.5))
    cand = np.array([0.4, 0.6])
    got = ehvi(models, cand, archive, ref)

    means, variances = gp_predict_batch(models, cand[None, :])
    means, stds = means[:, 0], np.sqrt(variances[:, 0])
    z = np.random.default_rng(7).standard_normal((4096, 3))
    front = archive.objective_matrix
    base = hypervolume(front, ref.values).value
    gains = []
    for s in range(4096):
        y = means + stds * z[s]
        joined = np.vstack([front, y[None, :]])
        gains.append(max(0.0, hypervolume(joined, ref.values).value - base))
    # The exact value lies within 4 standard errors of the sample mean.
    assert abs(got - np.mean(gains)) <= 4.0 * np.std(gains) / math.sqrt(len(gains))


def test_proposal_has_highest_ehvi_over_the_scan():
    rng = np.random.default_rng(6)
    models, x, objs = two_models(rng, n=8)
    archive = archive_of(x, objs)
    ref = ReferencePoint.from_observations(objs)
    seed = 13
    choice = propose_next(models, archive, ref, scan_count=128, seed=seed)
    assert np.all(choice >= 0.0) and np.all(choice <= 1.0)
    value = ehvi(models, choice, archive, ref)
    scan = scan_candidates(2, 128, seed)
    rescanned = [ehvi(models, c, archive, ref) for c in scan]
    assert value >= max(rescanned) - 1e-12


def test_proposal_has_highest_ehvi_over_the_scan_three_objectives():
    rng = np.random.default_rng(16)
    models, x, objs = three_models(rng)
    archive = archive_of(x, objs)
    ref = ReferencePoint.from_observations(objs)
    seed = 17
    choice = propose_next(models, archive, ref, scan_count=128, seed=seed)
    value = ehvi(models, choice, archive, ref)
    scan = scan_candidates(2, 128, seed)
    cells = _cells(archive.objective_matrix, ref.values)
    batched = _ehvi_batch(models, scan, cells)
    rescanned = np.array([ehvi(models, c, archive, ref) for c in scan])
    # One row of a GP posterior predicted alone differs from the same row of
    # a batch in its last bits (BLAS tiling), so a rescan agrees to 1e-12.
    assert np.max(np.abs(rescanned - batched)) < 1e-12
    assert np.max(batched) > 0.0
    assert value >= np.max(rescanned) - 1e-12


def test_proposal_with_empty_archive_is_scan_argmax():
    rng = np.random.default_rng(7)
    models, x, objs = two_models(rng, n=5)
    archive = ParetoArchive(())
    ref = ReferencePoint.from_observations(objs)
    seed = 21
    choice = propose_next(models, archive, ref, scan_count=64, seed=seed)
    scan = scan_candidates(2, 64, seed)
    values = [ehvi(models, c, archive, ref) for c in scan]
    assert np.array_equal(choice, scan[int(np.argmax(values))])


def test_proposals_avoid_exact_duplicates_of_evaluated_designs():
    rng = np.random.default_rng(9)
    x = np.array([[0.25, 0.25], [0.75, 0.75]])
    objs = np.array([[1.0, 2.0], [2.0, 1.0]])
    spec = KernelSpec(1.0, np.full(2, 0.5), noise_variance=1e-9)
    models = [gp_fit(x, objs[:, j], spec) for j in range(2)]
    archive = archive_of(x, objs)
    ref = ReferencePoint(np.array([0.0, 0.0]))
    for seed in range(5):
        choice = propose_next(models, archive, ref, scan_count=32, seed=seed)
        gaps = np.max(np.abs(x - choice[None, :]), axis=1)
        assert np.min(gaps) > 1e-9
        assert np.all(choice >= 0.0) and np.all(choice <= 1.0)


def test_scan_is_seeded_and_in_the_unit_cube():
    a = scan_candidates(2, 100, seed=0)
    b = scan_candidates(2, 100, seed=0)
    c = scan_candidates(2, 100, seed=1)
    assert a.shape == (100, 2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a >= 0.0) and np.all(a < 1.0)


@pytest.mark.parametrize("dim", range(1, 22))
def test_scan_puts_one_point_in_each_stratum(dim):
    # A Latin hypercube: in every column, point k of the sorted column lies
    # in [k/n, (k+1)/n), at any count, not only powers of two.
    for count in (1, 2, 7, 8, 100, 1030):
        for seed in (0, 19):
            scan = scan_candidates(dim, count, seed)
            edges = np.arange(count + 1) / count
            strata = np.searchsorted(edges, scan, side="right") - 1
            want = np.repeat(np.arange(count)[:, None], dim, axis=1)
            assert np.array_equal(np.sort(strata, axis=0), want), (count, seed)


def test_scan_bits_are_frozen():
    lo, hi = np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 7.0])
    scan = scan_candidates(3, 100, seed=2024) * (hi - lo) + lo
    digest = hashlib.sha256(scan.tobytes()).hexdigest()
    assert digest == "fe87fc998a51d48b95cd9bff122cca90d76fd956dd88a289df476e321b719177"


@pytest.mark.parametrize(
    "dim, count, match",
    [
        (2, 0, "scan count"),
        (2, -3, "scan count"),
        (0, 8, "scan dimension"),
        (-1, 8, "scan dimension"),
    ],
)
def test_scan_validates_its_inputs(dim, count, match):
    with pytest.raises(ValueError, match=match):
        scan_candidates(dim, count, seed=0)


def test_input_validation():
    rng = np.random.default_rng(10)
    models, x, objs = two_models(rng)
    archive = archive_of(x, objs)
    ref = ReferencePoint.from_observations(objs)
    with pytest.raises(ValueError):
        ehvi(models[:1], np.array([0.5, 0.5]), archive, ref)
    with pytest.raises(ValueError):
        ehvi(models, np.array([0.5, 0.5]), archive, ReferencePoint(np.ones(3)))
    with pytest.raises(ValueError, match="scan count"):
        propose_next(models, archive, ref, scan_count=0)
    with pytest.raises(ValueError, match="2 or 3 objectives"):
        ehvi(models * 2, np.array([0.5, 0.5]), archive, ReferencePoint(np.ones(4)))
