"""EHVI and proposal selection.

The common-random-numbers design means a single-candidate ehvi call with
the proposal seed reproduces what propose_next computed inside its
batched scan, up to the last bits of the GP posterior, so proposals can
be audited from the outside.
"""

import hashlib
import warnings

import numpy as np
import pytest
from scipy.stats import qmc

from buttonlab import (
    KernelSpec,
    ParetoArchive,
    ReferencePoint,
    ehvi,
    gp_fit,
    gp_predict_batch,
    hypervolume,
    propose_next,
    scan_candidates,
)
from buttonlab.acquisition import _cells, _ehvi_batch, _gains, _scratch
from buttonlab.pareto import _boxes
from test_pareto import slicing_hypervolume3, sweep_hypervolume2


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


def test_box_gains_2d_match_hypervolume_difference():
    # Fronts keep dominated points and points past the reference in either
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
        cells = _boxes(front, ref)
        gains = _gains(cells, ref, y[:, None, :], _scratch(cells, 1))[:, 0]
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


def test_ehvi_is_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(2)
    models, x, objs = two_models(rng)
    archive = archive_of(x, objs)
    ref = ReferencePoint.from_observations(objs)
    cand = np.array([0.5, 0.5])
    a = ehvi(models, cand, archive, ref, sample_count=512, seed=9)
    b = ehvi(models, cand, archive, ref, sample_count=512, seed=9)
    c = ehvi(models, cand, archive, ref, sample_count=512, seed=10)
    assert a == b
    assert a != c


def test_ehvi_monte_carlo_self_consistency():
    rng = np.random.default_rng(3)
    models, x, objs = two_models(rng)
    archive = archive_of(x, objs)
    ref = ReferencePoint.from_observations(objs)
    cand = np.array([0.15, 0.85])
    a = ehvi(models, cand, archive, ref, sample_count=10_000, seed=0)
    b = ehvi(models, cand, archive, ref, sample_count=10_000, seed=1)
    assert a > 0.0
    assert abs(a - b) / max(a, b) < 0.05


def test_ehvi_collapses_to_deterministic_gain_at_zero_variance():
    # At a noise-free training input the posterior is a point mass, so
    # the expectation equals the plain hypervolume gain of the mean.
    rng = np.random.default_rng(4)
    models, x, objs = two_models(rng, noise=0.0)
    keep = [0, 2, 4]
    archive = archive_of(x[keep], objs[keep])
    ref = ReferencePoint.from_observations(objs)
    idx = 1
    value = ehvi(models, x[idx], archive, ref, sample_count=64, seed=0)
    front = archive.objective_matrix
    base = hypervolume(front, ref).value
    joined = np.vstack([front, objs[idx][None, :]])
    expected = max(0.0, hypervolume(joined, ref).value - base)
    assert value == pytest.approx(expected, abs=1e-6)


def test_ehvi_three_objective_path_matches_union_oracle():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, size=(5, 2))
    objs = rng.random((5, 3))
    spec = KernelSpec(1.0, np.full(2, 0.5), noise_variance=1e-6)
    models = [gp_fit(x, objs[:, j], spec) for j in range(3)]
    archive = archive_of(x, objs)
    ref = ReferencePoint(np.full(3, 1.5))
    cand = np.array([0.4, 0.6])
    got = ehvi(models, cand, archive, ref, sample_count=256, seed=7)

    means = np.array([gp_predict_batch(m, cand[None, :])[0][0] for m in models])
    stds = np.sqrt([gp_predict_batch(m, cand[None, :])[1][0] for m in models])
    z = np.random.default_rng(7).standard_normal((256, 3))
    front = archive.objective_matrix
    base = hypervolume(front, ref.values).value
    gains = []
    for s in range(256):
        y = means + stds * z[s]
        joined = np.vstack([front, y[None, :]])
        gains.append(max(0.0, hypervolume(joined, ref.values).value - base))
    assert got == pytest.approx(float(np.mean(gains)), abs=1e-9)


def test_proposal_has_highest_ehvi_over_the_scan():
    rng = np.random.default_rng(6)
    models, x, objs = two_models(rng, n=8)
    archive = archive_of(x, objs)
    ref = ReferencePoint.from_observations(objs)
    bounds = (np.zeros(2), np.ones(2))
    seed = 13
    choice = propose_next(models, bounds, archive, ref, scan_count=128, seed=seed, sample_count=64)
    assert np.all(choice >= 0.0) and np.all(choice <= 1.0)
    value = ehvi(models, choice, archive, ref, sample_count=64, seed=seed)
    scan = scan_candidates(bounds, 128, seed)
    rescanned = [ehvi(models, c, archive, ref, sample_count=64, seed=seed) for c in scan]
    assert value >= max(rescanned) - 1e-12


def test_proposal_has_highest_ehvi_over_the_scan_three_objectives():
    rng = np.random.default_rng(16)
    models, x, objs = three_models(rng)
    archive = archive_of(x, objs)
    ref = ReferencePoint.from_observations(objs)
    bounds = (np.zeros(2), np.ones(2))
    seed = 17
    choice = propose_next(models, bounds, archive, ref, scan_count=128, seed=seed, sample_count=64)
    value = ehvi(models, choice, archive, ref, sample_count=64, seed=seed)
    scan = scan_candidates(bounds, 128, seed)
    cells = _cells(archive, ref.values)
    batched = _ehvi_batch(models, scan, cells, ref.values, 64, seed, _scratch(cells, 64))
    rescanned = np.array([ehvi(models, c, archive, ref, sample_count=64, seed=seed) for c in scan])
    # One row of a GP posterior predicted alone differs from the same row of
    # a batch in its last bits (BLAS tiling), so a rescan agrees to 1e-12.
    assert np.max(np.abs(rescanned - batched)) < 1e-12
    assert np.max(batched) > 0.0
    assert value >= np.max(rescanned) - 1e-12


def _posterior_blocks(models, candidates):
    # The blocks the proposals were baselined in: 256 candidates in 2-D,
    # the whole pool in 3-D.
    block = 256 if len(models) == 2 else max(1, candidates.shape[0])
    means, stds = [], []
    for start in range(0, candidates.shape[0], block):
        preds = [gp_predict_batch(model, candidates[start : start + block]) for model in models]
        means.append(np.stack([p[0] for p in preds], axis=1))
        stds.append(np.sqrt(np.stack([p[1] for p in preds], axis=1)))
    return np.vstack(means), np.vstack(stds)


def _ehvi_loop_reference(models, candidates, archive, ref, sample_count, seed):
    """EHVI one candidate at a time over the archive's boxes."""
    m = len(models)
    front = archive.objective_matrix if len(archive) else np.zeros((0, m))
    lo_b, hi_b = (corner.T for corner in _boxes(front, ref))
    z = np.random.default_rng(seed).standard_normal((sample_count, m))
    means, stds = _posterior_blocks(models, candidates)
    out = np.empty(candidates.shape[0])
    for i in range(candidates.shape[0]):
        samples = means[i] + stds[i] * z
        gain = np.prod(np.clip(ref - samples, 0.0, None), axis=1)
        if lo_b.shape[0]:
            overlap = np.prod(
                np.clip(hi_b[None, :, :] - np.maximum(lo_b[None, :, :], samples[:, None, :]), 0.0, None),
                axis=2,
            ).sum(axis=1)
            gain = np.clip(gain - overlap, 0.0, None)
        out[i] = gain.mean()
    return out


@pytest.mark.parametrize("m", [2, 3])
def test_batched_ehvi_matches_per_candidate_loop_bit_for_bit(m):
    rng = np.random.default_rng(30 + m)
    d = 3
    x = rng.uniform(0.0, 1.0, size=(24, d))
    u = np.abs(rng.standard_normal((24, m)))
    sphere = u / np.linalg.norm(u, axis=1, keepdims=True)
    spec = KernelSpec(1.0, np.full(d, 0.4), noise_variance=1e-4)
    models = [gp_fit(x, sphere[:, j], spec) for j in range(m)]
    ref = np.full(m, 1.1)
    archives = {
        "empty": ParetoArchive(()),
        "outside ref": archive_of(x[:4], sphere[:4] + 1.0),
        "one point": archive_of(x[:1], sphere[:1]),
        "sphere front": archive_of(x[:20], sphere[:20]),
    }
    for name, archive in archives.items():
        cells = _cells(archive, ref)
        for sample_count in (1, 128):
            scratch = _scratch(cells, sample_count)
            step = scratch[0].shape[0]
            for count in (1, step, step + 1):
                cands = rng.uniform(0.0, 1.0, size=(count, d))
                got = _ehvi_batch(models, cands, cells, ref, sample_count, count, scratch)
                want = _ehvi_loop_reference(models, cands, archive, ref, sample_count, seed=count)
                assert got.tobytes() == want.tobytes(), (name, sample_count, count)


def test_ehvi_2d_agrees_with_strip_formula():
    # The strips and the boxes cut the same free area differently, so the
    # two agree to rounding, relative to the largest EHVI of the scan.
    rng = np.random.default_rng(34)
    models, x, objs = two_models(rng, n=24, d=3, noise=1e-4)
    ref = np.full(2, 1.1) * np.max(objs, axis=0)
    cands = rng.uniform(0.0, 1.0, size=(300, 3))
    for size in (0, 1, 6, 24):
        archive = archive_of(x[:size], objs[:size]) if size else ParetoArchive(())
        front = archive.objective_matrix if size else np.zeros((0, 2))
        for sample_count, seed in ((1, 3), (128, 4)):
            cells = _cells(archive, ref)
            got = _ehvi_batch(models, cands, cells, ref, sample_count, seed, _scratch(cells, sample_count))
            z = np.random.default_rng(seed).standard_normal((sample_count, 2))
            means, stds = _posterior_blocks(models, cands)
            y = means[:, None, :] + stds[:, None, :] * z[None, :, :]
            want = strip_gains2(front, ref, y[:, :, 0].ravel(), y[:, :, 1].ravel())
            want = want.reshape(y.shape[:2]).mean(axis=1)
            assert np.max(want) > 0.0
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want), (size, sample_count)


def test_proposal_with_empty_archive_is_scan_argmax():
    rng = np.random.default_rng(7)
    models, x, objs = two_models(rng, n=5)
    archive = ParetoArchive(())
    ref = ReferencePoint.from_observations(objs)
    bounds = (np.zeros(2), np.ones(2))
    seed = 21
    choice = propose_next(models, bounds, archive, ref, scan_count=64, seed=seed, sample_count=32)
    scan = scan_candidates(bounds, 64, seed)
    values = [ehvi(models, c, archive, ref, sample_count=32, seed=seed) for c in scan]
    assert np.array_equal(choice, scan[int(np.argmax(values))])


def test_zero_improvement_falls_back_to_max_variance():
    # A reference point at the dominated corner forces every EHVI to 0.
    rng = np.random.default_rng(8)
    models, x, objs = two_models(rng)
    archive = archive_of(x, objs)
    ref = ReferencePoint(np.min(objs, axis=0) - 1.0)
    bounds = (np.zeros(2), np.ones(2))
    seed = 3
    choice = propose_next(models, bounds, archive, ref, scan_count=64, seed=seed, sample_count=32)
    scan = scan_candidates(bounds, 64, seed)
    var_sum = np.zeros(64)
    for m in models:
        var_sum += gp_predict_batch(m, scan)[1]
    assert np.array_equal(choice, scan[int(np.argmax(var_sum))])


def test_proposals_avoid_exact_duplicates_of_evaluated_designs():
    rng = np.random.default_rng(9)
    x = np.array([[0.25, 0.25], [0.75, 0.75]])
    objs = np.array([[1.0, 2.0], [2.0, 1.0]])
    spec = KernelSpec(1.0, np.full(2, 0.5), noise_variance=1e-9)
    models = [gp_fit(x, objs[:, j], spec) for j in range(2)]
    archive = archive_of(x, objs)
    ref = ReferencePoint(np.array([0.0, 0.0]))
    bounds = (np.zeros(2), np.ones(2))
    for seed in range(5):
        choice = propose_next(models, bounds, archive, ref, scan_count=32, seed=seed, sample_count=16)
        gaps = np.max(np.abs(x - choice[None, :]), axis=1)
        assert np.min(gaps) > 1e-9
        assert np.all(choice >= 0.0) and np.all(choice <= 1.0)


def test_scan_is_seeded_and_respects_bounds():
    bounds = (np.array([-1.0, 2.0]), np.array([1.0, 5.0]))
    a = scan_candidates(bounds, 100, seed=0)
    b = scan_candidates(bounds, 100, seed=0)
    c = scan_candidates(bounds, 100, seed=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a >= bounds[0]) and np.all(a <= bounds[1])


@pytest.mark.parametrize("dim", range(1, 22))
def test_scan_is_scipys_scrambled_sobol_bit_for_bit(dim):
    lo = np.linspace(-1.0, 0.5, dim)
    hi = lo + np.linspace(0.25, 3.0, dim)
    for n in (1, 2, 7, 8, 1024, 1030):
        for seed in (0, 19):
            engine = qmc.Sobol(dim, scramble=True, seed=np.random.default_rng(seed))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # n not a power of 2
                want = qmc.scale(engine.random(n), lo, hi)
            assert scan_candidates((lo, hi), n, seed).tobytes() == want.tobytes(), (n, seed)


def test_scan_bits_are_frozen():
    # Pins the scan independently of the installed scipy.
    scan = scan_candidates((np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 7.0])), 100, seed=2024)
    digest = hashlib.sha256(scan.tobytes()).hexdigest()
    assert digest == "c49bf2bc5299dd53b7a63fd64be6207b28e10d028b7945ba53c75d9a8064b77c"


@pytest.mark.parametrize(
    "bounds, scan_count, match",
    [
        ((np.zeros(2), np.ones(2)), 0, "scan_count"),
        ((np.zeros(2), np.ones(2)), -3, "scan_count"),
        ((np.zeros(0), np.zeros(0)), 8, "bounds"),
        ((np.zeros(2), np.ones(3)), 8, "bounds"),
        ((np.array([0.0, 1.0]), np.array([1.0, 1.0])), 8, "bounds"),
        ((np.ones(2), np.zeros(2)), 8, "bounds"),
        ((np.zeros(22), np.ones(22)), 8, "at most 21 dimensions"),
    ],
)
def test_scan_validates_its_inputs(bounds, scan_count, match):
    with pytest.raises(ValueError, match=match):
        scan_candidates(bounds, scan_count, seed=0)


def test_input_validation():
    rng = np.random.default_rng(10)
    models, x, objs = two_models(rng)
    archive = archive_of(x, objs)
    ref = ReferencePoint.from_observations(objs)
    with pytest.raises(ValueError):
        ehvi(models[:1], np.array([0.5, 0.5]), archive, ref)
    with pytest.raises(ValueError):
        ehvi(models, np.array([0.5, 0.5]), archive, ReferencePoint(np.ones(3)))
    with pytest.raises(ValueError):
        ehvi(models, np.array([0.5, 0.5]), archive, ref, sample_count=0)
    with pytest.raises(ValueError):
        propose_next(models, (np.zeros(2), np.ones(2)), archive, ref, scan_count=0)
    with pytest.raises(ValueError):
        propose_next(models, (np.ones(2), np.zeros(2)), archive, ref)
    with pytest.raises(ValueError, match="bounds"):
        propose_next(models, (np.array([0.0, 1.0]), np.ones(2)), archive, ref)
    with pytest.raises(ValueError, match="2 or 3 objectives"):
        ehvi(models * 2, np.array([0.5, 0.5]), archive, ReferencePoint(np.ones(4)))
