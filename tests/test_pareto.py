"""Pareto filtering and hypervolume against independent oracles.

brute_force_front reimplements dominance with nested loops;
grid_hypervolume rasterizes the dominated region cell by cell;
sweep_hypervolume2 adds one horizontal slab per staircase step;
slicing_hypervolume3 integrates exact 2-D areas slab by slab.  None
shares code with the package.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import buttonlab
from buttonlab import ParetoArchive, ReferencePoint, hypervolume, pareto_front
from buttonlab.pareto import _distinct, _dominates


def brute_force_front(points):
    n = len(points)
    keep = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if i == j:
                continue
            better_somewhere = False
            worse_somewhere = False
            for k in range(points.shape[1]):
                if points[j][k] < points[i][k]:
                    better_somewhere = True
                elif points[j][k] > points[i][k]:
                    worse_somewhere = True
            if better_somewhere and not worse_somewhere:
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return np.array(keep, dtype=int)


def grid_hypervolume(points, ref, cells_per_dim):
    """Fraction of grid cells (by center) dominated by any point, times box volume.

    The box spans the per-dimension minimum of the points up to ref.
    """
    points = np.asarray(points, dtype=float)
    ref = np.asarray(ref, dtype=float)
    m = ref.size
    lo = np.min(points, axis=0)
    span = ref - lo
    axes = [lo[k] + span[k] * (np.arange(cells_per_dim) + 0.5) / cells_per_dim for k in range(m)]
    grids = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([g.ravel() for g in grids], axis=1)
    covered = np.zeros(centers.shape[0], dtype=bool)
    for p in points:
        covered |= np.all(centers >= p, axis=1)
    return covered.mean() * np.prod(span)


def sweep_hypervolume2(points, ref):
    """Exact 2-D hypervolume: sweep the points in increasing f1; each one
    that lowers the best f2 so far adds the slab out to ref."""
    points = np.asarray(points, dtype=float)
    total, best = 0.0, ref[1]
    for x, y in sorted(map(tuple, points[np.all(points < ref, axis=1)])):
        if y < best:
            total += (ref[0] - x) * (best - y)
            best = y
    return total


def slicing_hypervolume3(points, ref):
    """Exact 3-D hypervolume: between consecutive f3 levels the dominated
    (f1, f2) area is constant, a staircase swept in increasing f1."""
    points = np.asarray(points, dtype=float)
    pts = points[np.all(points < ref, axis=1)]
    levels = np.unique(np.append(pts[:, 2], ref[2]))
    total = 0.0
    for z0, z1 in zip(levels, levels[1:]):
        area, best = 0.0, ref[1]
        for x, y in sorted(map(tuple, pts[pts[:, 2] <= z0, :2])):
            if y < best:
                area += (ref[0] - x) * (best - y)
                best = y
        total += area * (z1 - z0)
    return total


def test_dominates_basic_relations():
    assert _dominates(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    assert _dominates(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    assert not _dominates(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert not _dominates(np.array([1.0, 1.0]), np.array([1.0, 1.0]))


def test_dominance_is_irreflexive_and_antisymmetric():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.random(3)
        b = rng.random(3)
        assert not _dominates(a, a)
        assert not (_dominates(a, b) and _dominates(b, a))


def test_pareto_front_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = int(rng.integers(1, 80))
        m = int(rng.integers(2, 5))
        pts = np.round(rng.random((n, m)), 2)
        got = pareto_front(pts)
        expected = brute_force_front(pts)
        assert np.array_equal(np.sort(got), expected)


def test_pareto_front_keeps_duplicates_and_rejects_empty():
    pts = np.array([[0.2, 0.8], [0.2, 0.8], [0.9, 0.9]])
    assert np.array_equal(np.sort(pareto_front(pts)), [0, 1])
    with pytest.raises(ValueError):
        pareto_front(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        pareto_front(np.array([1.0, 2.0, 3.0]))


def test_hypervolume_hand_cases():
    assert hypervolume(np.zeros((0, 2)), np.array([1.0, 1.0])).value == 0.0
    assert hypervolume(np.array([[0.0, 0.0]]), np.array([1.0, 1.0])).value == pytest.approx(1.0)
    three = np.array([[0.2, 0.8], [0.5, 0.5], [0.8, 0.2]])
    assert hypervolume(three, np.array([1.0, 1.0])).value == pytest.approx(0.37)
    # Any empty input has no volume, the empty archive's (0, 0) matrix too.
    for empty in (np.zeros((0, 0)), np.zeros(0), []):
        assert hypervolume(empty, np.ones(3)).value == 0.0
    # One point may come as a vector.
    assert hypervolume(np.array([0.5, 0.5]), ReferencePoint(np.ones(2))).value == 0.25


def test_hypervolume_2d_matches_grid_oracle():
    rng = np.random.default_rng(2)
    for _ in range(12):
        n = int(rng.integers(1, 40))
        pts = rng.random((n, 2))
        ref = np.array([1.0, 1.0])
        exact = hypervolume(pts, ref)
        approx = grid_hypervolume(pts, ref, 1000)
        assert abs(exact.value - approx) < 1e-3


def test_hypervolume_3d_matches_grid_oracle():
    rng = np.random.default_rng(3)
    for _ in range(8):
        n = int(rng.integers(1, 30))
        pts = rng.random((n, 3))
        ref = np.array([1.0, 1.0, 1.0])
        exact = hypervolume(pts, ref)
        approx = grid_hypervolume(pts, ref, 100)
        assert abs(exact.value - approx) < 1e-2


def test_hypervolume_3d_matches_slicing_oracle():
    # Dominated, repeated and tied points, and points past the reference,
    # all go into the box decomposition unfiltered.
    rng = np.random.default_rng(8)
    for t in range(200):
        n = int(rng.integers(1, 40))
        pts = rng.uniform(-0.2, 1.2, size=(n, 3))
        if t % 3 == 1:
            pts = np.round(pts * 6.0) / 6.0
        if t % 3 == 2:
            pts = np.vstack([pts, pts[rng.integers(0, n, size=n)]])
        ref = np.array([1.0, 1.1, 0.9])
        want = slicing_hypervolume3(pts, ref)
        assert hypervolume(pts, ref).value == pytest.approx(want, rel=1e-13, abs=1e-15)


def test_hypervolume_points_outside_reference_add_nothing():
    # Any coordinate at or past the reference kills that point's box.
    inside = np.array([[0.5, 0.5]])
    mixed = np.array([[0.5, 0.5], [2.0, 0.1], [0.1, 2.0]])
    ref = np.array([1.0, 1.0])
    assert hypervolume(inside, ref).value == pytest.approx(0.25)
    assert hypervolume(mixed, ref).value == pytest.approx(0.25)
    fully_out = np.array([[3.0, 3.0]])
    assert hypervolume(fully_out, ref).value == 0.0


def test_hypervolume_2d_matches_sweep_oracle_with_dominated_points():
    # hypervolume hands 2-D sets to the box sum unfiltered.  A dominated
    # point with its own f1 splits a box in two, so the sum may differ from
    # the sweep over the nondominated points in its last bits, never more.
    rng = np.random.default_rng(7)
    ref = np.array([1.0, 1.0])
    for t in range(600):
        n = int(rng.integers(1, 40))
        pts = rng.uniform(-0.2, 1.2, size=(n, 2))
        if t % 3 == 1:
            pts = np.round(pts * 8.0) / 8.0
        if t % 3 == 2:
            pts = np.vstack([pts, pts[rng.integers(0, n, size=n)]])
        inside = pts[np.all(pts < ref, axis=1)]
        want = sweep_hypervolume2(inside[brute_force_front(inside)], ref)
        assert hypervolume(pts, ref).value == pytest.approx(want, rel=1e-15, abs=0.0)


def test_hypervolume_rejects_bad_inputs():
    with pytest.raises(ValueError):
        hypervolume(np.array([[0.5]]), np.array([1.0]))
    with pytest.raises(ValueError):
        hypervolume(np.array([[0.5, 0.5]]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        hypervolume(np.array([[0.1] * 4]), np.ones(4))


@pytest.mark.parametrize(
    "points, ref, match",
    [
        (np.full((2, 3), 0.5), [1.0, 1.0], "do not match"),
        (np.full(4, 0.5), [1.0, 1.0], "do not match"),
        (np.full((2, 1, 2), 0.5), [1.0, 1.0], "do not match"),
        (np.full((1, 2), 0.5), [np.inf, 1.0], "finite"),
        (np.full((1, 2), 0.5), [np.nan, 1.0], "finite"),
    ],
)
def test_hypervolume_validates_points_and_reference(points, ref, match):
    # Points are never reshaped to fit the reference, and a non-finite
    # reference would give an infinite or empty volume.
    with pytest.raises(ValueError, match=match):
        hypervolume(points, ref)


def test_archive_insertion_rules():
    archive = ParetoArchive(())
    archive = archive.inserted([0.1], [0.5, 0.5], record_id=0)
    assert len(archive) == 1
    # Dominated newcomer leaves the archive unchanged.
    same = archive.inserted([0.2], [0.7, 0.7], record_id=1)
    assert len(same) == 1
    # Dominating newcomer displaces what it beats.
    better = archive.inserted([0.3], [0.4, 0.4], record_id=2)
    assert len(better) == 1
    assert better.entries[0].record_id == 2
    # Incomparable newcomer joins.
    side = archive.inserted([0.4], [0.1, 0.9], record_id=3)
    assert len(side) == 2
    with pytest.raises(ValueError):
        archive.inserted([0.5], [0.2, 0.2], record_id=0)


def test_archive_insertion_matches_brute_force_front():
    # Quarter-rounded values make ties and exact duplicates common.  After
    # every insertion the archive holds exactly the nondominated points so far.
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = int(rng.integers(2, 5))
        pts = np.round(rng.random((int(rng.integers(1, 21)), m)) * 4.0) / 4.0
        archive = ParetoArchive(())
        for i, objectives in enumerate(pts):
            archive = archive.inserted([float(i)], objectives, record_id=i)
            got = sorted(e.record_id for e in archive.entries)
            assert got == list(brute_force_front(pts[: i + 1]))


def test_archive_validates_mutual_nondominance():
    with pytest.raises(ValueError):
        ParetoArchive(
            ParetoArchive(())
            .inserted([0.0], [0.5, 0.5], 0)
            .entries
            + ParetoArchive(()).inserted([0.0], [0.9, 0.9], 1).entries
        )


def test_reference_point_from_observations():
    objs = np.array([[1.0, 10.0], [3.0, 2.0]])
    ref = ReferencePoint.from_observations(objs)
    assert np.allclose(ref.values, [3.0 + 0.2, 10.0 + 0.8])
    with pytest.raises(ValueError):
        ReferencePoint(np.array([1.0, np.inf]))


def test_distinct_matches_np_unique_bit_for_bit():
    # Ties and signed zeros: which of 0.0 and -0.0 is kept depends on the
    # sort, so the bytes, not just the values, must agree.
    rng = np.random.default_rng(12)
    values = np.array([0.0, -0.0, 0.25, -1.5, 3.0, 0.25])
    for n in range(12):
        for _ in range(40):
            x = rng.choice(values, n) if rng.random() < 0.5 else np.round(rng.standard_normal(n), 1)
            assert _distinct(x).tobytes() == np.unique(x).tobytes()
            assert _distinct(x).shape == np.unique(x).shape
    for x in ([0.0, -0.0], [-0.0, 0.0], [-0.0, 1.0, 0.0, -0.0], [2.0, 2.0, 2.0]):
        assert _distinct(np.array(x)).tobytes() == np.unique(np.array(x)).tobytes()


def test_three_objective_hypervolume_and_proposal_leave_numpy_ma_unimported():
    # numpy 2's plain np.unique imports numpy.ma (about 10 ms) on its first call.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from buttonlab import KernelSpec, ParetoArchive, ReferencePoint, gp_fit, hypervolume, propose_next\n"
        "rng = np.random.default_rng(3)\n"
        "x, objs = rng.random((6, 2)), rng.random((6, 3))\n"
        "hypervolume(objs, np.full(3, 1.5))\n"
        "archive = ParetoArchive(())\n"
        "for i in range(6):\n"
        "    archive = archive.inserted(x[i], objs[i], i)\n"
        "models = [gp_fit(x, objs[:, j], KernelSpec(1.0, np.full(2, 0.4))) for j in range(3)]\n"
        "propose_next(models, archive, ReferencePoint(np.full(3, 1.5)), scan_count=64, seed=1)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(buttonlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split() == ["False"]
