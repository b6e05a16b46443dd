"""Pareto dominance, archive bookkeeping, and hypervolume.

All objectives are minimized.  Hypervolume is exact for two and three
objectives (a sweep, and the sum of a disjoint box decomposition that
EHVI shares) and falls back to seeded Monte Carlo sampling above that,
reporting the standard error of the estimate alongside the value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def dominates(a, b) -> bool:
    """Strict Pareto dominance: a <= b everywhere and a < b somewhere."""
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != bv.shape:
        raise ValueError(f"objective shapes differ: {av.shape} vs {bv.shape}")
    return bool(np.all(av <= bv) and np.any(av < bv))


def nondominated_mask(points) -> np.ndarray:
    """Boolean mask of rows not strictly dominated by any other row.

    Duplicate rows never dominate each other, so all copies are kept.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    n = pts.shape[0]
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        le = np.all(pts <= pts[i], axis=1)
        lt = np.any(pts < pts[i], axis=1)
        dominated_by = le & lt
        dominated_by[i] = False
        if np.any(dominated_by):
            mask[i] = False
    return mask


def pareto_front(points) -> np.ndarray:
    """Indices of the nondominated rows of ``points``.

    Raises:
        ValueError: empty input or ragged/non-2-D data.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("pareto_front needs a nonempty 2-D array of objectives")
    return np.flatnonzero(nondominated_mask(pts))


@dataclass(frozen=True)
class ArchiveEntry:
    """One nondominated observation: where it was, what it scored."""

    design: np.ndarray
    objectives: np.ndarray
    record_id: int

    def __post_init__(self):
        object.__setattr__(self, "design", np.asarray(self.design, dtype=float))
        object.__setattr__(self, "objectives", np.asarray(self.objectives, dtype=float))
        if not np.all(np.isfinite(self.objectives)):
            raise ValueError("objective values must be finite")


@dataclass(frozen=True)
class ParetoArchive:
    """Mutually nondominated set of evaluated designs.

    Immutable; ``inserted`` returns a new archive.  Exact-duplicate
    objective vectors are all retained.
    """

    entries: tuple[ArchiveEntry, ...] = ()

    def __post_init__(self):
        ids = [e.record_id for e in self.entries]
        if len(ids) != len(set(ids)):
            raise ValueError("archive record ids must be unique")
        objs = self.objective_matrix
        if objs.shape[0] > 1 and not np.all(nondominated_mask(objs)):
            raise ValueError("archive entries must be mutually nondominated")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def objective_matrix(self) -> np.ndarray:
        if not self.entries:
            return np.zeros((0, 0))
        return np.array([e.objectives for e in self.entries])

    @property
    def design_matrix(self) -> np.ndarray:
        if not self.entries:
            return np.zeros((0, 0))
        return np.array([e.design for e in self.entries])

    def inserted(self, design, objectives, record_id: int) -> "ParetoArchive":
        """Archive after observing one more point.

        Dominated newcomers leave the archive unchanged; otherwise the
        newcomer displaces every entry it dominates.
        """
        entry = ArchiveEntry(design, objectives, record_id)
        if any(e.record_id == record_id for e in self.entries):
            raise ValueError(f"record id {record_id} already archived")
        if any(dominates(e.objectives, entry.objectives) for e in self.entries):
            return self
        kept = tuple(e for e in self.entries if not dominates(entry.objectives, e.objectives))
        return ParetoArchive(kept + (entry,))


@dataclass(frozen=True)
class ReferencePoint:
    """Upper corner bounding hypervolume; worse than every archived point."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(v)):
            raise ValueError("reference point must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_observations(cls, objectives, margin: float = 0.1) -> "ReferencePoint":
        """Componentwise max plus ``margin`` of the observed range."""
        objs = np.atleast_2d(np.asarray(objectives, dtype=float))
        if objs.shape[0] == 0:
            raise ValueError("need at least one observation to place a reference point")
        hi = np.max(objs, axis=0)
        span = hi - np.min(objs, axis=0)
        return cls(hi + margin * np.maximum(span, 1e-6))

    def bounds(self, archive: ParetoArchive) -> bool:
        """True when strictly worse than every archive entry in each objective."""
        objs = archive.objective_matrix
        if objs.shape[0] == 0:
            return True
        return bool(np.all(objs < self.values[None, :]))


@dataclass(frozen=True)
class HypervolumeResult:
    value: float
    stderr: float = 0.0
    exact: bool = True


def _ref_values(reference) -> np.ndarray:
    if isinstance(reference, ReferencePoint):
        return reference.values
    return np.atleast_1d(np.asarray(reference, dtype=float))


def _hv2(points: np.ndarray, ref: np.ndarray) -> float:
    # Sweep the front in increasing f1; each step adds a rectangle.
    order = np.lexsort((points[:, 1], points[:, 0]))
    pts = points[order]
    total = 0.0
    best_f2 = ref[1]
    for f1, f2 in pts:
        if f2 < best_f2:
            total += (ref[0] - f1) * (best_f2 - f2)
            best_f2 = f2
    return total


def _boxes3(front: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint boxes whose union is the region ``front`` dominates inside ref.

    Sweeps the third objective into slabs; within each slab the active
    points form a 2-D staircase, cut into vertical strips.  Dominated
    points may be left in: they add boxes but no volume.
    """
    empty = np.zeros((0, 3))
    pts = front[np.all(front < ref, axis=1)]
    if pts.shape[0] == 0:
        return empty, empty
    los: list[tuple[float, float, float]] = []
    his: list[tuple[float, float, float]] = []
    zs = np.unique(pts[:, 2])
    z_edges = np.append(zs, ref[2])
    for j in range(zs.size):
        active = pts[pts[:, 2] <= zs[j]]
        xs, inv = np.unique(active[:, 0], return_inverse=True)
        ymin = np.full(xs.size, np.inf)
        np.minimum.at(ymin, inv, active[:, 1])
        ymin = np.minimum.accumulate(ymin)
        x_edges = np.append(xs, ref[0])
        for i in range(xs.size):
            if x_edges[i + 1] > x_edges[i]:
                los.append((x_edges[i], ymin[i], z_edges[j]))
                his.append((x_edges[i + 1], ref[1], z_edges[j + 1]))
    return np.array(los), np.array(his)


def _hv_mc(points: np.ndarray, ref: np.ndarray, samples: int, seed: int) -> HypervolumeResult:
    lo = np.min(points, axis=0)
    box = float(np.prod(ref - lo))
    rng = np.random.default_rng(seed)
    hits = 0
    total = 0
    batch = 200_000
    while total < samples:
        m = min(batch, samples - total)
        u = rng.uniform(lo, ref, size=(m, points.shape[1]))
        covered = np.zeros(m, dtype=bool)
        for p in points:
            covered |= np.all(u >= p, axis=1)
            if covered.all():
                break
        hits += int(covered.sum())
        total += m
    frac = hits / total
    value = box * frac
    stderr = box * float(np.sqrt(max(frac * (1.0 - frac), 0.0) / total))
    return HypervolumeResult(value, stderr, exact=False)


def hypervolume(
    points,
    reference,
    mc_samples: int = 1_000_000,
    seed: int = 0,
) -> HypervolumeResult:
    """Volume dominated by ``points`` and bounded above by ``reference``.

    Points at or beyond the reference in any coordinate contribute
    nothing.  Exact for 2 and 3 objectives; seeded Monte Carlo beyond.

    Raises:
        ValueError: fewer than 2 objectives, shape mismatch, or an m >= 4
            call with fewer than 1e6 Monte Carlo samples.
    """
    ref = _ref_values(reference)
    if ref.size < 2:
        raise ValueError("hypervolume needs at least 2 objectives")
    pts = np.asarray(points, dtype=float).reshape(-1, ref.size) if np.size(points) else np.zeros((0, ref.size))
    inside = np.all(pts < ref[None, :], axis=1)
    pts = pts[inside]
    if pts.shape[0] == 0:
        return HypervolumeResult(0.0)
    m = ref.size
    if m == 2:
        # _hv2's sweep already adds nothing for dominated or repeated points.
        return HypervolumeResult(_hv2(pts, ref))
    if m == 3:
        lo, hi = _boxes3(pts, ref)
        return HypervolumeResult(float(np.sum(np.prod(hi - lo, axis=1))))
    pts = pts[nondominated_mask(pts)]
    if mc_samples < 1_000_000:
        raise ValueError("Monte Carlo hypervolume needs at least 1e6 samples")
    return _hv_mc(pts, ref, mc_samples, seed)
