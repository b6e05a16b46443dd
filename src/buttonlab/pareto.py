"""Pareto dominance, archive bookkeeping, and hypervolume.

All objectives are minimized.  Hypervolume is exact for two and three
objectives (the sum of a disjoint box decomposition that EHVI shares)
and falls back to seeded Monte Carlo sampling above that, reporting the
standard error of the estimate alongside the value.
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


def _staircase(pts: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # One box per distinct first coordinate: [x_i, x_{i+1}) x [min y up to x_i, ref_1).
    xs, inv = np.unique(pts[:, 0], return_inverse=True)
    ymin = np.full(xs.size, np.inf)
    np.minimum.at(ymin, inv, pts[:, 1])
    lo = np.stack([xs, np.minimum.accumulate(ymin)])
    hi = np.stack([np.append(xs, ref[0])[1:], np.full(xs.size, ref[1])])
    return lo, hi


def _boxes(front: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint boxes whose union is the region ``front`` dominates inside ref.

    For 2 or 3 objectives; returns (lo, hi) corners of shape (m, boxes),
    one contiguous row per axis.  In 2-D the boxes are vertical strips
    under the staircase.  In 3-D the third objective is swept into slabs,
    each holding the 2-D strips of the points active in it.  Dominated
    points may be left in: they split a box but add no volume.
    """
    pts = front[np.all(front < ref, axis=1)]
    if ref.size == 2:
        return _staircase(pts, ref)
    z_edges = np.append(np.unique(pts[:, 2]), ref[2])
    los, his = [np.zeros((3, 0))], [np.zeros((3, 0))]
    for z0, z1 in zip(z_edges[:-1], z_edges[1:]):
        lo, hi = _staircase(pts[pts[:, 2] <= z0], ref)
        los.append(np.vstack([lo, np.full(lo.shape[1], z0)]))
        his.append(np.vstack([hi, np.full(hi.shape[1], z1)]))
    return np.hstack(los), np.hstack(his)


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
    if ref.size <= 3:
        lo, hi = _boxes(pts, ref)
        return HypervolumeResult(float(np.sum(np.prod(hi - lo, axis=0))))
    pts = pts[nondominated_mask(pts)]
    if mc_samples < 1_000_000:
        raise ValueError("Monte Carlo hypervolume needs at least 1e6 samples")
    return _hv_mc(pts, ref, mc_samples, seed)
