"""Pareto dominance, archive bookkeeping, and hypervolume.

All objectives are minimized.  One kernel, ``_dominates``, decides
strict dominance for ``pareto_front`` and the archive.
Hypervolume is exact and defined for two and three objectives only, the
counts the loop runs: it is the sum of a disjoint box decomposition that
EHVI shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A reference point from observations lies this share of each
# objective's observed range beyond its worst value.
REFERENCE_MARGIN = 0.1


def _dominates(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Strict dominance of ``a`` over ``b`` along the last axis, broadcast over the rest."""
    if a.shape[-1:] != b.shape[-1:]:
        raise ValueError(f"objective shapes differ: {a.shape} vs {b.shape}")
    return np.all(a <= b, axis=-1) & np.any(a < b, axis=-1)


def pareto_front(points) -> np.ndarray:
    """Indices of the rows of ``points`` that no other row strictly dominates.

    Duplicate rows never dominate each other, so all copies are kept.
    The front is read off one (n, n) strict-dominance table.

    Raises:
        ValueError: empty input or ragged/non-2-D data.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("pareto_front needs a nonempty 2-D array of objectives")
    return np.flatnonzero(~_dominates(pts[:, None, :], pts[None, :, :]).any(axis=0))


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
        if len(ids) > 1 and pareto_front(self.objective_matrix).size != len(ids):
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
        if not self.entries:
            return ParetoArchive((entry,))
        objs = self.objective_matrix
        if np.any(_dominates(objs, entry.objectives)):
            return self
        beaten = _dominates(entry.objectives, objs)
        return ParetoArchive(tuple(e for e, out in zip(self.entries, beaten) if not out) + (entry,))


@dataclass(frozen=True)
class ReferencePoint:
    """Upper corner bounding hypervolume; worse than every archived point."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _reference_values(self.values))

    @classmethod
    def from_observations(cls, objectives) -> "ReferencePoint":
        """Componentwise max plus ``REFERENCE_MARGIN`` of the observed range."""
        objs = np.atleast_2d(np.asarray(objectives, dtype=float))
        if objs.shape[0] == 0:
            raise ValueError("need at least one observation to place a reference point")
        hi = np.max(objs, axis=0)
        span = hi - np.min(objs, axis=0)
        return cls(hi + REFERENCE_MARGIN * np.maximum(span, 1e-6))


def _reference_values(reference, m: int | None = None) -> np.ndarray:
    """A ``ReferencePoint``'s or an array's values, checked finite and, given ``m``, of m objectives.

    Points beyond the reference are legal; they add no volume.
    """
    if isinstance(reference, ReferencePoint):
        reference = reference.values
    values = np.atleast_1d(np.asarray(reference, dtype=float))
    if m is not None and values.size != m:
        raise ValueError(f"reference point has {values.size} objectives, expected {m}")
    if not np.all(np.isfinite(values)):
        raise ValueError("reference point must be finite")
    return values


@dataclass(frozen=True)
class HypervolumeResult:
    value: float


def _staircase(pts: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # One box per distinct first coordinate: [x_i, x_{i+1}) x [min y up to x_i, ref_1).
    xs, inv = np.unique(pts[:, 0], return_inverse=True)
    ymin = np.full(xs.size, np.inf)
    np.minimum.at(ymin, inv, pts[:, 1])
    lo = np.stack([xs, np.minimum.accumulate(ymin)])
    hi = np.stack([np.append(xs, ref[0])[1:], np.full(xs.size, ref[1])])
    return lo, hi


def _distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` of a 1-D float array, bit for bit: sort, then keep
    each value that differs from its predecessor.  In numpy 2 the plain
    ``np.unique`` imports ``numpy.ma`` on a process's first call (about 10 ms)."""
    v = np.sort(values)
    return np.concatenate([v[:1], v[1:][v[1:] != v[:-1]]])


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
    z_edges = np.append(_distinct(pts[:, 2]), ref[2])
    los, his = [np.zeros((3, 0))], [np.zeros((3, 0))]
    for z0, z1 in zip(z_edges[:-1], z_edges[1:]):
        lo, hi = _staircase(pts[pts[:, 2] <= z0], ref)
        los.append(np.vstack([lo, np.full(lo.shape[1], z0)]))
        his.append(np.vstack([hi, np.full(hi.shape[1], z1)]))
    return np.hstack(los), np.hstack(his)


def hypervolume(points, reference) -> HypervolumeResult:
    """Exact volume dominated by ``points`` and bounded above by ``reference``.

    ``points`` is an (n, m) array or one point of m objectives, with m 2
    or 3.  Points at or beyond the reference in any coordinate contribute
    nothing, and empty input of any shape has volume 0.

    Raises:
        ValueError: a reference of other than 2 or 3 objectives, a
            non-finite reference, or points of another objective count.
    """
    ref = _reference_values(reference)
    if ref.size not in (2, 3):
        raise ValueError(f"hypervolume supports 2 or 3 objectives, got {ref.size}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        return HypervolumeResult(0.0)
    if pts.ndim != 2 or pts.shape[1] != ref.size:
        raise ValueError(f"points of shape {np.shape(points)} do not match {ref.size} objectives")
    lo, hi = _boxes(pts, ref)
    return HypervolumeResult(float(np.sum(np.prod(hi - lo, axis=0))))
