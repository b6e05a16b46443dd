"""Candidate selection: closed-form expected hypervolume improvement.

Candidates, surrogate inputs and proposals all live in the loop's unit
cube [0, 1]^d; the loop maps a proposal to raw design parameters.

EHVI for 2 and 3 objectives is exact.  The region the archive already
dominates is the union of the disjoint boxes that hypervolume sums
(``pareto._boxes``), and the surrogates' posteriors are independent
Gaussians, so the expected volume a candidate adds is

    EHVI = prod_k psi_k(r_k) - sum_b prod_k [psi_k(hi_bk) - psi_k(lo_bk)],

with psi_k(c) = E[(c - Y_k)+] and r the reference point: the box-
decomposition EHVI of Yang, Emmerich, Deutz & Baeck (2019).  It draws
no random numbers, so one candidate scored alone by ``_ehvi_batch``
reproduces its value in a batched scan up to the GP posterior's last
bits.

The candidate scan is a seeded Latin hypercube in [0, 1)^d: every
coordinate of a scan of n points puts one point in each of n equal
strata, so even a scan as small as the loop's initial design covers
every axis.
"""

from __future__ import annotations

import math

import numpy as np

from . import seeds
from .gp import GpModel, gp_predict_batch
from .pareto import ParetoArchive, ReferencePoint, _boxes, _reference_values

# Proposals closer than this (max-abs) to an evaluated design get bumped.
DUPLICATE_TOL = 1e-9
# Archive perturbation scale, as a fraction of the unit cube's side.
PERTURB_FRACTION = 0.05
# Pattern-search refinement of the scan argmax: starting step as a
# fraction of the unit cube's side, the step below which search stops,
# and a cap on accepted moves.
REFINE_STEP_INIT = 0.2
REFINE_STEP_MIN = 0.01
REFINE_MOVE_LIMIT = 40

# erfc(x) rounds to exactly 2.0 for x <= -6 (2 - erfc(6) is about 2.2e-17,
# under half an ulp of 2.0) and to exactly 0.0 for x >= 28 (erfc(28) is
# under half the smallest subnormal), so _normal_cdf calls math.erfc only
# between.
_ERFC_TWO_BELOW = -6.0
_ERFC_ZERO_ABOVE = 28.0


def _posterior_grid(models: list[GpModel], candidates: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-objective posteriors as (n, m) mean and std arrays, one
    prediction block per objective."""
    preds = [gp_predict_batch(model, candidates) for model in models]
    return np.stack([p[0] for p in preds], axis=1), np.sqrt(np.stack([p[1] for p in preds], axis=1))


def _check_models(models) -> list[GpModel]:
    models = list(models)
    if len(models) < 2:
        raise ValueError("EHVI needs one surrogate per objective, at least 2")
    if len(models) > 3:
        raise ValueError("EHVI supports 2 or 3 objectives")
    dims = {m.kernel.dim for m in models}
    if len(dims) != 1:
        raise ValueError(f"surrogates disagree on design dimension: {sorted(dims)}")
    return models


def _cells(archive: ParetoArchive, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The archive's dominated boxes for _ehvi_batch, as _boxes returns them."""
    front = archive.objective_matrix if len(archive) else np.zeros((0, ref.size))
    return _boxes(front, ref)


def _normal_cdf(u: np.ndarray) -> np.ndarray:
    """Phi(u) = erfc(-u / sqrt 2) / 2, elementwise, with math.erfc
    (scipy.special's would add its import to every start-up) called only
    off the tails where it is exactly 2 or 0.  u = +-inf lands in a tail,
    and nan goes through math.erfc.

    A memoryview hands math.erfc one Python float at a time; a list of
    them all would hold 32 bytes per element at once.
    """
    x = u * -math.sqrt(0.5)
    low = x <= _ERFC_TWO_BELOW
    erfc = np.where(low, 2.0, 0.0)
    rest = ~(low | (x >= _ERFC_ZERO_ABOVE))
    erfc[rest] = np.fromiter(map(math.erfc, memoryview(x[rest])), float)
    erfc *= 0.5
    return erfc


def _psi(edges: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """psi(c) = E[(c - Y)+] for Y ~ N(mean, std^2), shape (e, n) from
    (e,) edges and (n,) posteriors.

    (c - mean) Phi(u) + std phi(u) with u = (c - mean) / std, and
    max(c - mean, 0) where std is 0.
    """
    gap = edges[:, None] - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        u = gap / std
        cdf = _normal_cdf(u)
        psi = gap * cdf + std * np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return np.where(std > 0.0, psi, np.maximum(gap, 0.0))


def _gains(
    cells: tuple[np.ndarray, np.ndarray],
    ref_values: np.ndarray,
    means: np.ndarray,
    stds: np.ndarray,
) -> np.ndarray:
    """Expected hypervolume each (n, m) posterior row adds to the union of ``cells``.

    E vol(Y..ref) minus the expected overlap with each box, both products
    over axes of psi, which is evaluated once per distinct edge of an axis.
    Box-major (boxes, n) tables keep the per-box lookups row copies.
    """
    lo_b, hi_b = cells
    boxes = lo_b.shape[1]
    total = overlap = 1.0
    for k in range(ref_values.size):
        edges, at = np.unique(np.concatenate([lo_b[k], hi_b[k], ref_values[k : k + 1]]), return_inverse=True)
        psi = _psi(edges, means[:, k], stds[:, k])
        overlap = overlap * (psi[at[boxes : 2 * boxes]] - psi[at[:boxes]])
        total = total * psi[at[-1]]
    return np.clip(total - overlap.sum(axis=0), 0.0, None)


def _ehvi_batch(
    models: list[GpModel],
    candidates: np.ndarray,
    cells: tuple[np.ndarray, np.ndarray],
    ref_values: np.ndarray,
) -> np.ndarray:
    """EHVI of every candidate against ``cells = _cells(archive, ref_values)``."""
    return _gains(cells, ref_values, *_posterior_grid(models, candidates))


def scan_candidates(dim: int, count: int, seed: int) -> np.ndarray:
    """A Latin hypercube of ``count`` points in [0, 1)^dim (McKay, Beckman
    & Conover 1979), a pure function of ``seed``.

    Each column puts exactly one point in each stratum [k/count,
    (k+1)/count): a random permutation of the strata plus a uniform offset
    within each, kept below the stratum's upper edge where the sum rounds.
    """
    if count < 1:
        raise ValueError(f"scan count must be >= 1, got {count}")
    if dim < 1:
        raise ValueError(f"scan dimension must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    strata = rng.permuted(np.tile(np.arange(count), (dim, 1)), axis=1).T
    points = (strata + rng.random((count, dim))) / count
    return np.minimum(points, np.nextafter((strata + 1) / count, 0.0))


def propose_next(
    models,
    archive: ParetoArchive,
    ref: ReferencePoint,
    scan_count: int = 1024,
    seed: int = 0,
) -> np.ndarray:
    """Next unit-cube design to evaluate: EHVI argmax over a candidate pool.

    The pool is a Latin hypercube scan of [0, 1)^d, d the surrogates' input
    dimension, plus one Gaussian perturbation (5% of the cube's side) of
    each archived design, clipped to [0, 1].  The argmax is then refined
    by a pattern search, so the returned point's EHVI never falls below
    the scanned maximum.  Proposals within 1e-9 of an already-evaluated
    design are perturbed once.
    """
    models = _check_models(models)
    d = models[0].kernel.dim
    ref_values = _reference_values(ref, len(models))

    pool = scan_candidates(d, scan_count, seed)
    if len(archive):
        prng = np.random.default_rng(seeds.seed_for(seed, "perturb"))
        jumps = prng.standard_normal((len(archive), d)) * PERTURB_FRACTION
        local = np.clip(archive.design_matrix + jumps, 0.0, 1.0)
        pool = np.vstack([pool, local])

    cells = _cells(archive, ref_values)
    values = _ehvi_batch(models, pool, cells, ref_values)
    best = int(np.argmax(values))
    choice = pool[best]
    if len(archive):
        choice = _refine(models, choice, float(values[best]), cells, ref_values)

    evaluated = models[0].inputs
    if evaluated.shape[0] and np.min(np.max(np.abs(evaluated - choice[None, :]), axis=1)) < DUPLICATE_TOL:
        bump = np.random.default_rng(seeds.seed_for(seed, "perturb", 1))
        choice = np.clip(choice + bump.standard_normal(d) * PERTURB_FRACTION, 0.0, 1.0)
    return choice


def _refine(
    models: list[GpModel],
    start: np.ndarray,
    start_value: float,
    cells,
    ref_values: np.ndarray,
) -> np.ndarray:
    """Axis-aligned pattern search on EHVI around the scan argmax.

    Every comparison is between exact EHVI values, so a move is accepted
    only on a genuine gain and the result never falls below the scanned
    maximum.
    """
    best = np.array(start, dtype=float)
    best_value = start_value
    step = REFINE_STEP_INIT
    moves = 0
    while step >= REFINE_STEP_MIN and moves < REFINE_MOVE_LIMIT:
        cands = np.repeat(best[None, :], 2 * best.size, axis=0)
        for j in range(best.size):
            cands[2 * j, j] = max(best[j] - step, 0.0)
            cands[2 * j + 1, j] = min(best[j] + step, 1.0)
        vals = _ehvi_batch(models, cands, cells, ref_values)
        k = int(np.argmax(vals))
        if vals[k] > best_value:
            best = cands[k]
            best_value = float(vals[k])
            moves += 1
        else:
            step *= 0.5
    return best
