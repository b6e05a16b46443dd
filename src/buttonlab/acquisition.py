"""Candidate selection: Monte-Carlo expected hypervolume improvement.

EHVI for 2 and 3 objectives is one vectorized overlap of posterior
samples with the disjoint boxes that hypervolume sums over the region
the archive already dominates, taken over chunks of candidates x
samples x boxes.  It uses common random numbers: one fixed block of
standard-normal draws per seed, shared by every candidate, so a
single-candidate call reproduces a batched scan's value up to the GP
posterior's last bits, and proposals can be audited by rescanning.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.stats import qmc

from . import seeds
from .gp import GpModel, gp_predict_batch
from .pareto import HypervolumeResult, ParetoArchive, ReferencePoint, _boxes, hypervolume

# Posterior samples per candidate inside propose_next.
DEFAULT_EHVI_SAMPLES = 128
# Proposals closer than this (max-abs) to an evaluated design get bumped.
DUPLICATE_TOL = 1e-9
# Archive perturbation scale, as a fraction of each dimension's range.
PERTURB_FRACTION = 0.05
# Pattern-search refinement of the scan argmax: starting step as a
# fraction of each dimension's range, the step below which search
# stops, and a cap on accepted moves.
REFINE_STEP_INIT = 0.2
REFINE_STEP_MIN = 0.01
REFINE_MOVE_LIMIT = 40

# Candidates x samples x boxes overlapped per EHVI chunk; larger chunks
# only add cache misses and transient memory.
_CELL_BUDGET = 2**16


def _posterior_grid(models: list[GpModel], candidates: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-objective posteriors as (n, m) mean and std arrays.

    A posterior row's last bits depend on its prediction block (BLAS
    tiling), so the blocks stay those the proposals were baselined in:
    256 candidates for 2 objectives, all of them for 3.
    """
    block = 256 if len(models) == 2 else max(1, candidates.shape[0])
    means = np.empty((candidates.shape[0], len(models)))
    stds = np.empty_like(means)
    for start in range(0, candidates.shape[0], block):
        for j, model in enumerate(models):
            mu, var = gp_predict_batch(model, candidates[start : start + block])
            means[start : start + block, j] = mu
            stds[start : start + block, j] = np.sqrt(var)
    return means, stds


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


def _check_ref(ref: ReferencePoint, m: int) -> np.ndarray:
    # Archive points outside the reference box are legal; they simply
    # contribute no volume.  Only shape and finiteness are enforced.
    values = ref.values if isinstance(ref, ReferencePoint) else np.asarray(ref, dtype=float)
    if values.size != m:
        raise ValueError(f"reference point has {values.size} objectives, models define {m}")
    if not np.all(np.isfinite(values)):
        raise ValueError("reference point must be finite")
    return values


def _cells(archive: ParetoArchive, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The archive's dominated boxes for _ehvi_batch, as _boxes returns them."""
    front = archive.objective_matrix if len(archive) else np.zeros((0, ref.size))
    return _boxes(front, ref)


def _gains(cells: tuple[np.ndarray, np.ndarray], ref_values: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Hypervolume each point of ``y`` (..., m) adds to the union of ``cells``.

    vol(y..ref) minus its overlap with the dominated boxes, one axis at a time.
    """
    lo_b, hi_b = cells
    overlap = np.ones(y.shape[:-1] + (lo_b.shape[1],))
    # One scratch array for every axis's edge: fresh chunk-sized temporaries
    # made the allocator hand memory back and fault it in again per chunk.
    edge = np.empty_like(overlap)
    for k in range(ref_values.size):
        np.subtract(hi_b[k], np.maximum(lo_b[k], y[..., k, None], out=edge), out=edge)
        overlap *= np.clip(edge, 0.0, None, out=edge)
    return np.clip(np.prod(np.clip(ref_values - y, 0.0, None), axis=-1) - overlap.sum(axis=-1), 0.0, None)


def _ehvi_batch(
    models: list[GpModel],
    candidates: np.ndarray,
    cells: tuple[np.ndarray, np.ndarray],
    ref_values: np.ndarray,
    sample_count: int,
    seed: int,
) -> np.ndarray:
    """EHVI of every candidate against ``cells = _cells(archive, ref_values)``.

    No value depends on the overlap's chunking.
    """
    z = np.random.default_rng(seed).standard_normal((sample_count, len(models)))
    means, stds = _posterior_grid(models, candidates)
    step = max(1, _CELL_BUDGET // (sample_count * (cells[0].shape[1] + 3)))
    out = np.empty(candidates.shape[0])
    for start in range(0, candidates.shape[0], step):
        y = means[start : start + step, None, :] + stds[start : start + step, None, :] * z[None, :, :]
        out[start : start + y.shape[0]] = _gains(cells, ref_values, y).mean(axis=1)
    return out


def ehvi(
    models,
    candidate,
    archive: ParetoArchive,
    ref: ReferencePoint,
    sample_count: int = 10_000,
    seed: int = 0,
) -> float:
    """Expected hypervolume improvement of evaluating ``candidate``.

    Mean over posterior samples of max(0, HV(archive + y) - HV(archive)),
    with objectives sampled independently per surrogate.  Deterministic
    for a given seed.
    """
    models = _check_models(models)
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    ref_values = _check_ref(ref, len(models))
    point = np.atleast_2d(np.asarray(candidate, dtype=float))
    return float(_ehvi_batch(models, point, _cells(archive, ref_values), ref_values, sample_count, seed)[0])


def scan_candidates(bounds, scan_count: int, seed: int) -> np.ndarray:
    """Seeded scrambled-Sobol scan of the design box, shape (n, d)."""
    lo, hi = _check_bounds(bounds)
    sampler = qmc.Sobol(d=lo.size, scramble=True, seed=np.random.default_rng(seed))
    with warnings.catch_warnings():
        # Non power-of-two draws are fine here; balance is not required.
        warnings.simplefilter("ignore", UserWarning)
        unit = sampler.random(scan_count)
    return qmc.scale(unit, lo, hi)


def _check_bounds(bounds) -> tuple[np.ndarray, np.ndarray]:
    lo = np.atleast_1d(np.asarray(bounds[0], dtype=float))
    hi = np.atleast_1d(np.asarray(bounds[1], dtype=float))
    if lo.shape != hi.shape:
        raise ValueError("bounds halves differ in shape")
    if np.any(lo > hi):
        raise ValueError(f"empty bounds: {lo} > {hi} somewhere")
    return lo, hi


def propose_next(
    models,
    bounds,
    archive: ParetoArchive,
    ref: ReferencePoint,
    scan_count: int = 1024,
    seed: int = 0,
    sample_count: int = DEFAULT_EHVI_SAMPLES,
) -> np.ndarray:
    """Next design to evaluate: EHVI argmax over a candidate pool.

    The pool is a Sobol scan of the box plus one Gaussian perturbation
    (5% of range per dimension) of each archived design.  The argmax is
    then refined by a pattern search under the same random numbers, so
    the returned point's EHVI never falls below the scanned maximum.
    The all-zero-EHVI case falls back to the scanned candidate with the
    largest summed posterior variance.  Proposals within 1e-9 of an
    already-evaluated design are perturbed once.
    """
    models = _check_models(models)
    if scan_count < 1:
        raise ValueError("scan_count must be >= 1")
    lo, hi = _check_bounds(bounds)
    ref_values = _check_ref(ref, len(models))

    scan = scan_candidates(bounds, scan_count, seed)
    pool = scan
    if len(archive):
        prng = np.random.default_rng(seeds.seed_for(seed, "perturb"))
        sigma = PERTURB_FRACTION * (hi - lo)
        jumps = prng.standard_normal((len(archive), lo.size)) * sigma
        local = np.clip(archive.design_matrix + jumps, lo, hi)
        pool = np.vstack([scan, local])

    cells = _cells(archive, ref_values)
    values = _ehvi_batch(models, pool, cells, ref_values, sample_count, seed)
    best = float(np.max(values))
    if best > 0.0:
        choice = pool[int(np.argmax(values))]
        if len(archive):
            choice = _refine(models, choice, best, lo, hi, cells, ref_values, sample_count, seed)
    else:
        choice = scan[int(np.argmax(_scan_variances(models, scan)))]

    evaluated = models[0].inputs
    if evaluated.shape[0] and np.min(np.max(np.abs(evaluated - choice[None, :]), axis=1)) < DUPLICATE_TOL:
        bump = np.random.default_rng(seeds.seed_for(seed, "perturb", 1))
        sigma = PERTURB_FRACTION * (hi - lo)
        choice = np.clip(choice + bump.standard_normal(lo.size) * sigma, lo, hi)
    return choice


def _refine(
    models: list[GpModel],
    start: np.ndarray,
    start_value: float,
    lo: np.ndarray,
    hi: np.ndarray,
    cells,
    ref_values: np.ndarray,
    sample_count: int,
    seed: int,
) -> np.ndarray:
    """Axis-aligned pattern search on EHVI around the scan argmax.

    Every comparison reuses the scan's common-random-number block, so a
    move is accepted only on a genuine EHVI gain and the result never
    falls below the scanned maximum.
    """
    span = hi - lo
    best = np.array(start, dtype=float)
    best_value = start_value
    step = REFINE_STEP_INIT
    moves = 0
    while step >= REFINE_STEP_MIN and moves < REFINE_MOVE_LIMIT:
        cands = np.repeat(best[None, :], 2 * lo.size, axis=0)
        for j in range(lo.size):
            cands[2 * j, j] = max(best[j] - step * span[j], lo[j])
            cands[2 * j + 1, j] = min(best[j] + step * span[j], hi[j])
        vals = _ehvi_batch(models, cands, cells, ref_values, sample_count, seed)
        k = int(np.argmax(vals))
        if vals[k] > best_value:
            best = cands[k]
            best_value = float(vals[k])
            moves += 1
        else:
            step *= 0.5
    return best


def _scan_variances(models: list[GpModel], scan: np.ndarray) -> np.ndarray:
    variances = np.zeros(scan.shape[0])
    for model in models:
        _, var = gp_predict_batch(model, scan)
        variances += var
    return variances


def archive_hypervolume(archive: ParetoArchive, ref: ReferencePoint) -> HypervolumeResult:
    """Hypervolume of the archive front against its reference point."""
    return hypervolume(archive.objective_matrix, ref)
