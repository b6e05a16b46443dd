"""Candidate selection: closed-form expected hypervolume improvement.

EHVI for 2 and 3 objectives is exact.  The region the archive already
dominates is the union of the disjoint boxes that hypervolume sums
(``pareto._boxes``), and the surrogates' posteriors are independent
Gaussians, so the expected volume a candidate adds is

    EHVI = prod_k psi_k(r_k) - sum_b prod_k [psi_k(hi_bk) - psi_k(lo_bk)],

with psi_k(c) = E[(c - Y_k)+] and r the reference point: the box-
decomposition EHVI of Yang, Emmerich, Deutz & Baeck (2019).  It draws
no random numbers, so a single-candidate call reproduces a batched
scan's value up to the GP posterior's last bits, and proposals can be
audited by rescanning.

The candidate scan is a scrambled Sobol' sequence: Joe & Kuo's (2008)
direction numbers, Owen's (2003) linear matrix scramble plus digital
shift, and Antonov & Saleev's (1979) Gray-code order, with the same
random bits and points as scipy's ``qmc.Sobol``.
"""

from __future__ import annotations

import math

import numpy as np

from . import seeds
from .gp import GpModel, gp_predict_batch
from .pareto import ParetoArchive, ReferencePoint, _boxes, _reference_values

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

# Elementwise math.erfc for the normal CDF; scipy.special's would add its
# import to every start-up.
_erfc = np.frompyfunc(math.erfc, 1, 1)

# Sobol' direction numbers of Joe & Kuo (2008), file new-joe-kuo-6.21201,
# for the first 21 dimensions: each dimension's primitive polynomial
# (as bits, leading and trailing 1 included) and initial numbers m_1..m_s.
# The first dimension is van der Corput's and has neither.
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97, 103, 109, 115, 131, 137)
_SOBOL_INIT = (
    (), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13),
    (1, 1, 5, 5, 17), (1, 1, 5, 5, 5), (1, 1, 7, 11, 19), (1, 1, 5, 1, 1),
    (1, 1, 1, 3, 11), (1, 3, 5, 5, 31), (1, 3, 3, 9, 7, 49), (1, 1, 1, 15, 21, 21),
    (1, 3, 1, 13, 27, 49), (1, 1, 1, 15, 7, 5), (1, 3, 1, 15, 13, 25),
    (1, 1, 5, 5, 19, 61), (1, 3, 7, 11, 23, 15, 103), (1, 3, 7, 13, 13, 15, 69),
)
_SOBOL_BITS = 30


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


def _psi(edges: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """psi(c) = E[(c - Y)+] for Y ~ N(mean, std^2), shape (e, n) from
    (e,) edges and (n,) posteriors.

    (c - mean) Phi(u) + std phi(u) with u = (c - mean) / std, and
    max(c - mean, 0) where std is 0.
    """
    gap = edges[:, None] - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        u = gap / std
        cdf = 0.5 * _erfc(u * -math.sqrt(0.5)).astype(float)
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


def ehvi(models, candidate, archive: ParetoArchive, ref: ReferencePoint) -> float:
    """Expected hypervolume improvement of evaluating ``candidate``.

    E max(0, HV(archive + y) - HV(archive)) in closed form, with the
    objectives y independent Gaussians, one per surrogate's posterior.
    """
    models = _check_models(models)
    ref_values = _reference_values(ref, len(models))
    point = np.atleast_2d(np.asarray(candidate, dtype=float))
    return float(_ehvi_batch(models, point, _cells(archive, ref_values), ref_values)[0])


def _direction_numbers(dim: int) -> np.ndarray:
    """Sobol' direction numbers v[d, j] as 30-bit integers, shape (dim, 30).

    Bratley & Fox's recurrence (Algorithm 659) on Joe & Kuo's initial
    numbers; v[d, j] holds m_{j+1} in its top j + 1 bits.
    """
    bits = _SOBOL_BITS
    v = np.empty((dim, bits), dtype=np.uint32)
    for d in range(dim):
        poly, m = _SOBOL_POLY[d], len(_SOBOL_INIT[d])
        row = list(_SOBOL_INIT[d]) if d else [1] * bits
        for j in range(len(row), bits):
            new = row[j - m]
            for k in range(m):
                if (poly >> (m - 1 - k)) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v[d] = [r << (bits - 1 - j) for j, r in enumerate(row)]
    return v


def _sobol(dim: int, count: int, seed: int) -> np.ndarray:
    """First ``count`` points of a scrambled Sobol' sequence in [0, 1)^dim.

    The random bits, their order and every point equal scipy's
    ``qmc.Sobol(dim, scramble=True, seed=np.random.default_rng(seed))``,
    which draws from a child of the seed's generator.
    """
    if dim > len(_SOBOL_POLY):
        raise ValueError(f"Sobol' scan supports at most {len(_SOBOL_POLY)} dimensions, got {dim}")
    bits = _SOBOL_BITS
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    powers = 2 ** np.arange(bits, dtype=np.uint32)
    shift = rng.integers(2, size=(dim, bits), dtype=np.uint32) @ powers
    lower = np.tril(rng.integers(2, size=(dim, bits, bits), dtype=np.uint32))
    lower[:, np.arange(bits), np.arange(bits)] = 1
    # The scramble multiplies each direction number's bits, most significant
    # first, by its dimension's unit lower-triangular matrix over GF(2).
    msb_first = powers[::-1]
    v = _direction_numbers(dim)
    v_bits = (v[:, :, None] // msb_first) & 1
    v = ((v_bits @ lower.transpose(0, 2, 1)) & 1) @ msb_first
    index = np.arange(count)
    gray = index ^ (index >> 1)
    points = np.tile(shift, (count, 1))
    for j in range((count - 1).bit_length()):
        points ^= np.where((gray[:, None] >> j) & 1, v[:, j], np.uint32(0))
    return points * (1.0 / 2**bits)


def scan_candidates(bounds, scan_count: int, seed: int) -> np.ndarray:
    """Seeded scrambled-Sobol scan of the design box, shape (n, d)."""
    if scan_count < 1:
        raise ValueError(f"scan_count must be >= 1, got {scan_count}")
    lo, hi = _check_bounds(bounds)
    return _sobol(lo.size, scan_count, seed) * (hi - lo) + lo


def _check_bounds(bounds) -> tuple[np.ndarray, np.ndarray]:
    lo = np.atleast_1d(np.asarray(bounds[0], dtype=float))
    hi = np.atleast_1d(np.asarray(bounds[1], dtype=float))
    if lo.shape != hi.shape:
        raise ValueError("bounds halves differ in shape")
    if lo.ndim != 1 or lo.size == 0:
        raise ValueError(f"bounds must be nonempty vectors, got shape {lo.shape}")
    if np.any(lo >= hi):
        raise ValueError(f"empty bounds: {lo} >= {hi} somewhere")
    return lo, hi


def propose_next(
    models,
    bounds,
    archive: ParetoArchive,
    ref: ReferencePoint,
    scan_count: int = 1024,
    seed: int = 0,
) -> np.ndarray:
    """Next design to evaluate: EHVI argmax over a candidate pool.

    The pool is a Sobol scan of the box plus one Gaussian perturbation
    (5% of range per dimension) of each archived design.  The argmax is
    then refined by a pattern search, so the returned point's EHVI never
    falls below the scanned maximum.  Proposals within 1e-9 of an
    already-evaluated design are perturbed once.
    """
    models = _check_models(models)
    lo, hi = _check_bounds(bounds)
    ref_values = _reference_values(ref, len(models))

    pool = scan_candidates(bounds, scan_count, seed)
    if len(archive):
        prng = np.random.default_rng(seeds.seed_for(seed, "perturb"))
        sigma = PERTURB_FRACTION * (hi - lo)
        jumps = prng.standard_normal((len(archive), lo.size)) * sigma
        local = np.clip(archive.design_matrix + jumps, lo, hi)
        pool = np.vstack([pool, local])

    cells = _cells(archive, ref_values)
    values = _ehvi_batch(models, pool, cells, ref_values)
    best = int(np.argmax(values))
    choice = pool[best]
    if len(archive):
        choice = _refine(models, choice, float(values[best]), lo, hi, cells, ref_values)

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
) -> np.ndarray:
    """Axis-aligned pattern search on EHVI around the scan argmax.

    Every comparison is between exact EHVI values, so a move is accepted
    only on a genuine gain and the result never falls below the scanned
    maximum.
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
        vals = _ehvi_batch(models, cands, cells, ref_values)
        k = int(np.argmax(vals))
        if vals[k] > best_value:
            best = cands[k]
            best_value = float(vals[k])
            moves += 1
        else:
            step *= 0.5
    return best
