"""Candidate selection: closed-form expected hypervolume improvement.

Candidates, surrogate inputs and proposals all live in the loop's unit
cube [0, 1]^d; the loop maps a proposal to raw design parameters.

EHVI for 2 and 3 objectives is exact.  The region the archive already
dominates is the union of the disjoint boxes that hypervolume sums
(``pareto._boxes``), and the surrogates' posteriors are independent
Gaussians, so the expected volume a candidate adds is

    EHVI = prod_k psi_k(r_k) - sum_b prod_k [psi_k(hi_bk) - psi_k(lo_bk)],

with psi_k(c) = E[(c - Y_k)+] and r the reference point: the box-
decomposition EHVI of Yang, Emmerich, Deutz & Baeck (2019).  Every
objective is scored in one stacked pass: one ``gp_predict_batch`` call
gives all the surrogates' posteriors, and one ``_psi`` call evaluates
psi_k at every axis's distinct edges for every candidate, each with the
bits a pass per objective gives.  EHVI draws no random numbers, so one
candidate scored alone by ``_ehvi_batch`` reproduces its value in a
batched scan up to the GP posterior's last bits.

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
# Candidates per _gains call, at least: a scan of about 1,000 candidates
# is scored in 4 blocks.
GAIN_BLOCK = 256

# erfc(x) rounds to exactly 2.0 for x <= -6 (2 - erfc(6) is about 2.2e-17,
# under half an ulp of 2.0) and to exactly 0.0 for x >= 28 (erfc(28) is
# under half the smallest subnormal), so _normal_cdf calls math.erfc only
# between.
_ERFC_TWO_BELOW = -6.0
_ERFC_ZERO_ABOVE = 28.0


def _check_models(models) -> list[GpModel]:
    models = list(models)
    if len(models) < 2:
        raise ValueError("EHVI needs one surrogate per objective, at least 2")
    if len(models) > 3:
        raise ValueError("EHVI supports 2 or 3 objectives")
    return models


def _cells(front: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, ...]:
    """The boxes ``front`` dominates (``pareto._boxes``) as per-axis edge
    tables for _gains, built once per proposal; ``front`` holds m-objective
    rows, and may be empty.

    Returns (edges, lo, hi, at_ref): an (m, e) table of each axis's
    distinct box edges and reference value, padded with +inf to the
    longest axis (psi there is an exact +inf, found with no erfc call),
    and for each axis the columns of its boxes' lower and upper edges,
    (m, boxes), and of its reference value, (m,).
    """
    lo_b, hi_b = _boxes(np.reshape(front, (-1, ref.size)), ref)
    b = lo_b.shape[1]
    axes = [np.unique(np.concatenate([lo_b[k], hi_b[k], ref[k : k + 1]]), return_inverse=True) for k in range(ref.size)]
    edges = np.full((ref.size, max(e.size for e, _ in axes)), np.inf)
    for k, (e, _) in enumerate(axes):
        edges[k, : e.size] = e
    at = np.array([a for _, a in axes])
    return edges, at[:, :b], at[:, b : 2 * b], at[:, -1]


def _normal_cdf(u: np.ndarray) -> np.ndarray:
    """Phi(u) = erfc(-u / sqrt 2) / 2, elementwise, with math.erfc
    (scipy.special's would add its import to every start-up) called only
    off the tails where it is exactly 2 or 0.  u = +-inf lands in a tail,
    and nan goes through math.erfc.  The result is written over ``u``.

    A memoryview hands math.erfc one Python float at a time; a list of
    them all would hold 32 bytes per element at once.
    """
    x = np.multiply(u, -math.sqrt(0.5), out=u)
    low = x <= _ERFC_TWO_BELOW
    high = x >= _ERFC_ZERO_ABOVE
    rest = ~(low | high)
    x[rest] = np.fromiter(map(math.erfc, memoryview(x[rest])), float)
    x[low] = 2.0
    x[high] = 0.0
    x *= 0.5
    return x


def _psi(edges: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """psi(c) = E[(c - Y)+] for Y ~ N(mean, std^2), shape (e, n) from
    (e,) edges and (n,) posteriors, or (m, e, n) from (m, e) edges and
    (m, n) posteriors.

    (c - mean) Phi(u) + std phi(u) with u = (c - mean) / std, and
    max(c - mean, 0) where std is 0; each term in that order, written
    into three buffers of the result's size.
    """
    gap = edges[..., :, None] - mean[..., None, :]
    std = std[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = gap / std
        density = np.multiply(u, -0.5)
        density *= u
        np.exp(density, out=density)
        np.multiply(density, std, out=density)
        density /= math.sqrt(2.0 * math.pi)
        psi = _normal_cdf(u)
        psi *= gap
        psi += density
    flat = ~(std > 0.0)
    if flat.any():
        np.copyto(psi, np.maximum(gap, 0.0, out=gap), where=flat)
    return psi


def _gains(cells: tuple[np.ndarray, ...], means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """Expected hypervolume each column of the (m, n) posteriors adds to
    the union of the boxes that ``cells = _cells(front, ref)`` tabulates.

    E vol(Y..ref) minus the expected overlap with each box, both products
    over axes of psi, which one _psi call evaluates at every axis's
    distinct edges.  Box-major (boxes, n) tables keep the per-box lookups
    row copies.
    """
    edges, lo, hi, at_ref = cells
    psi = _psi(edges, means, stds)
    total = overlap = 1.0
    for k in range(edges.shape[0]):
        overlap = overlap * (psi[k, hi[k]] - psi[k, lo[k]])
        total = total * psi[k, at_ref[k]]
    return np.clip(total - overlap.sum(axis=0), 0.0, None)


def _ehvi_batch(models: list[GpModel], candidates: np.ndarray, cells: tuple[np.ndarray, ...]) -> np.ndarray:
    """EHVI of every candidate against ``cells = _cells(front, ref_values)``.

    _gains scores the candidates in blocks of at least GAIN_BLOCK columns,
    which bounds its (boxes, candidates) tables on a full scan.  A column's
    gain does not depend on its block: the sum over boxes adds rows in
    order at any block width above 1.
    """
    means, variances = gp_predict_batch(models, candidates)
    stds = np.sqrt(variances, out=variances)
    n = means.shape[1]
    blocks = max(1, n // GAIN_BLOCK)
    cuts = [n * i // blocks for i in range(blocks + 1)]
    return np.concatenate([_gains(cells, means[:, a:b], stds[:, a:b]) for a, b in zip(cuts, cuts[1:])])


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

    cells = _cells(archive.objective_matrix, ref_values)
    values = _ehvi_batch(models, pool, cells)
    best = int(np.argmax(values))
    choice = pool[best]
    if len(archive):
        choice = _refine(models, choice, float(values[best]), cells)

    evaluated = models[0].inputs
    if evaluated.shape[0] and np.min(np.max(np.abs(evaluated - choice[None, :]), axis=1)) < DUPLICATE_TOL:
        bump = np.random.default_rng(seeds.seed_for(seed, "perturb", 1))
        choice = np.clip(choice + bump.standard_normal(d) * PERTURB_FRACTION, 0.0, 1.0)
    return choice


def _refine(
    models: list[GpModel],
    start: np.ndarray,
    start_value: float,
    cells: tuple[np.ndarray, ...],
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
        vals = _ehvi_batch(models, cands, cells)
        k = int(np.argmax(vals))
        if vals[k] > best_value:
            best = cands[k]
            best_value = float(vals[k])
            moves += 1
        else:
            step *= 0.5
    return best
