"""Deterministic seed derivation.

A single master seed expands into an addressable tree of independent
streams, one per purpose (design-of-experiments, acquisition sampling,
policy adaptation, evaluation rollouts, ...).  Every stream is a pure
function of ``(master, purpose, *indices)``, so any part of a run can be
reproduced in isolation and a resumed run draws exactly the numbers the
uninterrupted run would have drawn.
"""

from __future__ import annotations

import numpy as np

# Stable purpose codes; never renumber, only append.
PURPOSES = {
    "doe": 1,
    "acquisition": 2,
    "hyperopt": 3,
    "adapt": 4,
    "evaluate": 5,
    "meta_init": 6,
    "meta_task": 7,
    "meta_inner": 8,
    "meta_post": 9,
    "rollout": 10,
    "perturb": 11,
}


def seed_for(master: int, purpose: str, *indices: int) -> np.random.SeedSequence:
    """Derive the seed sequence for one purpose-scoped stream."""
    if purpose not in PURPOSES:
        raise ValueError(f"unknown seed purpose {purpose!r}")
    return np.random.SeedSequence([int(master), PURPOSES[purpose], *map(int, indices)])


def seed_int(master: int, purpose: str, *indices: int) -> int:
    """Plain-integer form of the derived seed, for APIs that expand it further."""
    return int(seed_for(master, purpose, *indices).generate_state(1, np.uint64)[0])
