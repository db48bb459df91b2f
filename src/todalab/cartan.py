"""Coupling matrix of the two-component system and its relatives.

The interaction between components is encoded by the tridiagonal matrix
with 2 on the diagonal and -1 off it (rank N version).  Its inverse has
the closed form inv[i, j] = min(i, j) * (N + 1 - max(i, j)) / (N + 1)
with 1-based indices, which cartan_su_inverse evaluates directly.  Both
are plain arrays, built once per rank.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "NumericalError",
    "cartan_su",
    "cartan_su_inverse",
    "subset_margin",
    "lower_bound_condition",
    "margin_condition",
]

FOUR_PI = 4.0 * np.pi
EIGHT_PI = 8.0 * np.pi

# Enumerating all 2^N - 1 nonempty subsets is only sane for small rank.
MAX_SUBSET_RANK = 12


class NumericalError(RuntimeError):
    """A computation left the range where its result means anything.

    It lives in this module, which every other one imports, so the CLI
    can report any such failure without importing the module that raised
    it.
    """


def _check_rank(rank: int) -> None:
    if rank < 1:
        raise ValueError("rank must be a positive integer")


@lru_cache(maxsize=None)
def cartan_su(rank: int) -> np.ndarray:
    """Tridiagonal coupling matrix of rank N >= 1; cached and read-only."""
    _check_rank(rank)
    a = 2.0 * np.eye(rank) - np.eye(rank, k=1) - np.eye(rank, k=-1)
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def cartan_su_inverse(rank: int) -> np.ndarray:
    """Closed-form inverse of cartan_su(rank); cached and read-only."""
    _check_rank(rank)
    idx = np.arange(1, rank + 1, dtype=np.float64)
    lo = np.minimum.outer(idx, idx)
    hi = np.maximum.outer(idx, idx)
    inv = lo * (rank + 1 - hi) / (rank + 1)
    inv.flags.writeable = False
    return inv


def _check_couplings(m: Sequence[float], rank: int) -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    if arr.shape != (rank,):
        raise ValueError("coupling vector length does not match rank")
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError("couplings must be positive and finite")
    return arr


def subset_margin(m: Sequence[float], cartan: np.ndarray, subset: Iterable[int]) -> float:
    """Boundedness margin of a component subset.

    For a nonempty set J of component indices (0-based) this is
    8 pi * sum_{j in J} m_j - sum_{i, j in J} a_ij m_i m_j; a singleton
    {j} reduces to 2 m_j (4 pi - m_j), so the margin is nonnegative for
    every subset exactly when every coupling is at most 4 pi.  The rank
    is the length of the (N, N) coupling matrix cartan.
    """
    rank = len(cartan)
    mv = _check_couplings(m, rank)
    idx = sorted(set(int(j) for j in subset))
    if not idx:
        raise ValueError("subset must be nonempty")
    if idx[0] < 0 or idx[-1] >= rank:
        raise ValueError("subset index out of range")
    sel = np.array(idx, dtype=np.intp)
    ms = mv[sel]
    quad = float(ms @ cartan[np.ix_(sel, sel)] @ ms)
    return EIGHT_PI * float(np.sum(ms)) - quad


def lower_bound_condition(m: Sequence[float]) -> bool:
    """True when every coupling is at most 4 pi (exact comparison)."""
    rank = np.size(m)
    if rank == 0:
        raise ValueError("coupling vector must be nonempty")
    return bool(np.all(_check_couplings(m, rank) <= FOUR_PI))


def margin_condition(m: Sequence[float], cartan: np.ndarray) -> bool:
    """True when subset_margin >= 0 for every nonempty subset.

    Walks all 2^N - 1 subsets, so rank is capped at MAX_SUBSET_RANK.
    """
    rank = len(cartan)
    if rank > MAX_SUBSET_RANK:
        raise ValueError(f"subset enumeration limited to rank <= {MAX_SUBSET_RANK}")
    indices = range(rank)
    for size in range(1, rank + 1):
        for subset in combinations(indices, size):
            if subset_margin(m, cartan, subset) < 0:
                return False
    return True
