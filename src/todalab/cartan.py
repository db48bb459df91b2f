"""Coupling matrix of the two-component system and its relatives.

The interaction between components is encoded by the tridiagonal matrix
with 2 on the diagonal and -1 off it (rank N version).  Its inverse has
the closed form inv[i, j] = min(i, j) * (N + 1 - max(i, j)) / (N + 1)
with 1-based indices, which the constructor uses directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CartanMatrix",
    "NumericalError",
    "cartan_su",
    "resolve_cartan",
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


@dataclass(frozen=True)
class CartanMatrix:
    """Coupling matrix with its exact inverse, both dense float arrays."""

    rank: int
    entries: np.ndarray = field(repr=False)
    inverse_entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("entries", "inverse_entries"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            if arr.shape != (self.rank, self.rank):
                raise ValueError("matrix shape does not match rank")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def cartan_su(rank: int) -> CartanMatrix:
    """Tridiagonal coupling matrix of rank N >= 1 and its closed-form inverse."""
    if rank < 1:
        raise ValueError("rank must be a positive integer")
    a = 2.0 * np.eye(rank)
    for i in range(rank - 1):
        a[i, i + 1] = -1.0
        a[i + 1, i] = -1.0
    idx = np.arange(1, rank + 1, dtype=np.float64)
    lo = np.minimum.outer(idx, idx)
    hi = np.maximum.outer(idx, idx)
    inv = lo * (rank + 1 - hi) / (rank + 1)
    return CartanMatrix(rank, a, inv)


def resolve_cartan(rank: int, cartan: CartanMatrix | None) -> CartanMatrix:
    """The given coupling matrix, checked against rank, or cartan_su(rank)."""
    if cartan is None:
        return cartan_su(rank)
    if cartan.rank != rank:
        raise ValueError("coupling matrix rank does not match component count")
    return cartan


def _check_couplings(m: Sequence[float], rank: int) -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    if arr.shape != (rank,):
        raise ValueError("coupling vector length does not match rank")
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError("couplings must be positive and finite")
    return arr


def subset_margin(m: Sequence[float], cartan: CartanMatrix, subset: Iterable[int]) -> float:
    """Boundedness margin of a component subset.

    For a nonempty set J of component indices (0-based) this is
    8 pi * sum_{j in J} m_j - sum_{i, j in J} a_ij m_i m_j; a singleton
    {j} reduces to 2 m_j (4 pi - m_j), so the margin is nonnegative for
    every subset exactly when every coupling is at most 4 pi.
    """
    mv = _check_couplings(m, cartan.rank)
    idx = sorted(set(int(j) for j in subset))
    if not idx:
        raise ValueError("subset must be nonempty")
    if idx[0] < 0 or idx[-1] >= cartan.rank:
        raise ValueError("subset index out of range")
    sel = np.array(idx, dtype=np.intp)
    ms = mv[sel]
    quad = float(ms @ cartan.entries[np.ix_(sel, sel)] @ ms)
    return EIGHT_PI * float(np.sum(ms)) - quad


def lower_bound_condition(m: Sequence[float]) -> bool:
    """True when every coupling is at most 4 pi (exact comparison)."""
    rank = np.size(m)
    if rank == 0:
        raise ValueError("coupling vector must be nonempty")
    return bool(np.all(_check_couplings(m, rank) <= FOUR_PI))


def margin_condition(m: Sequence[float], cartan: CartanMatrix) -> bool:
    """True when subset_margin >= 0 for every nonempty subset.

    Walks all 2^N - 1 subsets, so rank is capped at MAX_SUBSET_RANK.
    """
    if cartan.rank > MAX_SUBSET_RANK:
        raise ValueError(f"subset enumeration limited to rank <= {MAX_SUBSET_RANK}")
    indices = range(cartan.rank)
    for size in range(1, cartan.rank + 1):
        for subset in combinations(indices, size):
            if subset_margin(m, cartan, subset) < 0:
                return False
    return True
