"""Coupling matrix of the rank-N (SU(N+1)) Toda system and its relatives.

The interaction between the N components is encoded by the tridiagonal
N x N matrix with 2 on the diagonal and -1 off it.  Its inverse has
the closed form inv[i, j] = min(i, j) * (N + 1 - max(i, j)) / (N + 1)
with 1-based indices, which cartan_su_inverse evaluates directly.  Both
are plain arrays, built once per rank from the nested tuples of
_cartan_rows and _inverse_rows.  The tuples and the coupling check need
only the standard library, so a process that never touches an array
(`radial`, `bubble`) does not load numpy through this module.
"""

from __future__ import annotations

import math
from functools import lru_cache
from numbers import Real
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "NumericalError",
    "cartan_su",
    "cartan_su_inverse",
    "lower_bound_condition",
]

FOUR_PI = 4.0 * math.pi
EIGHT_PI = 8.0 * math.pi


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
def _cartan_rows(rank: int) -> tuple[tuple[float, ...], ...]:
    """The rows of the tridiagonal coupling matrix of rank N >= 1."""
    _check_rank(rank)
    return tuple(
        tuple(2.0 if i == j else -1.0 if abs(i - j) == 1 else 0.0 for j in range(rank))
        for i in range(rank)
    )


@lru_cache(maxsize=None)
def _inverse_rows(rank: int) -> tuple[tuple[float, ...], ...]:
    """The rows of its inverse, min(i, j) (N + 1 - max(i, j)) / (N + 1)."""
    _check_rank(rank)
    return tuple(
        tuple(min(i, j) * (rank + 1 - max(i, j)) / (rank + 1) for j in range(1, rank + 1))
        for i in range(1, rank + 1)
    )


def _dot(x: Sequence[float], y: Sequence[float]) -> float:
    """The dot product of two float sequences, summed in order."""
    return sum(a * b for a, b in zip(x, y))


def _read_only(rows: tuple[tuple[float, ...], ...]) -> np.ndarray:
    import numpy as np

    a = np.array(rows, dtype=np.float64)
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def cartan_su(rank: int) -> np.ndarray:
    """Tridiagonal coupling matrix of rank N >= 1; cached and read-only."""
    return _read_only(_cartan_rows(rank))


@lru_cache(maxsize=None)
def cartan_su_inverse(rank: int) -> np.ndarray:
    """Closed-form inverse of cartan_su(rank); cached and read-only."""
    return _read_only(_inverse_rows(rank))


def _coupling_values(m: Sequence[float], rank: Optional[int] = None) -> tuple[float, ...]:
    """The couplings as floats: at least one, each positive and finite.

    A given rank must equal their number; without one, their number is
    the rank.
    """
    try:
        values = list(m)
    except TypeError:  # a bare number
        values = None
    # bool subclasses int, but True is not a coupling
    if values is None or any(isinstance(v, bool) or not isinstance(v, Real) for v in values):
        raise ValueError("couplings must be a sequence of numbers")
    if not values:
        raise ValueError("coupling vector must be nonempty")
    if rank is not None and len(values) != rank:
        raise ValueError("coupling vector length does not match rank")
    out = tuple(float(v) for v in values)
    if not all(v > 0 and math.isfinite(v) for v in out):
        raise ValueError("couplings must be positive and finite")
    return out


def _check_couplings(m: Sequence[float], rank: Optional[int] = None) -> np.ndarray:
    """_coupling_values(m, rank) as a float64 array."""
    import numpy as np

    return np.array(_coupling_values(m, rank), dtype=np.float64)


def lower_bound_condition(m: Sequence[float]) -> bool:
    """True when every coupling is at most 4 pi (exact comparison).

    This is the paper's threshold: the functional is bounded below exactly
    when every M_j <= 4 pi.
    """
    return all(v <= FOUR_PI for v in _coupling_values(m))
