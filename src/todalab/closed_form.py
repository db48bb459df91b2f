"""Radial entire solutions of the SU(N+1) Toda system in closed form.

Every radial solution of Delta u = -A e^u in the plane, A = cartan_su(N),
is elementary (Jost-Wang 2002; Lin-Wei-Ye 2012).  With s = r^2,
U = A^{-1} u and e^{-U_k} = g_k(s), g_0 = g_{N+1} = 1,

    g_k(s) = 4^{k(k-1)/2} sum_{I} Delta(I)^2 prod_{i in I} lambda_i s^{e_I},

over the k-subsets I of {0, ..., N}, where Delta(I) = prod_{i<j in I} (j - i)
and e_I = sum(I) - k(k-1)/2.  Every term is positive, so log g_k is a
log-sum-exp over the terms, and the running mass alpha_k = 4 pi s g_k'/g_k
is 4 pi times the softmax-weighted mean of the exponents e_I; then
u = A U and r u' = -A alpha / 2 pi.  Only I = {0, ..., k-1} survives at
s = 0, which fixes the lambda_i from the central values a0.  As r grows
alpha_k tends to 4 pi k (N + 1 - k).

The sum has 2^{N+1} - 2 terms, so the rank is capped at MAX_SUBSET_RANK.
This module needs only the standard library: the `radial` command
samples the profile here without loading numpy, on the nodes of
_node_grid, which radial.integrate_radial reports too.  RadialProfile
is also what integrate_radial returns, so the helpers that read a
profile (flux_max, state, masses_and_exponents, write_solution_csv)
serve the exact and the integrated one alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from numbers import Integral, Real
from typing import Callable, Sequence

from ._csv import write_csv
from .cartan import FOUR_PI, NumericalError, _cartan_rows, _dot, _inverse_rows

__all__ = [
    "RadialProfile",
    "MassReport",
    "MassRelation",
    "radial_profile",
    "masses_and_exponents",
    "check_mass_relation",
    "write_solution_csv",
]

# the first node past the origin: the radial integrator's series hands
# over at this radius, or closer in for tall starts
SERIES_RADIUS = 1e-4
# e^{max a0} r^2 at the hand-over of a tall start: its r^4 term is small
SERIES_GROWTH = 1e-3
TAIL_FRACTION = 1e-4
# the most radial nodes a profile takes: each row is a tuple this long
MAX_NODES = 100_000
# the highest rank whose 2^{N+1} - 2 terms the closed form sums
MAX_SUBSET_RANK = 12
# the largest |a0_j| the closed form takes: _terms subtracts log
# coefficients of size |a0|, so the profile loses about eps |a0|
MAX_START = 1e5

Rows = tuple[tuple[float, ...], ...]
# per level k = 1..N, the (log coefficient, exponent of s) of each term of g_k
Levels = tuple[tuple[tuple[float, int], ...], ...]


@dataclass(frozen=True)
class MassReport:
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    alpha_above_4pi: tuple[bool, ...]
    beta_above_4pi: tuple[bool, ...]


@dataclass(frozen=True)
class MassRelation:
    residual: float
    relative: float


@dataclass(frozen=True)
class RadialProfile:
    """A radial profile on increasing radii, as plain tuples.

    r_nodes starts at 0 (the central values) and ends at r_max exactly;
    u, du and alpha hold one row per component; cartan holds the rows of
    the coupling matrix.  state(r) gives (u, r u', alpha) at any radius
    in (0, r_max], not only at the nodes: the closed form's own value
    (radial_profile) or the integrator's dense output (integrate_radial).
    """

    r_nodes: tuple[float, ...]
    u: Rows
    du: Rows
    alpha: Rows
    a0: tuple[float, ...]
    cartan: Rows
    r_max: float
    state: Callable[[float], Rows] = field(repr=False, compare=False)

    @property
    def n_components(self) -> int:
        return len(self.a0)

    def flux_max(self) -> float:
        """Largest normalized flux defect |-2 pi r u' - A alpha| / (1 + sum alpha).

        The divergence theorem makes the defect zero at every node past the
        origin; the normalization matches the integrator's mixed
        absolute/relative error control.  For the closed form, whose r u'
        comes from alpha, the defect is roundoff.  The arithmetic runs in
        the order of the array expression -2 pi (du r) - A @ alpha, one
        component row at a time over all nodes.
        """
        radii = self.r_nodes[1:]
        alpha = [row[1:] for row in self.alpha]
        scale = [1.0 + s for s in map(sum, zip(*alpha))]
        worst = 0.0
        for coeffs, du in zip(self.cartan, self.du):
            flux = [0.0] * len(radii)
            for a, column in zip(coeffs, alpha):
                flux = [f + a * x for f, x in zip(flux, column)]
            worst = max(worst, max(
                abs(-2.0 * math.pi * (d * r) - f) / s
                for d, r, f, s in zip(du[1:], radii, flux, scale)
            ))
        return worst


def _check_settings(a0: Sequence[float], r_max: float, nodes: int) -> tuple[float, ...]:
    """The central values and node settings of a radial profile; returns a0.

    The radial integrator applies the same rules.
    """
    try:
        start = tuple(float(v) if isinstance(v, Real) else math.nan for v in a0)
    except TypeError:
        start = ()
    if not start or not all(math.isfinite(v) for v in start):
        raise ValueError("initial values must be a finite vector")
    if not (math.isfinite(r_max) and r_max >= 10.0):
        raise ValueError("r_max must be at least 10 and finite")
    if not isinstance(nodes, Integral):
        raise ValueError("nodes must be an integer")
    if nodes < 16:
        raise ValueError("nodes must be at least 16")
    if nodes > MAX_NODES:
        raise ValueError(f"nodes must be at most {MAX_NODES}")
    return start


def _check_profile_settings(
    a0: Sequence[float], r_max: float, nodes: int
) -> tuple[float, ...]:
    """_check_settings plus the closed form's caps on rank and |a0|; returns a0."""
    start = _check_settings(a0, r_max, nodes)
    if len(start) > MAX_SUBSET_RANK:
        raise ValueError(f"the closed form is limited to rank <= {MAX_SUBSET_RANK}")
    if max(map(abs, start)) > MAX_START:
        raise ValueError(f"central values must be at most {MAX_START:g} in magnitude")
    return start


def _series_radius(start: Sequence[float]) -> float:
    """The first node past the origin: SERIES_RADIUS, or less for a tall start.

    The integrator's origin series is exact to O(e^{2 max a0} r^4), so it
    hands over while e^{max a0} r^2 is still small; max a0 <= 11.5 keeps
    SERIES_RADIUS.  (The exponent is capped at 0, where the product is
    already past SERIES_RADIUS, so a deep start cannot overflow it.)
    """
    return min(SERIES_RADIUS, math.sqrt(SERIES_GROWTH) * math.exp(min(-0.5 * max(start), 0.0)))


def _vandermonde_log(subset: Sequence[int]) -> float:
    """log Delta(I), the log of prod_{i<j in I} (j - i)."""
    return math.log(math.prod(j - i for i, j in combinations(subset, 2)))


def _terms(start: Sequence[float]) -> Levels:
    """The terms of g_1, ..., g_N for the central values start."""
    rank = len(start)
    inverse = _inverse_rows(rank)
    # only the lowest term of g_k survives at s = 0, so with U_{N+1} = 0
    # sum_{i<k} log lambda_i = -U_k(0) - log(4^{k(k-1)/2} Delta({0..k-1})^2)
    prefix = [
        -(_dot(inverse[k - 1], start) if k <= rank else 0.0)
        - k * (k - 1) / 2 * math.log(4.0) - 2.0 * _vandermonde_log(range(k))
        for k in range(1, rank + 2)
    ]
    log_lambda = [prefix[0]] + [b - a for a, b in zip(prefix, prefix[1:])]
    levels = []
    for k in range(1, rank + 1):
        base = k * (k - 1) // 2
        levels.append(tuple(
            (
                base * math.log(4.0) + 2.0 * _vandermonde_log(subset)
                + sum(log_lambda[i] for i in subset),
                sum(subset) - base,
            )
            for subset in combinations(range(rank + 1), k)
        ))
    return tuple(levels)


def _state(levels: Levels, log_s: float) -> Rows:
    """(u, r u', alpha) at the radius with log r^2 = log_s.

    Each g_k is a log-sum-exp over its terms, and alpha_k is 4 pi times
    the mean exponent under the terms' softmax weights.
    """
    big_u, alpha = [], []
    for terms in levels:
        z = [c + e * log_s for c, e in terms]
        top = max(z)
        weights = [math.exp(x - top) for x in z]
        total = sum(weights)
        big_u.append(-(top + math.log(total)))
        alpha.append(FOUR_PI * sum(e * w for (_, e), w in zip(terms, weights)) / total)
    rows = _cartan_rows(len(levels))
    u = tuple(_dot(row, big_u) for row in rows)
    w = tuple(-_dot(row, alpha) / (2.0 * math.pi) for row in rows)
    return u, w, tuple(alpha)


def _node_grid(
    start: Sequence[float], r_max: float, nodes: int
) -> tuple[list[float], tuple[float, ...]]:
    """The log radii t_i of the nodes past the origin, and all the nodes.

    The t_i are nodes values evenly spaced from log _series_radius(start)
    to log r_max, the values np.linspace gives; the nodes are r = 0, then
    exp(t_i), the last being r_max itself.  Both radial_profile and
    radial.integrate_radial report these nodes.  Raises NumericalError
    when the first node underflows to zero (max a0 above about 1483.4).
    """
    first = _series_radius(start)
    if first == 0.0:
        raise NumericalError(
            f"the first node radius underflows at central value {max(start):g}"
        )
    t0, t1 = math.log(first), math.log(r_max)
    step = (t1 - t0) / (nodes - 1)
    log_radii = [t0 + i * step for i in range(nodes - 1)] + [t1]
    return log_radii, (0.0, *map(math.exp, log_radii[:-1]), float(r_max))


def radial_profile(
    a0: Sequence[float], r_max: float = 1000.0, nodes: int = 600
) -> RadialProfile:
    """The exact profile on the nodes of _node_grid, as integrate_radial's.

    Raises NumericalError when the first node underflows to zero or a
    value leaves the float range.
    """
    start = _check_profile_settings(a0, r_max, nodes)
    r_nodes = _node_grid(start, r_max, nodes)[1]
    radii = r_nodes[1:]
    levels = _terms(start)
    states = [_state(levels, 2.0 * math.log(r)) for r in radii]
    rank = len(start)
    # one row per component, each starting with its value at r = 0
    u, w, alpha = (
        tuple((origin[j],) + tuple(st[q][j] for st in states) for j in range(rank))
        for q, origin in enumerate((start, (0.0,) * rank, (0.0,) * rank))
    )
    du = tuple((0.0,) + tuple(x / r for x, r in zip(row[1:], radii)) for row in w)
    if not all(math.isfinite(x) for rows in (u, du, alpha) for row in rows for x in row):
        raise NumericalError(
            "the closed form leaves the float range at central values "
            + ",".join(f"{v:g}" for v in start)
        )
    return RadialProfile(
        r_nodes=r_nodes,
        u=u,
        du=du,
        alpha=alpha,
        a0=start,
        cartan=_cartan_rows(rank),
        r_max=float(r_max),
        state=lambda r: _state(levels, 2.0 * math.log(r)),
    )


def masses_and_exponents(sol: RadialProfile) -> MassReport:
    """Total masses and decay exponents at r_max, with the 4 pi flags.

    Requires small tails: each component must satisfy e^{u_j(r_max)} 2 pi
    r_max^2 < TAIL_FRACTION alpha_j(r_max), otherwise the reported mass
    is not close to its limit.
    """
    alpha = tuple(row[-1] for row in sol.alpha)
    # the rule in logs, so that no factor overflows at a large r_max
    log_area = math.log(2.0 * math.pi) + 2.0 * math.log(sol.r_max)
    for row, mass in zip(sol.u, alpha):
        if mass <= 0.0 or row[-1] + log_area >= math.log(TAIL_FRACTION * mass):
            raise ValueError("mass tail too large at r_max; integrate to a larger r_max")
    beta = tuple(_dot(row, alpha) for row in sol.cartan)
    return MassReport(
        alpha=alpha,
        beta=beta,
        alpha_above_4pi=tuple(a > FOUR_PI for a in alpha),
        beta_above_4pi=tuple(b > FOUR_PI for b in beta),
    )


def check_mass_relation(alpha1: float, alpha2: float) -> MassRelation:
    """Signed and relative defect of a1^2 + a2^2 - a1 a2 = 4 pi (a1 + a2)."""
    if alpha1 <= 0 or alpha2 <= 0:
        raise ValueError("masses must be positive")
    residual = (
        alpha1 * alpha1 + alpha2 * alpha2 - alpha1 * alpha2
        - FOUR_PI * (alpha1 + alpha2)
    )
    return MassRelation(
        residual=float(residual),
        relative=float(residual / (FOUR_PI * (alpha1 + alpha2))),
    )


def write_solution_csv(sol: RadialProfile, destination) -> None:
    """Write (r, u_j, du_j, alpha_j) rows to a path or text file object."""
    names = [f"{q}{j + 1}" for q in ("u", "du", "alpha") for j in range(sol.n_components)]
    write_csv(
        destination,
        ",".join(["r"] + names),
        (
            ",".join(f"{x:.12g}" for x in row)
            for row in zip(sol.r_nodes, *sol.u, *sol.du, *sol.alpha)
        ),
    )
