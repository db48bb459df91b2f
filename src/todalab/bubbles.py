"""Concentrating two-component profiles and their growth rates.

The family is built from the planar Liouville profile -2 log(1 + pi r^2),
which is closed_form's rank-1 profile with a0 = log 4 pi, shifted by
-log 4 pi: component one is the logarithm of a rescaled standard
density, truncated to a disk of radius flat_radius around (0.5, 0.5)
and continued by its boundary value outside; component two is minus
half of component one.  As the scale
grows the eight tracked quantities (three gradient pairings, two means,
two exponential masses, and the energy) grow linearly in log(scale),
and the energy slope changes sign exactly at coupling 4 pi, which makes
the family a certified descent direction above the threshold.  Every
radial integrand has an elementary antiderivative, so the quantities
are closed forms; no quadrature runs here.  Each slope is one least
squares fit over every scale on the closed forms' asymptotic terms, so
no scale is dropped.  The quantities and the slope fits need only the
standard library, so a `bubble` process never loads numpy; sampling on
a grid imports it when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Sequence

from .cartan import FOUR_PI, NumericalError, _coupling_values, _dot

if TYPE_CHECKING:
    from .functional import MultiField
    from .grid import GridSpec

__all__ = [
    "BubbleParams",
    "SlopeFit",
    "QUANTITY_KEYS",
    "standard_bubble",
    "bubble_quantities",
    "asymptotic_slope_table",
    "fit_slopes",
]

# the largest profile scale: scale^2 overflows past about 1.3e154, and up
# to this one every quantity but the energy is finite at any flat_radius
MAX_SCALE = 1e150

QUANTITY_KEYS = (
    "grad1_sq",
    "grad2_sq",
    "grad_cross",
    "int_u1",
    "int_u2",
    "log_mass_u1",
    "log_mass_u2",
    "energy",
)


@dataclass(frozen=True)
class BubbleParams:
    """Scale and truncation radius of the profile, centered on the torus."""

    scale: float
    flat_radius: float = 0.25
    center: ClassVar[tuple[float, float]] = (0.5, 0.5)

    def __post_init__(self):
        _check_scale(self.scale)
        _check_flat_radius(self.flat_radius)


def _check_flat_radius(flat_radius: float) -> None:
    """The truncation radius rule, NaN included."""
    if not 0 < flat_radius <= 0.5:
        raise ValueError("flat_radius must lie in (0, 0.5]")


def _check_scale(scale: float) -> None:
    """The profile scale rule, NaN and inf included."""
    if not 2.0 <= scale < math.inf:
        raise ValueError("scale must be finite and at least 2")
    if scale > MAX_SCALE:
        raise ValueError(f"scale must be at most {MAX_SCALE:g}")


def standard_bubble(
    params: BubbleParams, spec: GridSpec, allow_unresolved: bool = False
) -> MultiField:
    """Sample the two-component profile on the grid (first-form fields).

    The core width is 1/(scale sqrt(pi)); unless allow_unresolved is set
    the grid must place at least four cells across it.
    """
    # imported here: the slope fits and the identity suite never sample
    # on a grid, so their processes skip loading these modules
    import numpy as np

    from .functional import MultiField
    from .grid import ScalarField, _periodic_dist_sq

    if not allow_unresolved and spec.h > 1.0 / (4.0 * params.scale * np.sqrt(np.pi)):
        raise ValueError(
            "grid too coarse for this scale; refine or pass allow_unresolved"
        )
    # constant beyond flat_radius, which keeps the profile continuous
    r_eff = np.minimum(np.sqrt(_periodic_dist_sq(spec, params.center)), params.flat_radius)
    u1 = 2.0 * np.log(params.scale) - 2.0 * np.log1p(params.scale**2 * np.pi * r_eff**2)
    return MultiField(
        (ScalarField(spec, u1), ScalarField(spec, -0.5 * u1))
    )


def bubble_quantities(
    scale: float, m: Sequence[float], flat_radius: float = 0.25
) -> dict[str, float]:
    """The eight tracked quantities at one scale, in closed form.

    With a = scale^2 pi, d = flat_radius and s = a d^2, the radial
    integrals over the truncation disk are

        int |grad u1|^2  = 16 pi (log(1+s) - s/(1+s)),
        int u1           = 2 log(scale) pi d^2 - (2 pi/a)((1+s) log(1+s) - s),
        int e^{u1}       = s/(1+s),
        int e^{-u1/2}    = (pi/scale)(d^2 + a d^4/2),

    and outside the disk every integrand is its boundary value times the
    leftover area 1 - pi d^2.  The second component is -u1/2, so its
    pairings are fixed multiples of the first.
    """
    mv = _coupling_values(m, 2)
    _check_scale(scale)
    _check_flat_radius(flat_radius)
    d = flat_radius
    a = scale**2 * math.pi
    s = a * d**2
    log_scale = math.log(scale)
    log1p_s = math.log1p(s)
    outer_area = 1.0 - math.pi * d**2
    u1_edge = 2.0 * log_scale - 2.0 * log1p_s

    # written without 1/(1+s) - 1, which cancels as s -> 0
    grad1_sq = 16.0 * math.pi * (log1p_s - s / (1.0 + s))
    int_u1 = (
        2.0 * log_scale * math.pi * d**2
        - (2.0 * math.pi / a) * ((1.0 + s) * log1p_s - s)
        + u1_edge * outer_area
    )
    int_u2 = -0.5 * int_u1
    log_mass_u1 = math.log(s / (1.0 + s) + math.exp(u1_edge) * outer_area)
    log_mass_u2 = math.log(
        (math.pi / scale) * (d**2 + a * d**4 / 2.0) + math.exp(-0.5 * u1_edge) * outer_area
    )
    # the u-form quadratic part (1/2) sum_ij Kinv_ij <grad u_i, grad u_j>
    # collapses to grad1_sq / 4 for the pair (u1, -u1/2)
    energy = (
        grad1_sq / 4.0
        + mv[0] * int_u1
        + mv[1] * int_u2
        - mv[0] * log_mass_u1
        - mv[1] * log_mass_u2
    )
    return {
        "grad1_sq": grad1_sq,
        "grad2_sq": grad1_sq / 4.0,
        "grad_cross": -grad1_sq / 2.0,
        "int_u1": int_u1,
        "int_u2": int_u2,
        "log_mass_u1": log_mass_u1,
        "log_mass_u2": log_mass_u2,
        "energy": energy,
    }


def asymptotic_slope_table(m: Sequence[float]) -> dict[str, float]:
    """Expected growth rates of each quantity per unit of log(scale)."""
    mv = _coupling_values(m, 2)
    return {
        "grad1_sq": 32.0 * math.pi,
        "grad2_sq": 8.0 * math.pi,
        "grad_cross": -16.0 * math.pi,
        "int_u1": -2.0,
        "int_u2": 1.0,
        "log_mass_u1": 0.0,
        "log_mass_u2": 1.0,
        "energy": 2.0 * (FOUR_PI - mv[0]),
    }


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    max_residual: float


def _least_squares(columns: list[list[float]], vals: list[float]) -> SlopeFit:
    """Least-squares fit of vals on the columns, the first two being log(scale) and 1.

    A thin QR factorization by modified Gram-Schmidt, then back
    substitution; returns the first two coefficients and the largest
    absolute residual, or raises NumericalError on dependent or nearly
    dependent columns (a pivot at most 1e-12 of its column's norm).
    """
    q = [list(c) for c in columns]
    rhs = list(vals)
    n = len(q)
    r = [[0.0] * n for _ in range(n)]
    proj = [0.0] * n
    for j in range(n):
        norm = math.sqrt(_dot(q[j], q[j]))
        for i in range(j):
            r[i][j] = _dot(q[i], q[j])
            q[j] = [x - r[i][j] * y for x, y in zip(q[j], q[i])]
        r[j][j] = math.sqrt(_dot(q[j], q[j]))
        if r[j][j] <= 1e-12 * norm:
            raise NumericalError("the scales lie too close together to determine the fit")
        q[j] = [x / r[j][j] for x in q[j]]
        proj[j] = _dot(q[j], rhs)
        rhs = [x - proj[j] * y for x, y in zip(rhs, q[j])]
    coef = [0.0] * n
    for j in reversed(range(n)):
        coef[j] = (proj[j] - sum(r[j][k] * coef[k] for k in range(j + 1, n))) / r[j][j]
    resid = max(
        abs(v - sum(c * col[i] for c, col in zip(coef, columns))) for i, v in enumerate(vals)
    )
    return SlopeFit(coef[0], coef[1], resid)


def _sorted_scales(scales: Sequence[float]) -> list[float]:
    """The scales in increasing order; at least four distinct, spanning a factor of e^2."""
    sc = sorted(float(s) for s in scales)
    if len(set(sc)) < 4:
        raise ValueError("need at least four scales with no two equal")
    for s in sc:
        _check_scale(s)
    if sc[-1] / sc[0] < math.e**2:
        raise ValueError("scales must span at least a factor of e^2")
    return sc


def fit_slopes(
    scales: Sequence[float],
    m: Sequence[float],
    flat_radius: float = 0.25,
) -> dict[str, SlopeFit]:
    """Fit each quantity's growth rate against log(scale), keyed by QUANTITY_KEYS.

    Needs at least four distinct scales spanning a factor of e^2 or more.
    Each quantity is fit once, over every scale s, on log s, 1, s^-2 and
    s^-2 log s: expanded in 1/S, S = pi d^2 s^2, these are the leading
    terms of every closed form in bubble_quantities.  The last two enter
    as (s0/s)^2 and (s0/s)^2 log(s/s0), s0 the smallest scale, which
    span the same fits and cannot underflow.
    """
    mv = _coupling_values(m, 2)
    sc = _sorted_scales(scales)

    table = [bubble_quantities(s, mv, flat_radius) for s in sc]
    logs = [math.log(s) for s in sc]
    decay = [(sc[0] / s) ** 2 for s in sc]
    columns = [logs, [1.0] * len(sc), decay, [t * (x - logs[0]) for t, x in zip(decay, logs)]]
    fits = {k: _least_squares(columns, [q[k] for q in table]) for k in QUANTITY_KEYS}
    if not all(math.isfinite(x) for f in fits.values() for x in vars(f).values()):
        raise NumericalError(f"the slope fits overflow at m1 = {mv[0]:g} and m2 = {mv[1]:g}")
    return fits
