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
are closed forms; no quadrature runs here.  The quantities and the
slope fits need only the standard library, so a `bubble` process never
loads numpy; sampling on a grid imports it when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Sequence

from .cartan import FOUR_PI, _coupling_values, _dot

if TYPE_CHECKING:
    from .functional import MultiField
    from .grid import GridSpec

__all__ = [
    "BubbleParams",
    "SlopeFit",
    "SlopeFitReport",
    "QUANTITY_KEYS",
    "standard_bubble",
    "bubble_quantities",
    "asymptotic_slope_table",
    "fit_slopes",
]

DISCARD_TOL = 0.02

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
        if not math.isfinite(self.scale) or self.scale <= 1.0:
            raise ValueError("scale must exceed 1")
        _check_flat_radius(self.flat_radius)


def _check_flat_radius(flat_radius: float) -> None:
    """The truncation radius rule, NaN included."""
    if not 0 < flat_radius <= 0.5:
        raise ValueError("flat_radius must lie in (0, 0.5]")


def _check_scale(scale: float) -> None:
    """The profile scale rule of bubble_quantities, NaN and inf included."""
    if not 2.0 <= scale < math.inf:
        raise ValueError("scale must be finite and at least 2")


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


@dataclass(frozen=True)
class SlopeFitReport:
    """Least-squares slopes of each quantity against log(scale)."""

    fits: dict[str, SlopeFit]
    used_scales: tuple[float, ...]
    couplings: tuple[float, float]


def _least_squares(columns: list[list[float]], vals: list[float]) -> SlopeFit:
    """Least-squares fit of vals on the columns, the first two being log(scale) and 1.

    A thin QR factorization by modified Gram-Schmidt, then back
    substitution; returns the first two coefficients and the largest
    absolute residual.
    """
    q = [list(c) for c in columns]
    rhs = list(vals)
    n = len(q)
    r = [[0.0] * n for _ in range(n)]
    proj = [0.0] * n
    for j in range(n):
        for i in range(j):
            r[i][j] = _dot(q[i], q[j])
            q[j] = [x - r[i][j] * y for x, y in zip(q[j], q[i])]
        r[j][j] = math.sqrt(_dot(q[j], q[j]))
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


def _fit_line(logs: list[float], vals: list[float]) -> SlopeFit:
    return _least_squares([logs, [1.0] * len(logs)], vals)


def _fit_line_with_transient(logs: list[float], vals: list[float]) -> SlopeFit:
    """Linear fit with an extra exp(-2 log scale) = 1/scale^2 column.

    Every tracked quantity approaches its linear asymptote with a
    finite-scale correction decaying like 1/scale^2 (with a slowly
    varying prefactor), so absorbing that mode removes most of the
    slope bias the plain fit picks up from moderate scales.
    """
    return _least_squares([logs, [1.0] * len(logs), [math.exp(-2.0 * x) for x in logs]], vals)


def _sorted_scales(scales: Sequence[float]) -> list[float]:
    """The scales in increasing order; at least four, spanning a factor of e^2."""
    sc = sorted(float(s) for s in scales)
    if len(sc) < 4:
        raise ValueError("need at least four scales")
    for s in sc:
        _check_scale(s)
    if sc[-1] / sc[0] < math.e**2:
        raise ValueError("scales must span at least a factor of e^2")
    return sc


def fit_slopes(
    scales: Sequence[float],
    m: Sequence[float],
    flat_radius: float = 0.25,
) -> SlopeFitReport:
    """Fit each quantity's growth rate over a set of scales.

    Needs at least four scales spanning a factor of e^2 or more.  A
    plain linear fit is tried first; if any quantity's residual exceeds
    DISCARD_TOL relative to max(1, |slope|), the smallest scale is
    dropped as pre-asymptotic and the rest are refit with a 1/scale^2
    transient column.  The report records which scales were used.
    """
    mv = _coupling_values(m, 2)
    sc = _sorted_scales(scales)

    table = [bubble_quantities(s, mv, flat_radius) for s in sc]
    data = {k: [q[k] for q in table] for k in QUANTITY_KEYS}
    logs = [math.log(s) for s in sc]
    used = sc
    fits = {k: _fit_line(logs, v) for k, v in data.items()}
    worst = max(f.max_residual / max(1.0, abs(f.slope)) for f in fits.values())
    if worst > DISCARD_TOL:
        used = sc[1:]
        fits = {k: _fit_line_with_transient(logs[1:], v[1:]) for k, v in data.items()}
    return SlopeFitReport(fits, tuple(used), mv)
