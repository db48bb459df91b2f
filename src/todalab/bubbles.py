"""Concentrating two-component profiles and their growth rates.

The family is built from the planar Liouville profile: component one is
the logarithm of a rescaled standard density, truncated to a disk of
radius flat_radius around (0.5, 0.5) and continued by its boundary value
outside; component two is minus half of component one.  As the scale
grows the eight tracked quantities (three gradient pairings, two means,
two exponential masses, and the energy) grow linearly in log(scale),
and the energy slope changes sign exactly at coupling 4 pi, which makes
the family a certified descent direction above the threshold.  Every
radial integrand has an elementary antiderivative, so the quantities
and the Liouville mass are closed forms; no quadrature runs here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Sequence

import numpy as np

from .cartan import FOUR_PI, _check_couplings

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
    "liouville_value",
    "liouville_derivative",
    "liouville_pde_residual",
    "liouville_mass",
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
        if not np.isfinite(self.scale) or self.scale <= 1.0:
            raise ValueError("scale must exceed 1")
        _check_flat_radius(self.flat_radius)


def _check_flat_radius(flat_radius: float) -> None:
    """The truncation radius rule, NaN included."""
    if not 0 < flat_radius <= 0.5:
        raise ValueError("flat_radius must lie in (0, 0.5]")


def _check_scale(scale: float) -> None:
    """The profile scale rule of bubble_quantities, NaN and inf included."""
    if not 2.0 <= scale < np.inf:
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
    mv = _check_couplings(m, 2)
    _check_scale(scale)
    _check_flat_radius(flat_radius)
    d = flat_radius
    a = scale**2 * np.pi
    s = a * d**2
    log_scale = float(np.log(scale))
    log1p_s = float(np.log1p(s))
    outer_area = 1.0 - np.pi * d**2
    u1_edge = 2.0 * log_scale - 2.0 * log1p_s

    # written without 1/(1+s) - 1, which cancels as s -> 0
    grad1_sq = 16.0 * np.pi * (log1p_s - s / (1.0 + s))
    int_u1 = (
        2.0 * log_scale * np.pi * d**2
        - (2.0 * np.pi / a) * ((1.0 + s) * log1p_s - s)
        + u1_edge * outer_area
    )
    int_u2 = -0.5 * int_u1
    log_mass_u1 = float(np.log(s / (1.0 + s) + np.exp(u1_edge) * outer_area))
    log_mass_u2 = float(
        np.log((np.pi / scale) * (d**2 + a * d**4 / 2.0) + np.exp(-0.5 * u1_edge) * outer_area)
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
        "energy": float(energy),
    }


def asymptotic_slope_table(m: Sequence[float]) -> dict[str, float]:
    """Expected growth rates of each quantity per unit of log(scale)."""
    mv = _check_couplings(m, 2)
    return {
        "grad1_sq": 32.0 * np.pi,
        "grad2_sq": 8.0 * np.pi,
        "grad_cross": -16.0 * np.pi,
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


def _fit_line(logs: np.ndarray, vals: np.ndarray) -> SlopeFit:
    slope, intercept = np.polyfit(logs, vals, 1)
    resid = float(np.max(np.abs(vals - (slope * logs + intercept))))
    return SlopeFit(float(slope), float(intercept), resid)


def _fit_line_with_transient(logs: np.ndarray, vals: np.ndarray) -> SlopeFit:
    """Linear fit with an extra exp(-2 log scale) = 1/scale^2 column.

    Every tracked quantity approaches its linear asymptote with a
    finite-scale correction decaying like 1/scale^2 (with a slowly
    varying prefactor), so absorbing that mode removes most of the
    slope bias the plain fit picks up from moderate scales.
    """
    basis = np.column_stack([logs, np.ones_like(logs), np.exp(-2.0 * logs)])
    coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
    resid = float(np.max(np.abs(vals - basis @ coef)))
    return SlopeFit(float(coef[0]), float(coef[1]), resid)


def _sorted_scales(scales: Sequence[float]) -> list[float]:
    """The scales in increasing order; at least four, spanning a factor of e^2."""
    sc = sorted(float(s) for s in scales)
    if len(sc) < 4:
        raise ValueError("need at least four scales")
    for s in sc:
        _check_scale(s)
    if sc[-1] / sc[0] < np.e**2:
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
    mv = _check_couplings(m, 2)
    sc = _sorted_scales(scales)

    def tabulate(use):
        table = {k: [] for k in QUANTITY_KEYS}
        for s in use:
            q = bubble_quantities(s, mv, flat_radius)
            for k in QUANTITY_KEYS:
                table[k].append(q[k])
        return {k: np.array(v) for k, v in table.items()}

    used = sc
    data = tabulate(used)
    fits = {k: _fit_line(np.log(used), v) for k, v in data.items()}
    worst = max(f.max_residual / max(1.0, abs(f.slope)) for f in fits.values())
    if worst > DISCARD_TOL:
        used = sc[1:]
        data = tabulate(used)
        fits = {
            k: _fit_line_with_transient(np.log(used), v) for k, v in data.items()
        }
    return SlopeFitReport(fits, tuple(used), (float(mv[0]), float(mv[1])))


# ---------------------------------------------------------------------------
# the planar Liouville profile used as the local model of concentration


def liouville_value(r):
    """Profile -2 log(1 + pi r^2); peak value 0 at the origin."""
    return -2.0 * np.log1p(np.pi * np.asarray(r, dtype=float) ** 2)


def liouville_derivative(r):
    r = np.asarray(r, dtype=float)
    return -4.0 * np.pi * r / (1.0 + np.pi * r**2)


def _liouville_second_derivative(r):
    r = np.asarray(r, dtype=float)
    return -4.0 * np.pi * (1.0 - np.pi * r**2) / (1.0 + np.pi * r**2) ** 2


def liouville_pde_residual(r):
    """Pointwise defect in -lap(phi) = 8 pi exp(phi) for the radial profile.

    The radial Laplacian is phi'' + phi'/r, extended by continuity with
    2 phi''(0) at the origin.
    """
    r = np.asarray(r, dtype=float)
    second = _liouville_second_derivative(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        first_over_r = np.where(r > 0, liouville_derivative(r) / np.where(r > 0, r, 1.0), second)
    lap = second + first_over_r
    return np.abs(-lap - 8.0 * np.pi * np.exp(liouville_value(r)))


def liouville_mass(r_max: float = 1e4) -> float:
    """Total mass of exp(phi) out to r_max, 1 - 1/(1 + pi r_max^2)."""
    return float(1.0 - 1.0 / (1.0 + np.pi * r_max**2))
