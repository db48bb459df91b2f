"""Dilation-identity balance on disks inside the torus.

For a normalized critical point the components satisfy
-Delta u_i = sum_j a_ij m_j (e^{u_j} - 1).  Multiplying by the dilation
field X = x - x0, pairing through the inverse coupling matrix Kinv
(of cartan_su(N), for the N components of the state), and integrating
over a disk B of radius r yields the exact balance

    2 sum_i m_i int_B e^{u_i}
      = sum_ij (Kinv)_ij oint r [dn u_i dn u_j - (1/2) grad u_i . grad u_j]
        + sum_i m_i r oint e^{u_i}
        - sum_i m_i r oint u_i
        + 2 sum_i m_i int_B u_i,

so the residual of a computed state measures how far it is from
criticality (plus quadrature error).  Volume integrals split off the
torus mean, which is integrated over the exact disk area; only the
fluctuation part touches the cell mask, keeping constant fields exact.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .cartan import _check_couplings, cartan_su
from ._csv import write_csv
from .functional import MultiField, _require_normalized
from .grid import _disk_mask, _spatial_gradient

__all__ = [
    "DiskBalance",
    "disk_balance",
    "radius_scan",
    "write_balance_csv",
]

MAX_RESOLVED_GRADIENT = 1.0

BALANCE_CSV_HEADER = (
    "center_x,center_y,r,lhs,rhs,residual,"
    "boundary_stress,boundary_exp,boundary_linear,volume_linear"
)


@dataclass(frozen=True)
class DiskBalance:
    center: tuple[float, float]
    r: float
    lhs: float
    rhs: float
    residual: float
    boundary_stress: float
    boundary_exp: float
    boundary_linear: float
    volume_linear: float

    def to_dict(self) -> dict:
        return {**asdict(self), "center": list(self.center)}


def _bilinear(values: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Periodic bilinear interpolation at points given in torus coordinates."""
    n = values.shape[0]
    gx = x * n
    gy = y * n
    i0 = np.floor(gx).astype(int) % n
    j0 = np.floor(gy).astype(int) % n
    tx = gx - np.floor(gx)
    ty = gy - np.floor(gy)
    i1 = (i0 + 1) % n
    j1 = (j0 + 1) % n
    return (
        (1 - tx) * (1 - ty) * values[i0, j0]
        + tx * (1 - ty) * values[i1, j0]
        + (1 - tx) * ty * values[i0, j1]
        + tx * ty * values[i1, j1]
    )


def _disk_integral(values: np.ndarray, mask: np.ndarray, area: float, r: float) -> float:
    """Mean-split quadrature: exact disk area for the mean, cells for the rest."""
    mean = float(values.mean())
    fluct = float(values[mask].sum() - mean * mask.sum()) * area
    return mean * np.pi * r * r + fluct


def _check_disks(radii: Sequence[float], center: tuple[float, float], h: float) -> None:
    """The disk rules of disk_balance: every r in [4h, 0.4], center in the torus."""
    for r in radii:
        if not 4 * h <= r <= 0.4:
            raise ValueError("r must lie in [4h, 0.4]")
    cx, cy = center
    if not (0 <= cx < 1 and 0 <= cy < 1):
        raise ValueError("center must lie in the unit torus")


def disk_balance(
    u: MultiField,
    m: Sequence[float],
    center: tuple[float, float],
    r: float,
) -> DiskBalance:
    """Evaluate both sides of the disk identity for a normalized state.

    The left side is twice the coupling-weighted exponential mass of the
    disk; the right side collects the boundary stress, the boundary
    exponential and linear terms, and the volume linear term.  A zero
    residual (up to quadrature error) certifies local criticality.
    """
    return radius_scan(u, m, center, (r,))[0]


def radius_scan(
    u: MultiField,
    m: Sequence[float],
    center: tuple[float, float],
    radii: Sequence[float],
) -> tuple[DiskBalance, ...]:
    """Evaluate the balance on a family of concentric disks.

    The checks and the state's gradient run once for the whole family.
    """
    if len(radii) == 0:
        raise ValueError("radii must be non-empty")
    center = (float(center[0]), float(center[1]))
    rank = u.n_components
    mv = _check_couplings(m, rank)
    h = u.spec.h
    _check_disks(radii, center, h)
    stacked = u.stack()
    _require_normalized(stacked)
    gx, gy = _spatial_gradient(stacked)
    steepest = float(np.max(np.hypot(gx, gy)))
    if steepest * h > MAX_RESOLVED_GRADIENT:
        raise ValueError("refine grid")

    cx, cy = center
    cell = h * h
    kinv = cartan_su(rank).inverse_entries
    balances = []
    for r in radii:
        # boundary sampling: dense enough that the trapezoid rule resolves
        # every grid cell the circle crosses
        npts = 4 * int(np.ceil(2 * np.pi * r / h))
        theta = 2 * np.pi * np.arange(npts) / npts
        nx = np.cos(theta)
        ny = np.sin(theta)
        bx = (cx + r * nx) % 1.0
        by = (cy + r * ny) % 1.0
        ds = 2 * np.pi * r / npts

        u_b = [_bilinear(comp, bx, by) for comp in stacked]
        gx_b = [_bilinear(comp, bx, by) for comp in gx]
        gy_b = [_bilinear(comp, bx, by) for comp in gy]
        dn = [gx_b[i] * nx + gy_b[i] * ny for i in range(rank)]

        stress = 0.0
        for i in range(rank):
            for j in range(rank):
                dot = gx_b[i] * gx_b[j] + gy_b[i] * gy_b[j]
                stress += kinv[i, j] * float(np.sum(dn[i] * dn[j] - 0.5 * dot))
        boundary_stress = r * stress * ds

        boundary_exp = float(
            sum(mv[i] * r * np.sum(np.exp(u_b[i])) * ds for i in range(rank))
        )
        boundary_linear = float(
            sum(mv[i] * r * np.sum(u_b[i]) * ds for i in range(rank))
        )

        mask = _disk_mask(u.spec, center, r)
        volume_exp = sum(
            mv[i] * _disk_integral(np.exp(stacked[i]), mask, cell, r)
            for i in range(rank)
        )
        volume_linear = float(
            sum(
                mv[i] * _disk_integral(stacked[i], mask, cell, r)
                for i in range(rank)
            )
        )

        lhs = 2.0 * float(volume_exp)
        rhs = boundary_stress + boundary_exp - boundary_linear + 2.0 * volume_linear
        balances.append(
            DiskBalance(
                center=center,
                r=float(r),
                lhs=lhs,
                rhs=rhs,
                residual=lhs - rhs,
                boundary_stress=boundary_stress,
                boundary_exp=boundary_exp,
                boundary_linear=boundary_linear,
                volume_linear=volume_linear,
            )
        )
    return tuple(balances)


def write_balance_csv(rows: Sequence[DiskBalance], destination) -> None:
    """Write one balance per line as CSV to a path or text file object."""
    write_csv(
        destination,
        BALANCE_CSV_HEADER,
        (
            f"{b.center[0]:.12g},{b.center[1]:.12g},{b.r:.12g},"
            f"{b.lhs:.12g},{b.rhs:.12g},{b.residual:.12g},"
            f"{b.boundary_stress:.12g},{b.boundary_exp:.12g},"
            f"{b.boundary_linear:.12g},{b.volume_linear:.12g}"
            for b in rows
        ),
    )
