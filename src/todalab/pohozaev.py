"""Dilation-identity balance on disks inside the torus.

For a normalized critical point the components satisfy
-Delta u_i = sum_j a_ij m_j (e^{u_j} - 1).  Multiplying by the dilation
field X = x - x0, pairing through the inverse coupling matrix
Kinv = cartan_su_inverse(N) of the N components of the state, and
integrating over a disk B of radius r yields the exact balance

    2 sum_i m_i int_B e^{u_i}
      = sum_ij (Kinv)_ij oint r [dn u_i dn u_j - (1/2) grad u_i . grad u_j]
        + sum_i m_i r oint e^{u_i}
        - sum_i m_i r oint u_i
        + 2 sum_i m_i int_B u_i,

evaluated with bilinear boundary samples and cell-mask volume sums.
Volume integrals split off the torus mean, which is integrated over the
exact disk area; only the fluctuation part touches the cell mask.  So
on a flat state the balance is exact (residual below 1e-12), and on a
non-flat critical point the residual is the quadrature error of the two
rules.  At center (0.5, 0.5) and r = 0.1, 0.2, 0.3 it reads 4.8e-5 to
4.8e-4 for the rank-2 stripe at (4.2 pi)^2 at n = 64 (lhs 1.7 to 15), and
-1.8e-3 to 5.2e-2 for the (3.9 pi)^3 minimizer at n = 64 (8.9e-4 to
9.3e-3 at n = 128).  A small residual is what a critical point must
show; it does not certify one.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass
from typing import Sequence

import numpy as np

from .cartan import _check_couplings, cartan_su_inverse
from ._csv import write_csv
from .functional import MultiField, _require_normalized
from .grid import _periodic_dist_sq, _spatial_gradient

__all__ = ["DiskBalance", "disk_balance", "radius_scan", "write_balance_csv"]

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
    """Periodic bilinear interpolation of every (n, n) slice of a stack.

    The points are given in torus coordinates; the result holds one
    C-contiguous row of samples per slice, so a row sum adds in the same
    order as the sum of that slice's samples alone.
    """
    n = values.shape[-1]
    gx = x * n
    gy = y * n
    i0 = np.floor(gx).astype(int) % n
    j0 = np.floor(gy).astype(int) % n
    tx = gx - np.floor(gx)
    ty = gy - np.floor(gy)
    i1 = (i0 + 1) % n
    j1 = (j0 + 1) % n
    return np.ascontiguousarray(
        (1 - tx) * (1 - ty) * values[..., i0, j0]
        + tx * (1 - ty) * values[..., i1, j0]
        + (1 - tx) * ty * values[..., i0, j1]
        + tx * ty * values[..., i1, j1]
    )


def _disk_integral(values: np.ndarray, mask: np.ndarray, area: float, r: float) -> np.ndarray:
    """Mean-split quadrature of every slice of a stack: exact disk area for
    the mean, the cells of the mask for the rest."""
    mean = values.mean(axis=(-2, -1))
    inside = np.ascontiguousarray(values[:, mask]).sum(axis=-1)
    return mean * np.pi * r * r + (inside - mean * mask.sum()) * area


def _check_disks(radii: Sequence[float], center: tuple[float, float], h: float) -> None:
    """The disk rules of disk_balance: every r in [4h, 0.4], center in the torus."""
    if not all(4 * h <= r <= 0.4 for r in radii):
        raise ValueError("r must lie in [4h, 0.4]")
    cx, cy = center
    if not (0 <= cx < 1 and 0 <= cy < 1):
        raise ValueError("center must lie in the unit torus")


def disk_balance(
    u: MultiField, m: Sequence[float], center: tuple[float, float], r: float
) -> DiskBalance:
    """Evaluate both sides of the disk identity for a normalized state.

    The left side is twice the coupling-weighted exponential mass of the
    disk; the right side collects the boundary stress, the boundary
    exponential and linear terms, and the volume linear term.  The
    residual is exact on flat states and quadrature error on non-flat
    critical points (see the module docstring).
    """
    return radius_scan(u, m, center, (r,))[0]


def radius_scan(
    u: MultiField, m: Sequence[float], center: tuple[float, float], radii: Sequence[float]
) -> tuple[DiskBalance, ...]:
    """Evaluate the balance on a family of concentric disks.

    The checks, the state's gradient, exp(u) and the distance grid of the
    disk cells are computed once for the family; each disk samples u and
    its gradient in one call and integrates exp(u) and u in another.
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
    if float(np.max(np.hypot(gx, gy))) * h > MAX_RESOLVED_GRADIENT:
        raise ValueError("refine grid")

    cx, cy = center
    cell = h * h
    kinv = cartan_su_inverse(rank)
    # every field the disks read, each sampled or measured once per disk
    boundary_fields = np.concatenate((stacked, gx, gy))
    volume_fields = np.concatenate((np.exp(stacked), stacked))
    dist_sq = _periodic_dist_sq(u.spec, center)
    balances = []
    for r in radii:
        # boundary sampling: dense enough that the trapezoid rule resolves
        # every grid cell the circle crosses
        npts = 4 * int(np.ceil(2 * np.pi * r / h))
        theta = 2 * np.pi * np.arange(npts) / npts
        nx, ny = np.cos(theta), np.sin(theta)
        bx, by = (cx + r * nx) % 1.0, (cy + r * ny) % 1.0
        ds = 2 * np.pi * r / npts
        u_b, gx_b, gy_b = _bilinear(boundary_fields, bx, by).reshape(3, rank, npts)
        dn = gx_b * nx + gy_b * ny
        # the stress of every pair (i, j), summed along the circle
        dot = gx_b[:, None] * gx_b[None] + gy_b[:, None] * gy_b[None]
        pairs = (dn[:, None] * dn[None] - 0.5 * dot).sum(axis=-1)
        # builtin sum adds the pair and component totals one at a time, in index order
        boundary_stress = r * sum((kinv * pairs).flat) * ds
        boundary_exp = float(sum(mv * r * np.exp(u_b).sum(axis=-1) * ds))
        boundary_linear = float(sum(mv * r * u_b.sum(axis=-1) * ds))
        volume = mv * _disk_integral(volume_fields, dist_sq <= r * r, cell, r).reshape(2, rank)
        volume_linear = float(sum(volume[1]))
        lhs = 2.0 * float(sum(volume[0]))
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
    write_csv(destination, BALANCE_CSV_HEADER, ((*b.center, *astuple(b)[1:]) for b in rows))
