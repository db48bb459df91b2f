"""Radially symmetric entire solutions of the coupled exponential system.

The planar system u_j'' + u_j'/r = -sum_k a_jk e^{u_k} is integrated in
t = log r, where it reads d2u_j/dt2 = -sum_k a_jk e^{u_k + 2t} and the
1/r stiffness disappears; a quadratic series in r covers the origin up
to a hand-over radius where e^{max a0} r^2 is still small.  The
integrator is the package's own DOP853 (private module _dop853), so the
identity suite needs numpy alone.  Running
masses ride along as companion unknowns, so the divergence-theorem flux
identity -2 pi r u_i'(r) = sum_j a_ij alpha_j(r) is available at every
node as an integrator self-test (RadialProfile.flux_max).  The result
is a closed_form.RadialProfile, the type the closed form returns for
the coupling matrix cartan_su(N); the `radial` command prints that exact
profile and the tests hold the integrator to it, while the integrator
stays for the identity suite and for any other matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .cartan import NumericalError, _dot, cartan_su
from .closed_form import (
    MassRelation,
    MassReport,
    RadialProfile,
    _check_settings,
    _node_grid,
    _series_radius,
    check_mass_relation,
    masses_and_exponents,
    write_solution_csv,
)

__all__ = [
    "MassReport",
    "PohozaevBalance",
    "MassRelation",
    "ShootingRow",
    "BlowUpError",
    "integrate_radial",
    "masses_and_exponents",
    "ball_pohozaev",
    "check_mass_relation",
    "sweep_shooting",
    "write_solution_csv",
]

FLUX_ABORT = 1e-5
TOL = 1e-10  # the integrator's rtol and atol


class BlowUpError(NumericalError):
    """The profile left the integrable regime at a finite radius."""

    def __init__(self, message: str, radius: float):
        super().__init__(message)
        self.radius = float(radius)


@dataclass(frozen=True)
class PohozaevBalance:
    r: float
    lhs: float
    rhs: float
    residual: float


@dataclass(frozen=True)
class ShootingRow:
    a2: float
    outcome: str
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    relation_rel: float
    solution: Optional[RadialProfile] = field(default=None, repr=False, compare=False)


def integrate_radial(
    a0: Sequence[float],
    r_max: float = 1000.0,
    cartan: Optional[np.ndarray] = None,
    nodes: int = 600,
) -> RadialProfile:
    """Integrate from the origin out to r_max with running masses.

    a0 holds the central values u_j(0); smoothness forces u_j'(0) = 0,
    and the series u_j ~ a_j - (sum_k a_jk e^{a_k}) r^2 / 4 hands off to
    the log-radius integrator at _series_radius(a0): the in-repo DOP853 with
    rtol = atol = TOL, whose results equal SciPy's solve_ivp bit for bit.
    The nodes are those of radial_profile (closed_form._node_grid), so
    the integrated and the exact profile share every radius.  cartan is
    an (N, N) coupling matrix, cartan_su(N) when omitted.
    Raises NumericalError when e^{max a0} overflows the series, BlowUpError
    when a profile climbs past the blow-up guard before reaching r_max or
    the step size stalls, and aborts if the flux identity degrades beyond
    FLUX_ABORT.
    """
    start = np.array(_check_settings(a0, r_max, nodes))
    # imported here so that processes that never integrate skip compiling
    # the tableau when no bytecode is cached (about 6 ms and 0.4 MB)
    from . import _dop853

    rank = start.size
    amat = cartan_su(rank) if cartan is None else np.array(cartan, dtype=np.float64)
    if amat.shape != (rank, rank):
        raise ValueError("coupling matrix rank does not match component count")
    if not np.all(np.isfinite(amat)):
        raise ValueError("coupling matrix must be finite")

    r0 = _series_radius(start)
    # pi e^{a0} overflows before the r0^2 factor brings the product back
    with np.errstate(over="ignore", invalid="ignore"):
        y0 = np.concatenate(_series_state(start, amat, r0))
    if not np.all(np.isfinite(y0)):
        raise NumericalError(f"the origin series overflows at central value {start.max():g}")

    def rhs(t, y):
        weights = np.exp(y[:rank] + 2.0 * t)
        return np.concatenate(
            [y[rank : 2 * rank], -(amat @ weights), 2.0 * np.pi * weights]
        )

    guard = max(50.0, float(start.max()) + 10.0)

    def blow_guard(t, y):
        return guard - y[:rank].max()

    log_radii, r_nodes = _node_grid(start, r_max, nodes)
    t_span = (log_radii[0], log_radii[-1])
    sol = _dop853.integrate(rhs, t_span, y0, TOL, np.array(log_radii), blow_guard)
    if sol.status == 1:
        radius = float(np.exp(sol.t_event))
        raise BlowUpError(
            f"profile blew up near radius {radius:.6g}", radius
        )
    if sol.status == -1:
        radius = float(np.exp(sol.t[-1])) if sol.t.size else r0
        raise BlowUpError(
            f"integration stalled near radius {radius:.6g}", radius
        )

    u, w, alpha = np.split(sol.y, 3)
    dense = sol.dense

    def state(r: float):
        return tuple(tuple(part.tolist()) for part in np.split(dense(np.log(r)), 3))

    result = RadialProfile(
        r_nodes=r_nodes,
        u=tuple((a, *row) for a, row in zip(start.tolist(), u.tolist())),
        du=tuple((0.0, *row) for row in (w / np.array(r_nodes[1:])).tolist()),
        alpha=tuple((0.0, *row) for row in alpha.tolist()),
        a0=tuple(start.tolist()),
        cartan=tuple(map(tuple, amat.tolist())),
        r_max=float(r_max),
        state=state,
    )
    worst = result.flux_max()
    if worst > FLUX_ABORT:
        raise RuntimeError(
            f"flux identity violated: residual {worst:.3e} exceeds {FLUX_ABORT:g}"
        )
    return result


def _series_state(start: np.ndarray, amat: np.ndarray, r: float):
    """(u, r u', alpha) of the quadratic series at the origin, r <= _series_radius."""
    curvature = amat @ np.exp(start)
    return (
        start - curvature * r * r / 4.0,
        -curvature * r * r / 2.0,
        np.pi * np.exp(start) * r * r,
    )


def ball_pohozaev(sol: RadialProfile, r: float) -> PohozaevBalance:
    """Both sides of the ball identity at radius r.

    lhs = 6 pi r^2 (e^{u1}+e^{u2}) - 6 (alpha1+alpha2) and
    rhs = -2 pi ((r u1')^2 + (r u2')^2 + (r u1')(r u2')); the identity
    follows from the system by parts, so the residual measures pure
    integration error (roundoff alone on the closed form's profile).  r
    must lie in [r_nodes[1], r_max], the integrated range.  Both sides
    start at O(r^4), the order the origin series drops, while the
    integrator's absolute error in lhs is about 1e-10,
    so the residual means something only where |lhs| is well above that.
    Against the closed form's exact lhs, residual / |lhs| for a0 = (0, 0)
    reads 1.0 at r_nodes[1] = 1e-4 (lhs comes out twice its value),
    4.6e3 at 2e-4, 24 at 1e-3, 2.9e-3 at 1e-2, 3.5e-5 at 0.03 and
    2.4e-11 at 1: it falls below 1e-4 from r = 0.03 on, where |lhs| is
    about 4e-6.  A tall start, whose core is narrower, clears it sooner.
    """
    if sol.n_components != 2:
        raise ValueError("ball identity is defined for two components")
    if not sol.r_nodes[1] <= r <= sol.r_max:
        raise ValueError("R out of range")
    u, w, alpha = (np.array(part) for part in sol.state(r))
    lhs = 6.0 * np.pi * r * r * float(np.exp(u).sum()) - 6.0 * float(alpha.sum())
    rhs = -2.0 * np.pi * float(w[0] ** 2 + w[1] ** 2 + w[0] * w[1])
    return PohozaevBalance(r=float(r), lhs=lhs, rhs=rhs, residual=lhs - rhs)


def sweep_shooting(
    a2_values: Sequence[float], cartan: Optional[np.ndarray] = None
) -> tuple[ShootingRow, ...]:
    """Integrate the one-parameter family a0 = (0, a2) to r = 1000 and summarize.

    The scaling symmetry u(x) -> u(sx) + 2 log s pins a1 = 0 without
    loss.  Rows report masses, exponents, and the mass-relation defect,
    and carry the profile they summarize; runs whose tails have not
    settled at r_max come back with outcome "tail" and blow-ups with
    outcome "blow-up" (masses zeroed, no profile), neither treated as an
    error.
    """
    rows = []
    for a2 in a2_values:
        try:
            sol = integrate_radial((0.0, float(a2)), cartan=cartan)
        except BlowUpError:
            rows.append(
                ShootingRow(float(a2), "blow-up", (0.0, 0.0), (0.0, 0.0), np.nan)
            )
            continue
        try:
            report = masses_and_exponents(sol)
        except ValueError:
            alpha = tuple(row[-1] for row in sol.alpha)
            beta = tuple(_dot(row, alpha) for row in sol.cartan)
            rows.append(ShootingRow(float(a2), "tail", alpha, beta, np.nan, sol))
            continue
        relation = check_mass_relation(*report.alpha)
        rows.append(
            ShootingRow(
                float(a2),
                "converged",
                report.alpha,
                report.beta,
                abs(relation.relative),
                sol,
            )
        )
    return tuple(rows)
