"""Radially symmetric entire solutions of the coupled exponential system.

The planar system u_j'' + u_j'/r = -sum_k a_jk e^{u_k} is integrated in
t = log r, where it reads d2u_j/dt2 = -sum_k a_jk e^{u_k + 2t} and the
1/r stiffness disappears; a quadratic series in r covers the origin up
to a hand-over radius where e^{max a0} r^2 is still small.  The
integrator is the package's own DOP853 (private module _dop853), so the
radial commands need numpy alone.  Running
masses ride along as companion unknowns, so the divergence-theorem flux
identity -2 pi r u_i'(r) = sum_j a_ij alpha_j(r) is available at every
node as an integrator self-test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .cartan import FOUR_PI, NumericalError, cartan_su
from ._csv import write_csv

if TYPE_CHECKING:
    from ._dop853 import DenseSolution

__all__ = [
    "RadialSolution",
    "MassReport",
    "SlopeCheck",
    "PohozaevBalance",
    "MassRelation",
    "ShootingRow",
    "BlowUpError",
    "integrate_radial",
    "flux_residuals",
    "masses_and_exponents",
    "asymptotic_slopes",
    "ball_pohozaev",
    "check_mass_relation",
    "sweep_shooting",
    "write_solution_csv",
]

# the series hands over at this radius, or closer in for tall starts
SERIES_RADIUS = 1e-4
# e^{max a0} r^2 at the hand-over of a tall start: its r^4 term is small
SERIES_GROWTH = 1e-3
FLUX_ABORT = 1e-5
TAIL_FRACTION = 1e-4


class BlowUpError(NumericalError):
    """The profile left the integrable regime at a finite radius."""

    def __init__(self, message: str, radius: float):
        super().__init__(message)
        self.radius = float(radius)


@dataclass(frozen=True, eq=False)
class RadialSolution:
    """Profiles, derivatives, and running masses on increasing radii.

    r_nodes starts at 0 (series values) and ends at r_max; u, du, and
    alpha hold one row per component; cartan is the (N, N) coupling matrix.
    """

    r_nodes: np.ndarray
    u: np.ndarray
    du: np.ndarray
    alpha: np.ndarray
    a0: tuple[float, ...]
    cartan: np.ndarray
    r_max: float
    _dense: DenseSolution = field(repr=False)

    @property
    def n_components(self) -> int:
        return len(self.a0)


@dataclass(frozen=True)
class MassReport:
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    alpha_above_4pi: tuple[bool, ...]
    beta_above_4pi: tuple[bool, ...]


@dataclass(frozen=True)
class SlopeCheck:
    measured: float
    predicted: float
    rel_dev: float


@dataclass(frozen=True)
class PohozaevBalance:
    r: float
    lhs: float
    rhs: float
    residual: float


@dataclass(frozen=True)
class MassRelation:
    residual: float
    relative: float


@dataclass(frozen=True)
class ShootingRow:
    a2: float
    outcome: str
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    relation_rel: float
    solution: Optional[RadialSolution] = field(default=None, repr=False, compare=False)


def _check_settings(
    a0: Sequence[float], r_max: float, tol: float, nodes: int
) -> np.ndarray:
    """The central values and settings integrate_radial accepts; returns a0."""
    start = np.asarray(a0, dtype=float)
    if start.ndim != 1 or start.size == 0 or not np.all(np.isfinite(start)):
        raise ValueError("initial values must be a finite vector")
    if not (np.isfinite(r_max) and r_max >= 10.0):
        raise ValueError("r_max must be at least 10 and finite")
    if not 1e-12 <= tol <= 1e-6:
        raise ValueError("tol must lie in [1e-12, 1e-6]")
    if nodes < 16:
        raise ValueError("nodes must be at least 16")
    return start


def integrate_radial(
    a0: Sequence[float],
    r_max: float = 1000.0,
    tol: float = 1e-10,
    cartan: Optional[np.ndarray] = None,
    nodes: int = 600,
) -> RadialSolution:
    """Integrate from the origin out to r_max with running masses.

    a0 holds the central values u_j(0); smoothness forces u_j'(0) = 0,
    and the series u_j ~ a_j - (sum_k a_jk e^{a_k}) r^2 / 4 hands off to
    the log-radius integrator at _series_radius(a0): the in-repo DOP853 with
    rtol = atol = tol, whose results equal SciPy's solve_ivp bit for bit.
    cartan is an (N, N) coupling matrix, cartan_su(N) when omitted.
    Raises NumericalError when e^{max a0} overflows the series, BlowUpError
    when a profile climbs past the blow-up guard before reaching r_max or
    the step size stalls, and aborts if the flux identity degrades beyond
    FLUX_ABORT.
    """
    start = _check_settings(a0, r_max, tol, nodes)
    # imported here so that processes that never integrate skip compiling
    # the tableau when no bytecode is cached (about 6 ms and 0.4 MB)
    from . import _dop853

    rank = start.size
    amat = cartan_su(rank) if cartan is None else np.array(cartan, dtype=np.float64)
    if amat.shape != (rank, rank):
        raise ValueError("coupling matrix rank does not match component count")

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

    t_span = (np.log(r0), np.log(r_max))
    t_eval = np.linspace(t_span[0], t_span[1], nodes)
    sol = _dop853.integrate(rhs, t_span, y0, tol, t_eval, blow_guard)
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

    radii = np.exp(sol.t)
    u = sol.y[:rank]
    w = sol.y[rank : 2 * rank]
    alpha = sol.y[2 * rank :]
    du = w / radii[None, :]

    r_nodes = np.concatenate([[0.0], radii])
    u_full = np.concatenate([start[:, None], u], axis=1)
    du_full = np.concatenate([np.zeros((rank, 1)), du], axis=1)
    alpha_full = np.concatenate([np.zeros((rank, 1)), alpha], axis=1)

    result = RadialSolution(
        r_nodes=r_nodes,
        u=u_full,
        du=du_full,
        alpha=alpha_full,
        a0=tuple(float(v) for v in start),
        cartan=amat,
        r_max=float(r_max),
        _dense=sol.dense,
    )
    worst = float(flux_residuals(result).max())
    if worst > FLUX_ABORT:
        raise RuntimeError(
            f"flux identity violated: residual {worst:.3e} exceeds {FLUX_ABORT:g}"
        )
    return result


def flux_residuals(sol: RadialSolution) -> np.ndarray:
    """Normalized flux defect |-2 pi r u' - K alpha| per node past the origin.

    The divergence theorem makes the defect zero for the exact solution;
    the normalization 1 + sum_j alpha_j matches the integrator's mixed
    absolute/relative error control.
    """
    r = sol.r_nodes[1:]
    w = sol.du[:, 1:] * r[None, :]
    kalpha = sol.cartan @ sol.alpha[:, 1:]
    defect = np.abs(-2.0 * np.pi * w - kalpha)
    scale = 1.0 + sol.alpha[:, 1:].sum(axis=0)
    return (defect / scale[None, :]).max(axis=0)


def masses_and_exponents(sol: RadialSolution) -> MassReport:
    """Total masses and decay exponents at r_max, with the 4 pi flags.

    Requires small tails: each component must satisfy
    e^{u_j(r_max)} 2 pi r_max^2 < 1e-4 alpha_j(r_max), otherwise the
    reported mass is not close to its limit.
    """
    alpha = sol.alpha[:, -1]
    tails = np.exp(sol.u[:, -1]) * 2.0 * np.pi * sol.r_max**2
    if np.any(tails >= TAIL_FRACTION * alpha):
        raise ValueError("mass tail too large at r_max; integrate to a larger r_max")
    beta = sol.cartan @ alpha
    return MassReport(
        alpha=tuple(float(a) for a in alpha),
        beta=tuple(float(b) for b in beta),
        alpha_above_4pi=tuple(bool(a > FOUR_PI) for a in alpha),
        beta_above_4pi=tuple(bool(b > FOUR_PI) for b in beta),
    )


def asymptotic_slopes(sol: RadialSolution) -> tuple[SlopeCheck, ...]:
    """Compare r u_j'(r_max) with the flux-predicted limit -beta_j / 2 pi."""
    report = masses_and_exponents(sol)
    checks = []
    for j in range(sol.n_components):
        measured = float(sol.r_nodes[-1] * sol.du[j, -1])
        predicted = -report.beta[j] / (2.0 * np.pi)
        rel = abs(measured - predicted) / abs(predicted)
        checks.append(SlopeCheck(measured, predicted, rel))
    return tuple(checks)


def _series_radius(start: np.ndarray) -> float:
    """Where the series hands over: SERIES_RADIUS, or less for a tall start.

    The series is exact to O(e^{2 max a0} r^4), so it is accurate only
    while e^{max a0} r^2 is small; max a0 <= 11.5 keeps SERIES_RADIUS.
    """
    return min(SERIES_RADIUS, float(np.sqrt(SERIES_GROWTH) * np.exp(-0.5 * start.max())))


def _series_state(start: np.ndarray, amat: np.ndarray, r: float):
    """(u, r u', alpha) of the quadratic series at the origin, r <= _series_radius."""
    curvature = amat @ np.exp(start)
    return (
        start - curvature * r * r / 4.0,
        -curvature * r * r / 2.0,
        np.pi * np.exp(start) * r * r,
    )


def ball_pohozaev(sol: RadialSolution, r: float) -> PohozaevBalance:
    """Both sides of the ball identity at radius r.

    lhs = 6 pi r^2 (e^{u1}+e^{u2}) - 6 (alpha1+alpha2) and
    rhs = -2 pi ((r u1')^2 + (r u2')^2 + (r u1')(r u2')); the identity
    follows from the system by parts, so the residual measures pure
    integration error.  r must lie in [r_nodes[1], r_max], the integrated
    range; both sides start at O(r^4), the order the origin series drops,
    so the residual means something only well past the hand-over radius.
    """
    if sol.n_components != 2:
        raise ValueError("ball identity is defined for two components")
    if not sol.r_nodes[1] <= r <= sol.r_max:
        raise ValueError("R out of range")
    # the dense state (u, r u', alpha) at r
    u, w, alpha = np.split(sol._dense(np.log(r)), 3)
    lhs = 6.0 * np.pi * r * r * float(np.exp(u).sum()) - 6.0 * float(alpha.sum())
    rhs = -2.0 * np.pi * float(w[0] ** 2 + w[1] ** 2 + w[0] * w[1])
    return PohozaevBalance(r=float(r), lhs=lhs, rhs=rhs, residual=lhs - rhs)


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
            alpha = tuple(float(a) for a in sol.alpha[:, -1])
            beta = tuple(float(b) for b in sol.cartan @ sol.alpha[:, -1])
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


def write_solution_csv(sol: RadialSolution, destination) -> None:
    """Write (r, u_j, du_j, alpha_j) rows to a path or text file object."""
    names = [f"{q}{j + 1}" for q in ("u", "du", "alpha") for j in range(sol.n_components)]
    table = np.vstack([sol.r_nodes, sol.u, sol.du, sol.alpha]).T
    write_csv(
        destination,
        ",".join(["r"] + names),
        (",".join(f"{x:.12g}" for x in row) for row in table),
    )
