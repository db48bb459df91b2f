"""Energy descent, blow-up detection, and coupling-plane classification.

The descent runs in the abstract parametrization with two layers of
preconditioning: the inverse coupling matrix undoes the cross-component
mixing and the zero-mean inverse Laplacian flattens the spectrum of the
quadratic term.  The energy is evaluated in full once, at the start.
Along each search line its change has a closed form (a quadratic in the
step plus one log1p per component), which the Armijo backtracking tests
directly: no trial step needs a transform, and no decrement is lost to
the difference of two large energies.  An accepted step updates the
state and the energy by that change, so each iteration costs one FFT
pair (the preconditioner) and the recorded energy trace is non-increasing
by construction.

A run that ends far below its starting energy with nearly all of one
component's normalized mass inside a small disk is reported as
Unbounded; this conjunction separates genuine concentration from the
large but benign energy drops of relaxing a poorly chosen start.  The
disk masses at all centers come from one FFT correlation with a cached
disk-mask spectrum; ties go to the lexicographically smallest center.
Inside the descent the detector runs only when the peak density times
the disk area could reach the concentration threshold.

A sweep classifies its cells on a fork pool with one worker per CPU in
the affinity mask; each cell runs the same per-cell code as in-process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional, Sequence

import numpy as np

from .cartan import CartanMatrix, _check_couplings, resolve_cartan
from ._csv import write_csv
from .functional import (
    MultiField,
    _mix,
    euler_lagrange_residuals,
    evaluate,
    raw_gradient,
    v_from_u,
)
from .grid import (
    GridSpec,
    ScalarField,
    _inverse_neg_laplacian,
    _log_integral_exp,
    _periodic_dist_sq,
    random_smooth_field,
)
from .bubbles import BubbleParams, standard_bubble

__all__ = [
    "MinimizeConfig",
    "MinimizeReport",
    "ConcentrationSpot",
    "SweepRow",
    "NonFiniteEnergyError",
    "minimize",
    "detect_concentration",
    "classify_boundedness",
    "sweep",
    "write_region_csv",
    "REGION_CSV_HEADER",
]

STATUS_CONVERGED = "Converged"
STATUS_UNBOUNDED = "Unbounded"
STATUS_BUDGET = "Budget"

ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
STEP_GROWTH = 1.5

REGION_CSV_HEADER = "m1,m2,status,energy,max_field,conc1,conc2"


class NonFiniteEnergyError(RuntimeError):
    """Raised when the energy turns non-finite mid-run; carries the trace."""

    def __init__(self, message: str, energy_trace: Sequence[float]):
        super().__init__(message)
        self.energy_trace = tuple(float(e) for e in energy_trace)

    def __reduce__(self):
        # both arguments, so the error survives the trip out of a pool worker
        return type(self), (self.args[0], self.energy_trace)


@dataclass(frozen=True)
class MinimizeConfig:
    max_iters: int = 2000
    # the line search tests closed-form energy changes, not differences
    # of total energies, so relaxation to a flat critical point is not cut
    # off by cancellation; the raw residuals must reach 10x this value
    grad_tol: float = 1e-6
    step: float = 1.0
    # calibrated on the 64-cell grid: relaxing starts at couplings just
    # below threshold never drop more than ~10 while concentrated, and
    # every coupling past threshold has a seed dropping at least ~19
    divergence_energy_drop: float = 14.0
    concentration_radius: float = 0.05
    concentration_mass: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        for name in ("grad_tol", "step", "divergence_energy_drop"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.concentration_radius <= 0.5:
            raise ValueError("concentration_radius must lie in (0, 0.5]")
        if not 0.5 < self.concentration_mass < 1:
            raise ValueError("concentration_mass must lie in (0.5, 1)")


@dataclass(frozen=True)
class ConcentrationSpot:
    mass: float
    center: tuple[float, float]


@dataclass(frozen=True)
class MinimizeReport:
    status: str
    energy_trace: tuple[float, ...]
    final_u: MultiField
    el_residuals: tuple[float, ...]
    max_field: float
    concentration: tuple[ConcentrationSpot, ...]
    iterations: int

    def to_dict(self, include_fields: bool = True) -> dict:
        out = {
            "status": self.status,
            "energy_trace": list(self.energy_trace),
            "el_residuals": list(self.el_residuals),
            "max_field": self.max_field,
            "concentration": [
                {"mass": spot.mass, "center": list(spot.center)}
                for spot in self.concentration
            ],
            "iterations": self.iterations,
        }
        if include_fields:
            out["final_u"] = [f.values.tolist() for f in self.final_u.components]
        return out


def minimize(
    m: Sequence[float],
    spec: GridSpec,
    init: Optional[MultiField] = None,
    config: Optional[MinimizeConfig] = None,
    cartan: Optional[CartanMatrix] = None,
) -> MinimizeReport:
    """Preconditioned descent from init (random smooth start if omitted).

    The init is interpreted in the abstract parametrization the descent
    runs in.  Termination is classified Unbounded when the final energy
    sits more than divergence_energy_drop below the initial one AND some
    component concentrates past concentration_mass within
    concentration_radius; otherwise Converged when the preconditioned
    gradient norm is under grad_tol (with raw component norms under ten
    times that, which pins the stationarity residuals of the normalized
    output); otherwise Budget.
    """
    config = config or MinimizeConfig()
    cartan = resolve_cartan(len(m), cartan)
    mv = _check_couplings(m, cartan.rank)
    cell_area = spec.h * spec.h
    amat = cartan.entries

    if init is None:
        rng = np.random.default_rng(config.seed)
        v_stack = np.stack(
            [random_smooth_field(spec, rng).values for _ in range(cartan.rank)]
        )
    else:
        if init.spec != spec:
            raise ValueError("grid mismatch")
        if init.n_components != cartan.rank:
            raise ValueError("component count does not match coupling rank")
        v_stack = init.stack()

    start = evaluate(v_stack, amat, mv)
    energy = start.parts.total
    trace = [energy]
    # the line search accepts only finite energies, so the start is the
    # one place a non-finite value can enter
    if not np.isfinite(energy):
        raise NonFiniteEnergyError("non-finite energy at iteration 0", trace)
    # the loop state: zero-mean v0, u = A v0, -lap v0, log int exp(u_i) and
    # the normalized densities, all updated in place along accepted steps
    v0, u, neglap, lse, rho = start.v0, start.u, start.neglap, start.lse, start.rho
    linear_weights = (amat @ mv)[:, None, None]
    # no disk holds more than its area (the mask spectrum's zero mode, h^2
    # times its cell count) times the peak density; the margin covers the
    # detector's FFT roundoff, so skipping below it changes no decision
    disk_area = _disk_spectrum(spec.n, config.concentration_radius)[0, 0]
    detector_floor = config.concentration_mass * (1.0 - 1e-12) / disk_area
    step = config.step
    iterations = 0
    converged = False
    certified = None

    for _ in range(config.max_iters):
        raw, source = raw_gradient(rho, neglap, amat, mv)
        precond = v0 + _inverse_neg_laplacian(source)
        precond_norm = float(np.sqrt(cell_area * np.sum(precond**2)))
        raw_norms = np.sqrt(cell_area * np.sum(raw**2, axis=(1, 2)))
        if precond_norm < config.grad_tol and np.all(
            raw_norms < 10.0 * config.grad_tol
        ):
            converged = True
            break

        direction = -precond
        slope = cell_area * float(np.sum(raw * direction))
        if slope >= 0:
            break  # numerical floor: no descent available

        # along v0 + s d the energy changes by
        #   s b1 + s^2 b2 - sum_i m_i log1p(h^2 sum rho_i expm1(s w_i)),  w = A d,
        # which needs no transform and subtracts no two large energies;
        # d = -(v0 + (-lap)^-1 source), so -lap d = -(-lap v0 + source - mean(source))
        w = _mix(amat, direction)
        neglap_d = -(neglap + source - source.mean(axis=(1, 2), keepdims=True))
        b1 = cell_area * float(np.sum(w * neglap) + np.sum(linear_weights * direction))
        b2 = 0.5 * cell_area * float(np.sum(w * neglap_d))
        while step > 1e-16 * config.step:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                growth = np.expm1(step * w)
                masses = cell_area * np.sum(rho * growth, axis=(1, 2))
                change = step * b1 + step * step * b2 - float(mv @ np.log1p(masses))
            if np.isfinite(change) and change <= ARMIJO_C1 * step * slope:
                break
            step *= BACKTRACK
        else:
            break  # no acceptable step above the floor
        v0 += step * direction
        u += step * w
        neglap += step * neglap_d
        lse += np.log1p(masses)
        rho *= 1.0 + growth
        rho /= (1.0 + masses)[:, None, None]
        energy += change
        trace.append(energy)
        iterations += 1
        step *= STEP_GROWTH
        # once the blow-up certificate (drop plus concentration) holds,
        # further descent only chases the same grid-limited spike
        past_drop_line = energy < trace[0] - config.divergence_energy_drop
        if past_drop_line and rho.max() >= detector_floor:
            spots = _concentration_from_density(
                rho, spec, config.concentration_radius
            )
            if any(s.mass > config.concentration_mass for s in spots):
                certified = spots
                break

    u_norm = u - lse[:, None, None]
    final_u = MultiField(tuple(ScalarField(spec, comp) for comp in u_norm))
    spots = certified or _concentration_from_density(
        rho, spec, config.concentration_radius
    )
    dropped = trace[-1] < trace[0] - config.divergence_energy_drop
    if dropped and any(s.mass > config.concentration_mass for s in spots):
        status = STATUS_UNBOUNDED
    elif converged:
        status = STATUS_CONVERGED
    else:
        status = STATUS_BUDGET
    residuals = tuple(float(r) for r in euler_lagrange_residuals(final_u, mv, cartan))
    return MinimizeReport(
        status=status,
        energy_trace=tuple(trace),
        final_u=final_u,
        el_residuals=residuals,
        max_field=float(u_norm.max()),
        concentration=spots,
        iterations=iterations,
    )


@lru_cache(maxsize=None)
def _disk_spectrum(n: int, radius: float) -> np.ndarray:
    """Spectrum of the disk_mass mask at cell (0, 0) times the cell area 1/n^2
    (an exact power of two); real, as the mask is even under o -> -o."""
    mask = _periodic_dist_sq(GridSpec(n), (0.0, 0.0)) <= radius * radius
    return np.fft.rfft2(mask).real / n**2


def _disk_masses(rho: np.ndarray, spec: GridSpec, radius: float) -> np.ndarray:
    """Disk mass around every cell of each density in the stack, by correlation."""
    spectra = np.fft.rfft2(rho, axes=(-2, -1)) * _disk_spectrum(spec.n, radius)
    return np.fft.irfft2(spectra, s=spec.shape, axes=(-2, -1))


def _concentration_from_density(
    rho: np.ndarray, spec: GridSpec, radius: float
) -> tuple[ConcentrationSpot, ...]:
    if not 0 < radius <= 0.5:
        raise ValueError("radius must lie in (0, 0.5]")
    spots = []
    for masses in _disk_masses(rho, spec, radius):
        peak = float(masses.max())
        # lexicographically smallest center among near-equal maxima
        tied = masses >= peak * (1.0 - 1e-12)
        ci, cj = np.unravel_index(np.argmax(tied), tied.shape)
        spots.append(ConcentrationSpot(mass=peak, center=(ci / spec.n, cj / spec.n)))
    return tuple(spots)


def detect_concentration(
    u: MultiField, radius: float
) -> tuple[ConcentrationSpot, ...]:
    """Heaviest disk mass of each component's density and where it sits.

    Expects normalized fields (unit exp-integral per component); the
    search runs over all grid-cell centers and ties resolve to the
    lexicographically smallest center.
    """
    stacked = u.stack()
    if np.any(np.abs(_log_integral_exp(stacked)) > 1e-8):
        raise ValueError("normalize first")
    return _concentration_from_density(np.exp(stacked), u.spec, radius)


def _bubble_seed(spec: GridSpec, scale: float, component: int) -> MultiField:
    seed = standard_bubble(BubbleParams(scale=scale), spec, allow_unresolved=True)
    fields = seed.components if component == 0 else tuple(reversed(seed.components))
    return MultiField(fields)


def _classify(
    m: Sequence[float],
    spec: GridSpec,
    config: Optional[MinimizeConfig] = None,
    cartan: Optional[CartanMatrix] = None,
) -> tuple[str, MinimizeReport]:
    """Classification plus the run that decided it (for sweep rows)."""
    config = config or MinimizeConfig()
    cartan = resolve_cartan(len(m), cartan)
    if cartan.rank != 2:
        raise ValueError("classification seeds are defined for two components")
    zeros = MultiField.zeros(spec, cartan.rank)
    reports = [minimize(m, spec, init=zeros, config=config, cartan=cartan)]
    if reports[-1].status == STATUS_UNBOUNDED:
        return STATUS_UNBOUNDED, reports[-1]
    # large scales sit closest to a blow-up and short-circuit soonest
    for scale in (64.0, 16.0, 4.0):
        for component in (0, 1):
            init = v_from_u(_bubble_seed(spec, scale, component), cartan)
            report = minimize(m, spec, init=init, config=config, cartan=cartan)
            if report.status == STATUS_UNBOUNDED:
                return STATUS_UNBOUNDED, report
            reports.append(report)
    if all(r.status == STATUS_CONVERGED for r in reports):
        return "Bounded", reports[0]
    pending = next(r for r in reports if r.status != STATUS_CONVERGED)
    return "Inconclusive", pending


def classify_boundedness(
    m: Sequence[float],
    spec: GridSpec,
    config: Optional[MinimizeConfig] = None,
    cartan: Optional[CartanMatrix] = None,
) -> str:
    """Bounded, Unbounded, or Inconclusive at one coupling pair.

    Runs descent from the flat start and from concentrated seeds at
    scales 4, 16, 64 in each component direction.  Any Unbounded run
    decides immediately; all-Converged means Bounded; anything else
    (typically budget-limited relaxation near the threshold) is
    Inconclusive.
    """
    status, _ = _classify(m, spec, config, cartan)
    return status


@dataclass(frozen=True)
class SweepRow:
    m1: float
    m2: float
    status: str
    energy: float
    max_field: float
    conc1: float
    conc2: float


def _sweep_row(
    m: tuple[float, float],
    spec: GridSpec,
    config: Optional[MinimizeConfig],
    cartan: Optional[CartanMatrix],
) -> SweepRow:
    """One sweep cell: its classification and the deciding run's numbers."""
    m1, m2 = m
    status, report = _classify((m1, m2), spec, config, cartan)
    return SweepRow(
        m1=float(m1),
        m2=float(m2),
        status=status,
        energy=report.energy_trace[-1],
        max_field=report.max_field,
        conc1=report.concentration[0].mass,
        conc2=report.concentration[1].mass,
    )


def sweep(
    couplings: Sequence[tuple[float, float]],
    spec: GridSpec,
    config: Optional[MinimizeConfig] = None,
    cartan: Optional[CartanMatrix] = None,
) -> tuple[SweepRow, ...]:
    """Classify each coupling pair; rows keep the input order.

    Each point is classified independently (pure per-point work), so
    the map cannot depend on evaluation order.  The cells run on a fork
    pool with one worker per CPU in the affinity mask (in-process when
    that is one CPU or there is one cell); every row is computed by the
    same code either way, so the rows and region.csv keep the same
    bytes.  The reported energy, max field, and concentrations come from
    the deciding run: the blow-up run for Unbounded points, the
    flat-start minimizer for Bounded ones, and the first unfinished run
    for Inconclusive ones.
    """
    if len(couplings) == 0:
        raise ValueError("empty coupling list")
    row = partial(_sweep_row, spec=spec, config=config, cartan=cartan)
    workers = min(len(os.sched_getaffinity(0)), len(couplings))
    if workers == 1:
        return tuple(map(row, couplings))
    # imported here, so processes that never start a pool skip its import
    import multiprocessing

    # chunks of one cell balance cells of unequal cost; imap keeps the order
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return tuple(pool.imap(row, couplings, chunksize=1))


def write_region_csv(rows: Sequence[SweepRow], destination) -> None:
    """Write sweep rows as CSV to a path or text file object."""
    write_csv(
        destination,
        REGION_CSV_HEADER,
        (
            f"{r.m1:.12g},{r.m2:.12g},{r.status},{r.energy:.12g},"
            f"{r.max_field:.12g},{r.conc1:.12g},{r.conc2:.12g}"
            for r in rows
        ),
    )
