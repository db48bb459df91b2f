"""Energy descent, blow-up detection, and coupling-plane classification.

The descent runs in the abstract parametrization with two layers of
preconditioning: the inverse of the coupling matrix A = cartan_su(N),
N the number of couplings, undoes the cross-component
mixing and the zero-mean inverse Laplacian flattens the spectrum of the
quadratic term.  Their product P = (-lap)^-1 A^-1 is linear, symmetric
and the exact inverse of the quadratic term, so it serves as the initial
inverse Hessian H0 of limited-memory BFGS (Liu and Nocedal, Math. Prog.
45, 1989).  The curvature pairs live in one stacked buffer: the steps s_i
and P y_i, each beside its image under -lap.  P y_i and -lap P y_i are
differences of arrays the iteration forms anyway, the two-loop recursion
runs on the Gram scalars <s_i, y_j> and <y_i, P y_j> alone ("vector-free"
form, Chen, Wang and Zhou, NeurIPS 2014), and the direction and its -lap
come out of one product with the buffer.  A pair is kept only when its
curvature <s, y> is positive, and a direction that does not descend
clears the history for a plain preconditioned step.  The history holds
up to HISTORY_PAIRS pairs and at most HISTORY_BYTES, so on large grids it
is empty and the descent is preconditioned steepest descent.

The energy is evaluated in full once, at the start.  Along each search
line its change has a closed form (a quadratic in the step plus one log1p
per component), which the Armijo backtracking tests directly: no trial
step needs a transform, and no decrement is lost to the difference of
two large energies.  An accepted step updates the state and the energy
by that change, so each iteration costs one FFT pair (the
preconditioner) and the recorded energy trace is non-increasing by
construction.

The loop allocates nothing after its start.  Every (N, n, n) array it
writes (the raw gradient, the source, P g and -lap P g, the direction
and -lap d, w = A d, the line-search growth, one scratch array and the
rfft half spectrum) lives in one workspace allocated before the first
iteration and rewritten in place, through ufunc out= and the out
arguments of the spectral and mixing kernels.  Two of them share
memory with arrays that are dead while they live: w overwrites the
source once its mean is taken, and the growth is a real view over the
half spectrum, which no transform uses between the preconditioner and
the detector.  Without a history the direction -P g overwrites P g;
with one, the arrays that push reads from the previous iterate sit in
a second buffer set, and the two sets swap at each accepted step.  The
workspace is freed before the report's fields, residuals and final
detector are built, so a descent at n = 256 holds about 10 field
stacks at its peak.

A descent ends Converged under the gradient tolerance, Stalled when no
step above the floating-point floor lowers the energy, Budget after
max_iters steps, or Unbounded far below its starting energy with more
than 0.9 of one component's normalized mass inside a disk of radius
0.05 (fixed); this conjunction separates genuine concentration from
the benign energy drops of relaxing a poorly chosen start.  The
disk masses at all centers come from one FFT correlation with a cached
disk-mask spectrum; ties go to the lexicographically smallest center.
Inside the descent the detector runs only when the peak density times
the disk area could reach the concentration threshold.

The Cartan matrix is unchanged when the component order is reversed, so
the cells (m1, m2) and (m2, m1) of a sweep are mirror images, and so are
the two bubble-seed directions of a diagonal cell.  A sweep classifies
each mirror orbit in one task and skips a seeded descent whose mirror
already ended Converged; only that status is shared, never numbers, since
a Converged bubble run never decides a cell.  The deciding run is always
computed in the cell's own orientation, so the rows keep their bytes
(mirrored runs agree in status and iteration count but not in the last
bits).  The orbits run on a fork pool with one worker per CPU in the
affinity mask; each orbit runs the same code as in-process.
"""

from __future__ import annotations

import os
import random
from dataclasses import astuple, dataclass
from functools import partial
from numbers import Integral, Real
from typing import ClassVar, Optional, Sequence

import numpy as np

from .cartan import NumericalError, _check_couplings, _coupling_values, cartan_su
from ._csv import write_csv
from .functional import (
    Evaluation,
    MultiField,
    _mix,
    _require_normalized,
    euler_lagrange_residuals,
    evaluate,
    raw_gradient,
    v_from_u,
)
from .grid import (
    GridSpec,
    ScalarField,
    _apply_symbol,
    _disk_symbol,
    _inverse_neg_laplacian,
    _log_integral_exp,
    random_smooth_field,
)
from .bubbles import BubbleParams, standard_bubble

__all__ = [
    "MinimizeConfig",
    "MinimizeReport",
    "ConcentrationSpot",
    "SweepRow",
    "minimize",
    "detect_concentration",
    "classify_boundedness",
    "sweep",
    "write_region_csv",
    "REGION_CSV_HEADER",
]

STATUS_CONVERGED = "Converged"
STATUS_UNBOUNDED = "Unbounded"
STATUS_STALLED = "Stalled"
STATUS_BUDGET = "Budget"

ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
STEP_GROWTH = 1.5
# L-BFGS memory: at most this many pairs, and no more than fit in about
# one core's L2 cache (2 MiB) at four (N, n, n) arrays per pair (P y, s
# and their -lap images).  At n = 64 that is 5 pairs; at n = 256 a pair
# alone is 4 MiB, the history is empty, and the descent takes plain
# preconditioned steps.  A history also costs seven workspace arrays:
# d and -lap d apart from P g, and a second buffer set of five (the
# previous iterate's raw gradient, P g, -lap P g, d and -lap d), which
# push reads.
HISTORY_PAIRS = 5
HISTORY_BYTES = 2 * 1024 * 1024
DENSITY_FLOOR = np.finfo(float).tiny

REGION_CSV_HEADER = "m1,m2,status,energy,max_field,conc1,conc2"


@dataclass(frozen=True)
class MinimizeConfig:
    max_iters: int = 2000
    # the line search tests closed-form energy changes, not differences
    # of total energies, so relaxation to a flat critical point is not cut
    # off by cancellation; the raw residuals must reach 10x this value
    grad_tol: float = 1e-6
    seed: int = 0
    # fixed values, not fields: the first trial step and the certificate's
    # energy drop and disk
    step: ClassVar[float] = 1.0
    # calibrated on the 64-cell grid: relaxing starts at couplings just
    # below threshold never drop more than ~10 while concentrated.  Past
    # threshold the margin is thin: at m2 = 3pi, m1 = 4.1pi and 4.2pi are
    # called Bounded, and at 4.3pi the deciding run drops only 14.16 after
    # 8 iterations (ROADMAP item 1 replaces this drop with an energy ladder)
    divergence_energy_drop: ClassVar[float] = 14.0
    concentration_radius: ClassVar[float] = 0.05
    concentration_mass: ClassVar[float] = 0.9

    def __post_init__(self):
        # bool subclasses int, but True is neither a count nor a tolerance
        for name in ("max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer")
        if isinstance(self.grad_tol, bool) or not isinstance(self.grad_tol, Real):
            raise ValueError("grad_tol must be a number")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        # written so that NaN fails too
        if not 0 < self.grad_tol < np.inf:
            raise ValueError("grad_tol must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


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

    @property
    def iterations(self) -> int:
        return len(self.energy_trace) - 1

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


class _History:
    """L-BFGS curvature pairs with H0 = P, in one stacked ring buffer.

    Slot k of `stack` holds P y_k and s_k in block 0 and their images
    under -lap in block 1, so the occupied slots form a prefix that one
    product reads.  The recursion needs only the Gram scalars
    sy[i][j] = <s_i, y_j> (pair i no newer than pair j) and
    ypy[i][j] = <y_i, P y_j>; each new pair adds one column of them.
    Inner products are plain sums: the cell area cancels from every
    coefficient.
    """

    def __init__(self, size: int, shape: tuple[int, ...]):
        self.size = size
        self.stack = np.zeros((2, size, 2) + shape)
        self.sy = np.zeros((size, size))
        self.ypy = np.zeros((size, size))
        self.order: list[int] = []  # occupied slots, oldest pair first

    def _rows(self) -> np.ndarray:
        """The occupied slots as (2, 2 k, N n n): P y_k and s_k alternate."""
        used = len(self.order)
        return self.stack[:, :used].reshape(2, 2 * used, -1)

    def push(self, raw, precond, neglap_precond, step, direction, neglap_d,
             raw_prev, precond_prev, neglap_precond_prev, scratch) -> None:
        """Add the pair of the last accepted step if its curvature is positive.

        s = step d, y = raw - raw_prev, and P y = precond - precond_prev
        because P is linear; the oldest pair makes room when full.  y is
        formed in scratch, an (N, n, n) array.
        """
        y = np.subtract(raw, raw_prev, out=scratch)
        if not 0.0 < step * float(direction.ravel() @ y.ravel()) < np.inf:
            return  # the energy is not convex here; keep the older pairs
        if len(self.order) == self.size:
            slot = self.order.pop(0)
        else:
            slot = len(self.order)
        self.order.append(slot)
        pair = self.stack[:, slot]
        np.subtract(precond, precond_prev, out=pair[0, 0])
        np.multiply(direction, step, out=pair[0, 1])
        np.subtract(neglap_precond, neglap_precond_prev, out=pair[1, 0])
        np.multiply(neglap_d, step, out=pair[1, 1])
        dots = self._rows()[0] @ y.ravel()
        self.ypy[slot, : len(self.order)] = dots[0::2]
        self.ypy[: len(self.order), slot] = dots[0::2]
        self.sy[: len(self.order), slot] = dots[1::2]

    def direction(
        self, raw, precond, neglap_precond, out
    ) -> tuple[np.ndarray, np.ndarray]:
        """d = -H raw and -lap d, by the two-loop recursion on the Gram scalars.

        With q = raw - sum_j alpha_j y_j the recursion returns
        H raw = P raw - sum_j alpha_j P y_j + sum_j (alpha_j - beta_j) s_j,
        where <s_i, q> and <y_i, P q> expand into <s_i, raw>, <P y_i, raw>
        (P is symmetric) and the Gram scalars.  out is a C-contiguous
        (2, N, n, n) array whose halves receive d and -lap d.
        """
        rows = self._rows()
        dots = (rows[0] @ raw.ravel()).tolist()
        py_raw, s_raw = dots[0::2], dots[1::2]
        sy, ypy = self.sy.tolist(), self.ypy.tolist()
        alpha = [0.0] * self.size
        for k in range(len(self.order) - 1, -1, -1):
            i = self.order[k]
            row = sy[i]
            q = s_raw[i]
            for j in self.order[k + 1 :]:
                q -= alpha[j] * row[j]
            alpha[i] = q / row[i]
        # d = -H raw, so P y_k enters with +alpha_k and s_k with beta_k - alpha_k
        coef = [0.0] * len(dots)
        for k, i in enumerate(self.order):
            row = ypy[i]
            r = py_raw[i]
            for j in self.order:
                r -= alpha[j] * row[j]
            for j in self.order[:k]:
                r -= coef[2 * j + 1] * sy[j][i]
            coef[2 * i] = alpha[i]
            coef[2 * i + 1] = r / sy[i][i] - alpha[i]
        np.matmul(np.asarray(coef), rows, out=out.reshape(2, -1))
        return (
            np.subtract(out[0], precond, out=out[0]),
            np.subtract(out[1], neglap_precond, out=out[1]),
        )


def minimize(
    m: Sequence[float],
    spec: GridSpec,
    init: Optional[MultiField] = None,
    config: Optional[MinimizeConfig] = None,
) -> MinimizeReport:
    """Preconditioned descent from init (random smooth start if omitted).

    The init is interpreted in the abstract parametrization the descent
    runs in.  The random start draws its components in turn from
    random.Random(config.seed) through random_smooth_field, on the band
    k_max = 4, so a seed names one smooth function per component, the
    same at every n > 8 up to its grid-max scaling.  The status says how
    the descent ended: Unbounded once an accepted state sits more than
    divergence_energy_drop below the start AND some component
    concentrates past concentration_mass within concentration_radius;
    Converged when the preconditioned gradient norm is under grad_tol
    (with raw component norms under ten times that, which pins the
    stationarity residuals of the normalized output); Stalled at the
    floating-point floor, where no direction descends or no step above
    1e-16 times the first trial step passes the Armijo test; Budget after
    max_iters steps.
    """
    config = config or MinimizeConfig()
    mv = _check_couplings(m)
    rank = len(mv)

    if init is None:
        rng = random.Random(config.seed)
        v_stack = np.stack(
            [random_smooth_field(spec, rng).values for _ in range(rank)]
        )
    else:
        if init.spec != spec:
            raise ValueError("grid mismatch")
        if init.n_components != rank:
            raise ValueError("component count does not match coupling rank")
        v_stack = init.stack()

    start = evaluate(v_stack, mv)
    del v_stack
    trace = [start.parts.total]
    # the line search accepts only finite energies, so the start is the
    # one place a non-finite value can enter
    if not np.isfinite(trace[0]):
        raise NumericalError("non-finite energy at iteration 0")
    status, spots = _descend(start, mv, spec, config, trace)
    # the descent's workspace is gone; of the start only the final u,
    # log int exp(u) and densities are still needed
    u, lse, rho = start.u, start.lse, start.rho
    del start
    u -= lse[:, None, None]  # normalized: int exp(u_i) = 1
    final_u = MultiField(tuple(ScalarField(spec, comp) for comp in u))
    # only an Unbounded run comes with its certificate's spots
    spots = spots or _concentration_from_density(rho, spec, config.concentration_radius)
    del rho
    residuals = tuple(float(r) for r in euler_lagrange_residuals(final_u, mv))
    return MinimizeReport(
        status=status,
        energy_trace=tuple(trace),
        final_u=final_u,
        el_residuals=residuals,
        max_field=float(u.max()),
        concentration=spots,
    )


def _descend(
    start: Evaluation,
    mv: np.ndarray,
    spec: GridSpec,
    config: MinimizeConfig,
    trace: list[float],
) -> tuple[str, Optional[tuple[ConcentrationSpot, ...]]]:
    """The descent loop from an evaluated start: (status, certified spots or None).

    Each accepted step updates the start's arrays in place and appends
    its energy to trace.  Every (N, n, n) array the loop writes lives in
    a workspace allocated here, before the first iteration, and is
    rewritten in place; returning frees it.
    """
    # the loop state: zero-mean v0, u = A v0, -lap v0, log int exp(u_i) and
    # the normalized densities, all updated in place along accepted steps
    v0, u, neglap, lse, rho = start.v0, start.u, start.neglap, start.lse, start.rho
    amat = cartan_su(len(mv))
    cell_area = spec.h * spec.h
    energy = trace[0]
    linear_weights = (amat @ mv)[:, None, None]
    # no disk holds more than its area (the mask spectrum's zero mode, h^2
    # times its cell count) times the peak density; the margin covers the
    # detector's FFT roundoff, so skipping below it changes no decision
    disk_area = _disk_symbol(spec.n, config.concentration_radius)[0, 0]
    detector_floor = config.concentration_mass * (1.0 - 1e-12) / disk_area
    step = config.step
    shape = v0.shape
    pairs = min(HISTORY_PAIRS, HISTORY_BYTES // (4 * v0.nbytes))
    history = _History(pairs, shape)
    previous = None  # the last accepted step and the gradient it started from

    # the workspace.  A buffer set holds the raw gradient, P g beside
    # -lap P g, and d beside -lap d; without a history d = -P g is formed
    # in place of P g.  push reads the previous iterate's set, so a
    # history keeps two sets and swaps them at each accepted step.
    sets = []
    for _ in range(2 if pairs else 1):
        precond_pair = np.empty((2,) + shape)
        direction_pair = np.empty((2,) + shape) if pairs else precond_pair
        sets.append((np.empty(shape), precond_pair, direction_pair))
    source_buf, scratch = np.empty(shape), np.empty(shape)
    spectrum = np.empty(shape[:-1] + (shape[-1] // 2 + 1,), dtype=complex)
    # the line search's exp growth lives in the half spectrum's first N n^2
    # doubles: the preconditioner is done with it, the detector not yet begun
    growth = spectrum.view(float).reshape(-1)[: v0.size].reshape(shape)

    for _ in range(config.max_iters):
        raw_buf, precond_pair, direction_pair = sets[0]
        # raw_gradient leaves -lap v0 + source in neglap_precond's buffer
        raw, source = raw_gradient(
            rho, neglap, mv, (raw_buf, source_buf, precond_pair[1])
        )
        precond = _inverse_neg_laplacian(source, precond_pair[0], spectrum)
        np.add(v0, precond, out=precond)
        # a coupling past about 1e154 squares its gradient past the float range
        with np.errstate(over="ignore"):
            squares = np.square(precond, out=scratch)
            precond_norm = float(np.sqrt(cell_area * np.sum(squares)))
            squares = np.square(raw, out=scratch)
            raw_norms = np.sqrt(cell_area * np.sum(squares, axis=(1, 2)))
        if not (np.isfinite(precond_norm) and np.all(np.isfinite(raw_norms))):
            raise NumericalError(
                f"non-finite gradient norm at iteration {len(trace) - 1}"
            )
        if precond_norm < config.grad_tol and np.all(
            raw_norms < 10.0 * config.grad_tol
        ):
            return STATUS_CONVERGED, None

        # precond = v0 + (-lap)^-1 source, so -lap precond = -lap v0 + source - mean(source)
        neglap_precond = precond_pair[1]
        neglap_precond -= source.mean(axis=(1, 2), keepdims=True)
        if previous is not None:
            history.push(raw, precond, neglap_precond, *previous, scratch)
        if history.order:
            direction, neglap_d = history.direction(
                raw, precond, neglap_precond, direction_pair
            )
            slope = cell_area * float(np.sum(np.multiply(raw, direction, out=scratch)))
            if not slope < 0:
                history.order.clear()  # restart from the plain preconditioned step
        if not history.order:
            # without a history these overwrite precond and neglap_precond
            direction = np.negative(precond, out=direction_pair[0])
            neglap_d = np.negative(neglap_precond, out=direction_pair[1])
            slope = cell_area * float(np.sum(np.multiply(raw, direction, out=scratch)))
        if not slope < 0:
            return STATUS_STALLED, None  # no direction descends
        if history.order:
            step = 1.0  # a quasi-Newton step is scaled already

        # along v0 + s d the energy changes by
        #   s b1 + s^2 b2 - sum_i m_i log1p(h^2 sum rho_i expm1(s w_i)),  w = A d,
        # which needs no transform and subtracts no two large energies
        w = _mix(amat, direction, source)  # the source is dead past its mean
        # once a density has underflowed, the multiplicative update has lost
        # weight that a later step may raise again, and log1p(masses) loses
        # digits as the mass leaves its cells; the change of log int exp(u)
        # then comes from u itself
        exact = rho.min() < DENSITY_FLOOR
        b1 = cell_area * float(
            np.sum(np.multiply(w, neglap, out=scratch))
            + np.sum(np.multiply(linear_weights, direction, out=scratch))
        )
        b2 = 0.5 * cell_area * float(np.sum(np.multiply(w, neglap_d, out=scratch)))
        while step > 1e-16 * config.step:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                np.multiply(step, w, out=growth)
                if exact:
                    np.add(u, growth, out=growth)
                    shift = _log_integral_exp(growth, growth) - lse
                else:
                    np.expm1(growth, out=growth)
                    products = np.multiply(rho, growth, out=scratch)
                    masses = cell_area * np.sum(products, axis=(1, 2))
                    shift = np.log1p(masses)
                change = step * b1 + step * step * b2 - float(mv @ shift)
            if np.isfinite(change) and change <= ARMIJO_C1 * step * slope:
                break
            step *= BACKTRACK
        else:
            return STATUS_STALLED, None  # no acceptable step above the floor
        v0 += np.multiply(step, direction, out=scratch)
        u += np.multiply(step, w, out=scratch)
        neglap += np.multiply(step, neglap_d, out=scratch)
        lse += shift
        if exact:
            np.exp(np.subtract(u, lse[:, None, None], out=rho), out=rho)
        else:
            rho *= np.add(1.0, growth, out=growth)
            rho /= (1.0 + masses)[:, None, None]
        energy += change
        trace.append(energy)
        if history.size:
            previous = (step, direction, neglap_d, raw, precond, neglap_precond)
            sets.reverse()
        step *= STEP_GROWTH
        # once the blow-up certificate (drop plus concentration) holds,
        # further descent only chases the same grid-limited spike
        past_drop_line = energy < trace[0] - config.divergence_energy_drop
        if past_drop_line and rho.max() >= detector_floor:
            spots = _concentration_from_density(
                rho, spec, config.concentration_radius, scratch, spectrum
            )
            if any(s.mass > config.concentration_mass for s in spots):
                return STATUS_UNBOUNDED, spots
    return STATUS_BUDGET, None


def _concentration_from_density(
    rho: np.ndarray,
    spec: GridSpec,
    radius: float,
    out: Optional[np.ndarray] = None,
    spectrum: Optional[np.ndarray] = None,
) -> tuple[ConcentrationSpot, ...]:
    """Heaviest disk mass per component; out and spectrum as for _apply_symbol."""
    spots = []
    for masses in _apply_symbol(rho, _disk_symbol(spec.n, radius), out, spectrum):
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
    _require_normalized(stacked)
    return _concentration_from_density(np.exp(stacked), u.spec, radius)


def _bubble_seed(spec: GridSpec, scale: float, component: int) -> MultiField:
    seed = standard_bubble(BubbleParams(scale=scale), spec, allow_unresolved=True)
    fields = seed.components if component == 0 else tuple(reversed(seed.components))
    return MultiField(fields)


def _mirror_key(m: Sequence[float], scale: float, component: int) -> tuple:
    """One name for a bubble-seeded descent and its mirror image.

    cartan_su(N) is unchanged when the component order is reversed, so the
    descent at couplings m from the seed in `component` is the mirror of the
    descent at reversed m from the seed in N - 1 - component (the seed in
    component 1 is the component-0 seed reversed); the key is the smaller
    of the two triples.
    """
    m = tuple(m)
    return min((m, scale, component), (m[::-1], scale, len(m) - 1 - component))


def _classify(
    m: Sequence[float],
    spec: GridSpec,
    config: Optional[MinimizeConfig] = None,
    relaxed: Optional[set] = None,
) -> tuple[str, Optional[MinimizeReport]]:
    """Classification plus the seeded run that decided it (for sweep rows).

    A cell runs at most six seeded descents.  Bounded comes with no run:
    its row is the flat state's closed form (see _sweep_orbit).  relaxed
    holds the mirror keys of seeded descents known to end Converged (a
    fresh set when omitted): a seed whose key is in it is skipped, and
    each one run here that ends Converged adds its key.  A Converged run
    never decides a cell, so the deciding run is computed here, in this
    cell's own orientation.
    """
    config = config or MinimizeConfig()
    relaxed = set() if relaxed is None else relaxed
    m = _coupling_values(m)
    if len(m) != 2:
        raise ValueError("classification seeds are defined for two components")
    pending = None
    # large scales sit closest to a blow-up and short-circuit soonest
    for scale in (64.0, 16.0, 4.0):
        for component in (0, 1):
            key = _mirror_key(m, scale, component)
            if key in relaxed:
                continue
            init = v_from_u(_bubble_seed(spec, scale, component))
            report = minimize(m, spec, init=init, config=config)
            if report.status == STATUS_UNBOUNDED:
                return STATUS_UNBOUNDED, report
            if report.status == STATUS_CONVERGED:
                relaxed.add(key)
            elif pending is None:
                pending = report
    if pending is None:
        return "Bounded", None
    return "Inconclusive", pending


def classify_boundedness(
    m: Sequence[float],
    spec: GridSpec,
    config: Optional[MinimizeConfig] = None,
) -> str:
    """Bounded, Unbounded, or Inconclusive at one coupling pair.

    Runs descent from concentrated seeds at scales 4, 16, 64 in each
    component direction, at most six descents.  Any Unbounded run decides
    immediately; all-Converged means Bounded; anything else (typically
    budget-limited or stalled relaxation near the threshold) is
    Inconclusive.  The flat state is a critical point at every coupling,
    so it needs no descent.  On the diagonal m1 = m2 the two directions
    mirror each other, so a seed that relaxed in one is not run in the
    other.
    """
    status, _ = _classify(m, spec, config)
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


def _sweep_orbit(
    cells: Sequence[tuple[float, float]],
    spec: GridSpec,
    config: Optional[MinimizeConfig],
) -> list[SweepRow]:
    """Rows of one mirror orbit: its classifications and the deciding runs' numbers.

    The cells, in the given order, share one set of relaxed seeds (see
    _classify), so a seeded descent whose mirror already ended Converged
    is not run again.
    """
    relaxed: set = set()
    rows = []
    for m1, m2 in cells:
        status, report = _classify((m1, m2), spec, config, relaxed)
        if report is None:
            # u = 0 solves the system at every coupling with energy 0, and
            # each disk holds its own area of the unit density
            area = float(_disk_symbol(spec.n, MinimizeConfig.concentration_radius)[0, 0])
            numbers = (0.0, 0.0, area, area)
        else:
            spots = report.concentration
            numbers = (report.energy_trace[-1], report.max_field, spots[0].mass, spots[1].mass)
        rows.append(SweepRow(float(m1), float(m2), status, *numbers))
    return rows


def sweep(
    couplings: Sequence[tuple[float, float]],
    spec: GridSpec,
    config: Optional[MinimizeConfig] = None,
) -> tuple[SweepRow, ...]:
    """Classify each coupling pair; rows keep the input order.

    Every cell is checked as a pair of couplings before any descent runs.
    The cells fall into mirror orbits {(m1, m2), (m2, m1)} by exact float
    equality; a diagonal, unpaired or repeated cell joins the orbit of its
    smaller ordering.  Within an orbit a bubble-seeded descent whose mirror
    already ended Converged is skipped (see _classify); a cell runs at most
    six seeded descents.  The reported energy, max field and concentrations
    come from the blow-up run for Unbounded points and the first unfinished
    run for Inconclusive ones, each computed in the cell's own orientation.
    Bounded points report the flat state's closed form: energy and max
    field 0 and both disk masses the disk's area.  So the rows do not
    depend on how the cells are grouped.  The orbits run on a fork pool
    with one worker per CPU in the affinity mask, one orbit per task
    (in-process when that is one CPU or there is one orbit); the same
    per-orbit code runs either way, so the rows and region.csv keep the
    same bytes.
    """
    if len(couplings) == 0:
        raise ValueError("empty coupling list")
    cells = [_coupling_values(cell, 2) for cell in couplings]
    orbits: dict[tuple, list[int]] = {}
    for index, (m1, m2) in enumerate(cells):
        orbits.setdefault(min((m1, m2), (m2, m1)), []).append(index)
    tasks = [[cells[i] for i in members] for members in orbits.values()]
    run = partial(_sweep_orbit, spec=spec, config=config)
    workers = min(len(os.sched_getaffinity(0)), len(tasks))
    if workers == 1:
        results = map(run, tasks)
    else:
        # imported here, so processes that never start a pool skip its import
        import multiprocessing

        # chunks of one orbit balance orbits of unequal cost; imap keeps the order
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = list(pool.imap(run, tasks, chunksize=1))
    rows: list = [None] * len(couplings)
    for members, orbit_rows in zip(orbits.values(), results):
        for index, row in zip(members, orbit_rows):
            rows[index] = row
    return tuple(rows)


def write_region_csv(rows: Sequence[SweepRow], destination) -> None:
    """Write sweep rows as CSV to a path or text file object."""
    write_csv(destination, REGION_CSV_HEADER, map(astuple, rows))
