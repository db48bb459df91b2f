"""The coupled mean-field energy on the torus, in both parametrizations.

The energy of a tuple v of potentials with coupling vector m is

    E(v) = 1/2 sum_ij a_ij <grad v_i, grad v_j>
         + sum_ij a_ij m_i int(v_j)
         - sum_i m_i log int(exp(u_i)),        u = A v,

where A = cartan_su(N) is the coupling matrix of the N components; every
function here, the kernels `evaluate` and `raw_gradient` included, reads
it (and its inverse, cartan_su_inverse(N)) from the rank.  Substituting
u = A v gives the equivalent u-form whose quadratic part uses the
inverse matrix.  Both forms are invariant under adding a constant to any
component, and the L2 gradient of E in v has components

    g_k = sum_j a_kj ( -lap v_j + m_j (1 - rho_j) ),

with rho_j the normalized density exp(u_j) / int(exp(u_j)).

`energy`, `energy_gradient` and the start of the minimizer's descent run
one kernel, `evaluate`, built on the grid's spectral core.  Since E is
invariant under adding a constant to any component, the kernel
evaluates the zero-mean representative of v; its linear part is then
zero up to roundoff.  `energy_u` keeps the u-form as an independent
formula for the same number.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .cartan import _check_couplings, cartan_su, cartan_su_inverse
from .grid import (
    GridSpec,
    ScalarField,
    _apply_symbol,
    _centered,
    _inverse_neg_laplacian,
    _log_integral_exp,
    _neg_laplacian,
    _neglap_symbol,
    dirichlet_pairing,
    integral,
)

__all__ = [
    "MultiField",
    "EnergyBreakdown",
    "u_from_v",
    "v_from_u",
    "energy",
    "energy_u",
    "energy_gradient",
    "evaluate",
    "raw_gradient",
    "precondition_gradient",
    "normalize_components",
    "euler_lagrange_residuals",
]


@dataclass(frozen=True)
class MultiField:
    """Tuple of scalar fields on one shared grid, one per component."""

    components: tuple[ScalarField, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("at least one component required")
        spec = comps[0].spec
        for c in comps[1:]:
            if c.spec != spec:
                raise ValueError("grid mismatch")
        object.__setattr__(self, "components", comps)

    @property
    def spec(self) -> GridSpec:
        return self.components[0].spec

    @property
    def n_components(self) -> int:
        return len(self.components)

    def stack(self) -> np.ndarray:
        """Component values as one (N, n, n) array (a copy)."""
        return np.stack([c.values for c in self.components])

    @classmethod
    def from_array(cls, spec: GridSpec, values: np.ndarray) -> "MultiField":
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 3 or values.shape[1:] != spec.shape:
            raise ValueError("expected an (N, n, n) array matching the grid")
        return cls(tuple(ScalarField(spec, values[i]) for i in range(values.shape[0])))

    @classmethod
    def zeros(cls, spec: GridSpec, n_components: int) -> "MultiField":
        z = np.zeros(spec.shape)
        return cls(tuple(ScalarField(spec, z) for _ in range(n_components)))


def _mix(matrix: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_j matrix_ij stack_j for an (N, n, n) stack, as one matrix product."""
    return (matrix @ stack.reshape(len(stack), -1)).reshape(stack.shape)


def u_from_v(v: MultiField) -> MultiField:
    """Apply the coupling matrix componentwise: u_i = sum_j a_ij v_j."""
    return MultiField.from_array(v.spec, _mix(cartan_su(v.n_components), v.stack()))


def v_from_u(u: MultiField) -> MultiField:
    """Invert u_from_v using the exact closed-form inverse."""
    return MultiField.from_array(u.spec, _mix(cartan_su_inverse(u.n_components), u.stack()))


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy split into its quadratic, linear and entropy parts."""

    quadratic: float
    linear: float
    entropy: float

    @property
    def total(self) -> float:
        return self.quadratic + self.linear + self.entropy

    def to_dict(self) -> dict:
        return {**asdict(self), "total": self.total}


class Evaluation(NamedTuple):
    """One energy evaluation and the (N, n, n) pieces its gradient reuses."""

    parts: EnergyBreakdown
    v0: np.ndarray  # zero-mean representative of v
    u: np.ndarray  # A v0
    lse: np.ndarray  # log int exp(u_i), one per component
    rho: np.ndarray  # normalized densities exp(u_i - lse_i)
    neglap: np.ndarray  # -lap v0


def evaluate(v_stack: np.ndarray, mv: np.ndarray) -> Evaluation:
    """The energy of a (N, n, n) stack of potentials, at its zero-mean representative."""
    amat = cartan_su(len(mv))
    n = v_stack.shape[-1]
    cell_area = (1.0 / n) ** 2
    v0 = _centered(v_stack)
    u = _mix(amat, v0)
    lse = _log_integral_exp(u)
    rho = np.exp(u - lse[:, None, None])
    neglap = _apply_symbol(v0, _neglap_symbol(n))
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow here surfaces as a non-finite energy, which callers handle
        quadratic = 0.5 * cell_area * float(np.sum(u * neglap))
        linear = cell_area * float(np.sum((amat @ mv)[:, None, None] * v0))
        entropy = -float(mv @ lse)
    return Evaluation(EnergyBreakdown(quadratic, linear, entropy), v0, u, lse, rho, neglap)


def raw_gradient(
    rho: np.ndarray, neglap: np.ndarray, mv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """L2 gradient stack A (-lap v0 + s) and the source s = m (1 - rho) it uses."""
    source = mv[:, None, None] * (1.0 - rho)
    return _mix(cartan_su(len(mv)), neglap + source), source


def energy(v: MultiField, m: Sequence[float]) -> EnergyBreakdown:
    """Energy in the v-parametrization, by the kernel the descent starts from.

    It is evaluated at the zero-mean representative of v, so the linear
    part is zero up to roundoff whatever the means of v.
    """
    mv = _check_couplings(m, v.n_components)
    return evaluate(v.stack(), mv).parts


def energy_u(u: MultiField, m: Sequence[float]) -> EnergyBreakdown:
    """Energy in the u-parametrization (quadratic part via the inverse matrix)."""
    n = u.n_components
    mv = _check_couplings(m, n)
    inv = cartan_su_inverse(n)
    pair = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            pair[i, j] = pair[j, i] = dirichlet_pairing(u.components[i], u.components[j])
    quadratic = 0.5 * float(np.sum(inv * pair))
    linear = float(sum(mv[i] * integral(u.components[i]) for i in range(n)))
    entropy = -float(mv @ _log_integral_exp(u.stack()))
    return EnergyBreakdown(quadratic, linear, entropy)


def energy_gradient(v: MultiField, m: Sequence[float]) -> MultiField:
    """L2 gradient of the energy in v; each component has zero mean."""
    mv = _check_couplings(m, v.n_components)
    ev = evaluate(v.stack(), mv)
    grads, _ = raw_gradient(ev.rho, ev.neglap, mv)
    return MultiField.from_array(v.spec, grads)


def precondition_gradient(g: MultiField) -> MultiField:
    """Smoothing preconditioner: inverse matrix, then inverse Laplacian.

    The zero-mean part of each component passes through the inverse
    Laplacian; the mean passes through unchanged so the operator stays
    invertible on constants.
    """
    mixed = _mix(cartan_su_inverse(g.n_components), g.stack())
    means = mixed.mean(axis=(1, 2), keepdims=True)
    return MultiField.from_array(g.spec, _inverse_neg_laplacian(mixed) + means)


def normalize_components(u: MultiField) -> MultiField:
    """Shift each component so int(exp(u_i)) = 1."""
    stacked = u.stack()
    shifts = _log_integral_exp(stacked)[:, None, None]
    return MultiField.from_array(u.spec, stacked - shifts)


def _require_normalized(stacked: np.ndarray) -> None:
    """Reject a stack unless every int(exp(u_i)) is 1 to within 1e-8 in log."""
    if np.any(np.abs(_log_integral_exp(stacked)) > 1e-8):
        raise ValueError("normalize first")


def euler_lagrange_residuals(u: MultiField, m: Sequence[float]) -> np.ndarray:
    """L2 norms of -lap u_i - sum_j a_ij m_j (exp(u_j) - 1), one per component.

    Requires a normalized input (every int(exp(u_j)) equal to 1); a
    vanishing residual vector characterizes critical points of the energy.
    """
    mv = _check_couplings(m, u.n_components)
    stacked = u.stack()
    _require_normalized(stacked)
    sources = mv[:, None, None] * (np.exp(stacked) - 1.0)
    res = _neg_laplacian(stacked) - _mix(cartan_su(u.n_components), sources)
    return np.sqrt(np.sum(res**2, axis=(1, 2)) * u.spec.h**2)
