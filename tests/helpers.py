"""Shared test helpers and the in-repo oracles.

The oracles are second formulas for objects the package computes one
way only: `energy_u`, the energy in the u-parametrization (quadratic
part via the inverse matrix), beside the kernel `functional.evaluate`
the descent runs; `disk_mass`, a masked cell sum, beside the detector's
FFT correlation; and the Dirichlet pairing, the integral and the
log-integral of exp on single fields that they are built from.
"""

from typing import Sequence

import numpy as np

from todalab.cartan import _check_couplings, cartan_su, cartan_su_inverse
from todalab.functional import EnergyBreakdown, MultiField, _mix
from todalab.grid import (
    GridSpec,
    ScalarField,
    _centered,
    _disk_mask,
    _log_integral_exp,
    _neg_laplacian,
    random_smooth_field,
)


def random_pair(spec, seed, amplitude=0.5):
    """Two smooth random fields on the band k_max = 4, drawn from one numpy seed."""
    rng = np.random.default_rng(seed)
    return MultiField(
        (
            random_smooth_field(spec, rng, k_max=4, amplitude=amplitude),
            random_smooth_field(spec, rng, k_max=4, amplitude=amplitude),
        )
    )


def sample_function(spec: GridSpec, fn) -> ScalarField:
    """Sample fn(x, y) at the grid points (vectorized over meshgrid arrays)."""
    xs, ys = spec.coords()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return ScalarField(spec, fn(gx, gy))


def _require_same_grid(f: ScalarField, g: ScalarField) -> None:
    if f.spec != g.spec:
        raise ValueError("grid mismatch")


def integral(f: ScalarField) -> float:
    """Integral over the torus, h^2 times the sample sum."""
    return float(np.sum(f.values)) * f.spec.h**2


def dirichlet_pairing(f: ScalarField, g: ScalarField) -> float:
    """Energy pairing of gradients, int grad f . grad g = h^2 sum (f - mean f)(-lap g).

    The mean drops out of the pairing; removing it from f as well keeps
    a large constant from polluting the sum with roundoff.
    """
    _require_same_grid(f, g)
    cross = _centered(f.values) * _neg_laplacian(g.values)
    return float(np.sum(cross)) * f.spec.h**2


def log_integral_exp(f: ScalarField) -> float:
    """log of the integral of exp(f), max-shifted so it never overflows."""
    return float(_log_integral_exp(f.values))


def disk_mass(rho: ScalarField, center: tuple[float, float], radius: float) -> float:
    """Mass of a nonnegative density inside a periodic disk (masked cell sum)."""
    mask = _disk_mask(rho.spec, center, radius)
    if np.min(rho.values) < 0:
        raise ValueError("density must be nonnegative")
    return float(np.sum(rho.values[mask])) * rho.spec.h**2


def u_from_v(v: MultiField) -> MultiField:
    """Apply the coupling matrix componentwise: u_i = sum_j a_ij v_j."""
    return MultiField.from_array(v.spec, _mix(cartan_su(v.n_components), v.stack()))


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


def normalize_components(u: MultiField) -> MultiField:
    """Shift each component so int(exp(u_i)) = 1."""
    stacked = u.stack()
    shifts = _log_integral_exp(stacked)[:, None, None]
    return MultiField.from_array(u.spec, stacked - shifts)
