"""Spectral calculus on the unit-area periodic grid.

All fields live on an n x n sampling of the flat torus [0,1)^2 with
n a power of two, so integrals carry the cell weight h^2 = 1/n^2 and
differential operators act diagonally in Fourier space with integer
wavenumbers.  Fields are immutable value objects; every operation
returns a new field and validates finiteness on construction.

One spectral core serves the whole package: cached per-n symbols on the
rfft2 half spectrum (-lap, its inverse on zero-mean fields, and the two
partial derivatives) and stack-aware helpers that apply them to any
(..., n, n) array over its last two axes.  The energy and its gradient,
the preconditioner, the descent, the stationarity residuals and the
disk-balance derivatives are all built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

__all__ = [
    "GridSpec",
    "ScalarField",
    "sample_function",
    "random_smooth_field",
    "integral",
    "mean",
    "laplacian",
    "dirichlet_pairing",
    "log_integral_exp",
    "inverse_laplacian",
    "disk_mass",
]


def _validate_n(n: int) -> None:
    # the cap keeps a rank-2 descent (about 10 field stacks) near 0.7 GB
    if not isinstance(n, (int, np.integer)) or not 8 <= n <= 2048 or (n & (n - 1)) != 0:
        raise ValueError("n must be a power of two from 8 to 2048")


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the periodic grid; h = 1/n is the cell width."""

    n: int

    def __post_init__(self):
        _validate_n(self.n)

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Sample coordinates (x, y) as 1-D arrays of length n."""
        xs = np.arange(self.n) / self.n
        return xs, xs.copy()


# ---------------------------------------------------------------------------
# the spectral core: cached symbols and the stacked transform pair


def _read_only(arr: np.ndarray) -> np.ndarray:
    # cached symbols are shared by every caller, so none may write to them
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def _neglap_symbol(n: int) -> np.ndarray:
    """4 pi^2 |k|^2 on the rfft2 half spectrum, the symbol of -lap."""
    kx = np.fft.fftfreq(n, d=1.0 / n)
    ky = np.fft.rfftfreq(n, d=1.0 / n)
    return _read_only(4.0 * np.pi**2 * (kx[:, None] ** 2 + ky[None, :] ** 2))


@lru_cache(maxsize=None)
def _inverse_symbol(n: int) -> np.ndarray:
    """Reciprocal of the -lap symbol with the zero mode dropped."""
    symbol = _neglap_symbol(n)
    inv = np.zeros_like(symbol)
    inv[symbol > 0] = 1.0 / symbol[symbol > 0]
    return _read_only(inv)


@lru_cache(maxsize=None)
def _derivative_symbols(n: int) -> tuple[np.ndarray, np.ndarray]:
    """2 pi i k_x and 2 pi i k_y, the symbols of d/dx and d/dy."""
    kx = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    ky = np.fft.rfftfreq(n, d=1.0 / n)[None, :]
    return _read_only(2j * np.pi * kx), _read_only(2j * np.pi * ky)


def _apply_symbol(
    values: np.ndarray,
    symbol: np.ndarray,
    out: np.ndarray | None = None,
    spectrum: np.ndarray | None = None,
) -> np.ndarray:
    """irfft2(symbol * rfft2(values)) over the last two axes of a stack.

    out and spectrum, when given, receive the result and the rfft2 half
    spectrum, so a caller that owns both allocates nothing here.
    """
    hat = np.fft.rfft2(values, axes=(-2, -1), out=spectrum)
    np.multiply(symbol, hat, out=hat)
    return _inverse_transform(hat, values.shape[-1], out)


def _inverse_transform(
    hat: np.ndarray, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """irfft2 of an rfft2 half spectrum over its last two axes, into out.

    It runs as irfft2 does, an ifft over axis -2 and an irfft over axis
    -1, but the ifft overwrites hat: numpy's irfft2 ignores its out
    argument.
    """
    np.fft.ifft(hat, axis=-2, out=hat)
    return np.fft.irfft(hat, n=n, axis=-1, out=out)


def _centered(values: np.ndarray) -> np.ndarray:
    """Each (n, n) slice minus its mean."""
    return values - values.mean(axis=(-2, -1), keepdims=True)


def _neg_laplacian(values: np.ndarray) -> np.ndarray:
    """-lap of each (n, n) slice, eigenvalue 4 pi^2 |k|^2 on mode k.

    The mean is removed before transforming: the operator kills constants
    exactly, and keeping the large zero mode out of the transform stops
    its rounding noise from leaking into the high-wavenumber eigenvalues.
    """
    return _apply_symbol(_centered(values), _neglap_symbol(values.shape[-1]))


def _inverse_neg_laplacian(
    values: np.ndarray,
    out: np.ndarray | None = None,
    spectrum: np.ndarray | None = None,
) -> np.ndarray:
    """Zero-mean solution of -lap g = f for each slice; the mean of f is dropped.

    out and spectrum are as for _apply_symbol.
    """
    return _apply_symbol(values, _inverse_symbol(values.shape[-1]), out, spectrum)


def _log_integral_exp(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log of the integral of exp, per slice, max-shifted so it never overflows.

    out, if given (values itself may serve), receives the shifted
    exponentials, so no array of the stack's size is allocated.
    """
    n = values.shape[-1]
    peak = values.max(axis=(-2, -1))
    shifted = np.subtract(values, peak[..., None, None], out=out)
    sums = np.exp(shifted, out=shifted).sum(axis=(-2, -1))
    return np.log(sums * (1.0 / n) ** 2) + peak


@dataclass(frozen=True)
class ScalarField:
    """Real field sampled on a GridSpec; values are read-only float64."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.shape != self.spec.shape:
            raise ValueError(
                f"field shape {arr.shape} does not match grid {self.spec.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite field")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


def sample_function(spec: GridSpec, fn) -> ScalarField:
    """Sample fn(x, y) at the grid points (vectorized over meshgrid arrays)."""
    xs, ys = spec.coords()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return ScalarField(spec, fn(gx, gy))


def random_smooth_field(
    spec: GridSpec, rng, k_max: int = 4, amplitude: float = 0.5
) -> ScalarField:
    """One random smooth function on the band |k1| <= k_max, 0 <= k2 <= k_max.

    The band's coefficients c_k, k != 0, are complex standard normals
    drawn in a fixed order (k1 outer, k2 inner), each from two
    rng.random() calls by the Box-Muller transform; rng is anything with
    a random() method returning floats in [0, 1), such as random.Random
    or a numpy Generator.  Each c_k is added at the rfft2 half-spectrum
    slot (k1 mod n, k2), so modes that alias when n <= 2 k_max fold
    together, and one inverse transform gives the samples.  A seed thus
    names one smooth function, the same at every n > 2 k_max up to the
    scale: the result has zero mean and is rescaled so its max absolute
    value on the grid equals `amplitude`, which keeps test fields well
    resolved.  k_max must be an integer from 1 to n/2, and amplitude
    positive and finite.
    """
    n = spec.n
    # bool subclasses int; the band's k2 must fit the n/2 + 1 columns
    if isinstance(k_max, bool) or not isinstance(k_max, Integral):
        raise ValueError("k_max must be an integer")
    if not 1 <= k_max <= n // 2:
        raise ValueError("k_max must lie from 1 to n/2")
    # written so that NaN fails too
    if isinstance(amplitude, bool) or not isinstance(amplitude, Real):
        raise ValueError("amplitude must be a number")
    if not 0 < amplitude < math.inf:
        raise ValueError("amplitude must be positive and finite")
    hat = np.zeros((n, n // 2 + 1), dtype=complex)
    for k1 in range(-k_max, k_max + 1):
        for k2 in range(k_max + 1):
            if k1 or k2:
                radius = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
                angle = 2.0 * math.pi * rng.random()
                hat[k1 % n, k2] += complex(radius * math.cos(angle), radius * math.sin(angle))
    vals = _inverse_transform(hat, n)
    peak = np.max(np.abs(vals))
    if peak > 0:
        vals *= amplitude / peak
    return ScalarField(spec, vals)


def _require_same_grid(f: ScalarField, g: ScalarField) -> None:
    if f.spec != g.spec:
        raise ValueError("grid mismatch")


def integral(f: ScalarField) -> float:
    """Integral over the torus, h^2 times the sample sum."""
    return float(np.sum(f.values)) * f.spec.h**2


def mean(f: ScalarField) -> float:
    """Mean value; equals the integral since the torus has unit area."""
    return float(np.mean(f.values))


def laplacian(f: ScalarField) -> ScalarField:
    """Periodic Laplacian, eigenvalue -4 pi^2 |k|^2 on mode k."""
    return ScalarField(f.spec, -_neg_laplacian(f.values))


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


def inverse_laplacian(f: ScalarField) -> ScalarField:
    """Zero-mean solution g of -lap(g) = f; the source must have zero mean."""
    if abs(mean(f)) >= 1e-10:
        raise ValueError("incompatible source")
    return ScalarField(f.spec, _inverse_neg_laplacian(f.values))


def _periodic_dist_sq(spec: GridSpec, center: tuple[float, float]) -> np.ndarray:
    xs, ys = spec.coords()
    dx = np.abs(xs - center[0] % 1.0)
    dx = np.minimum(dx, 1.0 - dx)
    dy = np.abs(ys - center[1] % 1.0)
    dy = np.minimum(dy, 1.0 - dy)
    return dx[:, None] ** 2 + dy[None, :] ** 2


def _disk_mask(spec: GridSpec, center: tuple[float, float], radius: float) -> np.ndarray:
    """The cells of a periodic disk; its radius must lie in (0, 0.5], NaN rejected."""
    if not 0 < radius <= 0.5:
        raise ValueError("radius must lie in (0, 0.5]")
    return _periodic_dist_sq(spec, center) <= radius * radius


@lru_cache(maxsize=None)
def _disk_symbol(n: int, radius: float) -> np.ndarray:
    """Spectrum of the disk mask at cell (0, 0) times the cell area 1/n^2 (an
    exact power of two); real, as the mask is even under o -> -o.  Through
    _apply_symbol it gives the disk mass around every cell."""
    mask = _disk_mask(GridSpec(n), (0.0, 0.0), radius)
    return _read_only(np.fft.rfft2(mask).real / n**2)


def disk_mass(rho: ScalarField, center: tuple[float, float], radius: float) -> float:
    """Mass of a nonnegative density inside a periodic disk (masked cell sum)."""
    mask = _disk_mask(rho.spec, center, radius)
    if np.min(rho.values) < 0:
        raise ValueError("density must be nonnegative")
    return float(np.sum(rho.values[mask])) * rho.spec.h**2
