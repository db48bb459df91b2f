"""Checks for the periodic grid calculus against independent oracles."""

import math

import numpy as np
import pytest

from todalab.grid import (
    GridSpec,
    ScalarField,
    _apply_symbol,
    _derivative_symbols,
    _disk_symbol,
    _inverse_neg_laplacian,
    _log_integral_exp,
    _neglap_symbol,
    dirichlet_pairing,
    disk_mass,
    integral,
    inverse_laplacian,
    laplacian,
    log_integral_exp,
    mean,
    random_smooth_field,
    sample_function,
)

TWO_PI = 2.0 * np.pi


# ----------------------------------------------------------------- oracles


def fd_laplacian(values: np.ndarray, h: float) -> np.ndarray:
    """Independent 5-point finite-difference Laplacian with periodic wrap."""
    return (
        np.roll(values, 1, axis=0)
        + np.roll(values, -1, axis=0)
        + np.roll(values, 1, axis=1)
        + np.roll(values, -1, axis=1)
        - 4.0 * values
    ) / h**2


def kahan_sum(values: np.ndarray) -> float:
    """Compensated summation, an order-independent reference for integrals."""
    total = 0.0
    comp = 0.0
    for v in values.ravel():
        y = float(v) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def mp_log_integral_exp(values: np.ndarray, h: float) -> float:
    """Extended-precision reference via mpmath."""
    import mpmath

    mpmath.mp.dps = 50
    acc = mpmath.mpf(0)
    for v in values.ravel():
        acc += mpmath.e ** mpmath.mpf(float(v))
    return float(mpmath.log(acc * mpmath.mpf(h) ** 2))


# ------------------------------------------------------------------- spec


def test_grid_spec_validation():
    GridSpec(8)
    GridSpec(64)
    GridSpec(2048)
    for bad in (0, 4, 7, 12, 63, 100, 4096, 2**20):
        with pytest.raises(ValueError, match="power of two"):
            GridSpec(bad)


def test_field_shape_must_match_grid():
    with pytest.raises(ValueError, match=r"field shape \(8, 16\) does not match grid"):
        ScalarField(GridSpec(8), np.zeros((8, 16)))


def test_non_finite_field_rejected():
    spec = GridSpec(8)
    bad = np.zeros(spec.shape)
    bad[3, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite field"):
        ScalarField(spec, bad)
    bad[3, 3] = np.inf
    with pytest.raises(ValueError, match="non-finite field"):
        ScalarField(spec, bad)


def test_fields_are_immutable():
    spec = GridSpec(8)
    f = ScalarField(spec, np.ones(spec.shape))
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0


# -------------------------------------------------------------- integrals


def test_integral_constant_and_modes():
    spec = GridSpec(32)
    assert integral(ScalarField(spec, np.full(spec.shape, 3.0))) == pytest.approx(3.0)
    f = sample_function(spec, lambda x, y: np.sin(TWO_PI * x))
    assert abs(integral(f)) < 1e-14
    assert mean(f) == pytest.approx(integral(f), abs=1e-15)


def test_integral_matches_kahan_oracle():
    spec = GridSpec(32)
    rng = np.random.default_rng(7)
    f = ScalarField(spec, rng.standard_normal(spec.shape))
    expected = kahan_sum(f.values) * spec.h**2
    assert integral(f) == pytest.approx(expected, rel=1e-12)


# -------------------------------------------------------------- laplacian


def test_laplacian_of_constant_is_zero():
    spec = GridSpec(16)
    f = ScalarField(spec, np.full(spec.shape, 5.0))
    assert np.max(np.abs(laplacian(f).values)) < 1e-12


def test_laplacian_eigenfunction():
    spec = GridSpec(64)
    f = sample_function(spec, lambda x, y: np.sin(TWO_PI * x))
    expected = -4.0 * np.pi**2 * f.values
    assert np.max(np.abs(laplacian(f).values - expected)) < 1e-10


def test_laplacian_matches_finite_differences_at_second_order():
    rng = np.random.default_rng(11)
    errs = {}
    for n in (64, 128):
        spec = GridSpec(n)
        f = random_smooth_field(spec, np.random.default_rng(5), k_max=3, amplitude=1.0)
        err = np.max(np.abs(laplacian(f).values - fd_laplacian(f.values, spec.h)))
        errs[n] = err
    # spectral and 5-point stencils differ by the stencil's O(h^2) truncation,
    # bounded by (h^2 / 12) * (2 pi k_max)^4 * max|f| ~ 2.6 at n = 64
    assert errs[64] < 2.6 * 1.5
    assert errs[128] < errs[64] / 3.0
    del rng


# ---------------------------------------------------------------- pairing


def test_dirichlet_pairing_closed_forms():
    spec = GridSpec(64)
    const = ScalarField(spec, np.ones(spec.shape))
    f = sample_function(spec, lambda x, y: np.sin(TWO_PI * x))
    assert dirichlet_pairing(const, const) == pytest.approx(0.0, abs=1e-14)
    # int |grad sin(2 pi x)|^2 = 4 pi^2 * 1/2
    assert dirichlet_pairing(f, f) == pytest.approx(2.0 * np.pi**2, rel=1e-12)
    g = sample_function(spec, lambda x, y: np.cos(TWO_PI * y))
    assert dirichlet_pairing(f, g) == pytest.approx(0.0, abs=1e-12)


def test_dirichlet_pairing_is_adjoint_to_laplacian():
    spec = GridSpec(32)
    f = random_smooth_field(spec, np.random.default_rng(3), k_max=6, amplitude=1.0)
    g = random_smooth_field(spec, np.random.default_rng(4), k_max=6, amplitude=1.0)
    lhs = dirichlet_pairing(f, g)
    rhs = integral(ScalarField(spec, f.values * -laplacian(g).values))
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)
    assert dirichlet_pairing(f, f) >= 0.0


def test_dirichlet_pairing_grid_mismatch():
    f = ScalarField(GridSpec(8), np.zeros((8, 8)))
    g = ScalarField(GridSpec(16), np.zeros((16, 16)))
    with pytest.raises(ValueError, match="grid mismatch"):
        dirichlet_pairing(f, g)


# ------------------------------------------------------------- logsumexp


def test_log_integral_exp_constant():
    spec = GridSpec(16)
    f = ScalarField(spec, np.full(spec.shape, 2.5))
    assert log_integral_exp(f) == pytest.approx(2.5, abs=1e-14)


def test_log_integral_exp_large_values_no_overflow():
    spec = GridSpec(16)
    vals = np.zeros(spec.shape)
    vals[0, 0] = 1000.0
    f = ScalarField(spec, vals)
    got = log_integral_exp(f)
    assert np.isfinite(got)
    expected = mp_log_integral_exp(vals, spec.h)
    assert got == pytest.approx(expected, rel=1e-12)


def test_log_integral_exp_shift_identity():
    spec = GridSpec(16)
    f = random_smooth_field(spec, np.random.default_rng(9), k_max=4, amplitude=2.0)
    shifted = ScalarField(spec, f.values + 7.0)
    assert log_integral_exp(shifted) == pytest.approx(log_integral_exp(f) + 7.0, abs=1e-12)


def test_log_integral_exp_matches_mpmath_oracle():
    spec = GridSpec(16)
    f = random_smooth_field(spec, np.random.default_rng(10), k_max=4, amplitude=3.0)
    assert log_integral_exp(f) == pytest.approx(
        mp_log_integral_exp(f.values, spec.h), rel=1e-12
    )


# ------------------------------------------------------- inverse laplacian


def test_inverse_laplacian_roundtrip():
    spec = GridSpec(64)
    f = random_smooth_field(spec, np.random.default_rng(12), k_max=8, amplitude=1.0)
    src = ScalarField(spec, -laplacian(f).values)
    back = inverse_laplacian(src)
    assert np.max(np.abs(back.values - f.values)) < 1e-10


def test_inverse_laplacian_eigenfunction():
    spec = GridSpec(64)
    src = sample_function(spec, lambda x, y: np.sin(TWO_PI * y))
    got = inverse_laplacian(src)
    expected = src.values / (4.0 * np.pi**2)
    assert np.max(np.abs(got.values - expected)) < 1e-12


def test_inverse_laplacian_rejects_nonzero_mean():
    spec = GridSpec(16)
    f = ScalarField(spec, np.ones(spec.shape))
    with pytest.raises(ValueError, match="incompatible source"):
        inverse_laplacian(f)


# --------------------------------------------------------------- disk mass


def test_disk_mass_constant_density():
    spec = GridSpec(64)
    rho = ScalarField(spec, np.ones(spec.shape))
    r = 0.25
    got = disk_mass(rho, (0.5, 0.5), r)
    # cell-boundary layer of width ~h around the circle
    assert abs(got - math.pi * r**2) <= 2.0 * math.pi * r * spec.h * 1.5


def test_disk_mass_point_mass():
    spec = GridSpec(32)
    vals = np.zeros(spec.shape)
    vals[4, 7] = spec.n**2  # total mass one
    rho = ScalarField(spec, vals)
    center = (4 / spec.n, 7 / spec.n)
    assert disk_mass(rho, center, spec.h) == pytest.approx(1.0, rel=1e-12)
    assert disk_mass(rho, center, 0.3) == pytest.approx(1.0, rel=1e-12)


def test_disk_mass_periodic_wrap():
    spec = GridSpec(32)
    vals = np.zeros(spec.shape)
    vals[0, 0] = spec.n**2
    rho = ScalarField(spec, vals)
    # center across the seam still sees the spike
    assert disk_mass(rho, (0.99, 0.99), 0.05) == pytest.approx(1.0, rel=1e-12)


def test_disk_mass_refinement_converges():
    def bump(x, y):
        d2 = (x - 0.5) ** 2 + (y - 0.5) ** 2
        return np.exp(-60.0 * d2)

    masses = {}
    for n in (64, 128, 256):
        spec = GridSpec(n)
        masses[n] = disk_mass(sample_function(spec, bump), (0.5, 0.5), 0.2)
    assert abs(masses[128] - masses[256]) < abs(masses[64] - masses[256]) + 1e-12
    assert abs(masses[256] - masses[128]) < 2e-3


def test_disk_mass_rejects_bad_radius():
    rho = ScalarField(GridSpec(16), np.ones((16, 16)))
    for radius in (0.0, 0.6, np.nan):
        with pytest.raises(ValueError, match="radius"):
            disk_mass(rho, (0.0, 0.0), radius)


def test_disk_mass_rejects_negative_density():
    spec = GridSpec(16)
    rho = ScalarField(spec, -np.ones(spec.shape))
    with pytest.raises(ValueError, match="nonnegative"):
        disk_mass(rho, (0.0, 0.0), 0.1)


# ------------------------------------------------- kernels writing into out

GRID_SIZES = (8, 16, 32, 64, 128, 256)


def half_spectrum(shape):
    return np.empty(shape[:-1] + (shape[-1] // 2 + 1,), dtype=complex)


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("n", GRID_SIZES)
def test_apply_symbol_into_out_matches_the_allocating_form(rank, n):
    # the descent's workspace goes through out and spectrum; every other
    # caller allocates, and both must give the bytes of the textbook
    # irfft2(symbol * rfft2(values)), which numpy cannot write into out
    values = np.random.default_rng(n + rank).standard_normal((rank, n, n))
    symbols = (_neglap_symbol(n), _disk_symbol(n, 0.05), _derivative_symbols(n)[0])
    for symbol in symbols:
        textbook = np.fft.irfft2(
            symbol * np.fft.rfft2(values, axes=(-2, -1)), s=(n, n), axes=(-2, -1)
        )
        out, spectrum = np.empty_like(values), half_spectrum(values.shape)
        assert _apply_symbol(values, symbol, out, spectrum) is out
        assert np.array_equal(out, textbook)
        assert np.array_equal(_apply_symbol(values, symbol), textbook)
    out, spectrum = np.empty_like(values), half_spectrum(values.shape)
    assert _inverse_neg_laplacian(values, out, spectrum) is out
    assert np.array_equal(out, _inverse_neg_laplacian(values))


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("n", GRID_SIZES)
def test_log_integral_exp_into_out_matches_the_allocating_form(rank, n):
    values = 3.0 * np.random.default_rng(n + rank).standard_normal((rank, n, n))
    want = _log_integral_exp(values)
    assert np.array_equal(_log_integral_exp(values, np.empty_like(values)), want)
    # the descent passes the values' own buffer
    assert np.array_equal(_log_integral_exp(values, values), want)
