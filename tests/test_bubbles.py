"""Concentrating-profile quantities against closed-form antiderivatives."""

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from todalab.bubbles import (
    MAX_SCALE,
    BubbleParams,
    QUANTITY_KEYS,
    asymptotic_slope_table,
    bubble_quantities,
    fit_slopes,
    standard_bubble,
)
from todalab.cartan import NumericalError
from todalab.closed_form import radial_profile
from todalab.functional import energy_u
from todalab.grid import GridSpec


# Closed-form values of the tracked quantities, worked out by hand from
# the antiderivatives of the radial integrands.  With a = scale^2 pi and
# d = flat_radius:
#   (u1')^2 2 pi r  integrates to  16 pi [log(1+a d^2) + 1/(1+a d^2) - 1]
#   u1 2 pi r       integrates to  2 log(scale) pi d^2
#                                  - (2 pi / a)[(1+a d^2) log(1+a d^2) - a d^2]
#   e^{u1} 2 pi r   integrates to  a d^2 / (1 + a d^2)
#   e^{u2} 2 pi r   integrates to  (pi / scale)(d^2 + a d^4 / 2)
# plus, for the last three, the constant outside value times 1 - pi d^2.


def exact_grad1_sq(scale, d):
    a = scale**2 * np.pi
    s = a * d**2
    return 16.0 * np.pi * (np.log1p(s) + 1.0 / (1.0 + s) - 1.0)


def exact_int_u1(scale, d):
    a = scale**2 * np.pi
    s = a * d**2
    inside = 2.0 * np.log(scale) * np.pi * d**2
    inside -= (2.0 * np.pi / a) * ((1.0 + s) * np.log1p(s) - s)
    edge = 2.0 * np.log(scale) - 2.0 * np.log1p(s)
    return inside + edge * (1.0 - np.pi * d**2)


def exact_mass_u1(scale, d):
    a = scale**2 * np.pi
    s = a * d**2
    return s / (1.0 + s) + scale**2 / (1.0 + s) ** 2 * (1.0 - np.pi * d**2)


def exact_mass_u2(scale, d):
    a = scale**2 * np.pi
    s = a * d**2
    inside = (np.pi / scale) * (d**2 + a * d**4 / 2.0)
    return inside + (1.0 + s) / scale * (1.0 - np.pi * d**2)


def exact_quantities(scale, m, d=0.25):
    g11 = exact_grad1_sq(scale, d)
    i1 = exact_int_u1(scale, d)
    lm1 = np.log(exact_mass_u1(scale, d))
    lm2 = np.log(exact_mass_u2(scale, d))
    # quadratic part collapses to g11 / 4 for the (u1, -u1/2) pair
    energy = g11 / 4.0 + m[0] * i1 - 0.5 * m[1] * i1 - m[0] * lm1 - m[1] * lm2
    return {
        "grad1_sq": g11,
        "grad2_sq": g11 / 4.0,
        "grad_cross": -g11 / 2.0,
        "int_u1": i1,
        "int_u2": -0.5 * i1,
        "log_mass_u1": lm1,
        "log_mass_u2": lm2,
        "energy": energy,
    }


def _split_quad(fn, upper, core):
    """Adaptive quadrature on [0, upper] split at the core width."""
    cut = min(core, upper)
    pieces = [quad(fn, 0.0, cut, epsabs=1e-13, epsrel=1e-12, limit=200)]
    if cut < upper:
        pieces.append(quad(fn, cut, upper, epsabs=1e-13, epsrel=1e-12, limit=200))
    return float(sum(val for val, _ in pieces))


def quadrature_quantities(scale, m, d=0.25):
    """The tracked quantities by radial quadrature of the profile.

    Independent of the closed forms: it integrates the profile
    u1 = 2 log(scale) - 2 log(1 + a r^2) and its derivative over the
    truncation disk and adds the flat outside part.
    """
    a = scale**2 * np.pi

    def u1(r):
        return 2.0 * np.log(scale) - 2.0 * np.log1p(a * np.minimum(r, d) ** 2)

    def du1(r):
        return -4.0 * a * r / (1.0 + a * r**2) if r < d else 0.0

    core = 1.0 / (scale * np.sqrt(np.pi))
    outer_area = 1.0 - np.pi * d**2
    u1_edge = float(u1(np.array(d)))

    def ring(f):
        return lambda r: f(r) * 2.0 * np.pi * r

    g11 = _split_quad(ring(lambda r: du1(r) ** 2), d, core)
    g22 = _split_quad(ring(lambda r: (0.5 * du1(r)) ** 2), d, core)
    g12 = _split_quad(ring(lambda r: -0.5 * du1(r) ** 2), d, core)
    i1 = _split_quad(ring(lambda r: u1(np.array(r))), d, core) + u1_edge * outer_area
    mass1 = _split_quad(ring(lambda r: np.exp(u1(np.array(r)))), d, core)
    mass1 += np.exp(u1_edge) * outer_area
    mass2 = _split_quad(ring(lambda r: np.exp(-0.5 * u1(np.array(r)))), d, core)
    mass2 += np.exp(-0.5 * u1_edge) * outer_area
    # u-form quadratic part (1/2) sum_ij Kinv_ij g_ij, Kinv = [[2, 1], [1, 2]] / 3
    quadratic = (g11 + g12 + g22) / 3.0
    lm1, lm2 = np.log(mass1), np.log(mass2)
    return {
        "grad1_sq": g11,
        "grad2_sq": g22,
        "grad_cross": g12,
        "int_u1": i1,
        "int_u2": -0.5 * i1,
        "log_mass_u1": lm1,
        "log_mass_u2": lm2,
        "energy": quadratic + m[0] * i1 - 0.5 * m[1] * i1 - m[0] * lm1 - m[1] * lm2,
    }


def test_params_validation():
    with pytest.raises(ValueError):
        BubbleParams(scale=-1.0)
    with pytest.raises(ValueError):
        BubbleParams(scale=1.0)
    with pytest.raises(ValueError):
        BubbleParams(scale=4.0, flat_radius=0.7)
    with pytest.raises(ValueError):
        BubbleParams(scale=np.inf)
    # the scale rule of the quantities: 1.5 is below it, and past
    # MAX_SCALE sampling would overflow scale^2
    for scale in (1.5, 1e200):
        with pytest.raises(ValueError, match="scale must be"):
            BubbleParams(scale=scale)


def test_sampled_profile_values():
    spec = GridSpec(64)
    params = BubbleParams(scale=4.0)
    u = standard_bubble(params, spec)
    vals = u.components[0].values
    center_idx = 32  # x = 0.5 exactly on this grid
    assert vals[center_idx, center_idx] == pytest.approx(2.0 * np.log(4.0))
    # far corner sits beyond the truncation radius, so the profile is flat
    a = 16.0 * np.pi
    edge = 2.0 * np.log(4.0) - 2.0 * np.log1p(a * 0.25**2)
    assert vals[0, 0] == pytest.approx(edge)
    np.testing.assert_allclose(
        u.components[1].values, -0.5 * vals, rtol=0, atol=1e-15
    )


def test_resolution_guard():
    spec = GridSpec(16)
    params = BubbleParams(scale=64.0)
    with pytest.raises(ValueError, match="too coarse"):
        standard_bubble(params, spec)
    u = standard_bubble(params, spec, allow_unresolved=True)
    assert np.isfinite(u.components[0].values).all()


def test_quantities_match_closed_forms():
    m = (3.0 * np.pi, 2.0 * np.pi)
    for scale in (3.0, 10.0, 40.0):
        got = bubble_quantities(scale, m)
        want = exact_quantities(scale, m)
        for key in QUANTITY_KEYS:
            assert got[key] == pytest.approx(want[key], rel=1e-9), key


def test_quantities_other_truncation_radius():
    m = (np.pi, np.pi)
    got = bubble_quantities(12.0, m, flat_radius=0.1)
    want = exact_quantities(12.0, m, d=0.1)
    for key in QUANTITY_KEYS:
        assert got[key] == pytest.approx(want[key], rel=1e-9), key


@given(scale=st.floats(2.0, 1e3), flat_radius=st.floats(0.01, 0.5))
def test_closed_forms_match_quadrature(scale, flat_radius):
    m = (3.0 * np.pi, 2.0 * np.pi)
    got = bubble_quantities(scale, m, flat_radius=flat_radius)
    want = quadrature_quantities(scale, m, d=flat_radius)
    # log_mass_u1 passes through zero (at scale 4.75 for flat_radius
    # 0.39) and tends to zero with scale, where the log of a mass near 1
    # keeps only ~1e-16 absolute accuracy on either side
    for key in QUANTITY_KEYS:
        assert got[key] == pytest.approx(want[key], rel=1e-9, abs=1e-15), key


def test_quantities_validate_couplings():
    with pytest.raises(ValueError):
        bubble_quantities(4.0, (np.pi,))
    with pytest.raises(ValueError):
        bubble_quantities(4.0, (np.pi, -1.0))


def test_grid_energy_agrees_with_quadrature():
    m = (3.0 * np.pi, 3.0 * np.pi)
    spec = GridSpec(256)
    params = BubbleParams(scale=8.0)
    u = standard_bubble(params, spec)
    grid_energy = energy_u(u, m).total
    quad_energy = bubble_quantities(8.0, m)["energy"]
    assert grid_energy == pytest.approx(quad_energy, rel=1e-2, abs=0.05)


def test_fitted_slopes_match_asymptotic_table():
    m = (3.0 * np.pi, np.pi)
    scales = [np.e**2, np.e**3, np.e**4, np.e**5]
    report = fit_slopes(scales, m)
    table = asymptotic_slope_table(m)
    for key, expected in table.items():
        got = report[key].slope
        if expected == 0.0:
            assert abs(got) < 0.05, key
        else:
            assert got == pytest.approx(expected, rel=0.02), key


def test_fit_keeps_all_scales_when_already_asymptotic():
    m = (3.0 * np.pi, np.pi)
    scales = [np.e**4, np.e**5, np.e**6, np.e**7]
    report = fit_slopes(scales, m)
    assert report["energy"].slope == pytest.approx(2.0 * np.pi, rel=0.02)


def test_energy_slope_at_the_asymptote_near_threshold():
    # at the default scales the fit reads the slope 2(4pi - m1) = 0.02 pi
    # to within 1e-6 even this close to the threshold
    from todalab.cli import SUITE_SCALES

    scales = [np.e**7, np.e**8, np.e**9, np.e**10]
    assert SUITE_SCALES == tuple(scales)
    report = fit_slopes(scales, (3.99 * np.pi, 3.0 * np.pi))
    assert report["energy"].slope == pytest.approx(0.02 * np.pi, rel=1e-6)


def _numpy_fit(scales, m):
    """The fits as np.linalg.lstsq gives them on the four columns, per quantity."""
    logs = np.log(scales)
    decay = np.asarray(scales, dtype=float) ** -2.0
    basis = np.column_stack([logs, np.ones_like(logs), decay, decay * logs])
    fits = {}
    for key in QUANTITY_KEYS:
        vals = np.array([bubble_quantities(s, m)[key] for s in scales])
        coef, *_ = np.linalg.lstsq(basis, vals, rcond=None)
        fits[key] = (coef[0], coef[1], np.max(np.abs(vals - basis @ coef)))
    return fits


@pytest.mark.parametrize(
    "scales",
    [
        [np.e**k for k in (2, 3, 4, 5)],
        [np.e**k for k in (4, 5, 6, 7)],
        [np.e**k for k in (7, 8, 9, 10)],
        [np.e**k for k in (2, 3, 4, 5, 6, 7)],
    ],
)
def test_fits_match_numpy_least_squares(scales):
    # the pure-Python fits against numpy's, with tolerances fixed up front;
    # log_mass_u1's slope tends to zero, hence the absolute floor
    for m1 in np.linspace(2.0, 3.8, 10) * np.pi:
        m = (m1, 3.0 * np.pi)
        report = fit_slopes(scales, m)
        for key, (slope, intercept, residual) in _numpy_fit(scales, m).items():
            fit = report[key]
            assert fit.slope == pytest.approx(slope, rel=1e-12, abs=1e-12), key
            assert fit.intercept == pytest.approx(intercept, rel=1e-12, abs=1e-12), key
            assert abs(fit.max_residual - residual) <= 1e-12, key


def test_energy_slope_flips_sign_at_threshold():
    scales = [np.e**2, np.e**3, np.e**4, np.e**5]
    below = fit_slopes(scales, (3.0 * np.pi, np.pi))["energy"].slope
    above = fit_slopes(scales, (5.0 * np.pi, np.pi))["energy"].slope
    assert below > 0
    assert above < 0


def test_fit_discards_preasymptotic_scale():
    # the pre-asymptotic scale 2 stays in the fit: its scale^-2 columns
    # absorb the transient
    m = (3.0 * np.pi, np.pi)
    scales = [2.0, np.e**2, np.e**3, np.e**4, np.e**5]
    report = fit_slopes(scales, m)
    assert report["grad1_sq"].slope == pytest.approx(32.0 * np.pi, rel=0.02)
    assert report["energy"].slope == pytest.approx(2.0 * np.pi, rel=0.02)


def test_fit_takes_scales_a_millionth_apart():
    # the smallest pivot is 8.8e-11 of its column's norm, well above the
    # 1e-12 rejection line, and the slopes still hold to 1e-3
    m = (3.0 * np.pi, 3.0 * np.pi)
    report = fit_slopes([20.0, 20.00002, 20.00004, 400.0], m)
    expected = asymptotic_slope_table(m)
    for key in ("energy", "grad1_sq"):
        assert report[key].slope == pytest.approx(expected[key], rel=1e-3)


def test_fit_slopes_validation():
    m = (np.pi, np.pi)
    with pytest.raises(ValueError, match="four scales"):
        fit_slopes([4.0, 8.0, 16.0], m)
    # four columns need four distinct scales
    with pytest.raises(ValueError, match="no two equal"):
        fit_slopes([4.0, 4.0, 16.0, 64.0], m)
    with pytest.raises(ValueError, match="factor"):
        fit_slopes([4.0, 5.0, 6.0, 7.0], m)
    with pytest.raises(ValueError, match="scale must be at most 1e\\+150"):
        fit_slopes([4.0, 8.0, 16.0, 1e151], m)
    # distinct, but one ulp apart: the columns are dependent in float64
    close = [10.0, np.nextafter(10.0, 11.0), np.nextafter(np.nextafter(10.0, 11.0), 11.0)]
    with pytest.raises(NumericalError, match="too close together"):
        fit_slopes(close + [1000.0], m)
    # three scales 1e-8 apart: the last pivot is 6.3e-14 of its column's
    # norm, and the fit read the energy slope 37% off before it was rejected
    clustered = [20.0, 20.0000002, 20.0000004, 400.0]
    with pytest.raises(NumericalError, match="too close together"):
        fit_slopes(clustered, (3.0 * np.pi, 3.0 * np.pi))
    # 2(4pi - m1) and the energies overflow
    with pytest.raises(NumericalError, match="overflow at m1 = 1e\\+308 and m2 = 3.14159"):
        fit_slopes([4.0, 8.0, 16.0, 64.0], (1e308, np.pi))


def test_largest_scale_keeps_every_quantity_finite():
    # up to MAX_SCALE no quantity overflows, at any truncation radius
    # (scale^2 itself overflows past about 1.3e154)
    for flat_radius in (1e-300, 1e-100, 0.01, 0.25, 0.5):
        values = bubble_quantities(MAX_SCALE, (3.0 * np.pi, np.pi), flat_radius)
        assert all(np.isfinite(v) for v in values.values()), flat_radius
    report = fit_slopes([1e140, 1e145, 1e148, MAX_SCALE], (3.0 * np.pi, np.pi))
    assert report["energy"].slope == pytest.approx(2.0 * np.pi, rel=1e-9)


# The planar Liouville bubble phi = -2 log(1 + pi r^2) solves
# -lap(phi) = 8 pi e^phi; u = phi + log 4 pi then solves -lap(u) = 2 e^u,
# the rank-1 system, so it is the closed form's rank-1 profile started at
# u(0) = log 4 pi, whose total mass is 4 pi.
LOG_FOUR_PI = np.log(4.0 * np.pi)


def planar_bubble():
    return radial_profile((LOG_FOUR_PI,), r_max=1e4)


def test_liouville_pde_residual_vanishes():
    bubble = planar_bubble()
    # the flux identity -2 pi r u' = 2 alpha at every node, and the
    # profile itself against the formula the sympy test verifies
    assert bubble.flux_max() < 1e-12
    r = np.asarray(bubble.r_nodes)
    exact = LOG_FOUR_PI - 2.0 * np.log1p(np.pi * r * r)
    assert np.max(np.abs(np.asarray(bubble.u[0]) - exact)) < 1e-12


def test_liouville_derivatives_against_sympy():
    rs = sympy.symbols("r", positive=True)
    u = -2 * sympy.log(1 + sympy.pi * rs**2) + sympy.log(4 * sympy.pi)
    du = sympy.lambdify(rs, sympy.diff(u, rs), "numpy")
    bubble = planar_bubble()
    r = np.asarray(bubble.r_nodes[1:])
    np.testing.assert_allclose(np.asarray(bubble.du[0][1:]), du(r), rtol=1e-12)
    lap = sympy.diff(u, rs, 2) + sympy.diff(u, rs) / rs
    defect = sympy.simplify(-lap - 2 * sympy.exp(u))
    assert defect == 0


def test_liouville_mass_is_one():
    bubble = planar_bubble()
    assert bubble.alpha[0][-1] / (4.0 * np.pi) == pytest.approx(1.0, abs=1e-6)
    # truncated mass has the closed form 4 pi (1 - 1/(1 + pi R^2))
    alpha = bubble.state(2.0)[2][0]
    assert alpha / (4.0 * np.pi) == pytest.approx(1.0 - 1.0 / (1.0 + 4.0 * np.pi), rel=1e-9)


@pytest.mark.parametrize("radius", [2.0, 1e4])
def test_liouville_mass_matches_quadrature(radius):
    bubble = planar_bubble()
    want, _ = quad(
        lambda r: 2.0 * np.pi * r * np.exp(bubble.state(r)[0][0]),
        0.0,
        radius,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=400,
        points=[1.0],
    )
    assert bubble.state(radius)[2][0] == pytest.approx(want, rel=1e-9)


def test_family_energy_trend_across_threshold():
    def energies(m, exponents):
        return [bubble_quantities(np.e**x, m)["energy"] for x in exponents]

    sup = energies((5.0 * np.pi, 3.0 * np.pi), (2, 3, 4, 5))
    assert all(b < a for a, b in zip(sup, sup[1:]))
    # mildly supercritical: decrease sets in once past the transient range
    mild = energies((4.5 * np.pi, 3.0 * np.pi), (3, 4, 5))
    assert all(b < a for a, b in zip(mild, mild[1:]))
    sub = energies((3.0 * np.pi, 3.0 * np.pi), (2, 3, 4, 5))
    assert all(b > a for a, b in zip(sub, sub[1:]))
