"""Energy functional checks: closed forms, gauge, parametrization, gradient."""

import numpy as np
import pytest
from scipy.special import i0

from todalab.cartan import cartan_su
from todalab.functional import (
    MultiField,
    _mix,
    energy,
    energy_gradient,
    energy_u,
    euler_lagrange_residuals,
    normalize_components,
    precondition_gradient,
    raw_gradient,
    u_from_v,
    v_from_u,
)
from todalab.grid import (
    GridSpec,
    ScalarField,
    dirichlet_pairing,
    integral,
    random_smooth_field,
    sample_function,
)

PI = np.pi
TWO_PI = 2.0 * np.pi


def pair_of_random_fields(spec, seed, amplitude=0.5):
    rng = np.random.default_rng(seed)
    return MultiField(
        (
            random_smooth_field(spec, rng, k_max=4, amplitude=amplitude),
            random_smooth_field(spec, rng, k_max=4, amplitude=amplitude),
        )
    )


# ------------------------------------------------------- parametrizations


def test_u_from_v_componentwise():
    spec = GridSpec(16)
    v1 = sample_function(spec, lambda x, y: np.sin(TWO_PI * x))
    v2 = sample_function(spec, lambda x, y: np.cos(TWO_PI * y))
    u = u_from_v(MultiField((v1, v2)))
    assert np.allclose(u.components[0].values, 2 * v1.values - v2.values)
    assert np.allclose(u.components[1].values, 2 * v2.values - v1.values)


def test_parametrization_roundtrip():
    spec = GridSpec(16)
    v = pair_of_random_fields(spec, 3)
    back = v_from_u(u_from_v(v))
    for a, b in zip(back.components, v.components):
        assert np.max(np.abs(a.values - b.values)) < 1e-13


def test_multifield_requires_shared_grid():
    f = ScalarField(GridSpec(8), np.zeros((8, 8)))
    g = ScalarField(GridSpec(16), np.zeros((16, 16)))
    with pytest.raises(ValueError, match="grid mismatch"):
        MultiField((f, g))


def test_multifield_rejects_empty_and_misshapen_input():
    with pytest.raises(ValueError, match="at least one component"):
        MultiField(())
    for shape in ((8, 8), (2, 8, 16), (2, 16, 16)):
        with pytest.raises(ValueError, match="matching the grid"):
            MultiField.from_array(GridSpec(8), np.zeros(shape))


# ----------------------------------------------------------------- energy


def test_energy_of_zero_field_vanishes():
    spec = GridSpec(32)
    v = MultiField.zeros(spec, 2)
    e = energy(v, [3 * PI, 3 * PI])
    assert e.quadratic == 0.0
    assert e.linear == 0.0
    assert abs(e.entropy) < 1e-13
    assert abs(e.total) < 1e-13


def test_energy_closed_form_single_mode():
    # v = (A sin(2 pi x), 0): quadratic = A^2 * 2 pi^2, linear = 0, and the
    # entropy terms reduce to modified Bessel integrals of the x-line
    spec = GridSpec(128)
    amp = 0.1
    m = (3 * PI, 2 * PI)
    v = MultiField(
        (
            sample_function(spec, lambda x, y: amp * np.sin(TWO_PI * x)),
            ScalarField(spec, np.zeros(spec.shape)),
        )
    )
    e = energy(v, m)
    assert e.quadratic == pytest.approx(amp**2 * 2 * PI**2, rel=1e-10)
    assert abs(e.linear) < 1e-10
    expected_entropy = -m[0] * np.log(i0(2 * amp)) - m[1] * np.log(i0(amp))
    assert e.entropy == pytest.approx(expected_entropy, abs=1e-8)
    assert e.total == pytest.approx(
        amp**2 * 2 * PI**2 + expected_entropy, abs=1e-8
    )


# each mode e of the flat state: -lap e = lam e, int e = 0, ||e||^2 = 1/2
FLAT_MODES = (
    (lambda x, y: np.cos(TWO_PI * x), 4 * PI**2),
    (lambda x, y: np.sin(TWO_PI * (x + y)), 8 * PI**2),
    (lambda x, y: np.cos(2 * TWO_PI * x), 16 * PI**2),
)


@pytest.mark.parametrize("rank", (1, 2, 3, 4))
def test_second_variation_of_the_flat_state_in_closed_form(rank):
    # v = eps c e with d the top eigenvector of A and c = A^-1 d, so that
    # u = eps d e and E(v) / eps^2 -> 1/2 ||e||^2 d^T (lam A^-1 - diag(M)) d;
    # A is built here from its entries, so the oracle shares no code with
    # the energy kernel.  The couplings sit 1% on either side of
    # m* = 4 pi^2 / lam_max(A), where the flat state turns into a saddle
    spec = GridSpec(64)
    a = 2 * np.eye(rank) - np.eye(rank, k=1) - np.eye(rank, k=-1)
    lam_a, vecs = np.linalg.eigh(a)
    d = vecs[:, -1]
    c = np.linalg.solve(a, d)
    m_star = 4 * PI**2 / lam_a[-1]
    for mode, lam in FLAT_MODES:
        e = sample_function(spec, mode).values
        for m in (0.99 * m_star, 1.01 * m_star):
            predicted = 0.25 * d @ (lam * np.linalg.inv(a) - m * np.eye(rank)) @ d
            for eps in (1e-3, 2e-3):
                v = MultiField(tuple(ScalarField(spec, eps * ci * e) for ci in c))
                measured = energy(v, [m] * rank).total / eps**2
                assert measured == pytest.approx(predicted, rel=1e-4)


def test_energy_u_quadratic_coefficients_rank_two():
    # in the u-form the three gradient pairings enter with weight 1/3 each
    spec = GridSpec(64)
    u = pair_of_random_fields(spec, 8)
    e = energy_u(u, [PI, PI])
    d11 = dirichlet_pairing(u.components[0], u.components[0])
    d22 = dirichlet_pairing(u.components[1], u.components[1])
    d12 = dirichlet_pairing(u.components[0], u.components[1])
    assert e.quadratic == pytest.approx((d11 + d22 + d12) / 3.0, rel=1e-12)


def test_energy_agrees_across_parametrizations():
    spec = GridSpec(32)
    m = (3 * PI, 2.5 * PI)
    for seed in range(5):
        v = pair_of_random_fields(spec, seed)
        ev = energy(v, m)
        eu = energy_u(u_from_v(v), m)
        assert abs(ev.total - eu.total) < 1e-10


def test_energy_agrees_across_parametrizations_rank_three():
    # the coupling matrix comes from the component count: tridiagonal 3 x 3
    spec = GridSpec(32)
    rng = np.random.default_rng(0)
    v = MultiField(
        tuple(random_smooth_field(spec, rng, k_max=4, amplitude=0.5) for _ in range(3))
    )
    m = (3 * PI, 2.5 * PI, 2 * PI)
    u = u_from_v(v)
    a, b, c = (comp.values for comp in v.components)
    assert np.allclose(u.components[1].values, 2 * b - a - c)
    assert abs(energy(v, m).total - energy_u(u, m).total) < 1e-10


def test_energy_gauge_invariance():
    spec = GridSpec(32)
    m = (4 * PI, PI)
    v = pair_of_random_fields(spec, 21)
    shifted = MultiField(
        tuple(
            ScalarField(spec, c.values + const)
            for c, const in zip(v.components, (1.7, -0.4))
        )
    )
    assert abs(energy(shifted, m).total - energy(v, m).total) < 1e-10


def test_energy_breakdown_json_keys():
    spec = GridSpec(16)
    e = energy(MultiField.zeros(spec, 2), [PI, PI])
    d = e.to_dict()
    assert set(d) == {"quadratic", "linear", "entropy", "total"}
    assert d["total"] == e.total


# --------------------------------------------------------------- gradient


def test_gradient_vanishes_at_zero():
    spec = GridSpec(32)
    g = energy_gradient(MultiField.zeros(spec, 2), [3 * PI, 3 * PI])
    for c in g.components:
        assert np.max(np.abs(c.values)) == 0.0


def test_gradient_matches_central_differences():
    spec = GridSpec(32)
    m = (3 * PI, 2 * PI)
    t = 1e-5
    worst = 0.0
    for seed in range(6):
        v = pair_of_random_fields(spec, seed)
        w = pair_of_random_fields(spec, 100 + seed, amplitude=1.0)
        g = energy_gradient(v, m)
        directional = sum(
            integral(ScalarField(spec, gc.values * wc.values))
            for gc, wc in zip(g.components, w.components)
        )
        plus = MultiField(
            tuple(
                ScalarField(spec, a.values + t * b.values)
                for a, b in zip(v.components, w.components)
            )
        )
        minus = MultiField(
            tuple(
                ScalarField(spec, a.values - t * b.values)
                for a, b in zip(v.components, w.components)
            )
        )
        fd = (energy(plus, m).total - energy(minus, m).total) / (2 * t)
        worst = max(worst, abs(fd - directional) / max(abs(fd), 1e-12))
    assert worst < 1e-6


def test_gradient_components_have_zero_mean():
    spec = GridSpec(32)
    v = pair_of_random_fields(spec, 33)
    g = energy_gradient(v, [5 * PI, 2 * PI])
    for c in g.components:
        assert abs(np.mean(c.values)) < 1e-13


def test_gradient_gauge_invariance():
    # exact in exact arithmetic; the float discrepancy is the rounding of
    # v + c amplified by the top Laplacian eigenvalue, so a gentle field
    # and moderate grid keep it below the advertised 1e-12
    spec = GridSpec(16)
    rng = np.random.default_rng(5)
    v = MultiField(
        (
            random_smooth_field(spec, rng, k_max=2, amplitude=0.2),
            random_smooth_field(spec, rng, k_max=2, amplitude=0.2),
        )
    )
    shifted = MultiField(
        tuple(ScalarField(spec, c.values + 0.7) for c in v.components)
    )
    g0 = energy_gradient(v, [3 * PI, 3 * PI])
    g1 = energy_gradient(shifted, [3 * PI, 3 * PI])
    for a, b in zip(g0.components, g1.components):
        assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_preconditioner_inverts_smoothing_direction():
    # preconditioning the gradient of the pure quadratic part recovers the
    # zero-mean field itself: P K (-lap v) = v for zero-mean v
    spec = GridSpec(32)
    v = pair_of_random_fields(spec, 55)
    quad_grad = []
    k = cartan_su(2)
    from todalab.grid import laplacian

    stacked = v.stack()
    terms = np.stack([-laplacian(c).values for c in v.components])
    coupled = np.tensordot(k, terms, axes=(1, 0))
    quad_grad = MultiField.from_array(spec, coupled)
    back = precondition_gradient(quad_grad)
    for a, b in zip(back.components, v.components):
        assert np.max(np.abs(a.values - b.values)) < 1e-10
    del stacked


# ---------------------------------------------------- stationarity residual


def test_el_residual_zero_at_flat_state():
    spec = GridSpec(32)
    u = MultiField.zeros(spec, 2)
    res = euler_lagrange_residuals(u, [3 * PI, 3 * PI])
    assert np.max(res) < 1e-12


def test_el_residual_requires_normalization():
    spec = GridSpec(16)
    u = MultiField(
        (
            ScalarField(spec, np.full(spec.shape, 0.5)),
            ScalarField(spec, np.zeros(spec.shape)),
        )
    )
    with pytest.raises(ValueError, match="normalize first"):
        euler_lagrange_residuals(u, [PI, PI])


def test_el_residual_matches_analytic_assembly():
    # normalized low-mode field whose Laplacian is known analytically
    spec = GridSpec(64)
    eps = 1e-3
    m = (3 * PI, 2 * PI)

    def f1(x, y):
        return eps * np.sin(TWO_PI * x)

    def f2(x, y):
        return eps * np.cos(2 * TWO_PI * y)

    raw = MultiField((sample_function(spec, f1), sample_function(spec, f2)))
    u = normalize_components(raw)
    got = euler_lagrange_residuals(u, m)

    # oracle: assemble the residual field with the analytic Laplacian of the
    # sampled modes (shifts from normalization do not change the Laplacian)
    shifts = [
        np.max(raw.components[i].values - u.components[i].values) for i in range(2)
    ]
    xs, ys = spec.coords()
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    lap1 = -((TWO_PI) ** 2) * eps * np.sin(TWO_PI * gx)
    lap2 = -((2 * TWO_PI) ** 2) * eps * np.cos(2 * TWO_PI * gy)
    e1 = np.exp(u.components[0].values) - 1.0
    e2 = np.exp(u.components[1].values) - 1.0
    res1 = -lap1 - (2 * m[0] * e1 - m[1] * e2)
    res2 = -lap2 - (-m[0] * e1 + 2 * m[1] * e2)
    h2 = spec.h**2
    oracle = np.array(
        [np.sqrt(np.sum(res1**2) * h2), np.sqrt(np.sum(res2**2) * h2)]
    )
    assert np.max(np.abs(got - oracle)) < 1e-8
    del shifts


def test_normalize_components():
    spec = GridSpec(32)
    raw = pair_of_random_fields(spec, 71, amplitude=1.5)
    u = normalize_components(raw)
    from todalab.grid import log_integral_exp

    for c in u.components:
        assert abs(log_integral_exp(c)) < 1e-12


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
def test_mixing_kernels_into_out_match_the_allocating_forms(rank, n):
    # the descent writes A d and the gradient into its workspace
    rng = np.random.default_rng(n + rank)
    stack = rng.standard_normal((rank, n, n))
    out = np.empty_like(stack)
    assert _mix(cartan_su(rank), stack, out) is out
    assert np.array_equal(out, _mix(cartan_su(rank), stack))
    rho = rng.uniform(0.0, 3.0, (rank, n, n))
    neglap = rng.standard_normal((rank, n, n))
    mv = rng.uniform(1.0, 12.0, rank)
    buffers = tuple(np.empty_like(stack) for _ in range(3))
    gradient, source = raw_gradient(rho, neglap, mv, buffers)
    assert gradient is buffers[0] and source is buffers[1]
    want_source = mv[:, None, None] * (1.0 - rho)
    want_gradient = (cartan_su(rank) @ (neglap + want_source).reshape(rank, -1))
    assert np.array_equal(gradient, want_gradient.reshape(stack.shape))
    assert np.array_equal(source, want_source)
    assert all(np.array_equal(a, b) for a, b in
               zip(raw_gradient(rho, neglap, mv), (gradient, source)))
    # the third buffer keeps the sum -lap v0 + s that was mixed
    assert np.array_equal(buffers[2], neglap + want_source)
