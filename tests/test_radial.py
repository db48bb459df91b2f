"""Radial integrator checks against closed-form solutions and identities."""

import io
import time

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import solve_ivp

from todalab.cartan import NumericalError, cartan_su
from todalab.radial import (
    BlowUpError,
    _series_radius,
    _series_state,
    asymptotic_slopes,
    ball_pohozaev,
    check_mass_relation,
    flux_residuals,
    integrate_radial,
    masses_and_exponents,
    sweep_shooting,
    write_solution_csv,
)

PI = np.pi
EIGHT_PI = 8.0 * np.pi

# the --corrupt-cartan matrix of the identity suite, and an anti-damped
# single component u'' + u'/r = +2 e^u with no global solution
CORRUPT = np.array([[2.0, -0.9], [-0.9, 2.0]])
ANTI_DAMPED = np.array([[-2.0]])
# a huge cross coupling: the series hands u2 a value whose exponential
# overflows, so the first step shrinks below the spacing of floats
STIFF = np.array([[2.0, -1.0], [-1e35, 2.0]])


# Symmetric ansatz: with u1 = u2 = w the coupled system collapses to
# w'' + w'/r = -e^w (row sums 2 - 1 = 1), whose radial solutions are
# w = log(8 lam^2 / (1 + lam^2 r^2)^2).  Central value 0 forces
# 8 lam^2 = 1.  Substitution: d/dr log(1 + lam^2 r^2) = 2 lam^2 r / (1
# + lam^2 r^2), so Delta w = -8 lam^2 / (1 + lam^2 r^2)^2 = -e^w.
LAM2 = 0.125


def symmetric_exact(r):
    r = np.asarray(r, dtype=float)
    u = np.log(8 * LAM2) - 2 * np.log1p(LAM2 * r * r)
    du = -4 * LAM2 * r / (1 + LAM2 * r * r)
    alpha = EIGHT_PI * LAM2 * r * r / (1 + LAM2 * r * r)
    return u, du, alpha


def test_symmetric_profile_matches_closed_form():
    sol = integrate_radial((0.0, 0.0))
    r = sol.r_nodes[1:]
    u_exact, du_exact, alpha_exact = symmetric_exact(r)
    for j in range(2):
        assert np.max(np.abs(sol.u[j, 1:] - u_exact)) < 1e-7
        assert np.max(np.abs(sol.du[j, 1:] - du_exact)) < 1e-7
        assert np.max(np.abs(sol.alpha[j, 1:] - alpha_exact)) < 1e-7
    # origin row carries the initial data
    assert sol.r_nodes[0] == 0.0
    assert tuple(sol.u[:, 0]) == (0.0, 0.0)
    assert tuple(sol.du[:, 0]) == (0.0, 0.0)


def test_symmetric_masses_reach_eight_pi():
    sol = integrate_radial((0.0, 0.0))
    report = masses_and_exponents(sol)
    for a, b in zip(report.alpha, report.beta):
        assert abs(a - EIGHT_PI) / EIGHT_PI < 1e-4
        assert abs(b - EIGHT_PI) / EIGHT_PI < 1e-4
    assert report.alpha_above_4pi == (True, True)
    assert report.beta_above_4pi == (True, True)


def test_single_component_mass_is_four_pi():
    # with coupling (2): u'' + u'/r = -2 e^u and u(0) = 0 has the
    # closed form u = log(4 mu^2 / (1 + mu^2 r^2)^2) with mu = 1/2,
    # whose total mass integrates to 4 pi
    sol = integrate_radial((0.0,), cartan=cartan_su(1))
    mu2 = 0.25
    r = sol.r_nodes[1:]
    u_exact = np.log(4 * mu2) - 2 * np.log1p(mu2 * r * r)
    assert np.max(np.abs(sol.u[0, 1:] - u_exact)) < 1e-7
    report = masses_and_exponents(sol)
    assert abs(report.alpha[0] - 4 * PI) / (4 * PI) < 1e-4
    assert report.beta[0] == pytest.approx(2 * report.alpha[0])


def test_flux_identity_holds_at_every_node():
    sol = integrate_radial((0.0, -1.0))
    assert float(flux_residuals(sol).max()) < 1e-6


def test_running_masses_never_decrease():
    sol = integrate_radial((0.5, -1.5))
    assert np.all(np.diff(sol.alpha, axis=1) > -1e-12)


def test_asymptotic_slope_matches_flux_prediction():
    sol = integrate_radial((0.0, 0.0))
    checks = asymptotic_slopes(sol)
    for check in checks:
        # closed form: r u' = -4 lam^2 r^2 / (1 + lam^2 r^2) -> -4
        assert abs(check.measured + 4.0) < 1e-3
        assert check.rel_dev < 1e-8


def test_ball_identity_against_closed_form():
    sol = integrate_radial((0.0, 0.0))
    for R in (1.0, 10.0, 100.0):
        balance = ball_pohozaev(sol, R)
        # both sides evaluate to -96 pi lam^4 R^4 / (1 + lam^2 R^2)^2
        # on the symmetric solution (substitute and simplify)
        exact = -96 * PI * LAM2**2 * R**4 / (1 + LAM2 * R * R) ** 2
        assert balance.lhs == pytest.approx(exact, rel=1e-8)
        assert balance.rhs == pytest.approx(exact, rel=1e-8)
        assert abs(balance.residual) / abs(balance.lhs) < 1e-5


def test_ball_identity_vanishes_at_tiny_radius():
    sol = integrate_radial((0.0, 0.0))
    balance = ball_pohozaev(sol, 1e-3)
    assert abs(balance.lhs) < 1e-8
    assert abs(balance.rhs) < 1e-8
    assert abs(balance.residual) < 1e-8


def test_ball_identity_input_validation():
    sol = integrate_radial((0.0, 0.0))
    with pytest.raises(ValueError, match="out of range"):
        ball_pohozaev(sol, 0.0)
    with pytest.raises(ValueError, match="out of range"):
        ball_pohozaev(sol, 2000.0)
    single = integrate_radial((0.0,), cartan=cartan_su(1))
    with pytest.raises(ValueError, match="two components"):
        ball_pohozaev(single, 1.0)


def test_ball_identity_starts_at_the_first_integrator_node():
    # below r_nodes[1] only the origin series could answer, and it drops
    # the r^4 terms both sides are made of: lhs came out twice its value
    sol = integrate_radial((0.0, 0.0))
    with pytest.raises(ValueError, match="out of range"):
        ball_pohozaev(sol, 5e-5)
    assert ball_pohozaev(sol, sol.r_nodes[1]).r == sol.r_nodes[1]


def test_mass_relation_closed_cases():
    zero = check_mass_relation(EIGHT_PI, EIGHT_PI)
    assert zero.residual == 0.0
    assert zero.relative == 0.0
    off = check_mass_relation(4 * PI, 4 * PI)
    # 16 pi^2 + 16 pi^2 - 16 pi^2 - 32 pi^2
    assert off.residual == pytest.approx(-16 * PI * PI, rel=1e-12)
    assert off.relative == pytest.approx(-0.5, rel=1e-12)
    with pytest.raises(ValueError, match="positive"):
        check_mass_relation(0.0, 1.0)


def test_mass_report_rejects_unsettled_tail():
    sol = integrate_radial((0.0, 0.0), r_max=10.0)
    with pytest.raises(ValueError, match="larger r_max"):
        masses_and_exponents(sol)


def test_scaling_covariance():
    # u(x) -> u(sx) + 2 log s maps solutions to solutions and preserves
    # the mass inside the correspondingly shrunk ball exactly
    s = 2.0
    base = integrate_radial((0.3, -0.7), r_max=1000.0)
    scaled = integrate_radial(
        (0.3 + 2 * np.log(s), -0.7 + 2 * np.log(s)), r_max=1000.0 / s
    )
    for j in range(2):
        assert abs(base.alpha[j, -1] - scaled.alpha[j, -1]) < 1e-4


def test_blow_up_guard_reports_radius():
    # the guard must stop the anti-damped run and report where
    with pytest.raises(BlowUpError) as excinfo:
        integrate_radial((0.0,), cartan=ANTI_DAMPED)
    assert 1e-4 < excinfo.value.radius < 1000.0


def reference_solve_ivp(a0, r_max=1000.0, tol=1e-10, cartan=None, nodes=600):
    """integrate_radial's former integrator call: scipy's DOP853."""
    start = np.asarray(a0, dtype=float)
    rank = start.size
    amat = cartan_su(rank) if cartan is None else cartan
    r0 = _series_radius(start)
    y0 = np.concatenate(_series_state(start, amat, r0))

    def rhs(t, y):
        weights = np.exp(y[:rank] + 2.0 * t)
        return np.concatenate(
            [y[rank : 2 * rank], -(amat @ weights), 2.0 * np.pi * weights]
        )

    guard = max(50.0, float(start.max()) + 10.0)

    def blow_guard(t, y):
        return guard - y[:rank].max()

    blow_guard.terminal = True
    blow_guard.direction = -1.0

    t_span = (np.log(r0), np.log(r_max))
    t_eval = np.linspace(t_span[0], t_span[1], nodes)
    return solve_ivp(
        rhs,
        t_span,
        y0,
        method="DOP853",
        rtol=tol,
        atol=tol,
        t_eval=t_eval,
        dense_output=True,
        events=blow_guard,
    )


@st.composite
def radial_runs(draw):
    corrupt = draw(st.booleans())
    rank = 2 if corrupt else draw(st.integers(1, 3))
    a0 = tuple(draw(st.lists(st.floats(-2.0, 1.5), min_size=rank, max_size=rank)))
    return dict(
        a0=a0,
        r_max=draw(st.floats(10.0, 2000.0)),
        tol=draw(st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6])),
        nodes=draw(st.integers(16, 800)),
        cartan=CORRUPT if corrupt else None,
    )


@given(run=radial_runs())
@example(run=dict(a0=(0.0, 0.0), r_max=1000.0, tol=1e-10, nodes=600, cartan=None))
@example(run=dict(a0=(0.0, -1.5), r_max=1000.0, tol=1e-10, nodes=600, cartan=CORRUPT))
@example(run=dict(a0=(0.0,), r_max=10.0, tol=1e-12, nodes=16, cartan=None))
@example(run=dict(a0=(1.5, -2.0, 0.3), r_max=2000.0, tol=1e-6, nodes=800, cartan=None))
@example(run=dict(a0=(20.0, 20.0), r_max=1000.0, tol=1e-10, nodes=600, cartan=None))
def test_integrator_matches_solve_ivp_bit_for_bit(run):
    sol = integrate_radial(**run)
    ref = reference_solve_ivp(**run)
    assert ref.status == 0
    rank = sol.n_components
    radii = np.exp(ref.t)
    assert np.array_equal(sol.r_nodes[1:], radii)
    assert np.array_equal(sol.u[:, 1:], ref.y[:rank])
    assert np.array_equal(sol.du[:, 1:], ref.y[rank : 2 * rank] / radii[None, :])
    assert np.array_equal(sol.alpha[:, 1:], ref.y[2 * rank :])
    for r in (1.0, np.sqrt(run["r_max"]), run["r_max"]):
        want = ref.sol(np.log(r))
        assert np.array_equal(sol._dense(np.log(r)), want)


@pytest.mark.parametrize("s", [16.0, 20.0, 22.0])
def test_tall_symmetric_starts_keep_mass_eight_pi(s):
    # u(x) -> u(sx) + 2 log s maps the a0 = (0, 0) profile to any (s, s),
    # so every symmetric start carries mass 8 pi; the series must hand
    # over where e^s r^2 is still small
    sol = integrate_radial((s, s))
    for alpha in masses_and_exponents(sol).alpha:
        assert abs(alpha / EIGHT_PI - 1.0) < 1e-6


def test_series_radius_shrinks_only_for_tall_starts():
    assert _series_radius(np.array([11.5, -3.0])) == 1e-4
    tall = _series_radius(np.array([0.0, 20.0]))
    assert tall == pytest.approx(np.sqrt(1e-3 * np.exp(-20.0)), rel=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_first_step_stalls_without_warnings():
    with pytest.raises(BlowUpError, match="integration stalled near radius 0.0001"):
        integrate_radial((0.0, 0.0), cartan=STIFF)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_derivative_at_the_hand_over_stalls_at_once():
    # cross couplings so large that the series hands u = 2500 (past the
    # blow-up guard) to the integrator, where A e^u is inf - inf = NaN;
    # the NaN first step used to be rejected forever
    huge = np.array([[2.0, -1e12], [-1e12, 2.0]])
    started = time.perf_counter()
    with pytest.raises(BlowUpError, match="integration stalled near radius 0.0001"):
        integrate_radial((0.0, 0.0), cartan=huge)
    assert time.perf_counter() - started < 1.0
    rows = sweep_shooting((-1.0, 0.0, 0.5), cartan=huge)
    assert [row.outcome for row in rows] == ["blow-up"] * 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a0", [(709.0, 0.0), (1500.0, 1500.0)])
def test_overflowing_series_is_a_numerical_error(a0):
    # pi e^{a0} overflows before the r^2 factor brings the series back
    with pytest.raises(NumericalError, match="origin series overflows at central value"):
        integrate_radial(a0)


def test_blow_up_radius_matches_solve_ivp():
    ref = reference_solve_ivp((0.0,), cartan=ANTI_DAMPED)
    assert ref.status == 1
    radius = float(np.exp(ref.t_events[0][0]))
    with pytest.raises(BlowUpError) as excinfo:
        integrate_radial((0.0,), cartan=ANTI_DAMPED)
    assert excinfo.value.radius == pytest.approx(radius, rel=1e-12, abs=0.0)
    assert str(excinfo.value) == f"profile blew up near radius {radius:.6g}"


def test_shooting_family_masses_satisfy_relation():
    rows = sweep_shooting(np.linspace(-2.0, 0.5, 6))
    converged = [row for row in rows if row.outcome == "converged"]
    assert len(converged) >= 5
    for row in converged:
        assert row.relation_rel < 1e-3
        assert all(a > 4 * PI for a in row.alpha)
        assert all(b > 4 * PI for b in row.beta)
    # unsettled tails are reported, not raised
    assert all(row.outcome in ("converged", "tail", "blow-up") for row in rows)


def test_integrate_validations():
    for r_max in (5.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="at least 10"):
            integrate_radial((0.0, 0.0), r_max=r_max)
    with pytest.raises(ValueError, match="tol"):
        integrate_radial((0.0, 0.0), tol=1e-5)
    with pytest.raises(ValueError, match="tol"):
        integrate_radial((0.0, 0.0), tol=1e-13)
    with pytest.raises(ValueError, match="finite"):
        integrate_radial((np.nan, 0.0))
    with pytest.raises(ValueError, match="rank"):
        integrate_radial((0.0, 0.0), cartan=cartan_su(3))
    with pytest.raises(ValueError, match="nodes"):
        integrate_radial((0.0, 0.0), nodes=8)


def test_solution_csv_layout():
    sol = integrate_radial((0.0, 0.0), nodes=32)
    buf = io.StringIO()
    write_solution_csv(sol, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "r,u1,u2,du1,du2,alpha1,alpha2"
    assert len(lines) == 1 + 33  # origin row plus the log-spaced nodes
    first = [float(x) for x in lines[1].split(",")]
    assert first == [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == pytest.approx(1000.0)
