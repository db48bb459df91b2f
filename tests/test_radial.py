"""Radial integrator checks against closed-form solutions and identities."""

import io
import itertools
import time

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import solve_ivp

from todalab._dop853 import integrate
from todalab.cartan import NumericalError, cartan_su
from todalab.closed_form import (
    MAX_NODES,
    MAX_START,
    _check_settings,
    _node_grid,
    radial_profile,
    write_solution_csv,
)
from todalab.radial import (
    BlowUpError,
    _series_radius,
    _series_state,
    ball_pohozaev,
    check_mass_relation,
    integrate_radial,
    masses_and_exponents,
    sweep_shooting,
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
    u, du, alpha = (np.asarray(rows) for rows in (sol.u, sol.du, sol.alpha))
    u_exact, du_exact, alpha_exact = symmetric_exact(sol.r_nodes[1:])
    for j in range(2):
        assert np.max(np.abs(u[j, 1:] - u_exact)) < 1e-7
        assert np.max(np.abs(du[j, 1:] - du_exact)) < 1e-7
        assert np.max(np.abs(alpha[j, 1:] - alpha_exact)) < 1e-7
    # origin row carries the initial data
    assert sol.r_nodes[0] == 0.0
    assert tuple(u[:, 0]) == (0.0, 0.0)
    assert tuple(du[:, 0]) == (0.0, 0.0)


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
    r = np.asarray(sol.r_nodes[1:])
    u_exact = np.log(4 * mu2) - 2 * np.log1p(mu2 * r * r)
    assert np.max(np.abs(np.asarray(sol.u[0][1:]) - u_exact)) < 1e-7
    report = masses_and_exponents(sol)
    assert abs(report.alpha[0] - 4 * PI) / (4 * PI) < 1e-4
    assert report.beta[0] == pytest.approx(2 * report.alpha[0])


def test_flux_identity_holds_at_every_node():
    sol = integrate_radial((0.0, -1.0))
    assert sol.flux_max() < 1e-6


def _array_flux_max(sol):
    """max over nodes past the origin of |-2 pi r u' - A alpha| / (1 + sum alpha), in numpy."""
    r = np.asarray(sol.r_nodes[1:])
    du, alpha = np.asarray(sol.du)[:, 1:], np.asarray(sol.alpha)[:, 1:]
    defect = np.abs(-2.0 * np.pi * (du * r[None, :]) - np.asarray(sol.cartan) @ alpha)
    return float((defect / (1.0 + alpha.sum(axis=0))[None, :]).max())


@pytest.mark.parametrize("a2", [-1.5, -1.0, -0.5, 0.0, 0.5])
@pytest.mark.parametrize("cartan", [None, CORRUPT], ids=["cartan", "corrupt"])
def test_flux_max_matches_the_array_formula(a2, cartan):
    # the identity suite's starts: the pure-Python loop keeps numpy's order
    sol = integrate_radial((0.0, a2), cartan=cartan)
    assert sol.flux_max() == _array_flux_max(sol)


def test_closed_form_flux_is_roundoff():
    for a0 in ((0.0, -0.7), (0.0, 0.0), (0.3, -0.2, 0.1)):
        assert radial_profile(a0).flux_max() < 1e-15


def test_running_masses_never_decrease():
    sol = integrate_radial((0.5, -1.5))
    assert np.all(np.diff(np.asarray(sol.alpha), axis=1) > -1e-12)


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


@pytest.mark.parametrize("a0", [(0.0, 0.0), (0.0, -1.5), (1.0, -2.0)])
def test_ball_identity_holds_on_the_exact_profile(a0):
    # the closed form's state leaves only roundoff in the identity
    exact = radial_profile(a0)
    for r in (0.03, 1.0, 10.0, 100.0, 1000.0):
        balance = ball_pohozaev(exact, r)
        assert abs(balance.residual) <= 1e-10 * abs(balance.lhs)


def test_ball_identity_means_something_where_lhs_clears_the_integration_error():
    # both sides are O(r^4) at the origin while the integrator's absolute
    # error in lhs is about 1e-10, so residual / |lhs| is noise near the
    # origin; against the closed form's exact lhs it falls below the
    # suite's 1e-4 bound from r = 0.03 on, where |lhs| is about 4e-6
    for a0 in ((0.0, 0.0), (0.0, -1.5)):
        sol = integrate_radial(a0)
        exact = radial_profile(a0)
        for r in (0.03, 0.1, 1.0, 10.0, 100.0):
            lhs = ball_pohozaev(exact, r).lhs
            assert abs(ball_pohozaev(sol, r).residual) < 1e-4 * abs(lhs)
        # at the first node the series state lacks the r^4 terms: lhs doubles
        r = sol.r_nodes[1]
        lhs = ball_pohozaev(exact, r).lhs
        assert ball_pohozaev(sol, r).lhs == pytest.approx(2 * lhs, rel=1e-3)


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
        assert abs(base.alpha[j][-1] - scaled.alpha[j][-1]) < 1e-4


def test_blow_up_guard_reports_radius():
    # the guard must stop the anti-damped run and report where
    with pytest.raises(BlowUpError) as excinfo:
        integrate_radial((0.0,), cartan=ANTI_DAMPED)
    assert 1e-4 < excinfo.value.radius < 1000.0


def reference_solve_ivp(a0, r_max=1000.0, tol=1e-10, cartan=None, nodes=600):
    """integrate_radial's integrator call made with scipy's DOP853."""
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

    t_eval = np.array(_node_grid(start, r_max, nodes)[0])
    return solve_ivp(
        rhs,
        (t_eval[0], t_eval[-1]),
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
        nodes=draw(st.integers(16, 800)),
        cartan=CORRUPT if corrupt else None,
    )


@given(run=radial_runs())
@example(run=dict(a0=(0.0, 0.0), r_max=1000.0, nodes=600, cartan=None))
@example(run=dict(a0=(0.0, -1.5), r_max=1000.0, nodes=600, cartan=CORRUPT))
@example(run=dict(a0=(0.0,), r_max=10.0, nodes=16, cartan=None))
@example(run=dict(a0=(1.5, -2.0, 0.3), r_max=2000.0, nodes=800, cartan=None))
@example(run=dict(a0=(20.0, 20.0), r_max=1000.0, nodes=600, cartan=None))
@example(run=dict(a0=(15.5, 0.0), r_max=1000.0, nodes=600, cartan=None))
def test_integrator_matches_solve_ivp_bit_for_bit(run):
    sol = integrate_radial(**run)
    ref = reference_solve_ivp(**run)
    assert ref.status == 0
    rank = sol.n_components
    # the shared node rule: the log radii are np.linspace's between the
    # same ends, and the nodes end at r_max exactly
    log_radii, r_nodes = _node_grid(sol.a0, run["r_max"], run["nodes"])
    assert np.array_equal(np.linspace(log_radii[0], log_radii[-1], run["nodes"]), log_radii)
    assert np.array_equal(ref.t, log_radii)
    assert sol.r_nodes == r_nodes
    assert sol.r_nodes[-1] == run["r_max"]
    radii = np.asarray(r_nodes[1:])
    u, du, alpha = (np.asarray(rows) for rows in (sol.u, sol.du, sol.alpha))
    assert np.array_equal(u[:, 1:], ref.y[:rank])
    assert np.array_equal(du[:, 1:], ref.y[rank : 2 * rank] / radii[None, :])
    assert np.array_equal(alpha[:, 1:], ref.y[2 * rank :])
    for r in (1.0, np.sqrt(run["r_max"]), run["r_max"]):
        want = ref.sol(np.log(r))
        assert np.array_equal(np.concatenate(sol.state(r)), want)
    if rank == 2:
        # the closed form has the same first node, so its ball balance
        # takes every radius the integrated one does
        exact = radial_profile(sol.a0, run["r_max"], run["nodes"])
        assert ball_pohozaev(exact, sol.r_nodes[1]).r == sol.r_nodes[1]


@pytest.mark.parametrize(
    "y0, slope", [((1.0, -2.0), 0.0), ((0.0, 0.0), 0.0), ((0.0, 0.0), 0.5)]
)
def test_integrator_matches_solve_ivp_on_error_free_steps(y0, slope):
    # a constant derivative gives every step an error estimate of zero:
    # the first step takes the 1e-6 fallback (and, with y' = 0, the second
    # fallback too), and each accepted step grows by the largest factor
    def fun(t, y):
        return np.full_like(y, slope)

    def never(t, y):
        return 1.0

    never.terminal = True
    never.direction = -1.0
    t_eval = np.linspace(0.0, 5.0, 17)
    sol = integrate(fun, (0.0, 5.0), np.array(y0), 1e-10, t_eval, never)
    ref = solve_ivp(fun, (0.0, 5.0), np.array(y0), method="DOP853", rtol=1e-10,
                    atol=1e-10, t_eval=t_eval, dense_output=True, events=never)
    assert (sol.status, ref.status) == (0, 0)
    assert np.array_equal(sol.t, ref.t)
    assert np.array_equal(sol.y, ref.y)
    assert np.array_equal(sol.dense(1.3), ref.sol(1.3))


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


def test_overflowing_first_step_stalls_without_warnings():
    with pytest.raises(BlowUpError, match="integration stalled near radius 0.0001"):
        integrate_radial((0.0, 0.0), cartan=STIFF)


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
    with pytest.raises(ValueError, match="finite"):
        integrate_radial((np.nan, 0.0))
    with pytest.raises(ValueError, match="rank"):
        integrate_radial((0.0, 0.0), cartan=cartan_su(3))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="coupling matrix must be finite"):
            integrate_radial((0.0, 0.0), cartan=[[bad, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="nodes"):
        integrate_radial((0.0, 0.0), nodes=8)
    with pytest.raises(ValueError, match="nodes must be at most 100000"):
        integrate_radial((0.0, 0.0), nodes=MAX_NODES + 1)
    for build in (integrate_radial, radial_profile):
        with pytest.raises(ValueError, match="nodes must be an integer"):
            build((0.0, 0.0), nodes=100.5)


def test_closed_form_caps_central_values():
    # _terms loses about eps |a0|: at the cap the closed form still agrees
    # with the integrator to its own level, 1.4e-9 in alpha
    for a0 in ((-MAX_START, 0.0), (0.0, -MAX_START)):
        exact = radial_profile(a0)
        sol = integrate_radial(a0)
        assert np.max(np.abs(np.asarray(sol.alpha) - np.asarray(exact.alpha))) < 1e-8
    above = np.nextafter(MAX_START, np.inf)
    for a0 in ((-1e16, 0.0), (0.0, -above), (above, 0.0)):
        with pytest.raises(ValueError, match="central values must be at most 100000"):
            radial_profile(a0)
    # the integrator keeps its own rules
    assert _check_settings((-1e16, 0.0), 1000.0, 600) == (-1e16, 0.0)


def test_node_count_is_capped_before_anything_is_built():
    assert MAX_NODES == 100_000
    assert _check_settings((0.0, 0.0), 1000.0, MAX_NODES) == (0.0, 0.0)
    for nodes in (MAX_NODES + 1, 10**12):
        with pytest.raises(ValueError, match="nodes must be at most 100000"):
            _check_settings((0.0, 0.0), 1000.0, nodes)
        with pytest.raises(ValueError, match="nodes must be at most 100000"):
            radial_profile((0.0, 0.0), nodes=nodes)


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


# the closed form as the integrator's oracle: the box |a0_j| <= 5 keeps
# the integrator's own error at tol 1e-10 well inside the bounds (at
# |a0_j| = 10 it reaches 1.7e-7 in u and 1.1e-6 in alpha)
ORACLE_BOX = 5.0
CORNERS = [
    corner
    for rank in (2, 3, 4)
    for corner in itertools.product((-ORACLE_BOX, ORACLE_BOX), repeat=rank)
]


def _assert_integrator_matches_closed_form(a0):
    sol = integrate_radial(a0)
    exact = radial_profile(a0)
    # one node rule: the same radii, ending at r_max exactly
    assert sol.r_nodes == exact.r_nodes
    assert sol.r_nodes[-1] == exact.r_nodes[-1] == 1000.0
    alpha = np.array(exact.alpha)
    assert np.max(np.abs(np.asarray(sol.u) - np.array(exact.u))) <= 1e-7
    # flux_max's normalization
    scale = 1.0 + alpha.sum(axis=0)
    assert np.max(np.abs(np.asarray(sol.alpha) - alpha) / scale) <= 1e-8
    # total masses 4 pi k (N + 1 - k): the integrated mass out to r_max
    # plus the exact tail beyond it, out to where it has fully decayed
    rank = len(a0)
    far = exact.state(1e15)[2]
    for k in range(rank):
        total = sol.alpha[k][-1] + (far[k] - exact.alpha[k][-1])
        expected = 4 * PI * (k + 1) * (rank - k)
        assert abs(total - expected) <= 1e-8 * scale[-1]


@st.composite
def oracle_starts(draw):
    rank = draw(st.integers(2, 4))
    box = st.floats(-ORACLE_BOX, ORACLE_BOX)
    return tuple(draw(st.lists(box, min_size=rank, max_size=rank)))


@given(a0=oracle_starts())
@example(a0=(0.0, 0.0))
@example(a0=(0.0, -1.5))
@example(a0=(0.3, -0.2, 0.1))
def test_integrator_agrees_with_the_closed_form(a0):
    _assert_integrator_matches_closed_form(a0)


@pytest.mark.parametrize("a0", CORNERS)
def test_integrator_agrees_with_the_closed_form_at_the_corners(a0):
    _assert_integrator_matches_closed_form(a0)


def test_closed_form_masses_reach_their_limits():
    # alpha_k(infinity) = 4 pi k (N + 1 - k) at every rank the closed form takes
    for rank in (1, 2, 3, 6, 12):
        a0 = tuple(0.25 * j - 1.0 for j in range(rank))
        far = radial_profile(a0, r_max=1e12, nodes=16)
        for k, row in enumerate(far.alpha):
            expected = 4 * PI * (k + 1) * (rank - k)
            assert row[-1] == pytest.approx(expected, rel=1e-9)
