"""Disk-balance checks: flat exactness, scaling, refinement, guards."""

import io
import tracemalloc

import numpy as np
import pytest

from helpers import log_integral_exp
from todalab.bubbles import BubbleParams, standard_bubble
from todalab.cartan import cartan_su
from todalab.functional import MultiField
from todalab.grid import GridSpec, ScalarField
import todalab.pohozaev as pohozaev
from todalab.minimizer import MinimizeConfig, minimize
from todalab.pohozaev import (
    BALANCE_CSV_HEADER,
    DiskBalance,
    disk_balance,
    radius_scan,
    write_balance_csv,
)

PI = np.pi


def normalized(spec, arrays):
    comps = []
    for a in arrays:
        f = ScalarField(spec, a)
        comps.append(ScalarField(spec, f.values - log_integral_exp(f)))
    return MultiField(tuple(comps))


def wave_state(spec, eps, signs=(1.0, -0.7)):
    x = np.arange(spec.n) / spec.n
    wave = np.cos(2 * PI * x)[:, None] + 0.5 * np.sin(4 * PI * x)[None, :]
    return normalized(spec, [eps * s * wave for s in signs])


def normalized_bubble(spec, scale):
    seed = standard_bubble(BubbleParams(scale=scale), spec, allow_unresolved=True)
    return normalized(spec, [f.values for f in seed.components])


def stripe_start(spec, rank, eps):
    """v = eps c cos 2 pi x, with d the top eigenvector of A and c = A^-1 d."""
    a = cartan_su(rank)
    d = np.linalg.eigh(a)[1][:, -1]
    c = np.linalg.solve(a, d)
    x = np.arange(spec.n) / spec.n
    mode = np.broadcast_to(np.cos(2 * PI * x)[:, None], spec.shape)
    return MultiField(tuple(ScalarField(spec, eps * ci * mode) for ci in c))


def assert_non_flat_critical(report, max_abs, energy):
    assert report.status == "Converged"
    assert max(report.el_residuals) < 10 * MinimizeConfig().grad_tol
    assert np.max(np.abs(report.final_u.stack())) > max_abs
    assert report.energy_trace[-1] < energy


def test_flat_state_balances_exactly():
    spec = GridSpec(64)
    u = MultiField.zeros(spec, 2)
    r = 0.2
    b = disk_balance(u, (4 * PI, 4 * PI), (0.5, 0.5), r)
    # for u == 0 both sides collapse to 2 (m1 + m2) pi r^2
    closed = 2 * 8 * PI * PI * r * r
    assert b.lhs == pytest.approx(closed, rel=1e-12)
    assert b.boundary_exp == pytest.approx(closed, rel=1e-12)
    assert b.boundary_stress == 0.0
    assert b.boundary_linear == 0.0
    assert b.volume_linear == 0.0
    assert abs(b.residual) < 1e-12


def test_flat_state_balances_at_any_coupling_mass():
    spec = GridSpec(32)
    u = MultiField.zeros(spec, 2)
    r = 0.25
    b = disk_balance(u, (3 * PI, 5 * PI), (0.2, 0.8), r)
    assert b.lhs == pytest.approx(2 * 8 * PI * PI * r * r, rel=1e-12)
    assert abs(b.residual) < 1e-12


def test_converged_minimizer_balances():
    spec = GridSpec(64)
    report = minimize((3 * PI, 3 * PI), spec, config=MinimizeConfig(seed=0))
    assert report.status == "Converged"
    for r in (0.1, 0.2):
        b = disk_balance(report.final_u, (3 * PI, 3 * PI), (0.5, 0.5), r)
        assert abs(b.residual) < 1e-3


def test_rank_three_converged_state_balances():
    m = (3 * PI, 3 * PI, 3 * PI)
    report = minimize(m, GridSpec(32))
    assert report.status == "Converged"
    for b in radius_scan(report.final_u, m, (0.5, 0.5), (0.15, 0.2, 0.3)):
        # the state is flat to about 1e-6, so each disk holds mass pi r^2
        assert b.lhs == pytest.approx(2 * sum(m) * PI * b.r**2, rel=1e-5)
        assert abs(b.residual) < 1e-6


@pytest.mark.parametrize("n", (64, 128))
def test_rank_two_stripe_critical_point_balances(n):
    # just past m*_2 = 4.1888 pi the flat state is a saddle, and the stripe
    # start converges to a non-flat critical point (E = -2.07e-4, max|u| =
    # 0.159); there the mean split is not exact, and the residual is the
    # quadrature error: at most 3.7e-5 of lhs over these disks
    m = (4.2 * PI, 4.2 * PI)
    report = minimize(m, GridSpec(n), init=stripe_start(GridSpec(n), 2, 1e-2))
    assert_non_flat_critical(report, max_abs=0.1, energy=-1e-4)
    for b in radius_scan(report.final_u, m, (0.5, 0.5), (0.1, 0.2, 0.3)):
        assert abs(b.residual) / b.lhs < 1e-4


@pytest.mark.parametrize("n", (64, 128))
def test_rank_three_minimizer_balances_to_quadrature_error(n):
    # past m*_3 = 3.6806 pi the minimizer at (3.9 pi)^3 is a 2-D pattern
    # (E = -0.582207, max|u| = 3.61); the residual is quadrature error, at
    # most 6.9e-3 of lhs over these disks
    m = (3.9 * PI, 3.9 * PI, 3.9 * PI)
    report = minimize(m, GridSpec(n), config=MinimizeConfig(seed=0))
    assert_non_flat_critical(report, max_abs=3.0, energy=-0.5)
    for b in radius_scan(report.final_u, m, (0.5, 0.5), (0.1, 0.2, 0.3)):
        assert abs(b.residual) / b.lhs < 2e-2


def test_residual_shrinks_under_refinement_for_converged_states():
    # subcritical descent lands within ~grad_tol of the flat solution, and
    # the first-order term of the balance cancels, so the residual sits far
    # below the O(h) rate the identity guarantees for exact solutions
    for n in (32, 64, 128):
        spec = GridSpec(n)
        report = minimize((3 * PI, 3 * PI), spec, config=MinimizeConfig(seed=2))
        b = disk_balance(report.final_u, (3 * PI, 3 * PI), (0.5, 0.5), 0.2)
        assert abs(b.residual) < spec.h ** 2


def test_residual_vanishes_quadratically_in_the_field():
    # the identity's first variation around u == 0 cancels exactly, so a
    # normalized state of amplitude eps leaves an O(eps^2) residual; the
    # measured ratio pins the derivation, not just the quadrature
    spec = GridSpec(64)
    m = (3 * PI, 3 * PI)
    res = {}
    for eps in (1e-3, 2e-3):
        b = disk_balance(wave_state(spec, eps), m, (0.4, 0.6), 0.2)
        res[eps] = b.residual
    assert res[2e-3] / res[1e-3] == pytest.approx(4.0, abs=0.1)


def test_relabeling_symmetry():
    spec = GridSpec(64)
    u = wave_state(spec, 0.5)
    swapped = MultiField(tuple(reversed(u.components)))
    a = disk_balance(u, (3 * PI, 2 * PI), (0.3, 0.7), 0.15)
    b = disk_balance(swapped, (2 * PI, 3 * PI), (0.3, 0.7), 0.15)
    assert a.residual == pytest.approx(b.residual, abs=1e-12)
    assert a.lhs == pytest.approx(b.lhs, abs=1e-12)


def test_half_period_translation_invariance():
    spec = GridSpec(64)
    u = wave_state(spec, 0.5)
    rolled = MultiField(
        tuple(
            ScalarField(spec, np.roll(f.values, (32, 32), axis=(0, 1)))
            for f in u.components
        )
    )
    a = disk_balance(u, (3 * PI, 3 * PI), (0.3, 0.2), 0.15)
    b = disk_balance(rolled, (3 * PI, 3 * PI), (0.8, 0.7), 0.15)
    assert b.residual == pytest.approx(a.residual, abs=1e-12)


def test_disk_may_wrap_around_the_torus_edge():
    spec = GridSpec(64)
    u = wave_state(spec, 0.5)
    b = disk_balance(u, (3 * PI, 3 * PI), (0.05, 0.95), 0.2)
    assert np.isfinite(b.residual)
    rhs = (
        b.boundary_stress
        + b.boundary_exp
        - b.boundary_linear
        + 2 * b.volume_linear
    )
    assert b.rhs == pytest.approx(rhs, rel=1e-12)


def test_bubble_state_reports_both_sides_convergently():
    # a concentrated non-critical state: the residual is reported with its
    # sign, while each side of the balance must settle under refinement
    m = (4.5 * PI, 3 * PI)
    rows = {}
    for n in (32, 64, 128, 256):
        spec = GridSpec(n)
        rows[n] = disk_balance(normalized_bubble(spec, 8.0), m, (0.5, 0.5), 0.3)
    assert rows[256].residual > 1.0
    for side in ("lhs", "rhs"):
        coarse = abs(getattr(rows[64], side) - getattr(rows[32], side))
        fine = abs(getattr(rows[256], side) - getattr(rows[128], side))
        assert fine < coarse
    assert rows[256].residual == pytest.approx(rows[128].residual, abs=0.05)


def test_radius_guards():
    spec = GridSpec(64)
    u = MultiField.zeros(spec, 2)
    m = (4 * PI, 4 * PI)
    with pytest.raises(ValueError, match=r"r must lie in \[4h, 0.4\]"):
        disk_balance(u, m, (0.5, 0.5), 3 * spec.h)
    with pytest.raises(ValueError, match=r"r must lie in \[4h, 0.4\]"):
        disk_balance(u, m, (0.5, 0.5), 0.45)
    with pytest.raises(ValueError, match="center must lie in the unit torus"):
        disk_balance(u, m, (1.2, 0.5), 0.2)


def test_unnormalized_state_is_rejected():
    spec = GridSpec(64)
    u = MultiField(
        (
            ScalarField(spec, np.ones((64, 64))),
            ScalarField(spec, np.zeros((64, 64))),
        )
    )
    with pytest.raises(ValueError, match="normalize first"):
        disk_balance(u, (4 * PI, 4 * PI), (0.5, 0.5), 0.2)


def test_unresolved_gradients_are_rejected():
    spec = GridSpec(64)
    u = normalized_bubble(spec, 64.0)
    with pytest.raises(ValueError, match="refine grid"):
        disk_balance(u, (4.5 * PI, 3 * PI), (0.5, 0.5), 0.3)


def test_radius_scan_and_csv_layout():
    spec = GridSpec(64)
    u = wave_state(spec, 0.3)
    radii = (0.1, 0.15, 0.2)
    rows = radius_scan(u, (3 * PI, 3 * PI), (0.5, 0.5), radii)
    assert len(rows) == 3
    assert [b.r for b in rows] == list(radii)
    buf = io.StringIO()
    write_balance_csv(rows, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == BALANCE_CSV_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert len(first) == len(BALANCE_CSV_HEADER.split(","))
    assert float(first[2]) == pytest.approx(0.1)
    with pytest.raises(ValueError, match="radii must be non-empty"):
        radius_scan(u, (3 * PI, 3 * PI), (0.5, 0.5), ())


def test_radius_scan_checks_once_and_matches_disk_balance(monkeypatch):
    spec = GridSpec(64)
    u = wave_state(spec, 0.3)
    m = (3 * PI, 2.5 * PI)
    radii = (0.1, 0.15, 0.2, 0.3)
    singles = [disk_balance(u, m, (0.4, 0.6), r) for r in radii]
    apply_symbol = pohozaev._apply_symbol
    calls = []

    def counting_apply_symbol(*args):
        calls.append(1)
        return apply_symbol(*args)

    monkeypatch.setattr(pohozaev, "_apply_symbol", counting_apply_symbol)
    # one transform per derivative, whatever the number of radii
    assert list(radius_scan(u, m, (0.4, 0.6), radii)) == singles
    assert len(calls) == 2
    # a bad radius anywhere in the family fails before any disk is evaluated
    with pytest.raises(ValueError, match=r"r must lie in \[4h, 0.4\]"):
        radius_scan(u, m, (0.4, 0.6), (0.1, 0.45))
    assert len(calls) == 2


def test_radius_scan_samples_every_field_in_one_call_per_radius(monkeypatch):
    # u and both derivatives of all three components: one (9, n, n) stack
    spec = GridSpec(64)
    m = (3 * PI, 2.5 * PI, 2 * PI)
    u = wave_state(spec, 0.3, signs=(1.0, -0.7, 0.4))
    radii = (0.1, 0.15, 0.2, 0.3)
    expected = radius_scan(u, m, (0.4, 0.6), radii)
    bilinear = pohozaev._bilinear
    stacks = []

    def recording_bilinear(values, x, y):
        stacks.append(values.shape)
        return bilinear(values, x, y)

    monkeypatch.setattr(pohozaev, "_bilinear", recording_bilinear)
    assert radius_scan(u, m, (0.4, 0.6), radii) == expected
    assert stacks == [(9, 64, 64)] * len(radii)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_radius_scan_at_n256_holds_at_most_six_and_a_half_field_stacks(rank):
    # exp(u), u and the gradient in one (4, N, n, n) block, plus the
    # transient of a transform or of |grad u|; concatenated copies of the
    # fields held 9 to 10 stacks at once
    spec = GridSpec(256)
    u = wave_state(spec, 0.3, signs=(1.0, -0.7, 0.4)[:rank])
    m = (3 * PI,) * rank
    radii = (0.1, 0.15, 0.2)
    # the cached derivative symbols at n = 256 are not part of the scan
    radius_scan(u, m, (0.5, 0.5), radii)
    tracemalloc.start()
    try:
        radius_scan(u, m, (0.5, 0.5), radii)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * rank * spec.n**2 * np.dtype(float).itemsize


def test_to_dict_round_trips_fields():
    b = DiskBalance(
        center=(0.5, 0.5),
        r=0.2,
        lhs=1.0,
        rhs=0.5,
        residual=0.5,
        boundary_stress=0.1,
        boundary_exp=0.2,
        boundary_linear=-0.1,
        volume_linear=0.15,
    )
    d = b.to_dict()
    assert d["center"] == [0.5, 0.5]
    assert d["residual"] == 0.5
    assert set(d) == {
        "center",
        "r",
        "lhs",
        "rhs",
        "residual",
        "boundary_stress",
        "boundary_exp",
        "boundary_linear",
        "volume_linear",
    }
