"""End-to-end acceptance checks, one test per shipped criterion.

Each test asserts the criterion's stated tolerances and runtime budget;
the conftest hook prints a one-line PASS/FAIL verdict per criterion at
the end of the session.  Criterion 4's energy-drop threshold is asserted
as stated even though the measured drop on a 64-cell grid sits far
below it; that check is expected to fail and the failure message
carries the measured value.
"""

import io
import json
import time

import numpy as np
import pytest

from helpers import energy_u, integral, random_pair, u_from_v
from todalab.bubbles import (
    BubbleParams,
    asymptotic_slope_table,
    fit_slopes,
    standard_bubble,
)
from todalab.cli import main
from todalab.closed_form import radial_profile
from todalab.functional import (
    MultiField,
    energy,
    energy_gradient,
    v_from_u,
)
from todalab.grid import GridSpec, ScalarField
from todalab.minimizer import (
    MinimizeConfig,
    classify_boundedness,
    minimize,
    sweep,
    write_region_csv,
)
from todalab.radial import (
    ball_pohozaev,
    integrate_radial,
    masses_and_exponents,
    sweep_shooting,
)

PI = np.pi
FOUR_PI = 4.0 * np.pi
EIGHT_PI = 8.0 * np.pi


def test_criterion_01_gradient_matches_central_differences():
    started = time.perf_counter()
    spec = GridSpec(32)
    m = (3 * PI, 2 * PI)
    t = 1e-5
    worst = 0.0
    for seed in range(20):
        v = random_pair(spec, seed)
        w = random_pair(spec, 1000 + seed, amplitude=1.0)
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
    assert worst < 1e-5
    assert time.perf_counter() - started < 10.0


def test_criterion_02_gauge_and_parametrization_identities():
    started = time.perf_counter()
    spec = GridSpec(32)
    rng = np.random.default_rng(7)
    worst_gauge = 0.0
    worst_param = 0.0
    for trial in range(50):
        m = tuple(rng.uniform(0.5, 5.0) * PI for _ in range(2))
        v = random_pair(spec, 2000 + trial)
        base = energy(v, m).total
        consts = rng.normal(size=2)
        shifted = MultiField(
            tuple(
                ScalarField(spec, c.values + k)
                for c, k in zip(v.components, consts)
            )
        )
        worst_gauge = max(worst_gauge, abs(energy(shifted, m).total - base))
        worst_param = max(
            worst_param, abs(energy_u(u_from_v(v), m).total - base)
        )
    assert worst_gauge < 1e-10
    assert worst_param < 1e-10
    assert time.perf_counter() - started < 5.0


def test_criterion_03_minimizer_converges_below_threshold():
    started = time.perf_counter()
    spec = GridSpec(64)
    report = minimize(
        (3 * PI, 3 * PI), spec, init=MultiField.zeros(spec, 2)
    )
    assert report.status == "Converged"
    assert all(res < 1e-6 for res in report.el_residuals)
    assert time.perf_counter() - started < 120.0


def test_criterion_04_blowup_above_threshold():
    started = time.perf_counter()
    spec = GridSpec(64)
    m = (4.5 * PI, 3 * PI)
    assert classify_boundedness(m, spec) == "Unbounded"
    # replicate the classifier's seed schedule to get the deciding run
    config = MinimizeConfig()
    deciding = None
    candidates = [MultiField.zeros(spec, 2)]
    for scale in (64.0, 16.0, 4.0):
        for component in (0, 1):
            seed = standard_bubble(
                BubbleParams(scale=scale), spec, allow_unresolved=True
            )
            fields = (
                seed.components
                if component == 0
                else tuple(reversed(seed.components))
            )
            candidates.append(v_from_u(MultiField(fields)))
    for init in candidates:
        report = minimize(m, spec, init=init, config=config)
        if report.status == "Unbounded":
            deciding = report
            break
    assert deciding is not None
    assert deciding.concentration[0].mass > 0.9
    drop = deciding.energy_trace[0] - deciding.energy_trace[-1]
    assert time.perf_counter() - started < 120.0
    assert drop > 200.0, (
        f"measured energy drop {drop:.1f}; the discrete certificate on a "
        "64-cell grid fires far below 200 (see the decision notes)"
    )


def test_criterion_05_region_map_boundary_at_threshold():
    started = time.perf_counter()
    spec = GridSpec(64)
    axis = np.linspace(PI, 5 * PI, 9)
    cell = axis[1] - axis[0]
    rows = sweep(
        [(float(m1), float(m2)) for m1 in axis for m2 in axis], spec
    )
    eps = 1e-9
    for row in rows:
        worst = max(row.m1, row.m2)
        if worst >= FOUR_PI + cell - eps:
            assert row.status == "Unbounded", (row.m1, row.m2, row.status)
        elif worst <= FOUR_PI - cell + eps:
            assert row.status == "Bounded", (row.m1, row.m2, row.status)
        # cells within one grid step of the threshold lines may land
        # either way (or Inconclusive) per the stated tolerance
    assert time.perf_counter() - started < 1800.0


def test_criterion_06_bubble_slopes():
    started = time.perf_counter()
    scales = tuple(np.e**k for k in (2, 3, 4, 5))
    report = fit_slopes(scales, (3 * PI, 3 * PI))
    expected = asymptotic_slope_table((3 * PI, 3 * PI))
    for key, target in expected.items():
        fitted = report[key].slope
        if target == 0.0:
            assert abs(fitted) < 0.05, key
        else:
            assert fitted == pytest.approx(target, rel=0.02), key
    steep = fit_slopes(scales, (5 * PI, 3 * PI))
    assert steep["energy"].slope == pytest.approx(
        2 * (FOUR_PI - 5 * PI), rel=0.02
    )
    assert time.perf_counter() - started < 60.0


def test_criterion_07_liouville_bubble():
    # the planar bubble is the rank-1 closed form started at u(0) = log 4 pi:
    # u = log 4 pi - 2 log(1 + pi r^2), whose mass tends to 4 pi
    started = time.perf_counter()
    bubble = radial_profile((np.log(FOUR_PI),), r_max=1e4)
    assert bubble.alpha[0][-1] / FOUR_PI == pytest.approx(1.0, abs=1e-6)
    r = np.asarray(bubble.r_nodes)
    exact = np.log(FOUR_PI) - 2.0 * np.log1p(PI * r * r)
    assert bubble.flux_max() < 1e-8
    assert np.max(np.abs(np.asarray(bubble.u[0]) - exact)) < 1e-8
    assert time.perf_counter() - started < 1.0


def test_criterion_08_symmetric_radial_masses():
    started = time.perf_counter()
    sol = integrate_radial((0.0, 0.0), r_max=1000.0)
    report = masses_and_exponents(sol)
    for alpha in report.alpha:
        assert alpha == pytest.approx(EIGHT_PI, rel=1e-3)
    assert time.perf_counter() - started < 5.0


def test_criterion_09_mass_relation_along_shooting_family():
    started = time.perf_counter()
    rows = sweep_shooting((-2.0, -1.5, -1.0, -0.5, 0.0, 0.5))
    converged = [row for row in rows if row.outcome == "converged"]
    assert len(converged) >= 5
    for row in converged:
        assert row.relation_rel < 0.01
        assert all(a > FOUR_PI for a in row.alpha)
        assert all(b > FOUR_PI for b in row.beta)
    assert time.perf_counter() - started < 60.0


def test_criterion_10_flux_and_ball_identities():
    started = time.perf_counter()
    sol = integrate_radial((0.0, 0.0), r_max=1000.0)
    assert sol.flux_max() < 1e-5
    for radius in (1.0, 10.0, 100.0):
        balance = ball_pohozaev(sol, radius)
        assert abs(balance.residual) / abs(balance.lhs) < 1e-4
    assert time.perf_counter() - started < 10.0


def test_criterion_11_determinism_of_data_files(tmp_path):
    # criterion 3 data file: the minimizer report
    reports = []
    for name in ("m1", "m2"):
        out = tmp_path / name
        assert main(
            ["minimize", "--m", "3.0pi,3.0pi", "--n", "64", "--out", str(out)]
        ) == 0
        reports.append(
            [(out / file).read_bytes() for file in ("report.json", "final_u.npy")]
        )
    assert reports[0] == reports[1]
    # criterion 4 data: the classification row at the blow-up coupling
    spec = GridSpec(64)
    serialized = []
    for _ in range(2):
        buf = io.StringIO()
        write_region_csv(sweep([(4.5 * PI, 3 * PI)], spec), buf)
        serialized.append(buf.getvalue())
    assert serialized[0] == serialized[1]
    # criterion 5 data file: the full region map
    regions = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert main(
            [
                "sweep",
                "--m-grid", "9x9",
                "--range", "1pi:5pi",
                "--n", "64",
                "--out", str(out),
            ]
        ) == 0
        regions.append((out / "region.csv").read_bytes())
    assert regions[0] == regions[1]
