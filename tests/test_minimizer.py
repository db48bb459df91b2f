"""Descent driver checks: convergence, blow-up certificate, classification."""

import dataclasses
import io
import os
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import disk_mass, log_integral_exp, random_pair, sample_function
from todalab.bubbles import BubbleParams, standard_bubble
from todalab.cartan import NumericalError, cartan_su, cartan_su_inverse
from todalab.functional import (
    MultiField,
    _mix,
    energy,
    energy_gradient,
    evaluate,
    precondition_gradient,
    v_from_u,
)
from todalab.grid import (
    GridSpec,
    ScalarField,
    _apply_symbol,
    _centered,
    _disk_symbol,
    _inverse_neg_laplacian,
    _neg_laplacian,
    _periodic_dist_sq,
    random_smooth_field,
)
import todalab.minimizer as minimizer
from todalab.minimizer import (
    REGION_CSV_HEADER,
    ConcentrationSpot,
    MinimizeConfig,
    MinimizeReport,
    SweepRow,
    _bubble_seed,
    _classify,
    _concentration_from_density,
    _mirror_key,
    classify_boundedness,
    detect_concentration,
    minimize,
    sweep,
    write_region_csv,
)

PI = np.pi


def normalized_from_density(spec, density):
    """Turn a positive density array into a normalized log field."""
    raw = ScalarField(spec, np.log(density))
    return ScalarField(spec, raw.values - log_integral_exp(raw))


def brute_disk_cell_count(n, radius):
    """Direct count of grid cells within periodic distance radius of a point.

    Independent of the library's distance helper: plain double loop over
    signed offsets.
    """
    h = 1.0 / n
    count = 0
    for i in range(n):
        for j in range(n):
            di = min(i, n - i) * h
            dj = min(j, n - j) * h
            if di * di + dj * dj <= radius * radius:
                count += 1
    return count


def roll_loop_masses(density, spec, radius):
    """Reference disk masses: one np.roll of the density per disk offset."""
    offsets = np.argwhere(_periodic_dist_sq(spec, (0.0, 0.0)) <= radius * radius)
    masses = np.zeros_like(density)
    for di, dj in offsets:
        masses += np.roll(density, (-int(di), -int(dj)), axis=(0, 1))
    return masses * spec.h**2


def lexicographic_peak(masses):
    """Center of the heaviest disk, ties within 1e-12 to the first cell."""
    tied = masses >= masses.max() * (1.0 - 1e-12)
    ci, cj = np.argwhere(tied)[0]
    n = masses.shape[0]
    return (ci / n, cj / n)


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        MinimizeConfig(max_iters=0)
    with pytest.raises(ValueError):
        MinimizeConfig(grad_tol=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            MinimizeConfig(grad_tol=bad)
    # the first trial step, the certificate's drop and its disk are fixed,
    # not settings
    fixed = {"step": 1.0, "divergence_energy_drop": 14.0,
             "concentration_radius": 0.05, "concentration_mass": 0.9}
    for name, value in fixed.items():
        assert getattr(MinimizeConfig(), name) == value
        with pytest.raises(TypeError):
            MinimizeConfig(**{name: value})
    assert [f.name for f in dataclasses.fields(MinimizeConfig)] == [
        "max_iters", "grad_tol", "seed"]
    # integer and real types other than int and float are accepted
    MinimizeConfig(max_iters=np.int64(3), grad_tol=np.float32(1e-3), seed=np.uint8(1))


@pytest.mark.parametrize("settings, message", [
    ({"max_iters": 2.5}, "max_iters must be an integer"),
    ({"max_iters": np.nan}, "max_iters must be an integer"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": np.nan}, "seed must be an integer"),
    ({"grad_tol": "1e-6"}, "grad_tol must be a number"),
    # bool subclasses int: max_iters=True used to run one iteration and
    # grad_tol=True to set a tolerance of 1.0
    ({"max_iters": True}, "max_iters must be an integer"),
    ({"max_iters": False}, "max_iters must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"seed": False}, "seed must be an integer"),
    ({"grad_tol": True}, "grad_tol must be a number"),
    ({"grad_tol": False}, "grad_tol must be a number"),
])
def test_config_rejects_settings_of_the_wrong_type(settings, message):
    # each of these used to pass the constructor and then either fail
    # inside the descent with a TypeError or run with a meaningless setting
    with pytest.raises(ValueError, match=message):
        MinimizeConfig(**settings)


def test_minimize_input_validation():
    spec = GridSpec(16)
    other = GridSpec(32)
    init = MultiField.zeros(other, 2)
    with pytest.raises(ValueError, match="grid mismatch"):
        minimize((3.0, 3.0), spec, init=init)
    with pytest.raises(ValueError, match="component count"):
        minimize((3.0, 3.0, 3.0), spec, init=MultiField.zeros(spec, 2))
    with pytest.raises(ValueError):
        minimize((-1.0, 3.0), spec)


# ---------------------------------------------------------------------------
# convergence below the threshold


@pytest.mark.parametrize("k", [1e-6, 3.0, 1e3])
def test_zero_init_is_an_exact_critical_point(k):
    # the flat field solves the stationarity system for every coupling,
    # so descent must stop immediately with an exactly zero energy
    spec = GridSpec(64)
    report = minimize((k * PI, k * PI), spec, init=MultiField.zeros(spec, 2))
    assert report.status == "Converged"
    assert report.iterations == 0
    assert report.energy_trace == (0.0,)
    assert report.max_field == 0.0
    assert all(r < 1e-6 for r in report.el_residuals)


def test_random_init_converges_below_threshold():
    spec = GridSpec(64)
    report = minimize((3 * PI, 3 * PI), spec, init=random_pair(spec, 11))
    assert report.status == "Converged"
    assert all(r < 10 * MinimizeConfig().grad_tol for r in report.el_residuals)
    trace = np.asarray(report.energy_trace)
    assert np.all(np.diff(trace) <= 0.0)
    # the reached critical value sits below the start
    assert trace[-1] < trace[0]
    # reported fields are normalized: unit exp-integral per component
    for comp in report.final_u.components:
        assert abs(log_integral_exp(comp)) < 1e-10


def test_weak_coupling_relaxes_to_flat():
    spec = GridSpec(32)
    report = minimize((0.01, 0.01), spec, init=random_pair(spec, 3, amplitude=0.2))
    assert report.status == "Converged"
    assert abs(report.energy_trace[-1]) < 1e-6
    assert report.max_field < 0.05


def test_converged_residuals_sit_under_ten_grad_tol():
    spec = GridSpec(32)
    config = MinimizeConfig()
    report = minimize((2 * PI, 3 * PI), spec, init=random_pair(spec, 7),
                      config=config)
    assert report.status == "Converged"
    assert all(r < 10 * config.grad_tol for r in report.el_residuals)


def test_budget_status_when_iterations_run_out():
    spec = GridSpec(32)
    config = MinimizeConfig(max_iters=1)
    report = minimize((3 * PI, 3 * PI), spec, init=random_pair(spec, 5),
                      config=config)
    assert report.status == "Budget"
    assert report.iterations == 1


@pytest.mark.parametrize("n", [32, 64])
def test_descent_starts_at_functional_energy(n):
    # minimize and functional.energy share one kernel, so criterion 01's
    # finite-difference check of energy covers the energy the descent sees
    spec = GridSpec(n)
    m = (3 * PI, 2 * PI)
    init = MultiField(
        tuple(ScalarField(spec, f.values + c)
              for f, c in zip(random_pair(spec, n).components, (0.4, -1.3)))
    )
    report = minimize(m, spec, init=init, config=MinimizeConfig(max_iters=1))
    assert report.energy_trace[0] == pytest.approx(energy(init, m).total, rel=1e-12)


# ---------------------------------------------------------------------------
# rank 3: the flat state is a saddle inside the bounded box


@pytest.mark.parametrize("n", [32, 64])
def test_rank_three_stripe_brackets_the_flat_saddle(n):
    # v = 1e-2 c cos 2 pi x with c = A^-1 d, d the top eigenvector of A,
    # moves u along d; the flat state is a saddle once every coupling
    # passes m*_3 = 4 pi^2 / lam_max(A)
    spec = GridSpec(n)
    lam, vecs = np.linalg.eigh(cartan_su(3))
    c = np.linalg.solve(cartan_su(3), vecs[:, -1])
    m_star = 4 * PI**2 / lam[-1]
    assert m_star == pytest.approx(3.6806 * PI, rel=1e-5)
    stripe = sample_function(spec, lambda x, y: 1e-2 * np.cos(2 * PI * x)).values
    init = MultiField(tuple(ScalarField(spec, ci * stripe) for ci in c))
    below = minimize([0.99 * m_star] * 3, spec, init=init)
    assert below.status == "Converged"
    assert abs(below.energy_trace[-1]) < 1e-12  # back to flat
    above = minimize([1.01 * m_star] * 3, spec, init=init)
    assert above.status == "Converged"
    assert above.energy_trace[-1] < 0.0  # a non-constant critical point


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("seed", range(4))
def test_rank_three_random_starts_end_below_the_flat_state(n, seed):
    # (3.75 pi)^3 lies past m*_3 but inside the box M_j < 4 pi, where Phi
    # has a minimizer; every start measured ends at E = -0.0494552
    report = minimize([3.75 * PI] * 3, GridSpec(n), config=MinimizeConfig(seed=seed))
    assert report.status == "Converged"
    assert report.energy_trace[-1] < -0.04


# ---------------------------------------------------------------------------
# gauge and determinism


def test_gauge_shift_of_init_changes_nothing():
    spec = GridSpec(32)
    base = random_pair(spec, 19)
    shifted = MultiField(
        tuple(
            ScalarField(spec, f.values + c)
            for f, c in zip(base.components, (0.7, -0.3))
        )
    )
    r1 = minimize((3 * PI, 2 * PI), spec, init=base)
    r2 = minimize((3 * PI, 2 * PI), spec, init=shifted)
    assert r1.status == r2.status == "Converged"
    diff = np.max(np.abs(r1.final_u.stack() - r2.final_u.stack()))
    assert diff < 1e-8


def test_same_seed_reproduces_trace_exactly():
    spec = GridSpec(32)
    config = MinimizeConfig(seed=42)
    r1 = minimize((3 * PI, 3 * PI), spec, config=config)
    r2 = minimize((3 * PI, 3 * PI), spec, config=config)
    assert r1.energy_trace == r2.energy_trace
    assert r1.iterations == r2.iterations


# ---------------------------------------------------------------------------
# blow-up past the threshold


def descend_counting_detector(monkeypatch, m, spec, init):
    """minimize(m, spec, init), its detector calls, and the detector calls
    the skip bound allows: one per iterate past the drop line whose peak
    density times the disk's cell count reaches the threshold, plus the
    call after the loop unless a blow-up was certified in it."""
    detect = minimizer._concentration_from_density
    gradient = minimizer.raw_gradient
    calls, densities = [], []
    monkeypatch.setattr(minimizer, "_concentration_from_density",
                        lambda *args: calls.append(args) or detect(*args))
    # the descent reads its density once per iteration and updates it in place
    monkeypatch.setattr(minimizer, "raw_gradient",
                        lambda rho, *args: densities.append(rho.copy())
                        or gradient(rho, *args))
    report = minimize(m, spec, init=init)
    iterates = densities[1:]
    if len(iterates) < report.iterations:  # stopped before reading the last one
        iterates.append(np.exp(report.final_u.stack()))
    assert len(iterates) == report.iterations
    config = MinimizeConfig()
    cells = brute_disk_cell_count(spec.n, config.concentration_radius)
    reachable = np.array([
        spec.h**2 * rho.max() * cells >= config.concentration_mass * (1.0 - 1e-12)
        for rho in iterates
    ])
    trace = np.asarray(report.energy_trace)
    past = trace[1:] < trace[0] - config.divergence_energy_drop
    expected = int(np.sum(past & reachable)) + (report.status != "Unbounded")
    return report, len(calls), expected


def test_supercritical_first_coupling_blows_up_from_bubble_seed(monkeypatch):
    spec = GridSpec(64)
    seed = standard_bubble(BubbleParams(scale=8.0), spec)
    report, calls, expected = descend_counting_detector(
        monkeypatch, (5 * PI, 3 * PI), spec, v_from_u(seed)
    )
    assert report.status == "Unbounded"
    trace = np.asarray(report.energy_trace)
    assert np.all(np.diff(trace) <= 0.0)
    drop = MinimizeConfig().divergence_energy_drop
    assert trace[-1] < trace[0] - drop
    # the spots that certified the blow-up are reported, not computed again
    assert calls == expected
    # the supercritical component carries the concentration
    assert report.concentration[0].mass > 0.9
    # and the spike sits where the seed put it
    assert report.concentration[0].center == (0.5, 0.5)


# ---------------------------------------------------------------------------
# the closed-form line search


def sweep_axis(lo):
    """Coupling axis of `sweep --m-grid 9x9 --range {lo}pi:{lo + 4}pi`."""
    return np.linspace(lo * PI, (lo + 4.0) * PI, 9)


@pytest.mark.parametrize(
    "m", [(3 * PI, 3 * PI), (4.5 * PI, 3 * PI), (3.4783 * PI, 3.4783 * PI)]
)
def test_accumulated_energy_matches_fresh_evaluation(monkeypatch, m):
    # the descent adds closed-form changes to its start energy; a fresh
    # evaluation of the state it ends in must give the same total
    descend = minimizer.minimize
    reports = []
    monkeypatch.setattr(minimizer, "minimize",
                        lambda *args, **kwargs: reports.append(descend(*args, **kwargs))
                        or reports[-1])
    spec = GridSpec(64)
    _classify(m, spec)
    assert any(r.iterations > 0 for r in reports)
    for r in reports:
        fresh = evaluate(v_from_u(r.final_u).stack(), np.asarray(m)).parts.total
        scale = max(1.0, abs(r.energy_trace[0]))
        assert abs(fresh - r.energy_trace[-1]) <= 1e-12 * scale


@pytest.mark.parametrize(
    "m, n, seed",
    [
        ((3 * PI, 2 * PI), 16, 0),
        ((3 * PI, 2 * PI), 16, 1),
        ((3 * PI, 2 * PI), 16, 2),
        ((1e-8, 1e-8), 8, 0),
    ],
)
def test_descent_stops_at_the_roundoff_floor_within_its_budget(m, n, seed):
    # a tolerance no gradient meets: the descent ends where no step above
    # the backtracking floor passes the Armijo test (the first three) or no
    # direction descends (the last), long before its budget
    config = MinimizeConfig(grad_tol=1e-300, max_iters=500, seed=seed)
    report = minimize(m, GridSpec(n), config=config)
    assert report.status == "Stalled"
    assert report.iterations < config.max_iters
    trace = report.energy_trace
    assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_a_stalled_seed_leaves_its_cell_inconclusive():
    # no gradient meets this tolerance, so no seed converges and the
    # first one stops at the floating-point floor
    config = MinimizeConfig(grad_tol=1e-300, max_iters=500)
    status, report = _classify((3 * PI, 2 * PI), GridSpec(16), config)
    assert (status, report.status) == ("Inconclusive", "Stalled")


@pytest.mark.parametrize(
    "config, status",
    [
        (MinimizeConfig(max_iters=1), "Budget"),
        (MinimizeConfig(), "Converged"),
        (MinimizeConfig(grad_tol=1e-300, max_iters=500), "Stalled"),
    ],
)
def test_iterations_count_the_steps_of_the_energy_trace(config, status):
    report = minimize((3 * PI, 2 * PI), GridSpec(16), config=config)
    assert report.status == status
    assert report.iterations == len(report.energy_trace) - 1
    assert report.to_dict()["iterations"] == report.iterations


@pytest.mark.parametrize(
    "lo, cell, expected",
    [
        (1.068, (2, 5), "Bounded"),  # (2.068pi, 3.568pi)
        (0.9783, (5, 5), "Bounded"),  # (3.4783pi, 3.4783pi)
        (0.9529, (1, 7), "Unbounded"),  # (1.4529pi, 4.4529pi)
    ],
)
def test_seeds_relaxing_to_flat_state_classify_as_the_paper_says(lo, cell, expected):
    # one seed in each of these cells relaxes to the flat critical point,
    # where the decrements fall below the precision of a total energy
    axis = sweep_axis(lo)
    m = (axis[cell[0]], axis[cell[1]])
    assert classify_boundedness(m, GridSpec(64)) == expected


def test_bubble_seed_relaxes_to_flat_state_and_converges():
    axis = sweep_axis(1.068)
    m = (axis[2], axis[5])
    spec = GridSpec(64)
    init = v_from_u(_bubble_seed(spec, 64.0, 1))
    report = minimize(m, spec, init=init)
    assert report.status == "Converged"
    assert max(report.el_residuals) < 10 * MinimizeConfig().grad_tol


def test_detector_skipped_while_no_disk_can_reach_the_threshold(monkeypatch):
    # a rough start relaxes through a large drop with its density spread out
    spec = GridSpec(32)
    report, calls, expected = descend_counting_detector(
        monkeypatch, (3 * PI, 3 * PI), spec, random_pair(spec, 1, amplitude=4.0)
    )
    assert report.status == "Converged"
    assert calls == expected
    trace = np.asarray(report.energy_trace)
    drop = MinimizeConfig().divergence_energy_drop
    assert calls < np.sum(trace[1:] < trace[0] - drop)


# ---------------------------------------------------------------------------
# L-BFGS in the preconditioner's metric


def textbook_two_loop(pairs, g, apply_p):
    """-H g by the two-loop recursion on explicit vectors, with H0 = apply_p."""
    q = g.copy()
    alphas = []
    for s, y in reversed(pairs):
        alpha = np.vdot(s, q) / np.vdot(s, y)
        q -= alpha * y
        alphas.append(alpha)
    r = apply_p(q)
    for (s, y), alpha in zip(pairs, reversed(alphas)):
        beta = np.vdot(y, r) / np.vdot(s, y)
        r += (alpha - beta) * s
    return -r


def test_gram_recursion_matches_textbook_two_loop():
    shape = (2, 16, 16)
    inverse = cartan_su_inverse(2)
    rng = np.random.default_rng(7)

    def field():
        return _centered(rng.standard_normal(shape))

    def apply_p(x):
        return _inverse_neg_laplacian(_mix(inverse, x))

    def gradient_state(g):
        return g, apply_p(g), _neg_laplacian(apply_p(g))

    history = minimizer._History(minimizer.HISTORY_PAIRS, shape)
    g = field()
    kept = []
    for k in range(8):
        y = field()
        # P is positive definite on zero-mean fields, so s = P (y + noise)
        # mostly has s.y > 0; pair 3 has negative curvature for certain
        s = -apply_p(y) if k == 3 else apply_p(y + 0.3 * field())
        step = rng.uniform(0.5, 2.0)
        direction = s / step
        history.push(*gradient_state(g + y), step, direction,
                     _neg_laplacian(direction), *gradient_state(g),
                     np.empty(shape))
        if np.vdot(s, y) > 0:
            kept.append((step * direction, y))
        g = g + y
    assert minimizer.HISTORY_PAIRS <= len(kept) < 8
    assert len(history.order) == minimizer.HISTORY_PAIRS
    raw = field()
    d, neglap_d = history.direction(*gradient_state(raw), np.empty((2,) + shape))
    want = textbook_two_loop(kept[-minimizer.HISTORY_PAIRS:], raw, apply_p)
    assert np.linalg.norm(d - want) <= 1e-12 * np.linalg.norm(want)
    # the tracked -lap d is the transform of d
    assert np.linalg.norm(neglap_d - _neg_laplacian(d)) <= 1e-12 * np.linalg.norm(neglap_d)


def test_non_descent_direction_restarts_with_the_preconditioned_step(monkeypatch):
    quasi_newton = minimizer._History.direction
    mix = minimizer._mix
    forced, searched = [], []

    def uphill(history, raw, precond, neglap_precond, *out):
        d, neglap_d = quasi_newton(history, raw, precond, neglap_precond, *out)
        forced.append((history, -precond))
        return -d, -neglap_d

    def record(matrix, direction, *out):
        # the descent mixes each searched direction once, as w = A d
        if forced:
            searched.append((len(forced), len(forced[-1][0].order), direction.copy()))
        return mix(matrix, direction, *out)

    monkeypatch.setattr(minimizer._History, "direction", uphill)
    monkeypatch.setattr(minimizer, "_mix", record)
    spec = GridSpec(16)
    report = minimize((3 * PI, 3 * PI), spec, init=random_pair(spec, 3))
    assert report.status == "Converged"
    assert forced
    for k, (_, plain) in enumerate(forced, start=1):
        count, pairs, direction = next(r for r in searched if r[0] == k)
        assert pairs == 0
        assert np.array_equal(direction, plain)


def test_each_iteration_runs_one_inverse_laplacian(monkeypatch):
    # one FFT pair per iteration, plus the one that finds convergence
    inverse = minimizer._inverse_neg_laplacian
    calls = []
    monkeypatch.setattr(minimizer, "_inverse_neg_laplacian",
                        lambda values, *out: calls.append(1) or inverse(values, *out))
    spec = GridSpec(64)
    init = v_from_u(_bubble_seed(spec, 16.0, 0))
    report = minimize((3.9 * PI, 3.9 * PI), spec, init=init)
    assert report.status == "Converged"
    assert report.iterations > 10
    assert len(calls) == report.iterations + 1


@pytest.mark.parametrize("rank", [2, 3])
def test_first_preconditioned_gradient_matches_precondition_gradient(monkeypatch, rank):
    # the descent forms P g as v0 + (-lap)^-1 s from its own pieces, while
    # precondition_gradient applies A^-1 and (-lap)^-1 to the L2 gradient
    inverse = minimizer._inverse_neg_laplacian
    outputs = []

    def record(values, *out):
        # the descent adds v0 to the result in place, so keep a copy
        result = inverse(values, *out)
        outputs.append(result.copy())
        return result

    monkeypatch.setattr(minimizer, "_inverse_neg_laplacian", record)
    spec = GridSpec(32)
    rng = np.random.default_rng(rank)
    v = MultiField(tuple(random_smooth_field(spec, rng) for _ in range(rank)))
    m = tuple((2.0 + 0.5 * k) * PI for k in range(rank))
    minimize(m, spec, init=v, config=MinimizeConfig(max_iters=1))
    descent = _centered(v.stack()) + outputs[0]
    oracle = precondition_gradient(energy_gradient(v, m)).stack()
    assert np.linalg.norm(descent - oracle) <= 1e-12 * np.linalg.norm(oracle)


@pytest.mark.parametrize("n, pairs", [(32, 5), (64, 5), (128, 2), (256, 0)])
def test_history_fits_its_byte_budget(monkeypatch, n, pairs):
    history = minimizer._History
    sizes = []
    monkeypatch.setattr(minimizer, "_History",
                        lambda size, shape: sizes.append(size) or history(size, shape))
    minimize((3 * PI, 3 * PI), GridSpec(n), config=MinimizeConfig(max_iters=1))
    assert sizes == [pairs]


@pytest.mark.parametrize("m, config", [
    ((2.04 * PI, 2.13 * PI), MinimizeConfig(seed=447)),
    ((3.9 * PI,) * 3, MinimizeConfig(max_iters=5)),
])
def test_descent_at_n256_holds_at_most_thirteen_field_stacks(m, config):
    # the loop state (v0, u, -lap v0, rho) and a workspace of six arrays
    # come to about 10 (N, n, n) stacks; allocating in every iteration
    # held 22 at once
    spec = GridSpec(256)
    # the cached symbols at n = 256 are not part of the descent
    minimize((2 * PI, 2 * PI), spec, config=MinimizeConfig(max_iters=1))
    tracemalloc.start()
    try:
        report = minimize(m, spec, config=config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.iterations >= 5
    assert peak <= 13 * len(m) * spec.n**2 * np.dtype(float).itemsize


@pytest.mark.parametrize("m, config", [
    ((2.04 * PI, 2.13 * PI), MinimizeConfig(seed=447)),
    ((3.9 * PI,) * 3, MinimizeConfig(max_iters=5)),
])
def test_descent_at_n256_shares_the_source_and_spectrum_buffers(m, config):
    # w = A d overwrites the source and the line-search growth lives in the
    # half spectrum, so the workspace is six arrays, not eight: 12.1 stacks
    # fall to 10.1
    spec = GridSpec(256)
    minimize((2 * PI, 2 * PI), spec, config=MinimizeConfig(max_iters=1))
    tracemalloc.start()
    try:
        report = minimize(m, spec, config=config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.iterations >= 5
    assert peak <= 10.5 * len(m) * spec.n**2 * np.dtype(float).itemsize


@pytest.mark.parametrize("m, n, status, iterations, energy_hex", [
    # with a history, ended by the detector, which reuses the spectrum
    ((4.5 * PI, 3 * PI), 64, "Unbounded", 6, "-0x1.e2fafa8db07a6p+2"),
    ((3 * PI, 2 * PI), 64, "Converged", 12, "0x1.3fb2f29b5c700p-45"),
    # no history at n = 256
    ((2.3 * PI, 2.2 * PI), 256, "Converged", 15, "0x1.e7202d4c4ad44p-48"),
])
def test_seeded_descents_keep_their_last_bits(m, n, status, iterations, energy_hex):
    # recorded before the workspace shared any buffer: the sharing only
    # aliases memory and changes no operation
    spec = GridSpec(n)
    report = minimize(m, spec, init=v_from_u(_bubble_seed(spec, 16.0, 0)))
    assert (report.status, report.iterations) == (status, iterations)
    assert report.energy_trace[-1].hex() == energy_hex


@pytest.mark.parametrize(
    "m, expected",
    [
        ((3.4783, 3.4783), "Bounded"),
        ((2.068, 3.568), "Bounded"),
        ((1.4529, 4.4529), "Unbounded"),
        ((3.9, 3.9), "Bounded"),
        ((3.95, 1.0), "Bounded"),
    ],
)
def test_near_threshold_cells_classify_within_sixty_iterations(monkeypatch, m, expected):
    # preconditioned steepest descent needed up to 111 iterations here
    descend = minimizer.minimize
    reports = []
    monkeypatch.setattr(minimizer, "minimize",
                        lambda *args, **kwargs: reports.append(descend(*args, **kwargs))
                        or reports[-1])
    assert classify_boundedness(tuple(x * PI for x in m), GridSpec(64)) == expected
    assert max(r.iterations for r in reports) <= 60


couplings = st.floats(-6.0, 3.0).map(lambda e: 10.0**e * PI)


@given(m1=couplings, m2=couplings, seed=st.integers(0, 2**16), early_stop=st.booleans())
@example(m1=1e3 * PI, m2=1e3 * PI, seed=0, early_stop=False)
@example(m1=1e-6 * PI, m2=1e3 * PI, seed=0, early_stop=False)
@example(m1=1e3 * PI, m2=1e-6 * PI, seed=1, early_stop=True)
def test_extreme_couplings_end_cleanly(m1, m2, seed, early_stop):
    # from concentrated seeds the unit quasi-Newton steps overshoot by
    # orders of magnitude, and without the early stop the descent chases
    # a grid-scale spike whose density underflows almost everywhere
    spec = GridSpec(16)
    drop = 14.0 if early_stop else 1e300
    inits = [random_pair(spec, seed)] + [
        v_from_u(_bubble_seed(spec, scale, component))
        for scale, component in ((64.0, 0), (4.0, 1))
    ]
    for init in inits:
        try:
            with mock.patch.object(MinimizeConfig, "divergence_energy_drop", drop):
                report = minimize((m1, m2), spec, init=init)
        except NumericalError as exc:
            assert str(exc) == "non-finite energy at iteration 0"
            continue
        values = [*report.energy_trace, *report.el_residuals, report.max_field,
                  *(spot.mass for spot in report.concentration)]
        assert np.all(np.isfinite(values))
        assert np.all(np.diff(report.energy_trace) <= 0.0)
    try:
        (row,) = sweep([(m1, m2)], spec)
    except NumericalError as exc:
        assert str(exc) == "non-finite energy at iteration 0"
        return
    assert np.all(np.isfinite([row.energy, row.max_field, row.conc1, row.conc2]))


def test_non_finite_energy_raises_with_trace():
    # a non-constant field this large overflows the quadratic term;
    # a constant would be gauged away and stay finite
    spec = GridSpec(16)
    x = np.arange(16) / 16.0
    wave = 1.0e200 * np.cos(2 * PI * x)[:, None] * np.ones((1, 16))
    huge = MultiField((ScalarField(spec, wave), ScalarField(spec, -wave)))
    with pytest.raises(NumericalError) as excinfo:
        minimize((3 * PI, 3 * PI), spec, init=huge)
    assert type(excinfo.value) is NumericalError
    assert isinstance(excinfo.value, RuntimeError)
    assert str(excinfo.value) == "non-finite energy at iteration 0"


# ---------------------------------------------------------------------------
# concentration detection


def test_uniform_density_has_disk_area_mass():
    spec = GridSpec(64)
    flat = MultiField.zeros(spec, 2)
    spots = detect_concentration(flat, radius=0.25)
    expected = brute_disk_cell_count(64, 0.25) * spec.h ** 2
    for spot in spots:
        assert spot.mass == pytest.approx(expected, rel=1e-12)
        # everything ties, so the first cell wins
        assert spot.center == (0.0, 0.0)
    # the discrete disk area tracks pi r^2
    assert abs(spots[0].mass - PI / 16) < 0.01


def test_bubble_seed_concentrates_component_one():
    spec = GridSpec(64)
    seed = standard_bubble(
        BubbleParams(scale=64.0), spec, allow_unresolved=True
    )
    normalized = MultiField(
        tuple(
            ScalarField(spec, f.values - log_integral_exp(f))
            for f in seed.components
        )
    )
    spots = detect_concentration(normalized, radius=0.05)
    assert spots[0].mass > 0.9
    assert spots[0].center == (0.5, 0.5)
    # the compensating component is spread out, not concentrated
    assert spots[1].mass < 0.5


def test_two_bumps_report_the_heavier_center():
    spec = GridSpec(64)
    yy, xx = np.meshgrid(np.arange(64) / 64.0, np.arange(64) / 64.0, indexing="ij")

    def bump(cx, cy, weight, width=0.04):
        dx = np.minimum(np.abs(xx - cx), 1.0 - np.abs(xx - cx))
        dy = np.minimum(np.abs(yy - cy), 1.0 - np.abs(yy - cy))
        return weight * np.exp(-(dx * dx + dy * dy) / width**2)

    density = 0.1 + bump(0.75, 0.75, 80.0) + bump(0.25, 0.25, 50.0)
    field = normalized_from_density(spec, density)
    spots = detect_concentration(MultiField((field,)), radius=0.1)
    assert spots[0].center == (0.75, 0.75)


@pytest.mark.parametrize("n", [64, 128, 256])
def test_equal_bumps_tie_break_lexicographically(n):
    spec = GridSpec(n)
    yy, xx = np.meshgrid(np.arange(n) / n, np.arange(n) / n, indexing="ij")
    dx = np.minimum(np.abs(xx - 0.25), 1.0 - np.abs(xx - 0.25))
    dy = np.minimum(np.abs(yy - 0.25), 1.0 - np.abs(yy - 0.25))
    one = 40.0 * np.exp(-(dx * dx + dy * dy) / 0.04**2)
    # the twin bump is an exact half-period translate, so the two disk
    # sums agree up to transform roundoff, far inside the 1e-12 tie
    # band, and only the tie-break separates them
    density = 0.1 + one + np.roll(one, (n // 2, n // 2), axis=(0, 1))
    field = normalized_from_density(spec, density)
    spots = detect_concentration(MultiField((field,)), radius=0.1)
    assert spots[0].center == (0.25, 0.25)


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("radius", ["h", 0.05, 0.25, 0.5])
@given(seed=st.integers(0, 2**32 - 1), spread=st.floats(0.0, 6.0))
def test_fft_disk_masses_match_roll_loop_and_disk_mass(n, radius, seed, spread):
    # radius 0.5 is the wrap-around edge; spread runs the densities from
    # flat to spiky, each normalized to unit mass so every disk mass is <= 1
    spec = GridSpec(n)
    radius = spec.h if radius == "h" else radius
    rng = np.random.default_rng(seed)
    density = np.exp(spread * rng.standard_normal((2, n, n)))
    density /= density.sum(axis=(1, 2), keepdims=True) * spec.h**2
    masses = _apply_symbol(density, _disk_symbol(n, radius))
    spots = _concentration_from_density(density, spec, radius)
    # the cached symbol is shared by every later decision, so it is read-only
    assert _disk_symbol(n, radius).flags.writeable is False
    for comp, fft_masses, spot in zip(density, masses, spots):
        field = ScalarField(spec, comp)
        brute = np.array(
            [[disk_mass(field, (i * spec.h, j * spec.h), radius) for j in range(n)]
             for i in range(n)]
        )
        reference = roll_loop_masses(comp, spec, radius)
        # float64 transform roundoff on masses <= 1 stays far below 1e-13
        assert np.max(np.abs(fft_masses - reference)) < 1e-13
        assert np.max(np.abs(fft_masses - brute)) < 1e-13
        assert spot.mass == float(fft_masses.max())
        assert spot.center == lexicographic_peak(reference)


def test_detection_requires_normalized_input():
    spec = GridSpec(16)
    skewed = MultiField((ScalarField(spec, np.ones(spec.shape)),))
    with pytest.raises(ValueError, match="normalize first"):
        detect_concentration(skewed, radius=0.1)


def test_detection_radius_validation():
    spec = GridSpec(16)
    flat = MultiField.zeros(spec, 1)
    with pytest.raises(ValueError):
        detect_concentration(flat, radius=0.0)
    with pytest.raises(ValueError):
        detect_concentration(flat, radius=0.7)
    with pytest.raises(ValueError):
        detect_concentration(flat, radius=np.nan)


# ---------------------------------------------------------------------------
# classification and the coupling-plane sweep


def test_classify_interior_point_is_bounded():
    spec = GridSpec(64)
    assert classify_boundedness((3.9 * PI, 3.9 * PI), spec) == "Bounded"


def test_classify_supercritical_point_is_unbounded():
    spec = GridSpec(64)
    assert classify_boundedness((4.5 * PI, 2 * PI), spec) == "Unbounded"


def test_classify_boundary_point_is_not_unbounded():
    # exactly on the threshold the functional is bounded but barely
    # coercive; the honest answers are Bounded or Inconclusive
    spec = GridSpec(64)
    assert classify_boundedness((4 * PI, 4 * PI), spec) in (
        "Bounded",
        "Inconclusive",
    )


def test_classify_budget_limited_seeds_are_inconclusive():
    # one iteration settles no bubble seed; the first unfinished run is
    # the one reported
    spec, config = GridSpec(32), MinimizeConfig(max_iters=1)
    assert classify_boundedness((2 * PI, 2 * PI), spec, config) == "Inconclusive"
    status, report = _classify((2 * PI, 2 * PI), spec, config)
    assert (status, report.status) == ("Inconclusive", "Budget")


def test_rank_three_descent_converges():
    spec = GridSpec(32)
    report = minimize((3 * PI, 3 * PI, 3 * PI), spec)
    assert report.status == "Converged"
    assert report.final_u.n_components == 3
    assert max(report.el_residuals) < 10 * MinimizeConfig().grad_tol


def test_classify_requires_two_components():
    spec = GridSpec(32)
    with pytest.raises(ValueError, match="two components"):
        classify_boundedness((PI, PI, PI), spec)


def test_sweep_single_subcritical_point():
    spec = GridSpec(64)
    rows = sweep([(3 * PI, 3 * PI)], spec)
    assert len(rows) == 1
    row = rows[0]
    assert (row.m1, row.m2) == (3 * PI, 3 * PI)
    assert row.status == "Bounded"
    # the deciding run is the flat start, an exact critical point
    assert row.energy == 0.0
    assert row.max_field == 0.0
    assert row.conc1 < 0.05 and row.conc2 < 0.05


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512])
def test_bounded_row_is_the_flat_descents_row(monkeypatch, n):
    # u = 0 solves the system at every coupling, so a flat-start descent
    # ends Converged at iteration 0; a Bounded row is its numbers, written
    # without running it
    monkeypatch.setattr(minimizer, "_classify", lambda *args: ("Bounded", None))
    spec = GridSpec(n)
    for m in [(3 * PI, 3 * PI), (0.01, 0.01), (4 * PI, 4 * PI)]:
        flat = minimize(m, spec, init=MultiField.zeros(spec, 2))
        assert (flat.status, flat.iterations) == ("Converged", 0)
        spots = flat.concentration
        want = SweepRow(m[0], m[1], "Bounded", flat.energy_trace[-1], flat.max_field,
                        spots[0].mass, spots[1].mass)
        (row,) = sweep([m], spec)
        # repr tells apart 0.0 from -0.0 and a numpy scalar from a float
        assert repr(dataclasses.astuple(row)) == repr(dataclasses.astuple(want))


def test_sweep_tiny_couplings_are_bounded():
    spec = GridSpec(32)
    rows = sweep([(0.01, 0.01)], spec)
    assert rows[0].status == "Bounded"


def test_sweep_rejects_empty_input():
    spec = GridSpec(32)
    with pytest.raises(ValueError, match="empty"):
        sweep([], spec)


def use_cpus(monkeypatch, count):
    """Make the affinity mask report `count` CPUs (the sweep's worker count)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


# Bounded and Unbounded cells, each cheap at n = 32
POOL_CELLS = [
    (3 * PI, 3 * PI),
    (4.5 * PI, 2 * PI),
    (3.5 * PI, PI),
    (2 * PI, 4.5 * PI),
    (3.9 * PI, 3.9 * PI),
    (5 * PI, 5 * PI),
]


def test_pool_sweep_matches_in_process_classification(monkeypatch):
    use_cpus(monkeypatch, 2)
    spec = GridSpec(32)
    expected = oracle_rows(POOL_CELLS, spec)
    assert {row.status for row in expected} == {"Bounded", "Unbounded"}
    assert list(sweep(POOL_CELLS, spec)) == expected
    assert list(sweep(POOL_CELLS[::-1], spec)) == expected[::-1]


def pid_classify(m, spec, config=None, relaxed=None):
    """Stand-in for _classify whose status names the process that ran it."""
    spot = ConcentrationSpot(mass=0.0, center=(0.0, 0.0))
    report = SimpleNamespace(energy_trace=(0.0,), max_field=0.0, concentration=(spot, spot))
    return str(os.getpid()), report


@pytest.mark.parametrize("cpus", [1, 2])
def test_sweep_uses_a_pool_only_with_more_than_one_cpu(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(minimizer, "_classify", pid_classify)
    spec = GridSpec(32)
    pids = {row.status for row in sweep(POOL_CELLS, spec)}
    assert (str(os.getpid()) in pids) == (cpus == 1)
    # one cell never starts a pool
    (row,) = sweep(POOL_CELLS[:1], spec)
    assert row.status == str(os.getpid())


def test_worker_error_reaches_the_caller_with_its_trace(monkeypatch):
    use_cpus(monkeypatch, 2)
    classify = minimizer._classify

    def failing_classify(m, spec, config=None, relaxed=None):
        if m == POOL_CELLS[1]:
            raise NumericalError("non-finite energy at iteration 0")
        return classify(m, spec, config, relaxed)

    monkeypatch.setattr(minimizer, "_classify", failing_classify)
    with pytest.raises(NumericalError) as excinfo:
        sweep(POOL_CELLS[:3], GridSpec(32))
    assert type(excinfo.value) is NumericalError
    assert str(excinfo.value) == "non-finite energy at iteration 0"


SEEDS = [(scale, component) for scale in (64.0, 16.0, 4.0) for component in (0, 1)]


@pytest.mark.parametrize(
    "m, max_iters, statuses",
    [
        ((3.5 * PI, 2 * PI), 2000, {"Converged"}),  # Bounded, below the diagonal
        ((PI, 3 * PI), 2000, {"Converged"}),  # Bounded, above it
        ((2 * PI, 4.5 * PI), 2000, {"Converged", "Unbounded"}),  # Unbounded
        ((4 * PI, 4 * PI), 2000, {"Converged"}),  # the threshold corner
        ((3 * PI, 2 * PI), 1, {"Budget"}),
    ],
)
def test_mirrored_seeded_descents_agree(m, max_iters, statuses):
    # reversing the components leaves cartan_su(2) unchanged, so the seeded
    # descent and its mirror image end alike; sweep reuses this for Converged
    spec, config = GridSpec(32), MinimizeConfig(max_iters=max_iters)
    mirror = m[::-1]
    seen = set()
    for scale, component in SEEDS:
        assert _mirror_key(m, scale, component) == _mirror_key(mirror, scale, 1 - component)
        report = minimize(m, spec, init=v_from_u(_bubble_seed(spec, scale, component)),
                          config=config)
        image = minimize(mirror, spec, init=v_from_u(_bubble_seed(spec, scale, 1 - component)),
                         config=config)
        assert (report.status, report.iterations) == (image.status, image.iterations)
        seen.add(report.status)
    assert seen == statuses


def oracle_rows(cells, spec, config=None):
    """Sweep rows from a flat-start descent and six seeded ones per cell, unshared.

    The first Unbounded seed decides; otherwise all Converged is Bounded with
    the flat start's numbers, and anything else is Inconclusive with the
    first unfinished run's.
    """
    config = config or MinimizeConfig()
    rows = []
    for m in cells:
        flat = minimize(m, spec, init=MultiField.zeros(spec, 2), config=config)
        seeded = [
            minimize(m, spec, init=v_from_u(_bubble_seed(spec, scale, component)), config=config)
            for scale, component in SEEDS
        ]
        unbounded = [r for r in seeded if r.status == "Unbounded"]
        pending = [r for r in [flat] + seeded if r.status != "Converged"]
        if unbounded:
            status, report = "Unbounded", unbounded[0]
        elif pending:
            status, report = "Inconclusive", pending[0]
        else:
            status, report = "Bounded", flat
        rows.append(
            SweepRow(m1=m[0], m2=m[1], status=status, energy=report.energy_trace[-1],
                     max_field=report.max_field, conc1=report.concentration[0].mass,
                     conc2=report.concentration[1].mass)
        )
    return rows


def grid_cells(k1, k2, lo=PI, hi=5 * PI):
    """The cells of `sweep --m-grid {k1}x{k2} --range {lo}:{hi}`, in its order."""
    return [(float(a), float(b)) for a in np.linspace(lo, hi, k1) for b in np.linspace(lo, hi, k2)]


SWEEP_CASES = {
    "square": (grid_cells(5, 5), None),
    "non-square": (grid_cells(3, 2), None),
    "repeated cell": ([(3 * PI, 2 * PI), (2 * PI, 3 * PI), (3 * PI, 2 * PI), (4.5 * PI, 2 * PI)],
                      None),
    "inconclusive": ([(2 * PI, 3 * PI), (3 * PI, 2 * PI), (2 * PI, 2 * PI)],
                     MinimizeConfig(max_iters=1)),
}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_rows_equal_the_unshared_oracle(monkeypatch, case, cpus):
    cells, config = SWEEP_CASES[case]
    spec = GridSpec(32)
    expected = oracle_rows(cells, spec, config)
    if case == "inconclusive":
        assert {row.status for row in expected} == {"Inconclusive"}
    use_cpus(monkeypatch, cpus)
    assert list(sweep(cells, spec, config)) == expected


def test_mirror_orbits_share_relaxed_descents(monkeypatch):
    use_cpus(monkeypatch, 1)
    descend = minimizer.minimize
    reports = []
    monkeypatch.setattr(minimizer, "minimize",
                        lambda *args, **kwargs: reports.append(descend(*args, **kwargs))
                        or reports[-1])
    spec = GridSpec(32)
    sweep(grid_cells(5, 5), spec)
    # without sharing, the same cells take 107 descents for 1,238 iterations
    assert (len(reports), sum(r.iterations for r in reports)) == (59, 641)
    # a diagonal cell is its own mirror: three seeds of its six run
    reports.clear()
    assert classify_boundedness((3 * PI, 3 * PI), spec) == "Bounded"
    assert len(reports) == 3


def test_region_csv_roundtrip(tmp_path):
    spec = GridSpec(64)
    rows = sweep([(3 * PI, 3 * PI), (4.5 * PI, 2 * PI)], spec)
    path = tmp_path / "region.csv"
    write_region_csv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == REGION_CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(3 * PI, rel=1e-12)
    assert first[2] == "Bounded"
    second = lines[2].split(",")
    assert second[2] == "Unbounded"
    assert float(second[5]) > 0.9  # conc1 of the blow-up run

    # writing to an open handle leaves it open
    buf = io.StringIO()
    write_region_csv(rows, buf)
    assert buf.getvalue().split("\n")[0] == REGION_CSV_HEADER


def test_report_to_dict_shapes():
    spec = GridSpec(32)
    report = minimize((3 * PI, 3 * PI), spec, init=MultiField.zeros(spec, 2))
    data = report.to_dict()
    assert data["status"] == "Converged"
    assert data["energy_trace"] == [0.0]
    assert len(data["final_u"]) == 2
    assert len(data["final_u"][0]) == 32
    slim = report.to_dict(include_fields=False)
    assert "final_u" not in slim
    assert slim["concentration"][0]["center"] == [0.0, 0.0]
