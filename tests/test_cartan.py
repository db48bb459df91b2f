"""Coupling matrix checks: closed-form inverse, symmetry, threshold."""

import numpy as np
import pytest

from todalab.cartan import cartan_su, cartan_su_inverse, lower_bound_condition

PI = np.pi


def test_entries_rank_two():
    assert np.array_equal(cartan_su(2), [[2.0, -1.0], [-1.0, 2.0]])
    assert np.allclose(cartan_su_inverse(2), np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0)


def test_entries_rank_one():
    assert cartan_su(1)[0, 0] == 2.0
    assert cartan_su_inverse(1)[0, 0] == 0.5


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 7])
def test_inverse_matches_linear_solve_oracle(rank):
    k, inverse = cartan_su(rank), cartan_su_inverse(rank)
    assert np.max(np.abs(inverse - np.linalg.inv(k))) < 1e-12
    assert np.max(np.abs(k @ inverse - np.eye(rank))) < 1e-12


@pytest.mark.parametrize("build", [cartan_su, cartan_su_inverse])
def test_matrices_are_cached_and_read_only(build):
    assert build(3) is build(3)
    with pytest.raises(ValueError, match="read-only"):
        build(3)[0, 0] = 0.0
    for rank in (0, -1):
        with pytest.raises(ValueError, match="positive integer"):
            build(rank)


def test_leading_minors_are_positive():
    k = cartan_su(6)
    for size in range(1, 7):
        det = np.linalg.det(k[:size, :size])
        assert det == pytest.approx(size + 1, rel=1e-12)


def test_relabeling_symmetry():
    # the coupling matrix and its inverse are unchanged when the component
    # order is reversed, which makes (m1, m2) and (m2, m1) mirror images
    for rank in (1, 2, 3, 6):
        for build in (cartan_su, cartan_su_inverse):
            k = build(rank)
            assert np.array_equal(k[::-1, ::-1], k)


def test_threshold_condition_boundary():
    assert lower_bound_condition([4 * PI, 4 * PI])
    assert lower_bound_condition([0.1, 4 * PI])
    assert not lower_bound_condition([4 * PI * (1 + 1e-12), PI])
    # malformed couplings raise
    for bad in ([np.nan, PI], [np.inf, PI], [], [0.0, PI]):
        with pytest.raises(ValueError):
            lower_bound_condition(bad)


def test_a_bare_number_where_a_vector_belongs_is_a_value_error():
    # one coupling check serves every entry point, so a bare number, a
    # short cell or a non-number reads the same ValueError everywhere
    from todalab.closed_form import radial_profile
    from todalab.functional import MultiField, energy
    from todalab.grid import GridSpec
    from todalab.minimizer import classify_boundedness, minimize, sweep
    from todalab.pohozaev import radius_scan

    spec = GridSpec(16)
    flat = MultiField.zeros(spec, 1)
    numbers = "couplings must be a sequence of numbers"
    cases = [
        (lambda: lower_bound_condition(3.0), numbers),
        (lambda: minimize(3.0, spec), numbers),
        (lambda: classify_boundedness(3.0, spec), numbers),
        (lambda: classify_boundedness((PI, PI, PI), spec), "two components"),
        (lambda: sweep([3.0], spec), numbers),
        (lambda: sweep([(3.0,)], spec), "does not match rank"),
        (lambda: sweep([(3.0, "a")], spec), numbers),
        (lambda: energy(flat, 3.0), numbers),
        (lambda: radius_scan(flat, 3.0, (0.5, 0.5), (0.3,)), numbers),
        (lambda: radial_profile(0.0), "initial values must be a finite vector"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError, match=message):
            call()
    # without a rank the couplings set it: one coupling is rank 1
    assert minimize((3.0,), spec).final_u.n_components == 1
