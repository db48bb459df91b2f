"""Coupling matrix checks: closed-form inverse, margins, threshold."""

import numpy as np
import pytest

from todalab.cartan import (
    cartan_su,
    cartan_su_inverse,
    lower_bound_condition,
    margin_condition,
    subset_margin,
)

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


def test_subset_margin_examples():
    k = cartan_su(2)
    # singleton at the threshold value vanishes
    assert subset_margin([4 * PI, PI], k, [0]) == pytest.approx(0.0, abs=1e-9)
    # 8 pi * 5 pi - 2 (5 pi)^2 = 40 pi^2 - 50 pi^2
    assert subset_margin([5 * PI, 3 * PI], k, [0]) == pytest.approx(-10 * PI**2, rel=1e-12)
    # full pair at (4 pi, 4 pi): 64 pi^2 - (2 + 2 - 2) 16 pi^2
    assert subset_margin([4 * PI, 4 * PI], k, [0, 1]) == pytest.approx(32 * PI**2, rel=1e-12)


def test_subset_margin_singleton_closed_form():
    k = cartan_su(3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = rng.uniform(0.1, 20.0, size=3)
        for j in range(3):
            expected = 2.0 * m[j] * (4 * PI - m[j])
            assert subset_margin(m, k, [j]) == pytest.approx(expected, rel=1e-12)


def test_subset_margin_validation():
    k = cartan_su(2)
    with pytest.raises(ValueError, match="nonempty"):
        subset_margin([PI, PI], k, [])
    with pytest.raises(ValueError, match="out of range"):
        subset_margin([PI, PI], k, [2])
    with pytest.raises(ValueError, match="positive"):
        subset_margin([0.0, PI], k, [0])


def test_relabeling_symmetry():
    # the coupling matrix is symmetric under index reversal, so reversing
    # both the couplings and the subset leaves the margin unchanged
    k = cartan_su(3)
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = rng.uniform(0.1, 20.0, size=3)
        rev = m[::-1]
        for subset in ([0], [0, 1], [1, 2], [0, 2], [0, 1, 2]):
            mirrored = [2 - j for j in subset]
            assert subset_margin(m, k, subset) == pytest.approx(
                subset_margin(rev, k, mirrored), rel=1e-12
            )


def test_threshold_condition_boundary():
    assert lower_bound_condition([4 * PI, 4 * PI])
    assert lower_bound_condition([0.1, 4 * PI])
    assert not lower_bound_condition([4 * PI * (1 + 1e-12), PI])
    # malformed couplings raise, as they do in margin_condition
    for bad in ([np.nan, PI], [np.inf, PI], [], [0.0, PI]):
        with pytest.raises(ValueError):
            lower_bound_condition(bad)
        with pytest.raises(ValueError):
            margin_condition(bad, cartan_su(2))


def test_threshold_equivalent_to_all_margins_nonnegative():
    k = cartan_su(2)
    rng = np.random.default_rng(42)
    samples = rng.uniform(1e-6, 6 * PI, size=(10_000, 2))
    for m in samples:
        assert margin_condition(m, k) == lower_bound_condition(m)


def test_margin_condition_rank_cap():
    k = cartan_su(13)
    with pytest.raises(ValueError, match="rank"):
        margin_condition(np.full(13, PI), k)
