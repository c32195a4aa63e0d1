"""Tests for ring configurations, covering shifts, and fiber counting."""

from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import given, strategies as st

from qfiber.errors import EnumerationCapError
from qfiber.heisenberg import (
    Configuration,
    CoveringPoint,
    RelativePositions,
    center_projection,
    delta_fiber_sizes,
    delta_fiber_sizes_via_partitions,
    enumerate_configurations,
    reconstruct,
    relative_positions,
    shift_action,
)


def covering_points(ring_size, marked):
    """All covering points with the first mark in [1, ring_size]."""
    for first in range(1, ring_size + 1):
        for cuts in combinations(range(1, ring_size), marked - 1):
            bounds = (0,) + cuts + (ring_size,)
            gaps = [b - a for a, b in zip(bounds, bounds[1:])]
            positions = [first]
            for gap in gaps[:-1]:
                positions.append(positions[-1] + gap)
            yield CoveringPoint(tuple(positions), ring_size)


def brute_delta(n, r):
    table = [0] * r
    for cuts in combinations(range(1, n), r - 1):
        bounds = (0,) + cuts + (n,)
        gaps = [b - a for a, b in zip(bounds, bounds[1:])]
        weighted = sum(beta * gap for beta, gap in enumerate(gaps, start=1))
        for s in range(r):
            if (s + weighted) % r == 0:
                table[s] += 1
    return table


def test_configuration_validation():
    Configuration((1, 2, 3), 3)
    with pytest.raises(ValueError):
        Configuration((2, 2), 5)
    with pytest.raises(ValueError):
        Configuration((0, 1), 5)
    with pytest.raises(ValueError):
        Configuration((1, 6), 5)


def test_covering_point_validation():
    CoveringPoint((-2, 1), 5)
    with pytest.raises(ValueError):
        CoveringPoint((1, 6), 5)  # span not below ring size
    with pytest.raises(ValueError):
        CoveringPoint((3, 1), 5)


def test_relative_positions_validation():
    RelativePositions((2, 3), 5)
    with pytest.raises(ValueError):
        RelativePositions((2, 2), 5)
    with pytest.raises(ValueError):
        RelativePositions((0, 5), 5)
    with pytest.raises(ValueError):
        RelativePositions((), 5)


def test_enumerate_configurations_examples():
    got = [c.nodes for c in enumerate_configurations(3, 2)]
    assert got == [(1, 2), (1, 3), (2, 3)]
    assert [c.nodes for c in enumerate_configurations(4, 0)] == [()]


def test_enumerate_configurations_counts():
    for n in range(1, 11):
        for r in range(n + 1):
            assert sum(1 for _ in enumerate_configurations(n, r)) == comb(n, r)
    with pytest.raises(ValueError):
        list(enumerate_configurations(3, 4))


def test_center_projection_values():
    assert center_projection(Configuration((1, 2), 3)) == 0
    assert center_projection(Configuration((1, 3), 3)) == 1


def test_center_projection_fibers_sum_to_binomial():
    for n in range(1, 9):
        for r in range(n + 1):
            fibers = [0] * n
            for c in enumerate_configurations(n, r):
                fibers[center_projection(c)] += 1
            assert sum(fibers) == comb(n, r)


def test_relative_positions_examples():
    assert relative_positions(Configuration((1, 3), 5)).gaps == (2, 3)
    assert relative_positions(Configuration((1, 2, 3), 3)).gaps == (1, 1, 1)
    assert relative_positions(CoveringPoint((3, 6), 5)).gaps == (3, 2)
    with pytest.raises(ValueError):
        relative_positions(Configuration((), 4))


@given(st.integers(min_value=1, max_value=9), st.data())
def test_relative_positions_sum_to_ring_size(n, data):
    r = data.draw(st.integers(min_value=1, max_value=n))
    nodes = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=r, max_size=r))))
    gaps = relative_positions(Configuration(nodes, n))
    assert sum(gaps.gaps) == n


def test_reconstruct_worked_example():
    point = reconstruct(3, RelativePositions((1, 1, 1), 3))
    assert point.positions == (0, 1, 2)
    assert point.center_sum == 3


def test_reconstruct_rejects_incompatible_sum():
    with pytest.raises(ValueError):
        reconstruct(4, RelativePositions((1, 1, 1), 3))


def test_reconstruct_checks_its_position_sum(monkeypatch):
    # an explicit raise, not an assert, so the check also runs under `python -O`
    monkeypatch.setattr(
        CoveringPoint, "center_sum", property(lambda self: sum(self.positions) + 1))
    with pytest.raises(ArithmeticError, match="position sum 4, not 3"):
        reconstruct(3, RelativePositions((1, 1, 1), 3))


def test_reconstruct_round_trip():
    for n in range(1, 9):
        for r in range(1, n + 1):
            for point in covering_points(n, r):
                rebuilt = reconstruct(point.center_sum, relative_positions(point))
                assert rebuilt == point


def test_compatibility_of_position_sums():
    # every covering point satisfies the weighted-gap congruence its
    # reconstruction needs
    for n in range(1, 9):
        for r in range(1, n + 1):
            for point in covering_points(n, r):
                gaps = relative_positions(point).gaps
                weighted = sum(beta * g for beta, g in enumerate(gaps, start=1))
                assert (point.center_sum + weighted) % r == 0


def test_shift_action_examples():
    assert shift_action(CoveringPoint((1, 3), 5), 1).positions == (3, 6)
    assert shift_action(CoveringPoint((1, 3), 5), -1).positions == (-2, 1)
    assert shift_action(CoveringPoint((), 5), 3).positions == ()


def test_shift_action_raises_center_sum_by_ring_size():
    for n in range(1, 8):
        for r in range(1, n + 1):
            for point in covering_points(n, r):
                assert shift_action(point, 1).center_sum == point.center_sum + n


def test_shift_action_full_cycle_translates():
    for n in range(2, 8):
        for r in range(1, n + 1):
            for point in covering_points(n, r):
                moved = shift_action(point, r)
                assert moved.positions == tuple(j + n for j in point.positions)
                gaps = relative_positions(point).gaps
                assert relative_positions(shift_action(point, 1)).gaps == gaps[1:] + gaps[:1]


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
)
def test_shift_action_is_an_action(n, a, b):
    point = next(covering_points(n, (n + 1) // 2 or 1))
    assert shift_action(shift_action(point, a), b) == shift_action(point, a + b)


def test_shift_orbits_recover_configurations():
    # reducing covering points mod the shift gives exactly the configurations
    for n in range(2, 8):
        for r in range(1, n + 1):
            reduced = {
                tuple(sorted((j - 1) % n + 1 for j in point.positions))
                for point in covering_points(n, r)
            }
            assert len(reduced) == comb(n, r)


def test_delta_examples():
    assert delta_fiber_sizes(5, 2) == [2, 2]
    assert delta_fiber_sizes(3, 3) == [1, 0, 0]
    assert delta_fiber_sizes(10, 5) == [26, 25, 25, 25, 25]
    assert delta_fiber_sizes(15, 5) == [201, 200, 200, 200, 200]


def test_delta_matches_naive_recount():
    for n in range(1, 11):
        for r in range(1, n + 1):
            assert delta_fiber_sizes(n, r) == brute_delta(n, r), (n, r)


def test_delta_routes_agree():
    for n in range(1, 17):
        for r in range(1, n + 1):
            assert delta_fiber_sizes(n, r) == delta_fiber_sizes_via_partitions(n, r), (n, r)


def test_delta_totals():
    for n in range(1, 21):
        for r in range(1, n + 1):
            assert sum(delta_fiber_sizes_via_partitions(n, r)) == comb(n - 1, r - 1)


def test_delta_constant_when_coprime():
    for n in range(2, 15):
        for r in range(1, n + 1):
            if gcd(n, r) == 1:
                table = delta_fiber_sizes_via_partitions(n, r)
                assert len(set(table)) == 1, (n, r)


def test_delta_prime_multiple_gap():
    for p in (3, 5, 7):
        for mult in (1, 2):
            table = delta_fiber_sizes_via_partitions(mult * p, p)
            assert table[0] == table[1] + 1
            assert len(set(table[1:])) == 1


def test_delta_validation_and_cap():
    with pytest.raises(ValueError):
        delta_fiber_sizes(2, 5)
    with pytest.raises(ValueError):
        delta_fiber_sizes(5, 0)
    with pytest.raises(ValueError):
        delta_fiber_sizes_via_partitions(2, 5)
    with pytest.raises(EnumerationCapError):
        delta_fiber_sizes(30, 15, max_elements=100)
