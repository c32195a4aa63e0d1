"""Tests for ring configurations, covering shifts, and fiber counting."""

import copy
import pickle
import re
import tracemalloc
from collections import deque
from itertools import accumulate, combinations
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

import qfiber.heisenberg as heisenberg
import qfiber.qbinomial as qbinomial
from qfiber.heisenberg import (
    center_projection,
    covering_point,
    delta_fiber_sizes,
    delta_fiber_sizes_closed_form,
    delta_fiber_sizes_via_partitions,
    enumerate_configurations,
    reconstruct,
    relative_positions,
    shift_action,
)
from qfiber.partitions import enumerate_restricted, partition
from qfiber.surjections import (
    act_cyclic,
    act_symmetric,
    act_unit,
    enumerate_step_sequences,
    integral,
    partition_to_surjection,
    step_sequence,
    surjection_to_partition,
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
            yield covering_point(positions, ring_size)


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


def test_covering_point_validation():
    covering_point((-2, 1), 5)
    covering_point((), 1)
    for positions in [(1, 1.5), ("2",), (None, 3)]:
        message = re.escape(f"positions must be integers: {positions!r}")
        with pytest.raises(ValueError, match=message):
            covering_point(positions, 5)
    for ring_size in (0, -1):
        with pytest.raises(ValueError, match="^ring_size must be positive$"):
            covering_point((1,), ring_size)
    for positions in [(1, 1), (3, 1), (-4, -2, -2)]:
        message = re.escape(f"positions must be strictly increasing: {positions!r}")
        with pytest.raises(ValueError, match=message):
            covering_point(positions, 5)
    for positions in [(1, 6), (-7, -2), (0, 2, 9)]:
        message = re.escape(f"span must be less than ring_size=5: {positions!r}")
        with pytest.raises(ValueError, match=message):
            covering_point(positions, 5)
    assert covering_point((True, 2), 2)[0] == (1, 2)
    from_list = covering_point([-2, 1], 5)
    assert from_list == ((-2, 1), 5) and type(from_list[0]) is tuple
    assert from_list == covering_point((-2, 1), 5)
    assert hash(from_list) == hash(covering_point((-2, 1), 5))
    with pytest.raises(ValueError, match=re.escape("span must be less than ring_size=5: (1, 6)")):
        covering_point([1, 6], 5)


def test_points_and_gap_vectors_are_plain_tuples():
    """A point is the pair (positions, ring_size) and a gap vector the tuple
    of its steps: ordered, hashed, pickled, copied and matched as tuples."""
    point, gaps = covering_point((1, 3), 5), step_sequence((2, 3))
    assert type(point) is type(point[0]) is type(gaps) is tuple
    assert point == ((1, 3), 5) and gaps == (2, 3)
    assert gaps != covering_point((2, 3), 5) and covering_point((2, 3), 5) != gaps
    assert point < covering_point((1, 4), 5) < covering_point((1, 4), 6)
    assert point < covering_point((2, 3), 5) and covering_point((-1, 0), 9) < point
    twin = covering_point([1, 3], 5)
    assert twin == point and hash(twin) == hash(point)
    for copied in (pickle.loads(pickle.dumps(point)), copy.copy(point), copy.deepcopy(point)):
        assert type(copied) is tuple and copied == point
    match point:
        case (first, second):
            assert (first, second) == ((1, 3), 5)
        case _:
            pytest.fail(f"{point!r} is not a pair")


def test_enumerate_configurations_examples():
    got = [positions for positions, _ in enumerate_configurations(3, 2)]
    assert got == [(1, 2), (1, 3), (2, 3)]
    assert list(enumerate_configurations(4, 0)) == [((), 4)]


def test_enumerate_configurations_counts():
    for n in range(1, 11):
        for r in range(n + 1):
            assert sum(1 for _ in enumerate_configurations(n, r)) == comb(n, r)
    with pytest.raises(ValueError):
        list(enumerate_configurations(3, 4))


def test_enumerated_configurations_are_the_checked_ones():
    # built unchecked, each equals the covering point `covering_point` makes
    # from the same r-subset
    for n in range(1, 9):
        for r in range(n + 1):
            enumerated = list(enumerate_configurations(n, r))
            assert enumerated == [covering_point(c, n) for c in combinations(range(1, n + 1), r)]
    # the arguments are checked when called, not when iterated
    for ring_size, marked, message in [
        (3, 4, "need 0 <= marked <= ring_size"), (3, -1, "need 0 <= marked <= ring_size"),
        (0, 0, "ring_size must be positive"), (-1, 1, "ring_size must be positive"),
        (2.0, 1, "ring_size must be an integer: 2.0"),
        ("3", 1, "ring_size must be an integer: '3'"), (3, 1.0, "marked must be an integer: 1.0"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            enumerate_configurations(ring_size, marked)


def test_center_projection_values():
    assert center_projection(((1, 2), 3)) == 0
    assert center_projection(((1, 3), 3)) == 1
    assert center_projection(([-2, 1], 5)) == 4
    with pytest.raises(ValueError, match=re.escape("span must be less than ring_size=5: (1, 6)")):
        center_projection(((1, 6), 5))


def test_center_projection_fibers_sum_to_binomial():
    # an r-subset j_1 < ... < j_r of [1, N] is the partition j_i - i of the
    # (N - r) x r box, of weight sum(j) - r(r+1)/2: the fiber over c is the
    # class sum of residue_sums(N - r, r, N) at c - r(r+1)/2
    for n in range(1, 11):
        for r in range(n + 1):
            fibers = [0] * n
            for c in enumerate_configurations(n, r):
                fibers[center_projection(c)] += 1
            assert sum(fibers) == comb(n, r)
            sums, offset = qbinomial.residue_sums(n - r, r, n), r * (r + 1) // 2
            assert fibers == [sums[(c - offset) % n] for c in range(n)], (n, r)


def moebius(n):
    """mu(n) by trial division, apart from the package's divisor table."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_center_projection_fibers_match_their_closed_form():
    # fiber over c = (1/N) sum_{d | gcd(N, r)} C(N/d, r/d) c_d(r(r+1)/2 - c),
    # with the Ramanujan sum c_d(m) = sum_{e | gcd(d, m)} mu(d/e) e
    def ramanujan(d, m):
        return sum(moebius(d // e) * e for e in divisors(gcd(d, m)))

    cases = 0
    for n in range(1, 15):
        for r in range(n + 1):
            fibers = [0] * n
            for point in enumerate_configurations(n, r):
                fibers[center_projection(point)] += 1
            top = r * (r + 1) // 2
            totals = [sum(comb(n // d, r // d) * ramanujan(d, top - c) for d in divisors(gcd(n, r)))
                      for c in range(n)]
            assert all(total % n == 0 for total in totals), (n, r)
            assert fibers == [total // n for total in totals], (n, r)
            cases += 1
    assert cases == 119


def test_relative_positions_examples():
    assert relative_positions(((1, 3), 5)) == (2, 3)
    assert relative_positions(((1, 2, 3), 3)) == (1, 1, 1)
    assert relative_positions(([3, 6], 5)) == (3, 2)
    with pytest.raises(ValueError, match="^need at least one marked node$"):
        relative_positions(((), 4))


@given(st.integers(min_value=1, max_value=9), st.data())
def test_relative_positions_sum_to_ring_size(n, data):
    r = data.draw(st.integers(min_value=1, max_value=n))
    nodes = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=r, max_size=r))))
    gaps = relative_positions((nodes, n))
    assert sum(gaps) == n


def test_reconstruct_worked_example():
    point = reconstruct(3, (1, 1, 1))
    assert point == ((0, 1, 2), 3)
    assert sum(point[0]) == 3
    assert reconstruct(3, [1, 1, 1]) == point


def test_reconstruct_rejects_incompatible_sum():
    message = "center sum 4 is incompatible with the gap vector (1, 1, 1)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        reconstruct(4, (1, 1, 1))


def test_reconstruct_checks_its_position_sum(monkeypatch):
    # an explicit raise, not an assert, so the check also runs under `python -O`:
    # prefix sums that start one too high rebuild (1, 2, 3) for the sum 3
    def raised(values, initial=None):
        return accumulate(values, initial=initial if initial is None else initial + 1)

    monkeypatch.setattr(heisenberg, "accumulate", raised)
    with pytest.raises(ArithmeticError, match=re.escape("(1, 2, 3) has position sum 6, not 3")):
        reconstruct(3, (1, 1, 1))


def test_reconstruct_round_trip():
    for n in range(1, 9):
        for r in range(1, n + 1):
            for point in covering_points(n, r):
                rebuilt = reconstruct(sum(point[0]), relative_positions(point))
                assert rebuilt == point


def test_compatibility_of_position_sums():
    # every covering point satisfies the weighted-gap congruence its
    # reconstruction needs
    for n in range(1, 9):
        for r in range(1, n + 1):
            for point in covering_points(n, r):
                gaps = relative_positions(point)
                weighted = sum(beta * g for beta, g in enumerate(gaps, start=1))
                assert (sum(point[0]) + weighted) % r == 0


def test_shift_action_examples():
    assert shift_action(((1, 3), 5), 1) == ((3, 6), 5)
    assert shift_action(([1, 3], 5)) == ((3, 6), 5)
    assert shift_action(((1, 3), 5), -1) == ((-2, 1), 5)
    assert shift_action(((), 5), 3) == ((), 5)


def test_shift_action_raises_center_sum_by_ring_size():
    for n in range(1, 8):
        for r in range(1, n + 1):
            for point in covering_points(n, r):
                assert sum(shift_action(point, 1)[0]) == sum(point[0]) + n


def test_shift_action_full_cycle_translates():
    for n in range(2, 8):
        for r in range(1, n + 1):
            for point in covering_points(n, r):
                moved = shift_action(point, r)
                assert moved == (tuple(j + n for j in point[0]), n)


def test_covering_shift_is_the_cyclic_action_on_gap_vectors():
    # the paper's cyclic action: a shift by j rotates the gap vector left by j
    for n in range(1, 10):
        for r in range(1, n + 1):
            for point in covering_points(n, r):
                gaps = relative_positions(point)
                for j in (1, -1, r + 2):
                    assert relative_positions(shift_action(point, j)) == act_cyclic(gaps, -j)


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
)
def test_shift_action_is_an_action(n, a, b):
    point = next(covering_points(n, (n + 1) // 2 or 1))
    assert shift_action(shift_action(point, a), b) == shift_action(point, a + b)


def test_shift_action_composes_the_walks_one_step_kernel(monkeypatch):
    # the covering walk checks `_shift` alone, so the public map must be
    # that step composed with a translation, and run the name it is bound to
    for n in range(1, 9):
        for r in range(1, n + 1):
            for point in covering_points(n, r):
                positions = point[0]
                for s in range(-2 * r, 2 * r + 1):
                    moved = tuple(j + s // r * n for j in positions), n
                    for _ in range(s % r):
                        moved = heisenberg._shift(moved)
                    assert shift_action(point, s) == moved
    monkeypatch.setattr(heisenberg, "_shift", lambda point: point)
    assert shift_action(((1, 3), 5), 1) == ((1, 3), 5)


@st.composite
def far_covering_points(draw):
    """Valid covering points anywhere on the line, r = 1 included."""
    n = draw(st.integers(min_value=1, max_value=40))
    r = draw(st.integers(min_value=1, max_value=n))
    first = draw(st.one_of(
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=-10**40, max_value=10**40)))
    cuts = draw(st.permutations(range(1, n)))[:r - 1]
    return covering_point((first, *sorted(first + c for c in cuts)), n)


def assert_valid_point(point):
    """`point` is a pair of a tuple and an int that `covering_point` returns
    unchanged."""
    assert type(point) is type(point[0]) is tuple and type(point[1]) is int
    assert covering_point(*point) == point


def assert_valid_steps(steps):
    """`steps` is a tuple that `step_sequence` returns unchanged."""
    assert type(steps) is tuple and step_sequence(steps) == steps


@given(far_covering_points(), st.integers(min_value=1, max_value=10**6), st.data())
def test_round_trip_and_shift_law_off_the_suite_range(point, size, data):
    (positions, n), r = point, len(point[0])
    assert reconstruct(sum(positions), relative_positions(point)) == point
    assert shift_action(point, r) == (tuple(j + n for j in positions), n)
    steps = st.integers(min_value=r + 1, max_value=r + size)
    a = data.draw(steps) * data.draw(st.sampled_from((1, -1)))
    b = data.draw(steps) * data.draw(st.sampled_from((1, -1)))
    assert shift_action(shift_action(point, a), b) == shift_action(point, a + b)
    gaps = relative_positions(point)
    for j in (1, -1, r + 2, a):
        assert relative_positions(shift_action(point, j)) == act_cyclic(gaps, -j)
    # the maps build their results without re-checking them: each must obey
    # every rule of its validator
    k = data.draw(st.integers(min_value=-10**6, max_value=10**6))
    rebuilt = reconstruct(sum(positions) + k * r * n, relative_positions(point))
    assert rebuilt == shift_action(point, k * r)
    configuration = covering_point(sorted((j - 1) % n + 1 for j in positions), n)
    assert_valid_steps(gaps)
    assert_valid_steps(relative_positions(configuration))
    assert sum(gaps) == sum(relative_positions(configuration)) == n
    assert_valid_point(rebuilt)
    assert_valid_point(shift_action(point, data.draw(st.integers(-3 * r, 3 * r))))


@given(far_covering_points(), st.integers(min_value=-10**6, max_value=10**6))
def test_center_projection_is_constant_on_shift_orbits(point, steps):
    assert center_projection(shift_action(point, steps)) == center_projection(point)


def test_maps_validate_arguments_not_exactly_of_their_class():
    # a list, or a tuple that breaks a rule, goes through the validator first
    for call, message in (
        (lambda: reconstruct(3.0, (1, 1, 1)), "center_sum must be an integer: 3.0"),
        (lambda: shift_action(((3, 1), 5), 1), "positions must be strictly increasing: (3, 1)"),
        (lambda: relative_positions(((1, 9), 5)), "span must be less than ring_size=5: (1, 9)"),
        (lambda: reconstruct(3, (0, 3)), "steps must be positive integers: (0, 3)"),
        # a compatible sum, which would rebuild the point (2, 2)
        (lambda: reconstruct(4, [0, 3]), "steps must be positive integers: (0, 3)"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
    point = covering_point((-2, 0, 1), 5)
    listed = ([-2, 0, 1], 5)
    gaps = relative_positions(point)
    assert_valid_steps(relative_positions(listed))
    assert relative_positions(listed) == gaps
    for steps in (-4, 0, 1, 7):
        assert_valid_point(shift_action(listed, steps))
        assert shift_action(listed, steps) == shift_action(point, steps)
    rebuilt = reconstruct(sum(point[0]), list(gaps))
    assert_valid_point(rebuilt)
    assert rebuilt == point


def test_integer_rules_the_maps_rely_on():
    # a float ring size or step count would carry floats into the positions
    # and gaps that the maps build unchecked, so neither gets that far
    with pytest.raises(ValueError, match=re.escape("ring_size must be an integer: 5.0")):
        covering_point((1, 3), 5.0)
    with pytest.raises(ValueError, match=re.escape("ring_size must be an integer: 5.0")):
        shift_action(((1, 3), 5.0), 1)
    point = covering_point((1, 3), 5)
    for steps in (1.0, 2.0):
        with pytest.raises(TypeError):
            shift_action(point, steps)

    class Three:
        def __index__(self):
            return 3

    assert_valid_point(shift_action(point, Three()))
    assert shift_action(point, Three())[0] == (8, 11)


def test_shift_orbits_recover_configurations():
    # reducing covering points mod the shift gives exactly the configurations
    for n in range(2, 8):
        for r in range(1, n + 1):
            reduced = {
                tuple(sorted((j - 1) % n + 1 for j in point[0]))
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


def test_delta_fibers_are_classes_of_gap_vector_areas():
    # the paper's area law: a gap vector t lies in the fiber at s exactly when
    # its area is s + N mod r, and its reversal's area is -s mod r
    for n in range(1, 13):
        for r in range(1, n + 1):
            areas, reversed_areas = [0] * r, [0] * r
            for t in enumerate_step_sequences(n - r, r):
                areas[(integral(t) - n) % r] += 1
                reversed_areas[-integral(t[::-1]) % r] += 1
            assert areas == reversed_areas == delta_fiber_sizes(n, r), (n, r)


def test_delta_routes_agree():
    for n in range(1, 21):
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
    for route in (delta_fiber_sizes, delta_fiber_sizes_via_partitions):
        with pytest.raises(ValueError, match=re.escape("ring_size must be an integer: 5.0")):
            route(5.0, 2)
        with pytest.raises(ValueError, match=re.escape("marked must be an integer: 2.0")):
            route(5, 2.0)
    # neither route takes a cap: `qfiber fibers` checks its estimates first
    with pytest.raises(TypeError):
        delta_fiber_sizes(12, 6, max_elements=462)
    with pytest.raises(TypeError):
        delta_fiber_sizes_via_partitions(12, 6, max_elements=462)


def test_fiber_box_work():
    # the (N-r) x (r-1) box leaves the box (0, d-1) at d | r exactly when
    # d | N, one coefficient folded once per squarefree s | d, so the work is
    # (omega(r) + 1) * sigma(r) plus 2^omega(d) for each d | gcd(N, r)
    def omega(n):
        return sum(1 for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p)))

    for n in range(1, 41):
        for r in range(1, n + 1):
            divisors = [d for d in range(1, r + 1) if r % d == 0]
            terms = qbinomial._lucas_terms(n - r, r - 1, qbinomial._divisor_table(r))
            boxes = {d: box for d, box, _ in terms}
            assert boxes == {d: (0, d - 1) for d in divisors if n % d == 0}, (n, r)
            expected = (omega(r) + 1) * sum(divisors)
            expected += sum(2 ** omega(d) for d in divisors if gcd(n, r) % d == 0)
            assert qbinomial.residue_sums_work(n - r, r - 1, r) == expected, (n, r)
    # 99999 = 3^2 * 41 * 271 is coprime to 100000: 4 * sigma(99999), plus 1 at d = 1
    assert qbinomial.residue_sums_work(1, 99998, 99999) == 4 * 13 * 42 * 272 + 1


def cut_sum_classes(n, r):
    """delta_fiber_sizes by dynamic programming: the (r-1)-subsets of [1, n)
    counted by their sum mod r, one cut position at a time."""
    counts = [[0] * r for _ in range(r)]  # counts[j][s]: j cuts with sum = s mod r
    counts[0][0] = 1
    for cut in range(1, n):
        for j in range(min(cut, r - 1), 0, -1):
            shift = cut % r
            below = counts[j - 1]
            counts[j] = [a + b for a, b in zip(counts[j], below[-shift:] + below[:-shift])]
    return counts[r - 1]


def test_closed_form_matches_the_enumerated_fibers():
    for n in range(1, 13):
        for r in range(1, n + 1):
            assert cut_sum_classes(n, r) == delta_fiber_sizes(n, r), (n, r)
    for n in range(1, 31):
        for r in range(1, n + 1):
            expected = delta_fiber_sizes(n, r) if n <= 18 else cut_sum_classes(n, r)
            assert list(delta_fiber_sizes_closed_form(n, r)) == expected, (n, r)


@pytest.mark.parametrize("n, r", [(10**6, 10**6), (5040, 720), (100001, 2), (1000, 10),
                                  (10000, 100), (200000, 20), (3000, 3000)])
def test_closed_form_matches_the_bijection_route_beyond_enumeration(n, r):
    assert list(delta_fiber_sizes_closed_form(n, r)) == delta_fiber_sizes_via_partitions(n, r)


def test_closed_form_holds_no_table():
    # a lazy lookup per entry: a list of the 200,000 entries alone takes 1.6 MB
    delta_fiber_sizes_closed_form(12, 6)  # fill any first-call caches before tracing
    tracemalloc.start()
    try:
        sizes = delta_fiber_sizes_closed_form(200000, 200000)
        deque(sizes, maxlen=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_closed_form_checks_its_division_before_the_first_entry(monkeypatch):
    # the d = 1 binomial C(11, r - 1) off by one leaves sums that r does not
    # divide, at gcd(N, r) = 6 and at gcd(N, r) = 1
    monkeypatch.setattr(heisenberg, "comb", lambda top, bottom: comb(top, bottom) + (top == 11))
    for r in (6, 5):
        with pytest.raises(ArithmeticError, match=f"is not divisible by {r}"):
            delta_fiber_sizes_closed_form(12, r)


def test_closed_form_validation():
    for n, r in ((2, 5), (5, 0), (0, 0)):
        with pytest.raises(ValueError, match="need 1 <= marked <= ring_size"):
            delta_fiber_sizes_closed_form(n, r)
    with pytest.raises(ValueError, match=re.escape("ring_size must be an integer: 5.0")):
        delta_fiber_sizes_closed_form(5.0, 2)
    with pytest.raises(ValueError, match=re.escape("marked must be an integer: 2.0")):
        delta_fiber_sizes_closed_form(5, 2.0)
    with pytest.raises(TypeError):
        delta_fiber_sizes_closed_form(12, 6, max_elements=462)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=6),
       st.integers(min_value=-20, max_value=20), st.data())
def test_unchecked_builds_pass_their_validators_unchanged(k, l, power, data):
    # every result built without checks is what its validator returns for it:
    # the enumerators, the bijection maps, the actions and the walk's kernels
    for pi in enumerate_restricted(k, l - 1):
        assert type(pi) is tuple and partition(pi) == pi
        assert_valid_steps(partition_to_surjection(pi, k, l))
    steps = list(enumerate_step_sequences(k, l))
    for s in steps:
        assert_valid_steps(s)
        assert partition(surjection_to_partition(s)) == surjection_to_partition(s)
    s = data.draw(st.sampled_from(steps))
    units = [u for u in range(1, l + 1) if gcd(u, l) == 1]
    sigma = data.draw(st.permutations(range(1, l + 1)))
    for moved in (act_cyclic(s, power), act_unit(s, data.draw(st.sampled_from(units))),
                  act_symmetric(s, sigma)):
        assert_valid_steps(moved)
    n, r = k + l, l
    for point in enumerate_configurations(n, r):
        assert_valid_point(point)
        gaps = heisenberg._gap_vector(point)
        assert_valid_steps(gaps)
        assert_valid_point(heisenberg._rebuild(sum(point[0]), gaps))
        assert_valid_point(heisenberg._shift(point))
