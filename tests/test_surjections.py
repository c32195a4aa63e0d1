"""Tests for step sequences, the partition bijection, and the group actions."""

import time
from collections import Counter
from itertools import permutations
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

import qfiber
from qfiber.partitions import Partition, enumerate_restricted
from qfiber.qbinomial import gaussian_coefficients
from qfiber.surjections import (
    GROUPS,
    StepSequence,
    ThresholdSequence,
    act_cyclic,
    act_on_partition,
    act_symmetric,
    act_unit,
    enumerate_step_sequences,
    integral,
    orbit_histogram,
    orbits,
    partition_to_surjection,
    steps_to_thresholds,
    surjection_to_partition,
    thresholds_to_steps,
)

step_sequences = st.lists(
    st.integers(min_value=1, max_value=9), min_size=1, max_size=8
).map(lambda steps: StepSequence(tuple(steps)))


@st.composite
def sequence_with_units(draw):
    s = draw(step_sequences)
    l = s.level_count
    units = [u for u in range(1, l + 1) if gcd(u, l) == 1]
    return s, draw(st.sampled_from(units)), draw(st.sampled_from(units))


@st.composite
def sequence_with_permutations(draw):
    s = draw(step_sequences)
    base = list(range(1, s.level_count + 1))
    return s, tuple(draw(st.permutations(base))), tuple(draw(st.permutations(base)))


def test_step_sequence_validation():
    with pytest.raises(ValueError):
        StepSequence(())
    with pytest.raises(ValueError):
        StepSequence((3, 0, 1))
    s = StepSequence((4, 1, 2, 8))
    assert s.domain_length == 15
    assert s.level_count == 4


def test_threshold_sequence_validation():
    with pytest.raises(ValueError):
        ThresholdSequence((4, 4, 7), 15)
    with pytest.raises(ValueError):
        ThresholdSequence((0, 5), 15)
    with pytest.raises(ValueError):
        ThresholdSequence((5, 15), 15)
    with pytest.raises(ValueError, match=r"^domain_length must be an integer: 3\.5$"):
        ThresholdSequence((1,), 3.5)
    with pytest.raises(ValueError, match=r"^k must be an integer: 1\.5$"):
        partition_to_surjection(Partition(()), 1.5, 2)
    assert ThresholdSequence((), 3).level_count == 1


def test_thresholds_to_steps_worked_example():
    ts = ThresholdSequence((4, 5, 7), 15)
    assert thresholds_to_steps(ts).steps == (4, 1, 2, 8)


def test_minimal_thresholds_give_unit_steps():
    for k in range(0, 6):
        for l in range(2, 6):
            ts = ThresholdSequence(tuple(range(1, l)), k + l)
            assert thresholds_to_steps(ts).steps == (1,) * (l - 1) + (k + 1,)


@given(step_sequences)
def test_threshold_round_trip(s):
    assert thresholds_to_steps(steps_to_thresholds(s)) == s


def test_threshold_round_trip_exhaustive():
    for k in range(0, 6):
        for l in range(1, 6):
            for s in enumerate_step_sequences(k, l):
                ts = steps_to_thresholds(s)
                assert thresholds_to_steps(ts) == s
                assert steps_to_thresholds(thresholds_to_steps(ts)) == ts


def test_integral_values():
    assert integral(StepSequence((4, 1, 2, 8))) == 31
    assert integral(StepSequence((7,))) == 7
    for k in range(0, 5):
        for l in range(2, 6):
            minimal = StepSequence((1,) * (l - 1) + (k + 1,))
            assert integral(minimal) == l * (l - 1) // 2 + k + l


def test_bijection_worked_example():
    ts = ThresholdSequence((4, 5, 7), 15)
    assert surjection_to_partition(ts) == Partition((4, 3, 3))
    assert partition_to_surjection(Partition((4, 3, 3)), 11, 4) == ts


def test_bijection_minimal_and_maximal():
    assert partition_to_surjection(Partition(()), 11, 4) == ThresholdSequence((1, 2, 3), 15)
    assert surjection_to_partition(ThresholdSequence((1, 2, 3), 15)) == Partition(())
    for k in range(1, 5):
        for l in range(2, 6):
            maximal = Partition((k,) * (l - 1))
            ts = partition_to_surjection(maximal, k, l)
            assert ts.thresholds == tuple(range(k + 1, k + l))


def test_bijection_rejects_out_of_box():
    with pytest.raises(ValueError):
        partition_to_surjection(Partition((5,)), 4, 2)
    with pytest.raises(ValueError):
        partition_to_surjection(Partition((1, 1)), 4, 2)


def test_bijection_round_trip_and_area_identity():
    for k in range(0, 7):
        for l in range(1, 7):
            seen = set()
            for s in enumerate_step_sequences(k, l):
                ts = steps_to_thresholds(s)
                pi = surjection_to_partition(ts)
                assert pi.fits(k, l - 1)
                assert partition_to_surjection(pi, k, l) == ts
                assert integral(s) == l * (l - 1) // 2 + k + l + pi.weight
                seen.add(pi)
            expected = set(enumerate_restricted(k, l - 1)) if l > 1 else {Partition(())}
            assert seen == expected


def test_act_cyclic_examples():
    s = StepSequence((4, 1, 2, 8))
    assert act_cyclic(s, 1).steps == (8, 4, 1, 2)
    assert act_cyclic(s, 4) == s
    assert act_cyclic(s, -1).steps == (1, 2, 8, 4)


@given(step_sequences, st.integers(min_value=-20, max_value=20),
       st.integers(min_value=-20, max_value=20))
def test_act_cyclic_is_an_action(s, a, b):
    assert act_cyclic(act_cyclic(s, a), b) == act_cyclic(s, a + b)
    assert act_cyclic(s, s.level_count) == s


@given(step_sequences)
def test_act_cyclic_integral_shift(s):
    l = s.level_count
    assert integral(act_cyclic(s, 1)) % l == (integral(s) - s.domain_length) % l


def test_act_unit_examples():
    s = StepSequence((10, 20, 30, 40))
    assert act_unit(s, 1) == s
    assert act_unit(s, 3).steps == (30, 20, 10, 40)
    assert act_unit(StepSequence((5,)), 1).steps == (5,)


def test_act_unit_rejects_non_units():
    with pytest.raises(ValueError):
        act_unit(StepSequence((1, 1, 1, 1)), 2)


@given(sequence_with_units())
def test_act_unit_composition(data):
    s, u, v = data
    assert act_unit(act_unit(s, v), u) == act_unit(s, u * v)


def test_act_symmetric_examples():
    s = StepSequence((10, 20, 30))
    assert act_symmetric(s, (1, 2, 3)) == s
    # the rotation generator written as a permutation
    assert act_symmetric(s, (3, 1, 2)) == act_cyclic(s, 1)
    with pytest.raises(ValueError):
        act_symmetric(s, (1, 1, 3))
    # floats that sort like a permutation are not one
    with pytest.raises(ValueError) as excinfo:
        act_symmetric(StepSequence((1, 2, 3)), (2.0, 1.0, 3.0))
    assert str(excinfo.value) == "sigma must be a permutation of 1..3: (2.0, 1.0, 3.0)"


@given(step_sequences)
def test_act_symmetric_preserves_multiset(s):
    l = s.level_count
    sigma = tuple(range(l, 0, -1))
    assert sorted(act_symmetric(s, sigma).steps) == sorted(s.steps)


@given(sequence_with_permutations())
def test_act_symmetric_composition_convention(data):
    s, sigma, tau = data
    composed = tuple(tau[sigma[i] - 1] for i in range(len(sigma)))
    assert act_symmetric(act_symmetric(s, tau), sigma) == act_symmetric(s, composed)


def test_unit_action_matches_symmetric_action():
    for l in (1, 2, 3, 4, 6):
        s = StepSequence(tuple(range(10, 10 * l + 1, 10)))
        for u in range(1, l + 1):
            if gcd(u, l) != 1:
                continue
            inv = pow(u, -1, l)
            sigma = tuple((inv * i - 1) % l + 1 for i in range(1, l + 1))
            assert act_unit(s, u) == act_symmetric(s, sigma)


def test_act_on_partition_identity_and_generator():
    pi = Partition((4, 3, 3))
    assert act_on_partition(pi, 11, 4, lambda s: s) == pi
    moved = act_on_partition(Partition(()), 11, 4, act_cyclic)
    assert moved == Partition((11, 11, 11))


def test_act_on_partition_weight_shift():
    k, l = 7, 4
    for pi in enumerate_restricted(k, l - 1):
        moved = act_on_partition(pi, k, l, act_cyclic)
        assert moved.weight % l == (pi.weight - (k + l)) % l


def test_act_on_partition_rejects_shape_changers():
    with pytest.raises(ValueError):
        act_on_partition(Partition(()), 3, 2, lambda s: StepSequence((1, 1, 3)))


def test_enumerate_step_sequences_counts():
    for k in range(0, 7):
        for l in range(1, 7):
            seqs = list(enumerate_step_sequences(k, l))
            assert len(seqs) == comb(k + l - 1, l - 1)
            assert len(set(seqs)) == len(seqs)
            assert all(s.domain_length == k + l and s.level_count == l for s in seqs)


def test_enumeration_cap():
    # the enumerating routes take no cap: `qfiber orbits` checks its own first
    with pytest.raises(TypeError):
        list(enumerate_step_sequences(10, 10, max_elements=10))
    with pytest.raises(TypeError):
        orbits(10, 10, "cyclic", max_elements=10)


def test_orbits_rejects_unknown_group():
    with pytest.raises(ValueError):
        orbits(3, 2, "dihedral")


def test_orbits_single_level():
    result = orbits(4, 1, "cyclic")
    assert len(result) == 1
    assert len(result[0]) == 1


def test_orbit_histogram_cyclic_5_3():
    hist = Counter(len(o) for o in orbits(5, 3, "cyclic"))
    assert hist == {3: 7}
    assert sum(size * count for size, count in hist.items()) == comb(7, 2)


def test_orbit_histogram_units_6_6():
    hist = Counter(len(o) for o in orbits(6, 6, "units"))
    assert hist == {1: 30, 2: 216}
    assert sum(size * count for size, count in hist.items()) == comb(11, 5)


def test_orbit_histogram_units_6_6_against_raw_recount():
    # recount with bare tuples, bypassing the library containers
    seqs = [s.steps for s in enumerate_step_sequences(6, 6)]
    fixed = 0
    for t in seqs:
        image = (t[4], t[3], t[2], t[1], t[0], t[5])
        fixed += image == t
    assert fixed == 30
    assert (len(seqs) - fixed) % 2 == 0
    assert (len(seqs) - fixed) // 2 == 216


def test_orbits_partition_the_sequences():
    for group in ("cyclic", "units", "symmetric"):
        result = orbits(4, 4, group)
        assert all(isinstance(o, frozenset) for o in result)
        assert [min(o) for o in result] == sorted(min(o) for o in result)
        union = [s for o in result for s in o]
        assert len(union) == comb(7, 3)
        assert len(set(union)) == len(union)


def test_orbit_sizes_divide_group_order():
    for k, l in ((4, 4), (5, 3), (3, 6)):
        for o in orbits(k, l, "cyclic"):
            assert l % len(o) == 0
        unit_count = sum(1 for u in range(1, l + 1) if gcd(u, l) == 1)
        for o in orbits(k, l, "units"):
            assert unit_count % len(o) == 0


def test_orbits_closed_under_generators():
    for o in orbits(4, 3, "cyclic"):
        assert {act_cyclic(s, 1) for s in o} == o
    for o in orbits(4, 3, "symmetric"):
        for sigma in permutations(range(1, 4)):
            assert {act_symmetric(s, sigma) for s in o} == o


def test_coprime_cyclic_orbits_cover_all_classes():
    # with gcd(k, l) = 1 each rotation orbit has full size and its areas hit
    # every class mod l exactly once
    for k, l in ((5, 3), (4, 3), (3, 4), (7, 2)):
        assert gcd(k, l) == 1
        for o in orbits(k, l, "cyclic"):
            assert len(o) == l
            classes = sorted(integral(s) % l for s in o)
            assert classes == list(range(l))


def burnside_orbit_count(k, l, group):
    """Orbit count without the subgroup lattice: partitions of k into at most
    l parts for "symmetric"; otherwise Burnside's lemma, the mean over the
    group elements of the sequences constant on each cycle of positions."""
    if group == "symmetric":
        return gaussian_coefficients(k, l)[k]
    if group == "cyclic":
        moves = [lambda x, p=p: (x + p) % l for p in range(l)]
    else:
        moves = [lambda x, u=u: u * x % l for u in range(1, l + 1) if gcd(u, l) == 1]
    fixed = 0
    for move in moves:
        ways, seen = [1] + [0] * k, set()
        for start in range(l):
            if start in seen:
                continue
            cycle, x = 0, start
            while x not in seen:
                seen.add(x)
                x, cycle = move(x), cycle + 1
            for total in range(cycle, k + 1):
                ways[total] += ways[total - cycle]
        fixed += ways[k]
    count, remainder = divmod(fixed, len(moves))
    assert remainder == 0
    return count


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.integers(min_value=1, max_value=10),
       st.sampled_from(GROUPS))
def test_orbit_histogram_matches_enumeration(k, l, group):
    histogram = orbit_histogram(k, l, group)
    assert histogram == Counter(len(o) for o in orbits(k, l, group))
    assert list(histogram) == sorted(histogram)


def test_orbit_histogram_edges_and_sylow_products():
    # k = 0, l = 1 and l = 2 for every group, then unit groups (Z/l)^* with
    # several Sylow factors, some of them not cyclic
    edges = [(0, l) for l in range(1, 11)] + [(k, l) for k in range(9) for l in (1, 2)]
    for group in GROUPS:
        for k, l in edges:
            assert orbit_histogram(k, l, group) == Counter(len(o) for o in orbits(k, l, group))
    for k, l in ((2, 21), (2, 24), (3, 15), (2, 63), (1, 120), (2, 120), (3, 48)):
        expected = Counter(len(o) for o in orbits(k, l, "units"))
        assert orbit_histogram(k, l, "units") == expected


@pytest.mark.parametrize("l", [720, 2520, 5040, 27720])
def test_units_histogram_at_k_one_has_one_orbit_per_divisor(l):
    # the single unit sits on some layer l / gcd(x, l) = d, a copy of (Z/d)^*
    # that the units permute in one orbit of size phi(d)
    phi = Counter(sum(gcd(x, d) == 1 for x in range(d)) for d in range(1, l + 1) if l % d == 0)
    assert orbit_histogram(1, l, "units") == dict(sorted(phi.items()))


@pytest.mark.parametrize("group", GROUPS)
def test_orbit_histogram_at_k_zero_builds_no_lattice(group, monkeypatch):
    # the one all-zero spread is fixed by every group, at any l, and so is the
    # one spread of k units at l = 1
    def refuse(*args):
        raise AssertionError("subgroup lattice or partition walk built")

    monkeypatch.setattr(qfiber.surjections, "_unit_stabilizers", refuse)
    monkeypatch.setattr(qfiber.surjections, "_divisor_table", refuse)
    monkeypatch.setattr(qfiber.surjections, "_symmetric_histogram", refuse)
    for k, l in ((0, 1), (0, 2), (0, 2520), (0, 720720), (0, 10**6), (10**30, 1)):
        assert orbit_histogram(k, l, group) == {1: 1}


def test_units_at_l_two_is_the_trivial_group(monkeypatch):
    # (Z/2)^* = {1} leaves each of the k + 1 sequences alone in its orbit
    for k in range(10):
        assert orbit_histogram(k, 2, "units") == Counter(len(o) for o in orbits(k, 2, "units"))

    def refuse(*args):
        raise AssertionError("subgroup lattice or fixed-point table built")

    monkeypatch.setattr(qfiber.surjections, "_unit_stabilizers", refuse)
    monkeypatch.setattr(qfiber.surjections, "_fixed_count", refuse)
    started = time.perf_counter()
    assert orbit_histogram(9999998, 2, "units") == {1: 9999999}
    assert orbit_histogram(10**30, 2, "units") == {1: 10**30 + 1}
    assert time.perf_counter() - started < 1


def test_symmetric_histogram_matches_enumeration_over_the_benchmark_range():
    for k in range(10):
        for l in range(1, 10):
            expected = Counter(len(o) for o in orbits(k, l, "symmetric"))
            assert orbit_histogram(k, l, "symmetric") == expected, (k, l)


@pytest.mark.parametrize("k, l", [(25, 8), (400, 3), (60, 12)])
def test_symmetric_histogram_beyond_enumeration(k, l):
    # 3.4e6, 8.1e4 and 2.6e12 sequences; one orbit per partition of k into at most l parts
    histogram = orbit_histogram(k, l, "symmetric")
    assert sum(size * count for size, count in histogram.items()) == comb(k + l - 1, l - 1)
    assert sum(histogram.values()) == burnside_orbit_count(k, l, "symmetric")


def test_package_exports_the_orbit_histogram():
    assert qfiber.orbit_histogram is qfiber.surjections.orbit_histogram
    assert "orbit_histogram" in qfiber.__all__


@pytest.mark.parametrize("group", GROUPS)
def test_orbit_histogram_refuses_like_orbits(group):
    for args in ((-1, 3, group), (3, 0, group), (3, 2, "dihedral"), (2.0, 2, group),
                 (2.5, 2, group), (2, 2.0, group)):
        with pytest.raises(ValueError) as by_enumeration:
            orbits(*args)
        with pytest.raises(ValueError) as by_counting:
            orbit_histogram(*args)
        assert str(by_counting.value) == str(by_enumeration.value)
    with pytest.raises(ValueError, match=r"^k must be an integer: 2\.5$"):
        orbit_histogram(2.5, 2, group)


@pytest.mark.parametrize(
    "k, l, group", [(60, 12, "cyclic"), (60, 12, "units"), (12, 60, "symmetric"),
                    (2, 360, "units"), (3, 360, "units"), (2, 840, "units")])
def test_orbit_histogram_beyond_enumeration(k, l, group):
    # C(71, 11) and C(71, 59) are 2.6e12 and 1.3e13 sequences, far past any
    # enumeration; the symmetric cost grows with the orbits (77 partitions of 12);
    # (Z/360)^* and (Z/840)^* have 236 and 1362 subgroups; at k = 2 the units
    # route takes 116 and 255 of them as candidate stabilizers
    started = time.perf_counter()
    histogram = orbit_histogram(k, l, group)
    elapsed = time.perf_counter() - started
    assert sum(size * count for size, count in histogram.items()) == comb(k + l - 1, l - 1)
    assert sum(histogram.values()) == burnside_orbit_count(k, l, group)
    assert elapsed < 1.0


def test_units_histogram_where_enumeration_cannot_reach():
    # l in the hundreds, where (Z/l)^* has several Sylow factors and C(k+l-1, l-1)
    # is past any enumeration at k = 3; Burnside's lemma is the independent count
    started = time.perf_counter()
    for l in (105, 120, 210, 240, 360, 420, 840):
        unit_count = sum(1 for u in range(l) if gcd(u, l) == 1)
        for k in (1, 2, 3):
            histogram = orbit_histogram(k, l, "units")
            assert sum(histogram.values()) == burnside_orbit_count(k, l, "units"), (k, l)
            assert sum(size * count for size, count in histogram.items()) == comb(k + l - 1, l - 1)
            assert all(unit_count % size == 0 for size in histogram), (k, l)
    assert time.perf_counter() - started < 1


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=30).flatmap(lambda k: st.tuples(
    st.just(k),
    st.dictionaries(st.integers(min_value=1, max_value=k),
                    st.integers(min_value=1, max_value=40), max_size=5))))
def test_grouped_fixed_count_equals_the_coin_change_per_orbit(case):
    # one unknown y_j >= 0 per orbit, sum of size_j * y_j = k, counted one orbit at a time
    k, orbit_counts = case
    ways = [1] + [0] * k
    for size, count in orbit_counts.items():
        for _ in range(count):
            for total in range(size, k + 1):
                ways[total] += ways[total - size]
    assert qfiber.surjections._fixed_count(k, orbit_counts) == ways[k]
