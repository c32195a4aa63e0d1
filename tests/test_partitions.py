"""Tests for restricted-partition counting against brute-force enumeration."""

from math import comb

import pytest
from hypothesis import given, strategies as st

from qfiber.partitions import (
    Partition,
    count_by_residue,
    count_exact_parts_by_residue,
    enumerate_restricted,
)
from qfiber.qbinomial import gaussian_coefficients as v


def brute_box(max_part, max_count):
    """All partitions in the box as bare tuples, zeros stripped."""

    def gen(bound, length):
        if length == 0:
            yield ()
            return
        for first in range(bound + 1):
            for rest in gen(first, length - 1):
                yield (first,) + rest

    return [tuple(x for x in v if x) for v in gen(max_part, max_count)]


def test_partition_strips_trailing_zeros():
    assert Partition((3, 2, 0, 0)).parts == (3, 2)
    assert Partition(()).parts == ()
    assert Partition((0, 0)).parts == ()


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_partition_weight_and_fits():
    pi = Partition((4, 3, 3))
    assert pi.weight == 10
    assert pi.fits(4, 3)
    assert pi.fits(11, 3)
    assert not pi.fits(3, 3)
    assert not pi.fits(4, 2)
    assert Partition(()).fits(0, 0)


def test_count_weight_zero_is_one():
    # the zero partition alone has weight 0, and the full box alone weight a*b
    for a in (0, 1, 5, 17):
        for b in (0, 2, 9):
            vec = v(a, b)
            assert len(vec) == a * b + 1 and vec[0] == vec[-1] == 1


def test_count_2_2_2():
    # the box holds exactly <2> and <1,1> at weight 2
    assert v(2, 2) == (1, 1, 2, 1, 1)


def test_count_3_3_totals_twenty():
    assert v(3, 3) == (1, 1, 2, 3, 3, 3, 3, 2, 1, 1)
    assert sum(v(3, 3)) == comb(6, 3)


def test_counts_match_brute_force():
    for a in range(6):
        for b in range(6):
            weights = [sum(p) for p in brute_box(a, b)]
            assert list(v(a, b)) == [weights.count(n) for n in range(a * b + 1)], (a, b)


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
def test_role_symmetry(a, b):
    assert v(a, b) == v(b, a)


def test_recurrence_consistency():
    # fewer than b parts, or b parts that each lose one unit: the vectors of
    # the (a, b-1) and (a-1, b) boxes, the second shifted up by b
    for a in range(1, 9):
        for b in range(1, 9):
            fewer = list(v(a, b - 1)) + [0] * a
            lowered = [0] * b + list(v(a - 1, b))
            assert list(v(a, b)) == [x + y for x, y in zip(fewer, lowered)], (a, b)


def test_enumerate_degenerate_boxes():
    assert list(enumerate_restricted(0, 0)) == [Partition(())]
    assert list(enumerate_restricted(1, 1)) == [Partition(()), Partition((1,))]
    assert list(enumerate_restricted(0, 5)) == [Partition(())]


def test_enumerate_2_2():
    got = list(enumerate_restricted(2, 2))
    assert len(got) == 6
    assert got == [
        Partition(()),
        Partition((1,)),
        Partition((1, 1)),
        Partition((2,)),
        Partition((2, 1)),
        Partition((2, 2)),
    ]


def test_enumerate_counts_and_order():
    for a in range(5):
        for b in range(5):
            seen = list(enumerate_restricted(a, b))
            assert len(seen) == comb(a + b, b)
            assert len(set(seen)) == len(seen)
            padded = [p.parts + (0,) * (b - len(p.parts)) for p in seen]
            assert padded == sorted(padded)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_stream_agrees_with_counts(a, b):
    weights = [p.weight for p in enumerate_restricted(a, b)]
    assert list(v(a, b)) == [weights.count(n) for n in range(a * b + 1)]


def test_residue_examples():
    assert count_by_residue(3, 3, 4) == [5, 5, 5, 5]
    assert count_by_residue(5, 2, 3) == [7, 7, 7]
    assert count_by_residue(6, 5, 6) == [80, 75, 78, 76, 78, 75]


def test_residue_table_sums_to_binomial():
    for a in range(7):
        for b in range(7):
            for r in (1, 2, 3, 5):
                assert sum(count_by_residue(a, b, r)) == comb(a + b, b)


def test_residue_degenerate_box():
    assert count_by_residue(0, 4, 3) == [1, 0, 0]
    assert count_by_residue(4, 0, 5) == [1, 0, 0, 0, 0]


def test_residue_rejects_bad_modulus():
    with pytest.raises(ValueError):
        count_by_residue(3, 3, 0)
    with pytest.raises(ValueError):
        count_by_residue(-1, 3, 2)


def test_exact_parts_single_part_table():
    # single parts bounded by 2: weights 1 and 2
    assert count_exact_parts_by_residue(2, 1, 3) == [0, 1, 1]


def test_exact_parts_two_parts_bound_two():
    # <1,1>, <2,1>, <2,2> with weights 2, 3, 4
    assert count_exact_parts_by_residue(2, 2, 3) == [1, 1, 1]


def test_exact_parts_equal_classes_bound_four_mod_five():
    table = count_exact_parts_by_residue(4, 2, 5)
    assert table == [2, 2, 2, 2, 2]


def test_exact_parts_matches_brute_force():
    for bound in range(6):
        for k in range(1, 5):
            for p in (1, 2, 3, 5):
                table = [0] * p
                for part in brute_box(bound, k):
                    if len(part) == k:
                        table[sum(part) % p] += 1
                assert count_exact_parts_by_residue(bound, k, p) == table, (bound, k, p)


def test_exact_parts_rejects_bad_input():
    with pytest.raises(ValueError):
        count_exact_parts_by_residue(3, 0, 5)
    with pytest.raises(ValueError):
        count_exact_parts_by_residue(3, 1, 0)
    with pytest.raises(ValueError):
        count_exact_parts_by_residue(-2, 1, 5)


def test_exact_parts_decomposition():
    # summing exact-part tables over 1..l recovers the box table, except for
    # the zero partition in class 0
    for k in range(1, 7):
        for l in range(1, 6):
            for p in (2, 3, 5):
                total = count_by_residue(k, l, p)
                summed = [0] * p
                for m in range(1, l + 1):
                    for i, c in enumerate(count_exact_parts_by_residue(k, m, p)):
                        summed[i] += c
                summed[0] += 1
                assert summed == total, (k, l, p)
