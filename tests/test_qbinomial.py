"""Tests for Gaussian coefficient vectors, class sums, and their closed forms."""

import sys
import time
import tracemalloc
from math import comb, gcd

import pytest
from hypothesis import given, strategies as st

import qfiber.qbinomial as qbinomial
from qfiber.partitions import count_by_residue, enumerate_restricted
from qfiber.qbinomial import (
    coprime_class_sum,
    gaussian_coefficients,
    is_prime,
    prime_adjacent_class_sum,
    prime_multiple_class_sum,
    residue_sums,
)


def brute_coeffs(m, n):
    """Coefficient vector from explicit enumeration of the box."""
    counts = [0] * (m * n + 1)
    for p in enumerate_restricted(m, n):
        counts[p.weight] += 1
    return counts


def test_is_prime_small_values():
    primes = [2, 3, 5, 7, 11, 13, 97, 104729]
    composites = [0, 1, 4, 6, 9, 15, 91, 104730]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_trial_division_against_brute_force():
    for n in range(2001):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        primes = [p for p in divisors if p > 1 and all(p % d for d in range(2, p))]
        powers = []
        for p in primes:
            power = p
            while n % (power * p) == 0:
                power *= p
            powers.append((p, power))
        if n:
            assert list(qbinomial._divisor_table(n)) == divisors, n
        assert list(qbinomial._prime_powers(n)) == powers, n
        assert is_prime(n) == (primes == [n]), n
    # the trial division stops at the smallest factor: 2, not about 3 * 10^8 steps
    started = time.perf_counter()
    assert not is_prime(2 * (10**17 + 3))
    assert time.perf_counter() - started < 0.01


def test_divisor_table_against_brute_force():
    # mu from sum_{e | d} mu(e) = [d = 1], phi by counting units: no factoring
    top = 2000
    mu, phi = [0, 1] + [0] * (top - 1), [0] * (top + 1)
    for d in range(1, top + 1):
        phi[d] = sum(gcd(x, d) == 1 for x in range(1, d + 1))
        for multiple in range(2 * d, top + 1, d):
            mu[multiple] -= mu[d]
    for n in range(1, top + 1):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert qbinomial._divisor_table(n) == {d: (mu[d], phi[d]) for d in divisors}, n
    for n in (720720, 9699690, 4999963, 2**40):
        table = qbinomial._divisor_table(n)
        assert list(table) == sorted(table) and all(n % d == 0 for d in table), n
        assert sum(phi for _, phi in table.values()) == n, n
        assert sum(mu for mu, _ in table.values()) == 0, n


def test_trivial_boxes():
    assert gaussian_coefficients(0, 0) == (1,)
    assert gaussian_coefficients(0, 7) == (1,)
    assert gaussian_coefficients(1, 1) == (1, 1)
    assert gaussian_coefficients(2, 2) == (1, 1, 2, 1, 1)
    # a float is refused, though it equals an int
    with pytest.raises(ValueError, match=r"^m must be an integer: 2\.0$"):
        gaussian_coefficients(2.0, 2)


def test_the_kernel_keeps_no_box():
    # 30 distinct boxes of up to 27 kB each; a memo would keep the last, or all
    last = gaussian_coefficients(59, 12)
    box = sys.getsizeof(last) + sum(map(sys.getsizeof, last))
    del last
    tracemalloc.start()
    try:
        for m in range(30, 60):
            gaussian_coefficients(m, 12)
        resident = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert resident < box // 10, (resident, box)


def test_coefficients_match_brute_force():
    for m in range(6):
        for n in range(6):
            assert list(gaussian_coefficients(m, n)) == brute_coeffs(m, n), (m, n)


def test_coefficients_match_counting_route():
    # same numbers through the box recurrence instead of the product formula;
    # with m*n + 1 classes nothing wraps, so the class table is the full vector.
    # The larger boxes have truncation and mirror both acting (narrow side >= 2,
    # m*n odd and even, both orders); in the last row each step's mirror of the
    # previous low half meets odd and even degrees wide*(i-1)
    boxes = [(m, n) for m in range(17) for n in range(17)] + [(1, 200), (200, 1), (3, 150)]
    boxes += [(5, 8), (8, 5), (9, 31), (31, 9), (17, 18), (25, 25), (40, 3)]
    boxes += [(2, 31), (31, 2), (3, 7), (7, 3), (12, 13), (13, 12), (40, 39), (40, 40)]
    for m, n in boxes:
        assert list(gaussian_coefficients(m, n)) == count_by_residue(m, n, m * n + 1), (m, n)


def test_palindromic_coefficients_up_to_thirty():
    # the kernel mirrors its low half; this pins the mirror's placement,
    # including the middle coefficient when m*n is even
    for m in range(31):
        for n in range(31):
            vec = gaussian_coefficients(m, n)
            assert vec == vec[::-1], (m, n)


@given(st.integers(min_value=0, max_value=14), st.integers(min_value=0, max_value=14))
def test_coefficients_sum_to_binomial(m, n):
    assert sum(gaussian_coefficients(m, n)) == comb(m + n, n)


def test_getitem_and_len():
    vec = gaussian_coefficients(3, 2)
    assert len(vec) == 7
    assert vec[0] == 1 and vec[3] == 2


def test_residue_sum_examples():
    assert residue_sums(3, 3, 4) == [5, 5, 5, 5]
    assert residue_sums(5, 2, 3) == [7, 7, 7]
    assert residue_sums(10, 9, 10) == [
        9252, 9225, 9250, 9225, 9250, 9226, 9250, 9225, 9250, 9225,
    ]


def test_residue_sums_single_class_collects_everything():
    for m in range(6):
        for n in range(6):
            assert residue_sums(m, n, 1) == [comb(m + n, n)]


def test_residue_sums_match_partition_route():
    for m in range(8):
        for n in range(8):
            for r in (1, 2, 3, 4, 7, 50, 64):
                assert residue_sums(m, n, r) == count_by_residue(m, n, r)


# r = 1, prime powers and highly composite moduli, besides whatever hypothesis draws
MODULI = (1, 8, 9, 16, 27, 32, 49, 64, 12, 24, 36, 48, 60, 72)


@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
    st.one_of(st.sampled_from(MODULI), st.integers(min_value=1, max_value=72)),
)
def test_residue_sums_agree_with_box_recurrence(m, n, r):
    assert residue_sums(m, n, r) == count_by_residue(m, n, r)


@pytest.mark.parametrize("r", MODULI)
def test_residue_sums_edge_boxes(r):
    # zero sides, boxes with fewer weights than classes (r > m*n + 1), and square boxes
    for m, n in ((0, 0), (0, 30), (30, 0), (1, 1), (2, 3), (5, 5), (7, 9), (30, 30), (29, 24)):
        assert residue_sums(m, n, r) == count_by_residue(m, n, r), (m, n)


@pytest.mark.parametrize("m, n, r", [(400, 400, 5), (200, 200, 12)])
def test_residue_sums_beyond_the_fold(m, n, r):
    # folding the product vector took 9.9 s at 400 x 400; q-Lucas never builds it
    started = time.perf_counter()
    sums = residue_sums(m, n, r)
    assert time.perf_counter() - started < 0.05
    assert sums == count_by_residue(m, n, r)


@pytest.mark.parametrize("r", (360, 720, 2520))
def test_residue_sums_composite_moduli(r):
    # many squarefree divisors per d, and more classes than weights
    for m, n in ((0, 0), (1, 5), (4, 4), (7, 3), (9, 10), (12, 12), (20, 11)):
        assert residue_sums(m, n, r) == count_by_residue(m, n, r), (m, n)


def prime_factors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def test_residue_sums_work_estimate():
    # (omega(r) + 1) * sigma(r), plus for each box (a, b) left at d | r its
    # product formula and 2^omega(d) folds of its a*b + 1 coefficients
    assert qbinomial.residue_sums_work(3, 3, 4) == 2 * 7 + (0 + 1)
    assert qbinomial.residue_sums_work(4, 3, 10) == 3 * 18 + 1 + 2 * 1 + (4 * 3 * 3 + 4 * 13)
    assert qbinomial.coefficient_work(70, 30) == 70 * 30 * 30
    for r in range(1, 61):
        divisors = [d for d in range(1, r + 1) if r % d == 0]
        for m, n in ((0, 0), (3, 3), (7, 2), (5, 11), (13, 13)):
            expected = (len(prime_factors(r)) + 1) * sum(divisors)
            for d in divisors:
                a, b = (m + n) % d, n % d
                if b <= a:
                    folds = 2 ** len(prime_factors(d))
                    expected += qbinomial.coefficient_work(a - b, b) + folds * ((a - b) * b + 1)
            assert qbinomial.residue_sums_work(m, n, r) == expected, (m, n, r)
            assert expected >= 2 * r


def test_lost_moebius_signs_raise(monkeypatch):
    table = qbinomial._divisor_table
    monkeypatch.setattr(
        qbinomial, "_divisor_table",
        lambda n: {d: (abs(mu), phi) for d, (mu, phi) in table(n).items()})
    # with mu(3) = +1, the d = 3 term of the 4 x 3 box mod 3 adds C(2, 1) to
    # every class instead of taking it away: totals 43, 37, 37, not 39, 33, 33
    with pytest.raises(ArithmeticError):
        residue_sums(4, 3, 3)


def test_residue_sums_rejects_bad_modulus():
    with pytest.raises(ValueError):
        residue_sums(3, 3, 0)
    for args, message in (((3, 3, 2.0), "r must be an integer: 2.0"),
                          ((3.0, 3, 2), "m must be an integer: 3.0")):
        with pytest.raises(ValueError) as excinfo:
            residue_sums(*args)
        assert str(excinfo.value) == message


def test_complement_class_symmetry():
    # the class table of a k x (l-1) box mod l is symmetric under j -> l-j
    for k in range(1, 13):
        for l in range(2, 11):
            table = residue_sums(k, l - 1, l)
            assert all(table[j] == table[(l - j) % l] for j in range(l)), (k, l)


def test_coprime_class_sum_examples():
    assert coprime_class_sum(3, 4, 4) == 5
    assert coprime_class_sum(5, 3, 3) == 7
    for k, l in ((1, 1), (4, 7), (9, 2)):
        assert coprime_class_sum(k, l, 1) == comb(k + l - 1, l - 1)


def test_coprime_class_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        coprime_class_sum(6, 4, 2)  # not coprime
    with pytest.raises(ValueError):
        coprime_class_sum(3, 4, 3)  # r does not divide l
    with pytest.raises(ValueError):
        coprime_class_sum(0, 4, 2)
    with pytest.raises(ValueError):
        coprime_class_sum(3, 4, 0)


def test_coprime_equal_classes_small_sweep():
    for k in range(1, 11):
        for l in range(1, 9):
            if gcd(k, l) != 1:
                continue
            for r in range(1, l + 1):
                if l % r:
                    continue
                assert residue_sums(k, l - 1, r) == [coprime_class_sum(k, l, r)] * r


def test_prime_multiple_class_sum_values():
    # 3 x 2 box mod 3 holds [4, 3, 3]
    assert prime_multiple_class_sum(3, 1, 2, 0) == 4
    assert prime_multiple_class_sum(3, 1, 2, 1) == 3
    assert prime_multiple_class_sum(3, 1, 2, 2) == 3
    assert residue_sums(3, 2, 3) == [4, 3, 3]


def test_prime_multiple_gap_is_exactly_one():
    for p in (3, 5, 7):
        for mult in (1, 2):
            for height in range(1, p):
                zero = prime_multiple_class_sum(p, mult, height, 0)
                others = {prime_multiple_class_sum(p, mult, height, j) for j in range(1, p)}
                assert len(others) == 1
                assert zero == others.pop() + 1


def test_prime_multiple_matches_enumeration():
    for p in (3, 5, 7):
        for mult in (1, 2):
            for height in range(1, p):
                expected = [prime_multiple_class_sum(p, mult, height, j) for j in range(p)]
                assert residue_sums(mult * p, height, p) == expected


def test_prime_multiple_rejects_bad_input():
    with pytest.raises(ValueError):
        prime_multiple_class_sum(9, 1, 2, 0)  # not prime
    with pytest.raises(ValueError):
        prime_multiple_class_sum(2, 1, 1, 0)  # even prime
    with pytest.raises(ValueError):
        prime_multiple_class_sum(5, 0, 2, 0)
    with pytest.raises(ValueError):
        prime_multiple_class_sum(5, 1, 5, 0)  # height out of range
    with pytest.raises(ValueError):
        prime_multiple_class_sum(5, 1, 2, 5)  # residue out of range


def test_prime_adjacent_class_sum_values():
    assert prime_adjacent_class_sum(3, 2) == 2
    assert prime_adjacent_class_sum(5, 4) == 14
    assert prime_adjacent_class_sum(3, 1) == 1


def test_prime_adjacent_matches_enumeration():
    for p in (3, 5, 7):
        for height in range(1, p):
            expected = [prime_adjacent_class_sum(p, height)] * p
            assert residue_sums(p - 1, height, p) == expected


def test_prime_adjacent_rejects_bad_input():
    with pytest.raises(ValueError):
        prime_adjacent_class_sum(4, 1)
    with pytest.raises(ValueError):
        prime_adjacent_class_sum(5, 0)
    with pytest.raises(ValueError):
        prime_adjacent_class_sum(5, 5)


def test_inexact_division_fails_loudly():
    # the guard behind every closed-form prediction
    from qfiber.qbinomial import _exact_div

    assert _exact_div(20, 4) == 5
    with pytest.raises(ArithmeticError):
        _exact_div(20, 3)
