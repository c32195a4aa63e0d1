"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; all
expected values are exact integers, frozen from independent enumeration.
"""

import random
import time
from itertools import combinations, permutations
from math import comb, gcd
from pathlib import Path

from qfiber.heisenberg import (
    covering_point,
    delta_fiber_sizes,
    delta_fiber_sizes_via_partitions,
    reconstruct,
    relative_positions,
    shift_action,
)
from qfiber.partitions import count_by_residue, enumerate_restricted
from qfiber.qbinomial import gaussian_coefficients, residue_sums
from qfiber.surjections import (
    act_cyclic,
    act_symmetric,
    act_unit,
    enumerate_step_sequences,
    integral,
    partition_to_surjection,
    surjection_to_partition,
)
from qfiber.verify import check_main1, check_therm

README = Path(__file__).resolve().parent.parent / "README.md"

TRUE_20X9_MOD10 = [
    1001603, 1001400, 1001600, 1001400, 1001600,
    1001402, 1001600, 1001400, 1001600, 1001400,
]


def announce(number, text):
    print(f"PASS criterion {number:02d}: {text}")


def test_criterion_01_three_by_three_classes():
    started = time.perf_counter()
    assert residue_sums(3, 3, 4) == [5, 5, 5, 5]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(1, f"residue_sums(3,3,4) == [5,5,5,5] in {elapsed:.3f}s")


def test_criterion_02_five_by_two_classes():
    started = time.perf_counter()
    assert residue_sums(5, 2, 3) == [7, 7, 7]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(2, f"residue_sums(5,2,3) == [7,7,7] in {elapsed:.3f}s")


def test_criterion_03_six_by_five_classes():
    table = residue_sums(6, 5, 6)
    assert table == [80, 75, 78, 76, 78, 75]
    assert sum(table) == comb(11, 5) == 462
    announce(3, "residue_sums(6,5,6) == [80,75,78,76,78,75], total 462")


def test_criterion_04_ten_by_nine_classes_and_docs():
    table = residue_sums(10, 9, 10)
    assert table == [9252, 9225, 9250, 9225, 9250, 9226, 9250, 9225, 9250, 9225]
    assert sum(table) == comb(19, 9) == 92378
    # the docs must carry the corrected 20 x 9 table alongside the mislabeled one
    docs = README.read_text()
    assert "92378" in docs
    for value in TRUE_20X9_MOD10:
        assert str(value) in docs
    assert count_by_residue(20, 9, 10) == TRUE_20X9_MOD10
    assert residue_sums(20, 9, 10) == TRUE_20X9_MOD10
    announce(4, "residue_sums(10,9,10) reproduced; docs carry the true 20x9 table")


def test_criterion_05_coprime_sweep_to_24():
    started = time.perf_counter()
    reports = check_main1(24, 24)
    elapsed = time.perf_counter() - started
    pairs = {(r.parameters["k"], r.parameters["l"]) for r in reports}
    assert pairs == {
        (k, l)
        for k in range(1, 25)
        for l in range(1, 25)
        if gcd(k, l) == 1
    }
    divisors = {(r.parameters["l"], r.parameters["r"]) for r in reports}
    assert all(l % r == 0 for l, r in divisors)
    failures = [r for r in reports if r.status != "pass"]
    assert not failures
    assert elapsed < 300.0
    announce(5, f"{len(reports)} coprime class-sum checks pass in {elapsed:.1f}s")


def test_criterion_06_prime_box_sweep():
    started = time.perf_counter()
    reports = check_therm((3, 5, 7, 11), 3)
    elapsed = time.perf_counter() - started
    multiple = [r for r in reports if r.check_id == "therm-multiple"]
    adjacent = [r for r in reports if r.check_id == "therm-adjacent"]
    assert len(multiple) == sum(3 * (p - 1) for p in (3, 5, 7, 11))
    assert len(adjacent) == sum(p - 1 for p in (3, 5, 7, 11))
    assert all(r.status == "pass" for r in reports)
    assert elapsed < 300.0
    announce(6, f"{len(reports)} prime-box class-sum checks pass in {elapsed:.1f}s")


def test_criterion_07_single_excess_class():
    for p in (3, 5, 7):
        for mult in (1, 2):
            table = delta_fiber_sizes(mult * p, p)
            common = min(table)
            excess = [s for s, size in enumerate(table) if size != common]
            assert excess == [0]
            assert table[0] == common + 1
    announce(7, "fiber tables at prime multiples have a single +1 class (at 0)")


def test_criterion_08_two_routes_agree_everywhere():
    for m in range(13):
        for n in range(13):
            vec = list(gaussian_coefficients(m, n))
            assert vec == count_by_residue(m, n, m * n + 1)
    announce(8, "product-formula and box-recurrence routes agree for all boxes up to 12 x 12")


def test_criterion_09_bijection_round_trips():
    checked = 0
    for total in range(1, 17):
        for l in range(1, total + 1):
            k = total - l
            step_side = set()
            for s in enumerate_step_sequences(k, l):
                pi = surjection_to_partition(s)
                assert partition_to_surjection(pi, k, l) == s
                assert integral(s) == l * (l - 1) // 2 + k + l + sum(pi)
                step_side.add(pi)
                checked += 1
            partition_side = (
                set(enumerate_restricted(k, l - 1)) if l > 1 else {()}
            )
            assert step_side == partition_side
            for pi in partition_side:
                s = partition_to_surjection(pi, k, l)
                assert surjection_to_partition(s) == pi
    announce(9, f"bijection inverts both ways with the exact area identity ({checked} elements)")


def test_criterion_10_cyclic_shift_law():
    checked = 0
    for total in range(1, 17):
        for l in range(1, total + 1):
            k = total - l
            for s in enumerate_step_sequences(k, l):
                assert integral(act_cyclic(s, 1)) % l == (integral(s) - (k + l)) % l
                checked += 1
    announce(10, f"area drops by k+l mod l under rotation ({checked} sequences)")


def test_criterion_11_fiber_routes_agree():
    for n in range(1, 15):
        for r in range(1, n + 1):
            assert delta_fiber_sizes(n, r) == delta_fiber_sizes_via_partitions(n, r)
    announce(11, "enumerated and bijection-chained fiber tables agree for N <= 14")


def test_criterion_12_covering_round_trips():
    checked = 0
    for n in range(1, 11):
        for r in range(1, n + 1):
            for first in range(1, n + 1):
                for cuts in combinations(range(1, n), r - 1):
                    bounds = (0,) + cuts + (n,)
                    gaps = [b - a for a, b in zip(bounds, bounds[1:])]
                    positions = [first]
                    for gap in gaps[:-1]:
                        positions.append(positions[-1] + gap)
                    point = covering_point(positions, n)
                    assert reconstruct(sum(positions), relative_positions(point)) == point
                    assert sum(shift_action(point, 1)[0]) == sum(positions) + n
                    checked += 1
    announce(12, f"reconstruction inverts and the shift adds N ({checked} covering points)")


def test_criterion_13_group_laws():
    rng = random.Random(0x51BE)

    def random_sequence():
        length = rng.randint(1, 12)
        return tuple(rng.randint(1, 9) for _ in range(length))

    randomized = 0
    for _ in range(4000):
        s = rng.choice((random_sequence(), random_sequence()))
        l = len(s)
        a, b = rng.randint(-24, 24), rng.randint(-24, 24)
        assert act_cyclic(act_cyclic(s, a), b) == act_cyclic(s, a + b)
        assert act_cyclic(s, l) == s
        randomized += 1
    for _ in range(4000):
        s = random_sequence()
        l = len(s)
        units = [u for u in range(1, l + 1) if gcd(u, l) == 1]
        u, v = rng.choice(units), rng.choice(units)
        assert act_unit(act_unit(s, v), u) == act_unit(s, u * v)
        randomized += 1
    for _ in range(4000):
        s = random_sequence()
        l = len(s)
        sigma = list(range(1, l + 1))
        tau = list(range(1, l + 1))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        composed = tuple(tau[sigma[i] - 1] for i in range(l))
        assert act_symmetric(act_symmetric(s, tau), sigma) == act_symmetric(s, composed)
        randomized += 1
    assert randomized >= 10_000

    exhaustive = 0
    for total in range(1, 8):
        for l in range(1, total + 1):
            k = total - l
            units = [u for u in range(1, l + 1) if gcd(u, l) == 1]
            perms = list(permutations(range(1, l + 1))) if l <= 4 else []
            for s in enumerate_step_sequences(k, l):
                for a in range(l):
                    for b in range(l):
                        assert act_cyclic(act_cyclic(s, a), b) == act_cyclic(s, a + b)
                        exhaustive += 1
                for u in units:
                    for v in units:
                        assert act_unit(act_unit(s, v), u) == act_unit(s, u * v)
                        exhaustive += 1
                for sigma in perms:
                    for tau in perms:
                        composed = tuple(tau[sigma[i] - 1] for i in range(l))
                        assert act_symmetric(act_symmetric(s, tau), sigma) == act_symmetric(
                            s, composed
                        )
                        exhaustive += 1
    announce(
        13,
        f"group laws hold on {randomized} random and {exhaustive} exhaustive cases",
    )
