"""Tests for the verification harness itself."""

import tracemalloc
from collections import Counter
from itertools import chain, combinations
from math import comb, gcd

import pytest

import qfiber.heisenberg as heisenberg
import qfiber.qbinomial as qbinomial
import qfiber.verify as verify
from qfiber.cli import main
from qfiber.heisenberg import covering_point, enumerate_configurations, shift_action
from qfiber.partitions import count_by_residue, count_exact_parts_by_residue
from qfiber.surjections import act_cyclic, act_unit
from qfiber.verify import (
    CheckReport,
    check_counterexamples,
    check_fibrations,
    check_main1,
    check_therm,
    check_thmp,
    run_suite,
)


def failures(reports):
    return [r for r in reports if r.status != "pass"]


def test_check_report_status_matches_equality():
    passing = CheckReport("x", {}, [1, 2], [1, 2], "pass", 0.0)
    assert passing.expected == passing.actual
    reports = check_main1(4, 4)
    for r in reports:
        assert (r.status == "pass") == (r.expected == r.actual)
        assert r.elapsed >= 0.0


def test_check_main1_small_sweep_passes():
    reports = check_main1(6, 6)
    assert reports and not failures(reports)


def test_check_main1_contains_worked_examples():
    reports = {tuple(sorted(r.parameters.items())): r for r in check_main1(6, 6)}
    ex1 = reports[(("k", 3), ("l", 4), ("r", 4))]
    assert ex1.expected == [5, 5, 5, 5] and ex1.status == "pass"
    ex2 = reports[(("k", 5), ("l", 3), ("r", 3))]
    assert ex2.expected == [7, 7, 7] and ex2.status == "pass"


def test_check_main1_skips_non_coprime_pairs():
    for r in check_main1(8, 8):
        assert gcd(r.parameters["k"], r.parameters["l"]) == 1


def test_arithmetic_error_fails_one_check_without_ending_the_sweep(monkeypatch, capsys):
    closed_form = verify.coprime_class_sum

    def broken(k, l, r):
        if (k, l, r) == (3, 4, 2):
            raise ArithmeticError("injected failure")
        return closed_form(k, l, r)

    monkeypatch.setattr(verify, "coprime_class_sum", broken)
    reports = check_main1(4, 4)
    [failed] = failures(reports)
    assert failed.parameters == {"k": 3, "l": 4, "r": 2}
    assert failed.expected == "ArithmeticError: injected failure"
    assert failed.actual == [10, 10]
    assert main(["verify", "main1", "--k-max", "4", "--l-max", "4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL main1 k=3 l=4 r=2" in out
    assert f"{len(reports) - 1} of {len(reports)} checks passed" in out


def test_value_error_fails_one_check_without_ending_the_sweep(monkeypatch):
    route = verify.delta_fiber_sizes_via_partitions

    def broken(n, r):
        if (n, r) == (5, 2):
            raise ValueError("injected failure")
        return route(n, r)

    monkeypatch.setattr(verify, "delta_fiber_sizes_via_partitions", broken)
    [failed] = failures(check_fibrations(6))
    assert (failed.check_id, failed.parameters) == ("fibers-agree", {"N": 5, "r": 2})
    assert failed.actual.startswith("ValueError:") and failed.expected == [2, 2]


def test_a_unit_moved_in_the_fibers_route_fails_its_closed_form_check(monkeypatch, capsys):
    route = verify.delta_fiber_sizes_closed_form

    def moved(n, r):
        sizes = list(route(n, r))
        if r > 1:  # one unit from class 0 to class 1, the total kept
            sizes[0] -= 1
            sizes[1] += 1
        return iter(sizes)

    monkeypatch.setattr(verify, "delta_fiber_sizes_closed_form", moved)
    assert main(["verify", "fibrations"]) == 1
    out, err = capsys.readouterr()
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    # every (N, r) with r > 1 up to the default N <= 14, and no other check
    assert len(failed) == 105 - 14
    assert all(line.startswith("FAIL fibers-closed-form ") for line in failed)
    assert "FAIL fibers-closed-form N=5 r=2 (classes 0,1 differ)" in failed
    reports = len(out.splitlines()) - 1
    assert out.endswith(f"\n{reports - len(failed)} of {reports} checks passed\n")
    assert err == ""


def test_a_unit_moved_in_the_kernel_fails_the_checks_that_fold_it(monkeypatch, capsys):
    kernel = verify.gaussian_coefficients

    def moved(m, n):
        coeffs = list(kernel(m, n))
        if m >= 3 and n >= 3:  # one unit from coefficient mn/2 to the next, the total kept
            coeffs[m * n // 2] -= 1
            coeffs[m * n // 2 + 1] += 1
        return tuple(coeffs)

    # main1 folds each box through its own memo, which wraps the kernel bound in verify
    monkeypatch.setattr(verify, "gaussian_coefficients", moved)
    for argv, failed, reports in (
        (["main1", "--k-max", "6", "--l-max", "6"], [
            "main1 k=3 l=4 r=2 (classes 0,1 differ)", "main1 k=3 l=4 r=4 (classes 0,1 differ)",
            "main1 k=3 l=5 r=5 (classes 1,2 differ)", "main1 k=4 l=5 r=5 (classes 3,4 differ)",
            "main1 k=5 l=4 r=2 (classes 0,1 differ)", "main1 k=5 l=4 r=4 (classes 0,3 differ)",
            "main1 k=5 l=6 r=2 (classes 0,1 differ)", "main1 k=5 l=6 r=3 (classes 0,1 differ)",
            "main1 k=5 l=6 r=6 (classes 0,1 differ)", "main1 k=6 l=5 r=5 (classes 2,3 differ)",
        ], 47),
        (["therm", "--primes", "5", "--m-max", "1"], [
            "therm-adjacent p=5 N=3 (classes 1,2 differ)",
            "therm-adjacent p=5 N=4 (classes 3,4 differ)",
            "therm-multiple p=5 M=1 N=3 (classes 2,3 differ)",
            "therm-multiple p=5 M=1 N=4 (classes 0,1 differ)",
        ], 8),
    ):
        assert main(["verify", *argv]) == 1
        out, err = capsys.readouterr()
        assert [line[5:] for line in out.splitlines() if line.startswith("FAIL")] == failed
        assert out.endswith(f"\n{reports - len(failed)} of {reports} checks passed\n")
        assert err == ""


def test_main1_builds_each_box_once_through_the_kernel_bound_in_verify(monkeypatch):
    built = Counter()
    kernel = verify.gaussian_coefficients

    def counted(m, n):
        built[m, n] += 1
        return kernel(m, n)

    monkeypatch.setattr(verify, "gaussian_coefficients", counted)
    reports = check_main1(8, 8)
    assert reports and not failures(reports)
    boxes = [(k, l - 1) for k in range(1, 9) for l in range(1, 9) if gcd(k, l) == 1]
    assert built == Counter(boxes)


def test_rotated_gap_vectors_fail_only_the_round_trip(monkeypatch, capsys):
    gap_vector = verify._gap_vector

    def rotated(point):
        return act_cyclic(gap_vector(point), -1)

    monkeypatch.setattr(verify, "_gap_vector", rotated)
    assert main(["verify", "fibrations", "--n-max", "6"]) == 1
    out, err = capsys.readouterr()
    failed = [line.split()[1:4] for line in out.splitlines() if line.startswith("FAIL")]
    # one gap, or N gaps of 1, rotate to themselves; every other (N, r) has a
    # gap vector that does not
    assert failed == [["covering-roundtrip", f"N={n}", f"r={r}"]
                      for n in range(1, 7) for r in range(2, n)]
    assert err == ""


def test_lost_moebius_signs_in_the_fibers_route_fail_only_its_closed_form_check(
        monkeypatch, capsys):
    table = heisenberg._divisor_table
    monkeypatch.setattr(
        heisenberg, "_divisor_table",
        lambda n: {d: (abs(mu), phi) for d, (mu, phi) in table(n).items()})
    assert main(["verify", "fibrations"]) == 1
    out, err = capsys.readouterr()
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    # every (N, r) with gcd(N, r) > 1 up to the default N <= 14 (at gcd 1 the
    # route reads no table), and no other check: the class sums of
    # fibers-agree read qbinomial's own table, which is intact
    assert len(failed) == sum(gcd(n, r) > 1 for n in range(1, 15) for r in range(1, n + 1))
    assert all(line.startswith("FAIL fibers-closed-form ") for line in failed)
    reports = len(out.splitlines()) - 1
    assert out.endswith(f"\n{reports - len(failed)} of {reports} checks passed\n")
    assert err == ""


def test_arithmetic_error_in_a_shared_table_fails_each_check_reading_it(monkeypatch):
    sums = verify.residue_sums

    def broken(m, n, r):
        if (m, n, r) == (6, 5, 6):
            raise ArithmeticError("injected failure")
        return sums(m, n, r)

    monkeypatch.setattr(verify, "residue_sums", broken)
    failed = failures(check_counterexamples())
    assert {r.check_id for r in failed} == {
        "counterexample-6x5-table", "counterexample-6x5-total", "counterexample-6x5-nonconstant"}
    assert all(r.actual == "ArithmeticError: injected failure" for r in failed)


def test_lost_moebius_signs_fail_only_the_checks_reading_residue_sums(monkeypatch):
    table = qbinomial._divisor_table
    monkeypatch.setattr(
        qbinomial, "_divisor_table",
        lambda n: {d: (abs(mu), phi) for d, (mu, phi) in table(n).items()})
    failed = failures(check_counterexamples())
    assert len(failed) == 7
    assert all(r.actual.startswith("ArithmeticError: ") for r in failed)
    # the closed forms are terms of the q-Lucas sum, so their checks read the folded vector
    assert not failures(check_main1(6, 6)) and not failures(check_therm((3, 5), 1))


def test_check_main1_rejects_small_bounds():
    with pytest.raises(ValueError):
        check_main1(1, 6)
    with pytest.raises(ValueError):
        check_main1(6, 1)


@pytest.mark.parametrize("call, message", [
    (lambda: qbinomial.is_prime(7.0), "n must be an integer: 7.0"),
    (lambda: run_suite("therm", primes=(3.0,)), "primes[0] must be an integer: 3.0"),
    (lambda: run_suite("thmp", primes=(3, 5.0)), "primes[1] must be an integer: 5.0"),
    (lambda: check_therm((3,), 1.0), "multiplier_max must be an integer: 1.0"),
    (lambda: check_main1(4.0, 4), "k_max must be an integer: 4.0"),
    (lambda: check_fibrations(5.0), "ring_max must be an integer: 5.0"),
    (lambda: qbinomial.coprime_class_sum(2, 3, 3.0), "r must be an integer: 3.0"),
    (lambda: qbinomial.prime_multiple_class_sum(5.0, 1, 1, 0), "p must be an integer: 5.0"),
    (lambda: qbinomial.prime_adjacent_class_sum(5, 1.0), "height must be an integer: 1.0"),
    (lambda: count_by_residue(2, 2.0, 3), "max_count must be an integer: 2.0"),
    (lambda: count_exact_parts_by_residue(2, 2, 3.0), "modulus must be an integer: 3.0"),
    (lambda: list(enumerate_configurations(5.0, 2)), "ring_size must be an integer: 5.0"),
    (lambda: act_cyclic((1, 2, 3), "1"), "power must be an integer: '1'"),
    (lambda: act_cyclic((1, 2, 3), 1.5), "power must be an integer: 1.5"),
    (lambda: act_unit((1, 2, 3), 2.0), "u must be an integer: 2.0"),
])
def test_non_integer_arguments_are_refused_by_name(call, message):
    # 7.0 passes the trial division, so a float prime or bound used to end in
    # a bare TypeError from `range` or a list product; a string power used to
    # end in a string-formatting TypeError, a float one in a slice's
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_check_therm_passes():
    reports = check_therm((3, 5), 2)
    assert reports and not failures(reports)
    reports = check_therm((7,), 1)
    assert reports and not failures(reports)


def test_check_therm_respects_hypotheses():
    reports = check_therm((3, 5), 2)
    for r in reports:
        p = r.parameters["p"]
        assert 1 <= r.parameters["N"] <= p - 1
        if r.check_id == "therm-multiple":
            assert r.parameters["M"] >= 1


def test_check_therm_rejects_bad_primes():
    with pytest.raises(ValueError):
        check_therm((3, 9), 2)
    with pytest.raises(ValueError):
        check_therm((2,), 1)
    with pytest.raises(ValueError):
        check_therm((), 1)
    for check in (check_therm, check_thmp):
        with pytest.raises(ValueError, match="^multiplier_max must be positive$"):
            check((3,), 0)


@pytest.mark.parametrize("primes, message", [
    ((3, 3), "repeated primes: [3]"),
    ((5, 3, 5, 3, 5), "repeated primes: [3, 5]"),
    # the earlier checks come first, so their messages stay
    ((3, 9, 9), "not odd primes: [9, 9]"),
    ((3, 3.0), "primes[1] must be an integer: 3.0"),
])
def test_repeated_primes_are_refused(primes, message):
    with pytest.raises(ValueError) as by_validation:
        verify._validate_primes(primes)
    assert str(by_validation.value) == message
    for check in (check_therm, check_thmp):
        with pytest.raises(ValueError) as by_suite:
            check(primes, 1)
        assert str(by_suite.value) == message
    with pytest.raises(ValueError) as by_run:
        run_suite("therm", primes=primes, multiplier_max=1)
    assert str(by_run.value) == message


def test_check_thmp_passes_and_reports_reference_tables():
    reports = check_thmp((3, 5), 2)
    assert not failures(reports)
    one_part = {r.parameters["p"]: r for r in reports if r.check_id == "thmp-one-part"}
    assert one_part[3].expected == [0, 1, 1]
    assert one_part[5].expected == [0, 1, 1, 1, 1]
    pm1 = {
        (r.parameters["p"], r.parameters["k"]): r
        for r in reports
        if r.check_id == "thmp-equal-classes-pm1"
    }
    assert pm1[(5, 3)].expected == [4] * 5
    mp = {
        (r.parameters["p"], r.parameters["M"], r.parameters["k"]): r
        for r in reports
        if r.check_id == "thmp-equal-classes-mp"
    }
    assert mp[(3, 2, 2)].expected == [7, 7, 7]


def test_check_thmp_respects_hypotheses():
    for r in check_thmp((3, 5, 7), 2):
        p = r.parameters["p"]
        if r.check_id == "thmp-equal-classes-pm1":
            assert 2 <= r.parameters["k"] <= p - 1
        if r.check_id == "thmp-equal-classes-mp":
            assert 1 <= r.parameters["k"] <= p - 1


def test_check_counterexamples():
    reports = check_counterexamples()
    assert not failures(reports)
    by_id = {r.check_id: r for r in reports}
    assert by_id["counterexample-6x5-table"].actual == [80, 75, 78, 76, 78, 75]
    assert by_id["counterexample-6x5-total"].actual == comb(11, 5)
    assert by_id["counterexample-6x5-nonconstant"].actual == 1
    assert sum(by_id["counterexample-10x9-table"].actual) == comb(19, 9)
    cross = by_id["counterexample-20x9-crosscheck"]
    assert cross.expected == cross.actual
    assert sum(cross.actual) == comb(29, 9)


def test_check_fibrations_small_sweep():
    reports = check_fibrations(8)
    assert reports and not failures(reports)
    ids = {r.check_id for r in reports}
    assert ids == {
        "fibers-agree",
        "fibers-closed-form",
        "fibers-constant-coprime",
        "fibers-prime-gap",
        "covering-roundtrip",
        "covering-shift",
    }
    with pytest.raises(ValueError):
        check_fibrations(2)


def test_arithmetic_error_in_reconstruct_fails_only_the_round_trip(monkeypatch):
    rebuild = verify._rebuild

    def broken(center_sum, gaps):
        if gaps == (1, 2, 3):
            raise ArithmeticError("injected failure")
        return rebuild(center_sum, gaps)

    monkeypatch.setattr(verify, "_rebuild", broken)
    reports = check_fibrations(7)
    [failed] = failures(reports)
    assert (failed.check_id, failed.parameters) == ("covering-roundtrip", {"N": 6, "r": 3})
    assert failed.expected == 6 * comb(5, 2)
    assert failed.actual == "ArithmeticError: injected failure"
    [shift] = [
        r for r in reports if (r.check_id, r.parameters) == ("covering-shift", {"N": 6, "r": 3})]
    assert shift.status == "pass" and shift.actual == 6 * comb(5, 2)


def test_covering_checks_keep_no_point_list():
    # the two covering checks share one walk, so memory does not grow with
    # the 12 * C(11, 5) = 5544 points of (12, 6); a list of them takes ~1 MB
    verify._covering_walk(12, 6)  # fill any first-call caches before tracing
    tracemalloc.start()
    try:
        counts = verify._covering_walk(12, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == (5544, 5544)
    assert peak < 256 * 1024


def test_covering_checks_count_against_the_closed_form(monkeypatch):
    # a walk that skips every point, or meets each twice, fails all 42
    # covering checks of N <= 6: each compares its count with r * C(N, r)
    for walked in (lambda n, r: iter(()),
                   lambda n, r: chain(enumerate_configurations(n, r),
                                      enumerate_configurations(n, r))):
        monkeypatch.setattr(verify, "enumerate_configurations", walked)
        reports = check_fibrations(6)
        covering = [r for r in reports if r.check_id.startswith("covering-")]
        assert len(covering) == 42 and failures(reports) == covering
        for report in covering:
            n, r = report.parameters["N"], report.parameters["r"]
            assert report.expected == r * comb(n, r) != report.actual


def test_orbit_starts_are_the_checked_points(monkeypatch):
    # the covering walk starts its orbits at the points `enumerate_configurations`
    # builds unchecked: they equal the points `covering_point` makes from the
    # same r-subsets
    assert verify.enumerate_configurations is enumerate_configurations
    starts = []

    def recording(n, r):
        for point in enumerate_configurations(n, r):
            starts.append(point)
            yield point

    monkeypatch.setattr(verify, "enumerate_configurations", recording)
    for n in range(1, 9):
        for r in range(n + 1):
            starts.clear()
            verify._covering_walk(n, r)
            assert starts == [covering_point(c, n) for c in combinations(range(1, n + 1), r)]
    for ring_size in (0, -1, 2.0, "3"):
        with pytest.raises(ValueError, match="^ring_size must be"):
            verify._covering_walk(ring_size, 1)


def assert_walk_covers_first_mark_points(monkeypatch):
    """For N <= 9, the points the covering walk passes to its gap-vector
    kernel are those with first mark in [1, N], built directly, each once,
    and the walk counts each of them."""
    seen = []
    gap_vector = verify._gap_vector

    def recording(point):
        seen.append(point[0])
        return gap_vector(point)

    monkeypatch.setattr(verify, "_gap_vector", recording)
    for n in range(1, 10):
        for r in range(1, n + 1):
            seen.clear()
            counts = verify._covering_walk(n, r)
            expected = {
                (first, *rest)
                for first in range(1, n + 1)
                for rest in combinations(range(first + 1, first + n), r - 1)
            }
            assert len(seen) == len(set(seen)) == len(expected) == r * comb(n, r)
            assert set(seen) == expected, (n, r)
            assert counts == (len(expected),) * 2


def test_orbit_walk_visits_each_covering_point_once(monkeypatch):
    assert_walk_covers_first_mark_points(monkeypatch)


def test_wrong_shift_fails_only_the_shift_check(monkeypatch):
    # a shift with the right position sum but the wrong positions: the walk
    # follows it, and every (N, r) where it moves a point off the covering
    # shift fails covering-shift, and nothing else fails
    shift = verify._shift

    def wrong(point):
        moved = shift(point)
        positions, n = moved[0], point[1]
        if len(positions) < 2 or positions[-1] - positions[0] > n - 3:
            return moved
        return covering_point((positions[0] - 1, *positions[1:-1], positions[-1] + 1), n)

    altered = {
        (n, r)
        for n in range(1, 10)
        for r in range(1, n + 1)
        for first in range(1, n + 1)
        for rest in combinations(range(first + 1, first + n), r - 1)
        if wrong(((first, *rest), n)) != shift(((first, *rest), n))
    }
    monkeypatch.setattr(verify, "_shift", wrong)
    failed = failures(check_fibrations(9))
    assert {r.check_id for r in failed} == {"covering-shift"}
    assert {(r.parameters["N"], r.parameters["r"]) for r in failed} == altered
    assert len(altered) == 21


def test_shift_off_the_walks_sum_fails_the_covering_checks_without_ending_the_sweep(monkeypatch):
    # the walk rebuilds each point from its own running sum, so a shift that
    # drops the last mark by one makes the rebuild raise ValueError
    shift = verify._shift

    def dropped(point):
        moved = shift(point)
        positions, n = moved[0], point[1]
        if len(positions) < 2 or positions[-1] - 1 == positions[-2]:
            return moved
        return covering_point((*positions[:-1], positions[-1] - 1), n)

    monkeypatch.setattr(verify, "_shift", dropped)
    failed = failures(check_fibrations(6))
    assert sorted(Counter(r.check_id for r in failed).items()) == [
        ("covering-roundtrip", 10), ("covering-shift", 10)]
    [first] = [r for r in failed if r.parameters == {"N": 3, "r": 2}
               and r.check_id == "covering-roundtrip"]
    assert first.actual == "ValueError: center sum 6 is incompatible with the gap vector (1, 2)"


def test_forged_shift_fails_the_covering_checks_without_ending_the_sweep(monkeypatch):
    # a shift that returns a point breaking the covering rules, made without
    # `covering_point`: the kernels take it as valid, and the shift check fails
    shift = verify._shift

    def forged(point):
        positions, n = moved = shift(point)
        return moved if len(positions) < 2 else (positions[::-1], n)

    monkeypatch.setattr(verify, "_shift", forged)
    failed = failures(check_fibrations(6))
    assert failed and {r.check_id for r in failed} <= {"covering-roundtrip", "covering-shift"}


def test_shift_that_raises_fails_its_covering_checks_without_ending_the_sweep(monkeypatch):
    # a shift that builds its reversed result through `covering_point` raises
    # ValueError at (5, 2): the walk stops there, the shift check holds the
    # error, and the round trip check keeps the count it reached
    shift = verify._shift

    def reversing(point):
        moved = shift(point)
        if (point[1], len(point[0])) != (5, 2):
            return moved
        return covering_point(moved[0][::-1], 5)

    clean = check_fibrations(6)
    monkeypatch.setattr(verify, "_shift", reversing)
    reports = check_fibrations(6)
    failed = failures(reports)
    assert len(reports) == len(clean)
    assert {(r.check_id, r.parameters["N"], r.parameters["r"]) for r in failed} == {
        ("covering-roundtrip", 5, 2), ("covering-shift", 5, 2)}
    [trips] = [r for r in failed if r.check_id == "covering-roundtrip"]
    [shifted] = [r for r in failed if r.check_id == "covering-shift"]
    assert trips.expected == shifted.expected == 20 and trips.actual == 1
    assert shifted.actual.startswith("ValueError: positions must be strictly increasing")


def test_reconstruct_to_another_point_fails_only_the_round_trip(monkeypatch):
    # a valid covering point, but r shifts away from the one with that sum
    rebuild = verify._rebuild
    monkeypatch.setattr(
        verify, "_rebuild", lambda total, gaps: shift_action(rebuild(total, gaps), len(gaps)))
    reports = check_fibrations(7)
    failed = failures(reports)
    assert failed == [r for r in reports if r.check_id == "covering-roundtrip"]
    assert all(r.actual == 0 for r in failed)


def test_reconstruct_to_another_point_fails_only_the_round_trip_through_main(
        monkeypatch, capsys):
    rebuild = verify._rebuild
    monkeypatch.setattr(
        verify, "_rebuild", lambda total, gaps: shift_action(rebuild(total, gaps), len(gaps)))
    assert main(["verify", "fibrations", "--n-max", "6"]) == 1
    out, err = capsys.readouterr()
    failed = [line.split()[1:4] for line in out.splitlines() if line.startswith("FAIL")]
    # every rebuilt point is its own translate by N, so every (N, r) fails
    assert failed == [["covering-roundtrip", f"N={n}", f"r={r}"]
                      for n in range(1, 7) for r in range(1, n + 1)]
    assert err == ""


def test_check_fibrations_prime_gap_hypotheses():
    from qfiber.qbinomial import is_prime

    for r in check_fibrations(10):
        if r.check_id == "fibers-prime-gap":
            modulus = r.parameters["r"]
            assert modulus > 2 and is_prime(modulus)
            assert r.parameters["N"] % modulus == 0
        if r.check_id == "fibers-constant-coprime":
            assert gcd(r.parameters["N"], r.parameters["r"]) == 1


def test_reports_are_reproducible():
    strip = lambda reports: [
        (r.check_id, sorted(r.parameters.items()), r.expected, r.actual, r.status)
        for r in reports
    ]
    assert strip(check_fibrations(6)) == strip(check_fibrations(6))
    assert strip(check_main1(5, 5)) == strip(check_main1(5, 5))


def test_run_suite_dispatch_and_order():
    reports = run_suite("counterexamples")
    keys = [(r.check_id, sorted(r.parameters.items())) for r in reports]
    assert keys == sorted(keys)
    combined = run_suite(
        "all", k_max=4, l_max=4, primes=(3,), multiplier_max=1, ring_max=4
    )
    ids = {r.check_id for r in combined}
    assert "main1" in ids and "therm-multiple" in ids and "fibers-agree" in ids
    with pytest.raises(ValueError):
        run_suite("everything")


def test_suite_work_closed_forms():
    # the closed forms against the per-check costs they stand for, summed by loops
    work = qbinomial.coefficient_work
    for primes, bound in (((3,), 1), ((3, 5, 7, 11), 3), ((13, 101), 2)):
        therm = thmp = 0
        for p in primes:
            for h in range(1, p):
                therm += work(p - 1, h) + (p - 1) * h + 1 + p
                thmp += (p - 2) * h * p + p
                for multiplier in range(1, bound + 1):
                    therm += work(multiplier * p, h) + multiplier * p * h + 1 + p
                    thmp += (multiplier * p - 1) * h * p + p
        assert verify.suite_work("therm", primes=primes, multiplier_max=bound) == therm
        assert verify.suite_work("thmp", primes=primes, multiplier_max=bound) == thmp
    # main1 is an upper bound: the product formula of each box and its fold mod each r | l
    for k_max, l_max in ((2, 2), (6, 9), (24, 24), (30, 7), (3, 300)):
        counted = sum(
            work(k, l - 1) + sum(k * (l - 1) + 1 + r for r in range(1, l + 1) if l % r == 0)
            for k in range(1, k_max + 1) for l in range(1, l_max + 1))
        estimate = verify.suite_work("main1", k_max=k_max, l_max=l_max)
        assert counted <= estimate <= 3 * counted, (k_max, l_max)
    assert verify.suite_work("all") == sum(
        verify.suite_work(suite) for suite in ("main1", "therm", "thmp"))
    assert verify.suite_work("counterexamples") == verify.suite_work("fibrations") == 0
    # closed forms, so a huge bound costs nothing to estimate
    assert verify.suite_work("main1", k_max=10**18, l_max=10**18) > 10**89
