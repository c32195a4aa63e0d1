"""Identity-verification harness.

Each suite sweeps one family of exact identities at a configurable scale,
comparing closed-form predictions against independently computed tables,
and returns structured pass/fail reports.  A failing check never aborts a
sweep; callers decide what to do with failures.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import lru_cache
from math import comb, gcd
from typing import Callable, Sequence, Union

from ._value import Value
from .heisenberg import (
    delta_fiber_sizes,
    delta_fiber_sizes_closed_form,
    delta_fiber_sizes_via_partitions,
    enumerate_configurations,
    reconstruct,
    relative_positions,
    shift_action,
)
from .partitions import count_by_residue, count_exact_parts_by_residue
from .qbinomial import (
    _check_integers,
    _divisor_table,
    coprime_class_sum,
    gaussian_coefficients,
    is_prime,
    prime_adjacent_class_sum,
    prime_multiple_class_sum,
    residue_sums,
)

__all__ = [
    "CheckReport", "check_counterexamples", "check_fibrations", "check_main1", "check_therm",
    "check_thmp", "run_suite",
]

SUITES = ("main1", "therm", "thmp", "counterexamples", "fibrations", "all")

DEFAULT_KL_BOUND = 24
DEFAULT_PRIMES = (3, 5, 7, 11)
DEFAULT_MULTIPLIER_BOUND = 3
DEFAULT_RING_BOUND = 14

# Reference class-sum tables for two non-coprime boxes where the sums differ.
REFERENCE_6X5_MOD6 = (80, 75, 78, 76, 78, 75)
REFERENCE_10X9_MOD10 = (9252, 9225, 9250, 9225, 9250, 9226, 9250, 9225, 9250, 9225)

Values = Union[int, list[int], str]

# The errors a check records as its failure instead of ending the sweep.
_CHECK_ERRORS = (ArithmeticError, ValueError)


class CheckReport(Value, frozen=False):
    """Outcome of one identity check; passes iff expected equals actual.

    A side, or a covering round trip, that raised ArithmeticError or
    ValueError holds the error text instead of a value, and the check
    fails.  `elapsed` is the time taken to evaluate both sides of the
    check; the two covering checks of one (N, r) share a single walk over
    its points and each carry half of its time.
    """

    __slots__ = __match_args__ = (
        "check_id", "parameters", "expected", "actual", "status", "elapsed")
    check_id: str
    parameters: dict[str, int]
    expected: Values
    actual: Values
    status: str
    elapsed: float

    def __init__(
        self, check_id: str, parameters: dict[str, int], expected: Values, actual: Values,
        status: str, elapsed: float,
    ) -> None:
        self.check_id, self.parameters, self.expected = check_id, parameters, expected
        self.actual, self.status, self.elapsed = actual, status, elapsed


def _check(
    check_id: str,
    parameters: dict[str, int],
    expected_fn: Callable[[], Values],
    actual_fn: Callable[[], Values],
) -> CheckReport:
    """Evaluate both sides of one check, timing the two together.  An
    ArithmeticError or ValueError on either side fails the check instead of
    ending the sweep."""
    started = time.perf_counter()
    (expected, expected_ok), (actual, actual_ok) = _evaluate(expected_fn), _evaluate(actual_fn)
    elapsed = time.perf_counter() - started
    status = "pass" if expected_ok and actual_ok and expected == actual else "fail"
    return CheckReport(check_id, parameters, expected, actual, status, elapsed)


def _evaluate(side: Callable[[], Values]) -> tuple[Values, bool]:
    """The side's value and True, or its error as text and False."""
    try:
        return side(), True
    except _CHECK_ERRORS as exc:
        return _error_text(exc), False


def _error_text(exc: ArithmeticError | ValueError) -> str:
    """How a report holds an error in place of a value."""
    return f"{type(exc).__name__}: {exc}"


def _ordered(reports: list[CheckReport]) -> list[CheckReport]:
    return sorted(reports, key=lambda rep: (rep.check_id, sorted(rep.parameters.items())))


def _validate_primes(primes: Sequence[int]) -> None:
    if not primes:
        raise ValueError("need at least one prime")
    _check_integers(**{f"primes[{i}]": p for i, p in enumerate(primes)})
    bad = [p for p in primes if p == 2 or not is_prime(p)]
    if bad:
        raise ValueError(f"not odd primes: {bad}")
    repeated = sorted(p for p, count in Counter(primes).items() if count > 1)
    if repeated:
        raise ValueError(f"repeated primes: {repeated}")


def _folded(coeffs: tuple[int, ...], r: int) -> list[int]:
    """Class sums mod r of a coefficient vector.  The closed forms are the
    d = 1 and d = p terms of the q-Lucas route of `residue_sums`, so their
    checks fold the product-formula vector of `gaussian_coefficients` instead."""
    return [sum(coeffs[j::r]) for j in range(r)]


def check_main1(k_max: int = DEFAULT_KL_BOUND, l_max: int = DEFAULT_KL_BOUND) -> list[CheckReport]:
    """Equal class sums for coprime boxes.

    For every coprime pair (k, l) within the bounds and every divisor r of l,
    the r class sums of the k x (l-1) box, folded from its coefficient
    vector, must all equal C(k+l-1, l-1) / r.
    Non-coprime pairs are skipped; they are covered by `counterexamples`.
    """
    _check_integers(k_max=k_max, l_max=l_max)
    if k_max < 2 or l_max < 2:
        raise ValueError("bounds must be at least 2")
    # a (k, l) folds its box once per divisor of l: keep the last, built by the kernel bound here
    box = lru_cache(maxsize=1)(gaussian_coefficients)
    reports = []
    for k in range(1, k_max + 1):
        for l in range(1, l_max + 1):
            if gcd(k, l) != 1:
                continue
            for r in _divisor_table(l):
                reports.append(_check(
                    "main1", {"k": k, "l": l, "r": r},
                    lambda: [coprime_class_sum(k, l, r)] * r,
                    lambda: _folded(box(k, l - 1), r)))
    return _ordered(reports)


def check_therm(
    primes: Sequence[int] = DEFAULT_PRIMES, multiplier_max: int = DEFAULT_MULTIPLIER_BOUND
) -> list[CheckReport]:
    """Class sums of prime-width boxes against their closed forms.

    For each odd prime p, with class sums folded from the coefficient
    vector: the (M*p) x N box mod p (1 <= N <= p-1) must give the common
    value everywhere except class 0, which exceeds it by one; the (p-1) x N
    box mod p must give p equal sums.
    """
    _validate_primes(primes)
    _check_integers(multiplier_max=multiplier_max)
    if multiplier_max < 1:
        raise ValueError("multiplier_max must be positive")
    reports = []
    for p in primes:
        for multiplier in range(1, multiplier_max + 1):
            for height in range(1, p):
                reports.append(_check(
                    "therm-multiple", {"p": p, "M": multiplier, "N": height},
                    lambda: [prime_multiple_class_sum(p, multiplier, height, j) for j in range(p)],
                    lambda: _folded(gaussian_coefficients(multiplier * p, height), p)))
        for height in range(1, p):
            reports.append(_check(
                "therm-adjacent", {"p": p, "N": height},
                lambda: [prime_adjacent_class_sum(p, height)] * p,
                lambda: _folded(gaussian_coefficients(p - 1, height), p)))
    return _ordered(reports)


def check_thmp(
    primes: Sequence[int] = DEFAULT_PRIMES, multiplier_max: int = DEFAULT_MULTIPLIER_BOUND
) -> list[CheckReport]:
    """Exact-part-count class tables for prime moduli.

    Single parts bounded by p-1 give the table [0, 1, ..., 1]; for
    2 <= k <= p-1 parts bounded by p-1, and for 1 <= k <= p-1 parts bounded
    by M*p, all p classes are equal, so each holds a p-th of the total
    C(bound - 1 + k, k).
    """
    _validate_primes(primes)
    _check_integers(multiplier_max=multiplier_max)
    if multiplier_max < 1:
        raise ValueError("multiplier_max must be positive")
    reports = []
    for p in primes:
        reports.append(_check(
            "thmp-one-part", {"p": p},
            lambda: [0] + [1] * (p - 1), lambda: count_exact_parts_by_residue(p - 1, 1, p)))
        for k in range(2, p):
            reports.append(_check(
                "thmp-equal-classes-pm1", {"p": p, "k": k},
                lambda: [comb(p - 2 + k, k) // p] * p,
                lambda: count_exact_parts_by_residue(p - 1, k, p)))
        for multiplier in range(1, multiplier_max + 1):
            for k in range(1, p):
                reports.append(_check(
                    "thmp-equal-classes-mp", {"p": p, "M": multiplier, "k": k},
                    lambda: [comb(multiplier * p - 1 + k, k) // p] * p,
                    lambda: count_exact_parts_by_residue(multiplier * p, k, p)))
    return _ordered(reports)


def check_counterexamples() -> list[CheckReport]:
    """Non-coprime boxes where the class sums genuinely differ.

    Reproduces the reference tables for the 6 x 5 box mod 6 and the 10 x 9
    box mod 10 (non-constancy is the pass condition), and cross-checks the
    companion 20 x 9 box mod 10 by the folded box recurrence
    (`count_by_residue`) against the q-Lucas route (`residue_sums`).
    """
    reports = []
    for (m, n, r), reference in (
        ((6, 5, 6), REFERENCE_6X5_MOD6),
        ((10, 9, 10), REFERENCE_10X9_MOD10),
    ):
        label = f"counterexample-{m}x{n}"
        params = {"m": m, "n": n, "r": r}
        # each check reads the table itself, so an error in it fails all three
        reports += [
            _check(f"{label}-table", params, lambda: list(reference),
                   lambda: residue_sums(m, n, r)),
            _check(f"{label}-total", params, lambda: comb(m + n, n),
                   lambda: sum(residue_sums(m, n, r))),
            _check(f"{label}-nonconstant", params, lambda: 1,
                   lambda: int(len(set(residue_sums(m, n, r))) > 1)),
        ]
    reports.append(_check(
        "counterexample-20x9-crosscheck", {"m": 20, "n": 9, "r": 10},
        lambda: count_by_residue(20, 9, 10), lambda: residue_sums(20, 9, 10)))
    return _ordered(reports)


def _covering_walk(ring_size: int, marked: int) -> tuple[int | str, int | str]:
    """Count, in one pass over the covering points with first mark in
    [1, ring_size], those that `reconstruct` rebuilds from their position sum
    and gap vector (the `StepSequence` of `relative_positions`) and those
    whose shift is the covering shift.  An ArithmeticError or ValueError from
    the round trip takes the place of its count, as the text a failed check
    reports, and the walk goes on: `reconstruct` raises ValueError when a
    wrong shift leaves the point off the walk's own sum.  Such an error from
    `shift_action` leaves no point to walk on to, so the walk stops there:
    the error text takes the place of the shift count, and the round trips
    keep the count they reached.

    The points are walked by shift orbits.  With N = ring_size and r =
    marked, shift^k(c) has first mark c_(k+1) for an r-subset c of [1, N]
    and 0 <= k < r, and shift^r(c) = c + N.  Conversely, a point with first
    mark in [1, N] has some k >= 1 of its marks there; its other r - k marks,
    less N, lie below its first mark, so it is shift^(r-k) of the c made of
    all r.  Hence the points are the r * C(N, r) = N * C(N-1, r-1) distinct
    shift^k(c).

    The C(N, r) starts c come from `enumerate_configurations`; each later
    point is the output of `shift_action`, and the walk's own position sum
    goes up by N at each step.  A point counts for the shift check only if
    its shift has the positions (j_2, ..., j_r, j_1 + N) and that raised
    sum, so a wrong shift fails the check wherever the walk meets it.

    The starts and the three maps are read from this module's globals once
    per call, so a function rebound there is the one walked, and the
    positions and position sum of the current point are carried from one
    step to the next.
    """
    n = ring_size
    gap_vector, rebuild, shift = relative_positions, reconstruct, shift_action
    round_trips = shifted = 0
    failure = None
    for point in enumerate_configurations(n, marked):
        positions = point.positions
        total = sum(positions)
        for _ in range(marked):
            if failure is None:
                try:
                    round_trips += rebuild(total, gap_vector(point)) == point
                except _CHECK_ERRORS as exc:
                    failure = _error_text(exc)
            try:
                point = shift(point, 1)
            except _CHECK_ERRORS as exc:
                return round_trips if failure is None else failure, _error_text(exc)
            total += n
            moved = point.positions
            shifted += moved == positions[1:] + (positions[0] + n,) and sum(moved) == total
            positions = moved
    return round_trips if failure is None else failure, shifted


def check_fibrations(ring_max: int = DEFAULT_RING_BOUND) -> list[CheckReport]:
    """Gap-vector fiber tables and covering-space round trips.

    For every ring size N <= ring_max and 1 <= r <= N, the enumerated fiber
    table (`delta_fiber_sizes`) is read by four checks: the paper's
    bijection route must agree with it (`fibers-agree`), and so must the
    closed form, the route of `qfiber fibers` (`fibers-closed-form`);
    coprime (N, r) must give a constant table; N a multiple of an odd
    prime r must put a single +1 excess at class 0.  One `_covering_walk`
    counts, of the r * C(N, r) covering points with first mark in [1, N],
    those on which `reconstruct` inverts `relative_positions` (the point's
    gap vector, as a `StepSequence`) and those that `shift_action` moves
    right, and each count must equal r * C(N, r).  The round trip checks
    only the arithmetic of the two maps, so a point that breaks the covering
    rules still round-trips: `covering-shift` catches a forged shift.  A
    shift that raises ArithmeticError or ValueError ends the walk of its
    (N, r): `covering-shift` there holds the error text, and
    `covering-roundtrip` the count reached so far, so both fail.
    """
    _check_integers(ring_max=ring_max)
    if ring_max < 3:
        raise ValueError("ring_max must be at least 3")
    reports = []
    for n in range(1, ring_max + 1):
        for r in range(1, n + 1):
            params = {"N": n, "r": r}
            agree = _check(
                "fibers-agree", params,
                lambda: delta_fiber_sizes(n, r), lambda: delta_fiber_sizes_via_partitions(n, r))
            table = agree.expected
            reports.append(agree)
            reports.append(_check(
                "fibers-closed-form", params,
                lambda: list(delta_fiber_sizes_closed_form(n, r)), lambda: table))
            if gcd(n, r) == 1:
                reports.append(_check(
                    "fibers-constant-coprime", params,
                    lambda: [comb(n - 1, r - 1) // r] * r, lambda: table))
            if r > 2 and is_prime(r) and n % r == 0:
                common = (comb(n - 1, r - 1) - 1) // r
                reports.append(_check(
                    "fibers-prime-gap", params,
                    lambda: [common + 1] + [common] * (r - 1), lambda: table))
            started = time.perf_counter()
            round_trips, shifted = _covering_walk(n, r)
            share = (time.perf_counter() - started) / 2
            for check_id, counted in (
                ("covering-roundtrip", round_trips), ("covering-shift", shifted)
            ):
                report = _check(check_id, params, lambda: r * comb(n, r), lambda: counted)
                report.elapsed += share
                reports.append(report)
    return _ordered(reports)


def run_suite(
    suite: str,
    *,
    k_max: int = DEFAULT_KL_BOUND,
    l_max: int = DEFAULT_KL_BOUND,
    primes: Sequence[int] = DEFAULT_PRIMES,
    multiplier_max: int = DEFAULT_MULTIPLIER_BOUND,
    ring_max: int = DEFAULT_RING_BOUND,
) -> list[CheckReport]:
    """Run one named suite ("all" for every suite) and return ordered reports."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    reports: list[CheckReport] = []
    if suite in ("main1", "all"):
        reports += check_main1(k_max, l_max)
    if suite in ("therm", "all"):
        reports += check_therm(primes, multiplier_max)
    if suite in ("thmp", "all"):
        reports += check_thmp(primes, multiplier_max)
    if suite in ("counterexamples", "all"):
        reports += check_counterexamples()
    if suite in ("fibrations", "all"):
        reports += check_fibrations(ring_max)
    return _ordered(reports)


def suite_work(
    suite: str,
    *,
    k_max: int = DEFAULT_KL_BOUND,
    l_max: int = DEFAULT_KL_BOUND,
    primes: Sequence[int] = DEFAULT_PRIMES,
    multiplier_max: int = DEFAULT_MULTIPLIER_BOUND,
) -> int:
    """Closed-form upper bound on the element operations of the main1, therm
    and thmp suites that `run_suite(suite)` runs: the product formulas and
    folds of their boxes (main1 through min(k, l-1) <= min(K, L-1) and
    sum_{l <= L} tau(l) <= L bit_length(L)) and the box recurrences of thmp."""
    k, l, m = k_max, l_max, multiplier_max
    work, m_sum = 0, comb(m + 1, 2)  # comb(x + 1, 2) = 1 + 2 + ... + x
    if suite in ("main1", "all"):
        k_sum = comb(k + 1, 2)
        work += k_sum * comb(l, 2) * min(k, l - 1) + (k_sum * l.bit_length() + k) * l * l
    for p in primes:
        heights = comb(p, 2) + (p - 1) * p * (2 * p - 1) // 6  # h + h^2 summed over h < p
        if suite in ("therm", "all"):
            work += (p * m_sum + p - 1) * heights + (m + 1) * (p * p - 1)
        if suite in ("thmp", "all"):
            work += p * comb(p, 2) * (p - 2 + p * m_sum - m) + (m + 1) * (p - 1) * p
    return work
