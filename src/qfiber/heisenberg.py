"""Configuration spaces of a ring with marked nodes and their fibrations.

r marked nodes on a ring of N sites are points of the covering space: pairs
(positions, N) of strictly increasing integers spanning less than N, which
`covering_point` checks.  The configurations are those with every mark in
[1, N], one on each orbit of the covering shift.  Gap vectors between
consecutive marks are step sequences: compositions of N into r positive
steps, on which the covering shift acts as act_cyclic(., -1).  The fibers
of their center-of-mass compatibility classes are counted by the paper's
closed form (the production route), through the partition bijection, and
by direct enumeration (the oracle of both).

Each public map sends its point or gap vector through `covering_point` or
`surjections.step_sequence` once and then runs its unchecked kernel
(`_gap_vector`, `_rebuild`, `_shift`), which builds a result valid by
construction for the reason its map's docstring gives.  `_shift` is the one
covering-shift step; `shift_action` composes it with a translation by a
multiple of N.  `verify`'s covering walk runs the kernels on the points it
builds, taking one `_shift` step per point.
"""

from __future__ import annotations

from itertools import accumulate, combinations, repeat
from math import comb, gcd
from operator import add, index, lt, sub
from typing import Iterable, Iterator

from .qbinomial import _check_integers, _divisor_table, _exact_div, residue_sums
from .surjections import step_sequence

__all__ = [
    "center_projection", "covering_point",
    "delta_fiber_sizes", "delta_fiber_sizes_closed_form", "delta_fiber_sizes_via_partitions",
    "enumerate_configurations", "reconstruct", "relative_positions", "shift_action",
]

Point = tuple[tuple[int, ...], int]


def covering_point(positions: Iterable[int], ring_size: int) -> Point:
    """The pair (positions, ring_size) of strictly increasing integers whose
    span is less than ring_size."""
    positions = tuple(positions)
    if not isinstance(ring_size, int):
        raise ValueError(f"ring_size must be an integer: {ring_size!r}")
    if ring_size < 1:
        raise ValueError("ring_size must be positive")
    if not all(map(isinstance, positions, repeat(int))):
        raise ValueError(f"positions must be integers: {positions!r}")
    if not all(map(lt, positions, positions[1:])):
        raise ValueError(f"positions must be strictly increasing: {positions!r}")
    if positions and positions[-1] >= positions[0] + ring_size:
        raise ValueError(f"span must be less than ring_size={ring_size}: {positions!r}")
    return positions, ring_size


def enumerate_configurations(ring_size: int, marked: int) -> Iterator[Point]:
    """The C(ring_size, marked) configurations, in lexicographic order: the
    covering points with every mark in [1, ring_size], one on each
    `shift_action` orbit.  Each is an r-subset of [1, ring_size] from
    `combinations`, so it spans less than ring_size and is built unchecked;
    the arguments are checked when called, not when iterated."""
    _check_integers(ring_size=ring_size, marked=marked)
    if ring_size < 1:
        raise ValueError("ring_size must be positive")
    if not 0 <= marked <= ring_size:
        raise ValueError("need 0 <= marked <= ring_size")
    return zip(combinations(range(1, ring_size + 1), marked), repeat(ring_size))


def center_projection(point: tuple[Iterable[int], int]) -> int:
    """Scaled center of mass: the sum of the positions, reduced mod
    ring_size.  A covering shift adds ring_size to the sum, so the value is
    the same on every point of a shift orbit."""
    positions, n = covering_point(*point)
    return sum(positions) % n


def relative_positions(point: tuple[Iterable[int], int]) -> tuple[int, ...]:
    """Gap vector of a covering point, as a step sequence: consecutive
    differences plus the wrap-around gap back to the first mark.

    The marks of a valid point are strictly increasing integers spanning
    less than N = ring_size, so the differences are positive integers, the
    wrap gap N + j_1 - j_r is at least 1, and all the steps sum to N.
    """
    point = covering_point(*point)
    if not point[0]:
        raise ValueError("need at least one marked node")
    return _gap_vector(point)


def _gap_vector(point: Point) -> tuple[int, ...]:
    """`relative_positions` of a valid point with at least one mark."""
    marks, n = point
    return (*map(sub, marks[1:], marks), n + marks[0] - marks[-1])


def reconstruct(center_sum: int, t: Iterable[int]) -> Point:
    """The unique covering point with the given position sum and gap vector.

    Writing r for the number of steps, the weighted sum center_sum +
    sum_beta beta * t_beta must vanish mod r (otherwise ValueError, as for
    a center_sum that is not an int); the positions are then (that sum)/r
    minus the trailing step sums.  Raises
    ArithmeticError if the rebuilt point does not have the given sum.

    The positions are the prefix sums of the positive integers
    t_1, ..., t_(r-1) from an integer start, so they strictly increase, and
    their span N - t_r is less than N = sum(t), the ring size.
    """
    if not isinstance(center_sum, int):
        raise ValueError(f"center_sum must be an integer: {center_sum!r}")
    return _rebuild(center_sum, step_sequence(t))


def _rebuild(center_sum: int, gaps: tuple[int, ...]) -> Point:
    """`reconstruct` from an int sum and a valid gap vector."""
    n, r = sum(gaps), len(gaps)
    # sum_beta beta * t_beta, as the sum of the suffix sums t_beta + ... + t_r
    weighted = sum(accumulate(reversed(gaps)))
    lead, remainder = divmod(center_sum + weighted, r)
    if remainder:
        raise ValueError(
            f"center sum {center_sum} is incompatible with the gap vector {gaps}"
        )
    positions = tuple(accumulate(gaps[:-1], initial=lead - n))
    if sum(positions) != center_sum:
        raise ArithmeticError(
            f"reconstructed {positions} has position sum {sum(positions)}, not {center_sum}"
        )
    return positions, n


def shift_action(point: tuple[Iterable[int], int], steps: int = 1) -> Point:
    """Apply the covering shift `steps` times; one step sends
    (j_1, ..., j_r) to (j_2, ..., j_r, j_1 + ring_size).  Negative steps
    apply the inverse.

    With N = ring_size and p = steps mod r, the result is the point moved
    by floor(steps / r) * N and then moved by p calls of `_shift`, the one
    step, at a cost of O(r * p).  As j_r < j_1 + N, one step's result
    strictly increases, and its span j_1 + N - j_2 is less than N.
    """
    positions, n = point = covering_point(*point)
    r = len(positions)
    if r == 0:
        return point
    whole, part = divmod(index(steps), r)
    if whole:
        point = tuple(map(add, positions, repeat(whole * n))), n
    for _ in range(part):
        point = _shift(point)
    return point


def _shift(point: Point) -> Point:
    """One covering shift of a valid point with at least one mark."""
    positions, n = point
    return positions[1:] + (positions[0] + n,), n


def _check_marked_in_ring(ring_size: int, marked: int) -> None:
    """Reject a non-integer ring_size or marked, or marked outside [1, ring_size]."""
    _check_integers(ring_size=ring_size, marked=marked)
    if marked < 1 or marked > ring_size:
        raise ValueError("need 1 <= marked <= ring_size")


def delta_fiber_sizes(ring_size: int, marked: int) -> list[int]:
    """Fiber sizes of the gap-vector compatibility classes, by direct count.

    Gap vectors are the compositions of ring_size into `marked` positive
    parts; the vector t lies in the fiber of the residue s in [0, marked)
    for which s + sum_beta beta * t_beta = 0 mod marked.  Entries sum to
    C(ring_size - 1, marked - 1).  This is the oracle of
    `delta_fiber_sizes_via_partitions` and `delta_fiber_sizes_closed_form`.

    Writing N = ring_size and r = marked, each gap vector is enumerated by
    its cut positions c_1 < ... < c_{r-1} in [1, N), with
    t_beta = c_beta - c_{beta-1}, c_0 = 0 and c_r = N.
    Summation by parts gives sum_beta beta * t_beta = r * N - sum(cuts), so
    the congruence reduces to s = sum(cuts) mod r: the class of a gap vector
    is the sum of its cut positions mod r, and no gap is ever formed.  Like
    every library route it takes no cap, so bound the C(N-1, r-1) gap
    vectors before calling it.
    """
    _check_marked_in_ring(ring_size, marked)
    table = [0] * marked
    for cuts in combinations(range(1, ring_size), marked - 1):
        table[sum(cuts) % marked] += 1
    return table


def delta_fiber_sizes_via_partitions(ring_size: int, marked: int) -> list[int]:
    """The same fiber table obtained through the paper's partition bijection.

    A gap vector lies in the fiber at s exactly when its area is s + N mod r,
    that is when its reversal, of area sum_beta beta * t_beta, has area
    r - s mod r.  By the area identity, those reversed gap vectors match the
    partitions in the (N-r) x (r-1) box of weight r - s - r(r-1)/2 - N mod r.
    Their class sums come from
    `qbinomial.residue_sums`.  On this box the only small boxes left are the
    single coefficients (0, d-1) at the divisors d of gcd(N, r), so the cost
    is the binomials plus `residue_sums_work(N - r, r - 1, r)`, and no gap
    vector is enumerated.  `verify` checks it against `delta_fiber_sizes`
    (`fibers-agree`), one of the two places where it meets `residue_sums`;
    `qfiber fibers` takes `delta_fiber_sizes_closed_form` instead.
    """
    _check_marked_in_ring(ring_size, marked)
    n, r = ring_size, marked
    base = residue_sums(n - r, r - 1, r)
    offset = r * (r - 1) // 2 + n
    return [base[((r - s) - offset) % r] for s in range(r)]


def delta_fiber_sizes_closed_form(ring_size: int, marked: int) -> Iterator[int]:
    """The same fiber table from the paper's closed form, as a lazy iterator
    of its r entries; the production route of `qfiber fibers`.

    With N = ring_size, r = marked and g = gcd(N, r), q-Lucas (Sagan, Adv.
    Math. 95, 1992) at the r-th roots of unity gives

        fibers(N, r)[s] = (1/r) sum_{d | g} C(N/d - 1, r/d - 1) c_d(r(r-1)/2 - s),

    with the Ramanujan sum c_d(m) = mu(d/e) phi(d) / phi(d/e), e = gcd(d, m)
    (Hoelder).  A term depends on m only through gcd(d, m), and d | g, so an
    entry depends only on f = gcd(g, r(r-1)/2 - s): the at most tau(g)
    distinct values, each a sum of tau(g) terms, are computed first, with
    mu and phi read from `qbinomial._divisor_table(g)`, and each division
    by r is checked (a remainder raises ArithmeticError).  The table is
    then r lookups by gcd (at g = 1, one value repeated), drawn as the
    caller reads them, so no list of r entries is built and no error comes
    after the first entry.  The cost is the factoring of g, the
    tau(g) binomials, tau(g)^2 terms and r gcds.  Like every library route
    it takes no cap: `qfiber fibers` checks that work estimate and the
    output digits before calling it.
    """
    _check_marked_in_ring(ring_size, marked)
    n, r = ring_size, marked
    g = gcd(n, r)
    if g == 1:  # the d = 1 term alone: every class holds C(N-1, r-1) / r
        return repeat(_exact_div(comb(n - 1, r - 1), r), r)
    table = _divisor_table(g)
    terms = [(d, comb(n // d - 1, r // d - 1), phi) for d, (_, phi) in table.items()]
    values = {}
    for f in table:
        total = 0
        for d, binomial, phi in terms:
            mu_rest, phi_rest = table[d // gcd(d, f)]
            if mu_rest:
                total += binomial * (mu_rest * phi // phi_rest)
        values[f] = _exact_div(total, r)
    top = r * (r - 1) // 2
    return map(values.__getitem__, map(gcd, repeat(g), range(top, top - r, -1)))
