"""Configuration spaces of a ring with marked nodes and their fibrations.

r marked nodes on a ring of N sites are points of the covering space
(strictly increasing integers spanning less than N); the configurations are
those with every mark in [1, N], one on each orbit of the covering shift.
Gap vectors between consecutive marks are step sequences: compositions of N
into r positive steps, on which the covering shift acts as act_cyclic(., -1).
The fibers of their center-of-mass compatibility classes are counted by the
paper's closed form (the production route), through the partition bijection,
and by direct enumeration (the oracle of both).
"""

from __future__ import annotations

from itertools import accumulate, combinations, repeat
from math import comb, gcd
from operator import add, index, lt, sub
from typing import Iterable, Iterator

from ._value import Value
from .qbinomial import _check_integers, _divisor_table, _exact_div, residue_sums
from .surjections import StepSequence, _set_steps

__all__ = [
    "CoveringPoint", "center_projection",
    "delta_fiber_sizes", "delta_fiber_sizes_closed_form", "delta_fiber_sizes_via_partitions",
    "enumerate_configurations", "reconstruct", "relative_positions", "shift_action",
]

# Values are validated once, where they enter the library: `CoveringPoint`
# below, like `StepSequence`, checks its arguments in one hand-written
# __init__ before storing them (equality, ordering, hashing and repr come
# from `Value`, but for `CoveringPoint`'s equality), with builtin loops (map,
# all, min) rather than generator frames.  Code in this module builds points
# and gap vectors that are valid by construction without the checks; the
# maps take an instance of exactly the class as valid, and any other
# argument goes through the public constructor first.


class CoveringPoint(Value, order=True):
    """Strictly increasing integers whose span is less than ring_size."""

    __slots__ = __match_args__ = ("positions", "ring_size")
    positions: tuple[int, ...]
    ring_size: int

    def __init__(self, positions: Iterable[int], ring_size: int) -> None:
        if type(positions) is not tuple:
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
        _set_positions(self, positions)
        _set_point_ring_size(self, ring_size)

    def __eq__(self, other):
        # written out, as the covering walk compares each point it rebuilds:
        # Value's field getter would add about half to each comparison
        if other.__class__ is self.__class__:
            return (self.positions, self.ring_size) == (other.positions, other.ring_size)
        return NotImplemented

    @property
    def center_sum(self) -> int:
        """Sum of positions; grows by ring_size under one covering shift."""
        return sum(self.positions)


# Every field is stored through its slot descriptor's __set__, bound once
# (a gap vector's one slot by `surjections`), by the constructors after their
# checks and unchecked by the builds below: it passes the frozen __setattr__
# by without finding the slot by name, which counts where the covering walk
# builds three values per point.
_set_positions = CoveringPoint.positions.__set__
_set_point_ring_size = CoveringPoint.ring_size.__set__
_new = object.__new__


def enumerate_configurations(ring_size: int, marked: int) -> Iterator[CoveringPoint]:
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

    def points() -> Iterator[CoveringPoint]:
        for marks in combinations(range(1, ring_size + 1), marked):
            point = _new(CoveringPoint)
            _set_positions(point, marks)
            _set_point_ring_size(point, ring_size)
            yield point

    return points()


def center_projection(point: CoveringPoint) -> int:
    """Scaled center of mass: the sum of the positions, reduced mod
    ring_size.  A covering shift adds ring_size to the sum, so the value is
    the same on every point of a shift orbit."""
    return sum(point.positions) % point.ring_size


def relative_positions(point: CoveringPoint) -> StepSequence:
    """Gap vector of a covering point, as a step sequence: consecutive
    differences plus the wrap-around gap back to the first mark.

    The marks of a valid point are strictly increasing integers spanning
    less than N = ring_size, so the differences are positive integers, the
    wrap gap N + j_1 - j_r is at least 1, and all the steps sum to N.
    """
    if type(point) is not CoveringPoint:
        point = CoveringPoint(point.positions, point.ring_size)
    marks = point.positions
    if not marks:
        raise ValueError("need at least one marked node")
    built = _new(StepSequence)
    _set_steps(built, (*map(sub, marks[1:], marks), point.ring_size + marks[0] - marks[-1]))
    return built


def reconstruct(center_sum: int, t: StepSequence) -> CoveringPoint:
    """The unique covering point with the given position sum and gap vector.

    Writing r for the number of steps, the weighted sum center_sum +
    sum_beta beta * t_beta must vanish mod r (otherwise ValueError, as for
    a center_sum that is not an int); the positions are then (that sum)/r
    minus the trailing step sums.  Raises
    ArithmeticError if the rebuilt point does not have the given sum.

    The positions are the prefix sums of the positive integers
    t_1, ..., t_(r-1) from an integer start, so they strictly increase, and
    their span N - t_r is less than N = sum(t.steps), the ring size.
    """
    if not isinstance(center_sum, int):
        raise ValueError(f"center_sum must be an integer: {center_sum!r}")
    if type(t) is not StepSequence:
        t = StepSequence(t.steps)
    gaps = t.steps
    n, r = sum(gaps), len(gaps)
    # sum_beta beta * t_beta, as the sum of the suffix sums t_beta + ... + t_r
    weighted = sum(accumulate(reversed(gaps)))
    lead, remainder = divmod(center_sum + weighted, r)
    if remainder:
        raise ValueError(
            f"center sum {center_sum} is incompatible with the gap vector {gaps}"
        )
    point = _new(CoveringPoint)
    _set_positions(point, tuple(accumulate(gaps[:-1], initial=lead - n)))
    _set_point_ring_size(point, n)
    if point.center_sum != center_sum:
        raise ArithmeticError(
            f"reconstructed {point.positions} has position sum {point.center_sum}, "
            f"not {center_sum}"
        )
    return point


def shift_action(point: CoveringPoint, steps: int = 1) -> CoveringPoint:
    """Apply the covering shift `steps` times; one step sends
    (j_1, ..., j_r) to (j_2, ..., j_r, j_1 + ring_size).  Negative steps
    apply the inverse.

    With N = ring_size and p = steps mod r, the result is the point moved
    by a multiple of N, rotated by p and with N added to the p marks moved
    to the end.  As j_r < j_1 + N, it strictly increases, and its span
    j_p + N - j_(p+1) is less than N.
    """
    if type(point) is not CoveringPoint:
        point = CoveringPoint(point.positions, point.ring_size)
    positions, n = point.positions, point.ring_size
    r = len(positions)
    if r == 0:
        return point
    whole, part = divmod(index(steps), r)
    if whole:
        positions = tuple(map(add, positions, repeat(whole * n)))
    moved = _new(CoveringPoint)
    _set_positions(moved, positions[part:] + tuple(map(add, positions[:part], repeat(n))))
    _set_point_ring_size(moved, n)
    return moved


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
