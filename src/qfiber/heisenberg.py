"""Configuration spaces of a ring with marked nodes and their fibrations.

r marked nodes on a ring of N sites are encoded either as a strictly
increasing tuple in [1, N] or as a point of the covering space (strictly
increasing integers spanning less than N).  Gap vectors between consecutive
marks are the compositions of N into r positive parts; the fibers of the
center-of-mass compatibility classes are counted through the partition
bijection (the production route) and by direct enumeration (its oracle).
"""

from __future__ import annotations

from itertools import accumulate, combinations, repeat
from operator import add, index, lt, sub
from typing import Iterable, Iterator, Union

from ._value import Value
from .qbinomial import _check_integers, residue_sums

__all__ = [
    "Configuration", "CoveringPoint", "RelativePositions", "center_projection",
    "delta_fiber_sizes", "delta_fiber_sizes_via_partitions", "enumerate_configurations",
    "reconstruct", "relative_positions", "shift_action",
]

# Values are validated once, where they enter the library: each class below
# checks its arguments in one hand-written __init__ before storing them
# (equality, ordering, hashing and repr come from `Value`, but for
# `CoveringPoint`'s equality), with builtin loops (map, all, min) rather
# than generator frames.  Code in this module builds values that are valid
# by construction without the checks; the maps take an instance of exactly
# the class as valid, and any other argument goes through the public
# constructor first.


class Configuration(Value, order=True):
    """Marked nodes j_1 < ... < j_r inside [1, ring_size]."""

    __slots__ = __match_args__ = ("nodes", "ring_size")
    nodes: tuple[int, ...]
    ring_size: int

    def __init__(self, nodes: Iterable[int], ring_size: int) -> None:
        if type(nodes) is not tuple:
            nodes = tuple(nodes)
        if not isinstance(ring_size, int):
            raise ValueError(f"ring_size must be an integer: {ring_size!r}")
        if ring_size < 1:
            raise ValueError("ring_size must be positive")
        if not all(map(isinstance, nodes, repeat(int))):
            raise ValueError(f"nodes must be integers: {nodes!r}")
        if nodes and not (1 <= nodes[0] and nodes[-1] <= ring_size):
            raise ValueError(f"nodes must lie in [1, {ring_size}]: {nodes!r}")
        if not all(map(lt, nodes, nodes[1:])):
            raise ValueError(f"nodes must be strictly increasing: {nodes!r}")
        _set_nodes(self, nodes)
        _set_nodes_ring_size(self, ring_size)


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


class RelativePositions(Value):
    """Gaps between consecutive marks: positive integers summing to ring_size."""

    __slots__ = __match_args__ = ("gaps", "ring_size")
    gaps: tuple[int, ...]
    ring_size: int

    def __init__(self, gaps: Iterable[int], ring_size: int) -> None:
        if type(gaps) is not tuple:
            gaps = tuple(gaps)
        if not isinstance(ring_size, int):
            raise ValueError(f"ring_size must be an integer: {ring_size!r}")
        if not gaps:
            raise ValueError("need at least one gap")
        if not (all(map(isinstance, gaps, repeat(int))) and min(gaps) >= 1):
            raise ValueError(f"gaps must be positive integers: {gaps!r}")
        if sum(gaps) != ring_size:
            raise ValueError(f"gaps must sum to ring_size={ring_size}: {gaps!r}")
        _set_gaps(self, gaps)
        _set_gaps_ring_size(self, ring_size)


# Every field is stored through its slot descriptor's __set__, bound here
# once, by the constructors after their checks and unchecked by the builds
# below: it passes the frozen __setattr__ by without finding the slot by
# name, which counts where the covering walk builds three values per point.
_set_nodes, _set_nodes_ring_size = Configuration.nodes.__set__, Configuration.ring_size.__set__
_set_positions = CoveringPoint.positions.__set__
_set_point_ring_size = CoveringPoint.ring_size.__set__
_set_gaps, _set_gaps_ring_size = RelativePositions.gaps.__set__, RelativePositions.ring_size.__set__
_new = object.__new__


def _subsets(cls, set_marks, set_ring_size, subsets, ring_size):
    """An instance of `cls` holding each r-subset of [1, ring_size] from
    `subsets` and ring_size, stored through the given setters, unchecked."""
    for marks in subsets:
        value = _new(cls)
        set_marks(value, marks)
        set_ring_size(value, ring_size)
        yield value


def enumerate_configurations(ring_size: int, marked: int) -> Iterator[Configuration]:
    """All C(ring_size, marked) configurations in lexicographic node order.
    Each is an r-subset of [1, ring_size] from `combinations`, strictly
    increasing inside [1, ring_size], so it is valid and is built unchecked."""
    _check_integers(ring_size=ring_size, marked=marked)
    if ring_size < 1:
        raise ValueError("ring_size must be positive")
    if not 0 <= marked <= ring_size:
        raise ValueError("need 0 <= marked <= ring_size")
    return _subsets(Configuration, _set_nodes, _set_nodes_ring_size,
                    combinations(range(1, ring_size + 1), marked), ring_size)


def orbit_starts(ring_size: int, marked: int) -> Iterator[CoveringPoint]:
    """The covering points with every mark in [1, ring_size], in lexicographic
    order: one on each `shift_action` orbit of the points with first mark in
    [1, ring_size].  Each is an r-subset of [1, ring_size] from
    `combinations`, strictly increasing and spanning at most ring_size - 1,
    so once ring_size is a positive integer it is valid and built unchecked."""
    if not isinstance(ring_size, int) or ring_size < 1:
        raise ValueError(f"ring_size must be a positive integer: {ring_size!r}")
    return _subsets(CoveringPoint, _set_positions, _set_point_ring_size,
                    combinations(range(1, ring_size + 1), marked), ring_size)


def center_projection(c: Configuration) -> int:
    """Scaled center of mass: the sum of node indices, reduced mod ring_size."""
    return sum(c.nodes) % c.ring_size


def relative_positions(point: Union[Configuration, CoveringPoint]) -> RelativePositions:
    """Gap vector of a configuration or covering point: consecutive
    differences plus the wrap-around gap back to the first mark.

    The marks of a valid point are strictly increasing integers spanning
    less than N = ring_size, so the differences are positive integers, the
    wrap gap N + j_1 - j_r is at least 1, and all the gaps sum to N.
    """
    if type(point) is CoveringPoint:
        marks = point.positions
    elif type(point) is Configuration:
        marks = point.nodes
    else:
        return relative_positions(
            Configuration(point.nodes, point.ring_size) if isinstance(point, Configuration)
            else CoveringPoint(point.positions, point.ring_size))
    if not marks:
        raise ValueError("need at least one marked node")
    n = point.ring_size
    built = _new(RelativePositions)
    _set_gaps(built, (*map(sub, marks[1:], marks), n + marks[0] - marks[-1]))
    _set_gaps_ring_size(built, n)
    return built


def reconstruct(center_sum: int, t: RelativePositions) -> CoveringPoint:
    """The unique covering point with the given position sum and gap vector.

    Writing r for the number of gaps, the weighted sum center_sum +
    sum_beta beta * t_beta must vanish mod r (otherwise ValueError, as for
    a center_sum that is not an int); the positions are then (that sum)/r
    minus the trailing gap sums.  Raises
    ArithmeticError if the rebuilt point does not have the given sum.

    The positions are the prefix sums of the positive integers
    t_1, ..., t_(r-1) from an integer start, so they strictly increase, and
    their span N - t_r is less than N = ring_size.
    """
    if not isinstance(center_sum, int):
        raise ValueError(f"center_sum must be an integer: {center_sum!r}")
    if type(t) is not RelativePositions:
        t = RelativePositions(t.gaps, t.ring_size)
    gaps, n = t.gaps, t.ring_size
    r = len(gaps)
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
    `delta_fiber_sizes_via_partitions`.

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
    """The same fiber table obtained through the partition bijection; the
    production route of `qfiber fibers`.

    The fiber at s matches the step sequences whose area is r - s mod r, and
    those match the partitions in the (N-r) x (r-1) box whose weight lies in
    the class shifted by r(r-1)/2 + N.  Their class sums come from
    `qbinomial.residue_sums`.  On this box the only small boxes left are the
    single coefficients (0, d-1) at the divisors d of gcd(N, r), so the cost
    is the binomials plus `residue_sums_work(N - r, r - 1, r)`, about 0.6 s
    at N = r = 10^6 (Python 3.11, 2 cores), and no gap vector is
    enumerated.  Like every library route it takes no cap: `qfiber fibers`
    checks that work estimate and the output digits before calling it.
    """
    _check_marked_in_ring(ring_size, marked)
    n, r = ring_size, marked
    base = residue_sums(n - r, r - 1, r)
    offset = r * (r - 1) // 2 + n
    return [base[((r - s) - offset) % r] for s in range(r)]
