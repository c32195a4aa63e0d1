"""Step sequences of non-increasing surjections and group actions on them.

A non-increasing surjection from [0, k+l] onto {1, ..., l} is encoded by the
lengths (n_1, ..., n_l) of its level intervals, a composition of k+l into l
positive steps.  These sequences are in bijection with partitions inside a
k x (l-1) box, and three groups act on them: rotation of the steps, unit
scaling of the step positions, and arbitrary position permutations.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, combinations, repeat
from math import comb, gcd
from operator import lt
from typing import Callable, Iterable, Iterator, Sequence

from ._value import Value
from .partitions import Partition
from .qbinomial import _check_integers, _divisor_table

__all__ = [
    "GROUPS", "StepSequence", "ThresholdSequence", "act_cyclic", "act_on_partition",
    "act_symmetric", "act_unit", "enumerate_step_sequences", "integral", "orbit_histogram",
    "orbits", "partition_to_surjection", "steps_to_thresholds", "surjection_to_partition",
    "thresholds_to_steps",
]


class StepSequence(Value, order=True):
    """Level-interval lengths (n_1, ..., n_l) of a non-increasing surjection.

    Positive integers; their sum is the domain length k+l.
    """

    __slots__ = __match_args__ = ("steps",)
    steps: tuple[int, ...]

    def __init__(self, steps: Iterable[int]) -> None:
        steps = tuple(steps)
        if not steps:
            raise ValueError("a step sequence needs at least one step")
        if not (all(map(isinstance, steps, repeat(int))) and min(steps) >= 1):
            raise ValueError(f"steps must be positive integers: {steps!r}")
        _set_steps(self, steps)

    @property
    def domain_length(self) -> int:
        return sum(self.steps)

    @property
    def level_count(self) -> int:
        return len(self.steps)


class ThresholdSequence(Value, order=True):
    """Ascending cut positions (t_l, ..., t_2) of a non-increasing surjection.

    The last cut t_1 equals domain_length and stays implicit; an empty tuple
    encodes the single-level surjection.
    """

    __slots__ = __match_args__ = ("thresholds", "domain_length")
    thresholds: tuple[int, ...]
    domain_length: int

    def __init__(self, thresholds: Iterable[int], domain_length: int) -> None:
        thresholds = tuple(thresholds)
        if not isinstance(domain_length, int):
            raise ValueError(f"domain_length must be an integer: {domain_length!r}")
        if domain_length < 1:
            raise ValueError("domain_length must be positive")
        if not all(map(isinstance, thresholds, repeat(int))):
            raise ValueError(f"thresholds must be integers: {thresholds!r}")
        if thresholds and not (0 < thresholds[0] and thresholds[-1] < domain_length):
            raise ValueError(
                f"thresholds must lie strictly between 0 and {domain_length}: {thresholds!r}"
            )
        if not all(map(lt, thresholds, thresholds[1:])):
            raise ValueError(f"thresholds must be strictly increasing: {thresholds!r}")
        _set_thresholds(self, thresholds)
        _set_domain_length(self, domain_length)

    @property
    def level_count(self) -> int:
        return len(self.thresholds) + 1


# Each field is stored through its slot descriptor, past the frozen __setattr__.
_set_steps = StepSequence.steps.__set__
_set_thresholds = ThresholdSequence.thresholds.__set__
_set_domain_length = ThresholdSequence.domain_length.__set__


def thresholds_to_steps(t: ThresholdSequence) -> StepSequence:
    """Interval lengths cut out by the thresholds (0 and the domain end included)."""
    cuts = (0,) + t.thresholds + (t.domain_length,)
    return StepSequence(tuple(b - a for a, b in zip(cuts, cuts[1:])))


def steps_to_thresholds(s: StepSequence) -> ThresholdSequence:
    """Partial sums of all but the last step; inverse of thresholds_to_steps."""
    return ThresholdSequence(tuple(accumulate(s.steps[:-1])), s.domain_length)


def integral(s: StepSequence) -> int:
    """Area under the step function: step i has height l+1-i, so the area is
    n_1*l + n_2*(l-1) + ... + n_l."""
    l = s.level_count
    return sum(step * (l - i) for i, step in enumerate(s.steps))


def surjection_to_partition(t: ThresholdSequence) -> Partition:
    """Partition read off the cut positions: part j equals t_{j+1} - (l-j).

    The result fits a (domain_length - l) x (l-1) box, and the area of the
    surjection equals l(l-1)/2 + domain_length + weight of the partition.
    """
    l = t.level_count
    parts = tuple(t.thresholds[l - 1 - j] - (l - j) for j in range(1, l))
    return Partition(parts)


def partition_to_surjection(pi: Partition, k: int, l: int) -> ThresholdSequence:
    """Cut positions of the surjection for a partition in the k x (l-1) box;
    exact inverse of surjection_to_partition."""
    _check_k_nonneg_l_positive(k, l)
    if not pi.fits(k, l - 1):
        raise ValueError(f"{pi} does not fit a {k} x {l - 1} box")
    padded = pi.parts + (0,) * (l - 1 - len(pi.parts))
    thresholds = tuple(padded[l - 2 - i] + i + 1 for i in range(l - 1))
    return ThresholdSequence(thresholds, k + l)


def act_cyclic(s: StepSequence, power: int = 1) -> StepSequence:
    """Rotate the steps right by `power` positions; the generator sends
    (n_1, ..., n_l) to (n_l, n_1, ..., n_{l-1})."""
    l = s.level_count
    shift = power % l
    if shift == 0:
        return s
    return StepSequence(s.steps[-shift:] + s.steps[:-shift])


def _position(index: int, l: int) -> int:
    """Representative of a residue in {1, ..., l}, with l standing in for 0."""
    rep = index % l
    return rep if rep else l


def act_unit(s: StepSequence, u: int) -> StepSequence:
    """Scale step positions by a unit u mod l: position i receives the step
    from position u^{-1} * i (indices taken in {1, ..., l})."""
    l = s.level_count
    if gcd(u, l) != 1:
        raise ValueError(f"u={u} is not a unit modulo {l}")
    inv = pow(u, -1, l)
    return StepSequence(tuple(s.steps[_position(inv * i, l) - 1] for i in range(1, l + 1)))


def act_symmetric(s: StepSequence, sigma: Sequence[int]) -> StepSequence:
    """Permute the steps: position i receives the step from position sigma(i).

    sigma is a 1-based permutation of 1..l given as a sequence; applying tau
    and then sigma equals applying i -> tau(sigma(i)) at once.
    """
    l = s.level_count
    if not all(isinstance(i, int) for i in sigma) or sorted(sigma) != list(range(1, l + 1)):
        raise ValueError(f"sigma must be a permutation of 1..{l}: {sigma!r}")
    return StepSequence(tuple(s.steps[sigma[i] - 1] for i in range(l)))


def act_on_partition(
    pi: Partition, k: int, l: int, action: Callable[[StepSequence], StepSequence]
) -> Partition:
    """Transport an action on step sequences to partitions in the k x (l-1)
    box through the bijection: convert, act, convert back."""
    steps = thresholds_to_steps(partition_to_surjection(pi, k, l))
    moved = action(steps)
    if moved.domain_length != k + l or moved.level_count != l:
        raise ValueError("action must preserve the number and total of steps")
    return surjection_to_partition(steps_to_thresholds(moved))


def _check_k_nonneg_l_positive(k: int, l: int) -> None:
    """Reject (k, l) outside the integers k >= 0, l >= 1."""
    _check_integers(k=k, l=l)
    if k < 0 or l < 1:
        raise ValueError("need k >= 0 and l >= 1")


def enumerate_step_sequences(k: int, l: int) -> Iterator[StepSequence]:
    """All C(k+l-1, l-1) compositions of k+l into l positive steps, in
    ascending cut-position order.  Takes no cap: the caller bounds the count."""
    _check_k_nonneg_l_positive(k, l)
    length = k + l
    for cuts in combinations(range(1, length), l - 1):
        bounds = (0,) + cuts + (length,)
        yield StepSequence(tuple(b - a for a, b in zip(bounds, bounds[1:])))


GROUPS = ("cyclic", "units", "symmetric")


def _cyclic_orbit(s: StepSequence) -> frozenset[StepSequence]:
    return frozenset(act_cyclic(s, p) for p in range(s.level_count))


def _unit_orbit(s: StepSequence) -> frozenset[StepSequence]:
    l = s.level_count
    return frozenset(act_unit(s, u) for u in range(1, l + 1) if gcd(u, l) == 1)


def orbits(k: int, l: int, group: str) -> list[frozenset[StepSequence]]:
    """Partition all step sequences for (k, l) into orbits of the chosen group.

    `group` is one of "cyclic" (rotations), "units" (unit scaling of
    positions) or "symmetric" (all permutations; orbits are the multiset
    classes).  Returns the orbits as frozensets, sorted by their smallest
    element.

    This is the enumerating oracle: it builds every one of the C(k+l-1, l-1)
    sequences and closes each orbit by applying the group, at about
    C(k+l-1, l-1) * l element operations for "symmetric" and |G| times that
    for the other two.  Like every library route it takes no cap, so bound
    C(k+l-1, l-1) before calling it.  `orbit_histogram` gives the orbit sizes
    without enumerating.
    """
    if group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}: {group!r}")
    sequences = list(enumerate_step_sequences(k, l))
    classes: list[frozenset[StepSequence]]
    if group == "symmetric":
        by_multiset: dict[tuple[int, ...], list[StepSequence]] = {}
        for s in sequences:
            by_multiset.setdefault(tuple(sorted(s.steps)), []).append(s)
        classes = [frozenset(members) for members in by_multiset.values()]
    else:
        close = _cyclic_orbit if group == "cyclic" else _unit_orbit
        seen: set[StepSequence] = set()
        classes = []
        for s in sequences:
            if s in seen:
                continue
            orbit = close(s)
            seen |= orbit
            classes.append(orbit)
    classes.sort(key=min)
    return classes


def orbit_histogram(k: int, l: int, group: str) -> dict[int, int]:
    """Map from orbit size to the number of orbits of that size, ascending by size.

    Equals the histogram of `len(o)` over `orbits(k, l, group)`, with the same
    argument checks, but enumerates no sequence.  Like `orbits` it takes no
    cap: `qfiber orbits` checks its estimates against its cap first.  Taking
    1 from every step turns a sequence into a spread of k units over the l
    positions.
    "symmetric" orbits are then the partitions of k into at most l parts,
    walked as part values with their multiplicities, each orbit's size a
    running product of binomials, so the cost grows with the number of
    orbits and no partition is built.
    "cyclic" and "units" are abelian groups acting on the positions Z/l and go
    through stabilizer counting, each subgroup with the number of spreads it
    fixes: one subgroup per divisor of l for "cyclic", its count a binomial;
    for "units" only candidate stabilizers among the subgroups of (Z/l)^*,
    far fewer than the whole lattice when k is small (36 of 4086 at k = 1,
    l = 2520; 489 at k = 2).  Each is an int bitmask over the units of Z/l,
    so a meet, a containment test, an order and each image mod a divisor of
    l take one int operation or bit count, and its fixed count takes one
    binomial series per distinct orbit size.
    At k = 0 or l = 1 there is one spread (all zeros, or all k units on the
    one position), which every group fixes, so each group gives {1: 1} at
    once, with no lattice or partition walk.  (Z/2)^* is trivial, so "units"
    at l = 2 leaves each of the k + 1 spreads alone in its orbit, at once.
    """
    if group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}: {group!r}")
    _check_k_nonneg_l_positive(k, l)
    if k == 0 or l == 1:
        return {1: 1}  # the one spread, alone in its orbit
    if group == "units" and l == 2:
        return {1: k + 1}  # the trivial group fixes every spread
    if group == "symmetric":
        return _symmetric_histogram(k, l)
    if group == "cyclic":
        # The rotations of order d form <l/d>, whose l/d position orbits have
        # size d: a fixed sequence repeats a block of l/d steps d times
        # (necklace counting).
        lattice = [
            (d, d, comb((k + l) // d - 1, l // d - 1) if k % d == 0 else 0)
            for d in _divisor_table(l)
        ]
        return _stabilizer_histogram(lattice, lambda above, below: above % below == 0)
    return _stabilizer_histogram(
        _unit_stabilizers(k, l), lambda above, below: above & below == below
    )


def _stabilizer_histogram(lattice: list[tuple], contains: Callable) -> dict[int, int]:
    """The orbit-size histogram of an abelian group from fixed-point counts.

    `lattice` lists subgroups H as (H, |H|, number of sequences H fixes): the
    whole group G and every subgroup that is some sequence's full stabilizer,
    each once; others may be left out.  `contains(K, H)` tells whether K
    contains H.  Walking from large subgroups to small, exact(H) = fixed(H)
    - sum of exact(K) over K strictly above H counts the sequences whose
    stabilizer is exactly H (Moebius inversion; a subgroup left out has
    exact count 0, so leaving it out changes no sum); by orbit-stabilizer
    they form exact(H) * |H| / |G| orbits of size |G| / |H|.
    """
    lattice = sorted(lattice, key=lambda entry: -entry[1])
    group_order = lattice[0][1]
    exact: list[tuple] = []
    histogram: Counter[int] = Counter()
    for subgroup, order, fixed in lattice:
        count = fixed - sum(n for above, n in exact if contains(above, subgroup))
        if count:
            exact.append((subgroup, count))
            histogram[group_order // order] += count * order // group_order
    return dict(sorted(histogram.items()))


def _unit_stabilizers(k: int, l: int) -> list[tuple]:
    """Candidate stabilizers of a spread of k >= 1 units among the subgroups
    of (Z/l)^*, each as an int mask with bit u set for each of its units u
    in [0, l), with its order and fixed-point count.

    The positions x with l / gcd(x, l) = d form layer d, a copy of (Z/d)^* on
    which u acts through u mod d by translation, so a subgroup H splits it
    into phi(d) / |H mod d| orbits of size |H mod d|, and |H mod d| =
    |H| / |H & K_d| with K_d the mask of the units = 1 (mod d).  Where a
    spread is not zero on layer d, its stabilizer there is a subgroup S of
    (Z/d)^*, and a coset of S that carries a unit carries one at each of its
    |S| positions, so |S| <= k.  A spread's stabilizer is the meet of the
    preimages of these S over the at most k layers it is not zero on; two
    preimages from one layer meet in the preimage of a smaller S.  So the
    meets of at most k small preimages, each from its own layer, hold every
    stabilizer, and any other subgroup has exact count 0.  A preimage met
    at an earlier layer is not taken again.  A layer d that divides a layer
    d*p with phi(d*p) <= k adds no preimage: every subgroup of (Z/(d*p))^*
    is small, the preimage of each S mod d among them.  So at k >= phi(l)
    the candidates are the subgroups of (Z/l)^*, from layer l alone.
    """
    table = _divisor_table(l)
    primes = [p for p, (_, phi) in table.items() if phi == p - 1 > 0]
    units = (1 << l) - 1
    for p in primes:
        units &= ~_periodic(1, p, l)
    # layer 1 is the one position 0, fixed by every unit
    kernels = {d: _periodic(1 << 1, d, l) & units for d in table if d > 1}
    # each candidate with the fewest layers whose preimages meet in it, at most k
    stabilizers, seen, covered = {units: 0}, {units}, {1}
    for d, (_, phi) in reversed(table.items()):
        if d in covered:
            continue
        layer = {kernels[d]}  # the preimage of {1}, the one S when k = 1 or phi(d) = 1
        if k > 1 and phi > 1:
            layer.update(_periodic(small, d, l) & units for small in _small_subgroups(k, d))
        layer -= seen
        seen |= layer
        for h, used in list(stabilizers.items()):
            if used < k:
                for small in layer:
                    meet = h & small
                    if stabilizers.get(meet, k) > used:
                        stabilizers[meet] = used + 1
        if phi <= k:
            covered.update(e for e in table if d % e == 0)
    # |H & K_d| <= |K_d| = phi(l) / phi(d), so |H mod d| > k once |H| phi(d) > k phi(l)
    layers = [(table[d][1], kernel) for d, kernel in kernels.items()]
    bound = k * table[l][1]
    lattice = []
    for h in stabilizers:
        order = h.bit_count()
        counts = {1: 1}
        for phi, kernel in layers:
            if order * phi <= bound:
                size = order // (h & kernel).bit_count()
                if size <= k:
                    counts[size] = counts.get(size, 0) + phi // size
        lattice.append((h, order, _fixed_count(k, counts)))
    return lattice


def _periodic(block: int, period: int, length: int) -> int:
    """`block` (below bit `period`) repeated every `period` bits, at least
    up to bit `length`, by doubling."""
    while period < length:
        block |= block << period
        period <<= 1
    return block


def _small_subgroups(k: int, d: int) -> list[int]:
    """Every subgroup of (Z/d)^*, d >= 2, of order at most k, as a mask with
    bit r set for each of its residues r in [0, d).

    The cyclic ones are the powers of the units of order at most k, and
    every other one is a join of those.  The joins are taken one cyclic
    subgroup B at a time, as the product A*B with each subgroup A found so
    far; A*B has |A| |B| / |A & B| elements, so a join past k is skipped
    before it is built.
    """
    cyclic = {}
    for v in range(1, d):
        if gcd(v, d) == 1:
            powers, x = [1], v
            while x != 1 and len(powers) < k:
                powers.append(x)
                x = x * v % d
            if x == 1:
                cyclic[sum(map((1).__lshift__, powers))] = powers
    subgroups = {1 << 1: [1]}  # the trivial subgroup
    for generated, powers in cyclic.items():
        for mask, members in list(subgroups.items()):
            meet = mask & generated
            if meet == generated:
                continue
            if meet == mask:
                subgroups.setdefault(generated, powers)
            elif mask.bit_count() * len(powers) <= k * meet.bit_count():
                joined = list({a * b % d for a in members for b in powers})
                subgroups.setdefault(sum(map((1).__lshift__, joined)), joined)
    return list(subgroups)


def _fixed_count(k: int, orbit_counts: dict[int, int]) -> int:
    """Sequences constant on every position orbit, with c_s orbits of size s
    for each s in `orbit_counts`: the coefficient of q^k in the product of
    (1 - q^s)^(-c_s), whose series has coefficients C(j + c_s - 1, j) at
    q^(s*j).  An orbit larger than k may be left out: its unknown must be 0.
    The series for the sizes above 1 are multiplied out over the totals t
    they reach; the c_1 orbits of size 1 then take the other k - t units in
    C(k - t + c_1 - 1, c_1 - 1) ways."""
    ways = None  # total -> its coefficient, once a size above 1 is taken
    for size, count in orbit_counts.items():
        if size > 1:
            series = {j * size: comb(j + count - 1, j) for j in range(k // size + 1)}
            if ways is None:
                ways = series
                continue
            reached: dict[int, int] = {}
            for total, way in ways.items():
                for step, weight in series.items():
                    if total + step > k:
                        break
                    reached[total + step] = reached.get(total + step, 0) + way * weight
            ways = reached
    ones = orbit_counts.get(1, 0)
    if ways is None:
        return comb(k + ones - 1, k) if ones else int(k == 0)
    if not ones:
        return ways.get(k, 0)
    return sum(way * comb(k - total + ones - 1, ones - 1) for total, way in ways.items())


def _symmetric_histogram(k: int, l: int) -> dict[int, int]:
    """One orbit per partition of k >= 1 into at most l parts; a partition with
    multiplicities m_v and l - n zero parts has l! / (prod m_v! * (l - n)!)
    arrangements: the product of comb(free, m_v) over its values, largest
    first, with `free` the positions still open.  The walk goes value by
    value, largest first, carrying that product, and takes only the
    multiplicities that leave room for the rest: m copies of v leave
    total - m*v for free - m parts below v, which fit when
    m >= total - (v-1)*free.  So every step leads to a partition."""
    histogram: Counter[int] = Counter()

    def place(total: int, largest: int, free: int, size: int) -> None:
        for value in range(min(total, largest), 0, -1):
            if value * free < total:
                return
            for m in range(max(1, total - (value - 1) * free), min(free, total // value) + 1):
                rest, arranged = total - m * value, size * comb(free, m)
                if rest:
                    place(rest, value - 1, free - m, arranged)
                else:
                    histogram[arranged] += 1

    place(k, k, l, 1)
    return dict(sorted(histogram.items()))
