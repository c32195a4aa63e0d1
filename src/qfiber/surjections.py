"""Step sequences of non-increasing surjections and group actions on them.

A non-increasing surjection from [0, k+l] onto {1, ..., l} is encoded by the
lengths (n_1, ..., n_l) of its level intervals, a composition of k+l into l
positive steps.  These sequences are in bijection with partitions inside a
k x (l-1) box, and three groups act on them: rotation of the steps, unit
scaling of the step positions, and arbitrary position permutations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, combinations, product
from math import comb, gcd, prod
from typing import Callable, Iterator, Sequence

from .partitions import Partition
from .qbinomial import _check_integers, _divisors, _prime_powers


@dataclass(frozen=True, order=True)
class StepSequence:
    """Level-interval lengths (n_1, ..., n_l) of a non-increasing surjection.

    Positive integers; their sum is the domain length k+l.
    """

    steps: tuple[int, ...]

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise ValueError("a step sequence needs at least one step")
        if any(not isinstance(s, int) or s < 1 for s in steps):
            raise ValueError(f"steps must be positive integers: {steps!r}")
        object.__setattr__(self, "steps", steps)

    @property
    def domain_length(self) -> int:
        return sum(self.steps)

    @property
    def level_count(self) -> int:
        return len(self.steps)


@dataclass(frozen=True, order=True)
class ThresholdSequence:
    """Ascending cut positions (t_l, ..., t_2) of a non-increasing surjection.

    The last cut t_1 equals domain_length and stays implicit; an empty tuple
    encodes the single-level surjection.
    """

    thresholds: tuple[int, ...]
    domain_length: int

    def __post_init__(self):
        thresholds = tuple(self.thresholds)
        _check_integers(domain_length=self.domain_length)
        if self.domain_length < 1:
            raise ValueError("domain_length must be positive")
        if any(not isinstance(t, int) for t in thresholds):
            raise ValueError(f"thresholds must be integers: {thresholds!r}")
        if thresholds and not (0 < thresholds[0] and thresholds[-1] < self.domain_length):
            raise ValueError(
                f"thresholds must lie strictly between 0 and {self.domain_length}: {thresholds!r}"
            )
        if any(a >= b for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError(f"thresholds must be strictly increasing: {thresholds!r}")
        object.__setattr__(self, "thresholds", thresholds)

    @property
    def level_count(self) -> int:
        return len(self.thresholds) + 1


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
    generated directly, so the cost grows with the number of orbits.
    "cyclic" and "units" are abelian groups acting on the positions Z/l and go
    through stabilizer counting over their subgroup lattices: one subgroup
    per divisor of l for "cyclic", every subgroup of (Z/l)^* for "units"
    (thousands when l is highly composite, 4086 at l = 2520), each with a
    fixed-point count of cost O(#position orbits * k).
    """
    if group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}: {group!r}")
    _check_k_nonneg_l_positive(k, l)
    if group == "symmetric":
        return _symmetric_histogram(k, l)
    if group == "cyclic":
        # The rotations of order d form <l/d>, whose l/d position orbits have
        # size d: a fixed sequence repeats a block of l/d steps d times
        # (necklace counting).
        lattice = [
            (d, d, comb((k + l) // d - 1, l // d - 1) if k % d == 0 else 0)
            for d in _divisors(l)
        ]
        return _stabilizer_histogram(lattice, lambda above, below: above % below == 0)
    return _stabilizer_histogram(
        _unit_lattice(k, l), lambda above, below: all(map(frozenset.__ge__, above, below)))


def _stabilizer_histogram(lattice: list[tuple], contains: Callable) -> dict[int, int]:
    """The orbit-size histogram of an abelian group from fixed-point counts.

    `lattice` lists every subgroup H as (H, |H|, number of sequences H fixes),
    the whole group G included, and `contains(K, H)` tells whether K
    contains H.  Walking from large subgroups to small, exact(H) = fixed(H)
    - sum of exact(K) over K strictly above H counts the sequences whose
    stabilizer is exactly H (Moebius inversion); by orbit-stabilizer they
    form exact(H) * |H| / |G| orbits of size |G| / |H|.
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


def _unit_lattice(k: int, l: int) -> list[tuple]:
    """Every subgroup of (Z/l)^* with its order and fixed-point count.

    The group is the direct product of its Sylow subgroups, so a subgroup is
    a tuple of one subgroup per Sylow factor, and it contains another when
    each factor does.  The positions x with l / gcd(x, l) = d are a copy of
    (Z/d)^* on which u acts through u mod d by translation, so a subgroup H
    splits them into |(Z/d)^*| / |H mod d| orbits of size |H mod d|; the
    image sizes multiply over the factors.
    """
    units = [u for u in range(1, l + 1) if gcd(u, l) == 1]
    divisors = _divisors(l)
    factors = [
        [(h, [len({u % d for u in h}) for d in divisors]) for h in _sylow_subgroups(units, p, l)]
        for p in _prime_powers(len(units))
    ]
    whole = [len({u % d for u in units}) for d in divisors]
    lattice = []
    for parts in product(*factors):
        images = [1] * len(divisors)
        for _, part_images in parts:
            images = [a * b for a, b in zip(images, part_images)]
        sizes = [size for size, full in zip(images, whole) if size <= k
                 for _ in range(full // size)]
        subgroup = tuple(h for h, _ in parts)
        lattice.append((subgroup, prod(map(len, subgroup)), _fixed_count(k, sizes)))
    return lattice


def _sylow_subgroups(
    units: list[int], prime_power: tuple[int, int], l: int
) -> set[frozenset[int]]:
    """Every subgroup of the Sylow p-subgroup of the units mod l, for
    prime_power = (p, p^a) with p^a exactly dividing their number n.

    That subgroup is the image of u -> u^(n/p^a), and its subgroups are the
    joins of its cyclic subgroups.
    """
    prime, power = prime_power
    cyclic: set[frozenset[int]] = set()
    covered: set[int] = set()
    for g in sorted({pow(u, len(units) // power, l) for u in units}):
        if g not in covered:
            powers = [1]
            while powers[-1] * g % l != 1:
                powers.append(powers[-1] * g % l)
            covered.update(powers)
            # the subgroups of the cyclic p-group <g> are the <g^(p^i)>
            step = 1
            while step < len(powers):
                cyclic.add(frozenset(powers[::step]))
                step *= prime
    subgroups, frontier = {frozenset({1})} | cyclic, list(cyclic)
    while frontier:
        below = frontier.pop()
        for generated in cyclic:
            joined = set(below)
            for b in generated:
                if b not in joined:
                    joined.update(a * b % l for a in below)
            joined = frozenset(joined)
            if joined not in subgroups:
                subgroups.add(joined)
                frontier.append(joined)
    return subgroups


def _fixed_count(k: int, orbit_sizes: list[int]) -> int:
    """Sequences constant on every position orbit: solutions of
    sum_j s_j * y_j = k in y_j >= 0, one unknown per orbit (coin change).
    An orbit larger than k may be left out: its unknown must be 0."""
    ways = [1] + [0] * k
    for size in orbit_sizes:
        for total in range(size, k + 1):
            ways[total] += ways[total - size]
    return ways[k]


def _symmetric_histogram(k: int, l: int) -> dict[int, int]:
    """One orbit per partition of k into at most l parts; a partition with
    multiplicities m_v and l - n zero parts has l! / (prod m_v! * (l - n)!)
    arrangements."""
    histogram: Counter[int] = Counter()
    for parts in _partitions(k, k, l):
        size, free = 1, l
        for multiplicity in Counter(parts).values():
            size *= comb(free, multiplicity)
            free -= multiplicity
        histogram[size] += 1
    return dict(sorted(histogram.items()))


def _partitions(total: int, largest: int, slots: int) -> Iterator[tuple[int, ...]]:
    """Partitions of `total` into at most `slots` parts no larger than
    `largest`, as non-increasing tuples; every branch taken yields one."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, largest), 0, -1):
        if part * slots < total:
            return
        for rest in _partitions(total - part, part, slots - 1):
            yield (part,) + rest
