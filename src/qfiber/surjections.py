"""Step sequences of non-increasing surjections and group actions on them.

A non-increasing surjection from [0, k+l] onto {1, ..., l} is encoded by the
lengths (n_1, ..., n_l) of its level intervals, a composition of k+l into l
positive steps.  These sequences are in bijection with partitions inside a
k x (l-1) box, and three groups act on them: rotation of the steps, unit
scaling of the step positions, and arbitrary position permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd
from typing import Callable, Iterator, Sequence

from .errors import DEFAULT_ENUMERATION_CAP, EnumerationCapError
from .partitions import Partition


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
    cuts = []
    acc = 0
    for step in s.steps[:-1]:
        acc += step
        cuts.append(acc)
    return ThresholdSequence(tuple(cuts), s.domain_length)


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
    if k < 0 or l < 1:
        raise ValueError("need k >= 0 and l >= 1")
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
    if sorted(sigma) != list(range(1, l + 1)):
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


def enumerate_step_sequences(
    k: int, l: int, max_elements: int | None = None
) -> Iterator[StepSequence]:
    """All C(k+l-1, l-1) compositions of k+l into l positive steps, in
    ascending cut-position order."""
    if k < 0 or l < 1:
        raise ValueError("need k >= 0 and l >= 1")
    if max_elements is not None and comb(k + l - 1, l - 1) > max_elements:
        raise EnumerationCapError(
            f"C({k + l - 1}, {l - 1}) step sequences for (k={k}, l={l}) exceed the cap "
            f"of {max_elements}"
        )
    length = k + l
    for cuts in combinations(range(1, length), l - 1):
        bounds = (0,) + cuts + (length,)
        yield StepSequence(tuple(b - a for a, b in zip(bounds, bounds[1:])))


GROUPS = ("cyclic", "units", "symmetric")


@dataclass(frozen=True)
class Orbit:
    """One equivalence class of step sequences under a group action."""

    elements: frozenset[StepSequence]
    group_tag: str

    def __len__(self) -> int:
        return len(self.elements)


def _cyclic_orbit(s: StepSequence) -> frozenset[StepSequence]:
    return frozenset(act_cyclic(s, p) for p in range(s.level_count))


def _unit_orbit(s: StepSequence) -> frozenset[StepSequence]:
    l = s.level_count
    return frozenset(act_unit(s, u) for u in range(1, l + 1) if gcd(u, l) == 1)


def orbits(
    k: int, l: int, group: str, max_elements: int | None = DEFAULT_ENUMERATION_CAP
) -> list[Orbit]:
    """Partition all step sequences for (k, l) into orbits of the chosen group.

    `group` is one of "cyclic" (rotations), "units" (unit scaling of
    positions) or "symmetric" (all permutations; orbits are the multiset
    classes).  Returns orbits sorted by their smallest element.  Raises
    EnumerationCapError when C(k+l-1, l-1) exceeds max_elements.
    """
    if group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}: {group!r}")
    sequences = list(enumerate_step_sequences(k, l, max_elements))
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
    result = [Orbit(elements=c, group_tag=group) for c in classes]
    result.sort(key=lambda o: min(o.elements))
    return result
