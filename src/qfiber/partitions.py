"""Exact counting and enumeration of partitions restricted to a rectangle.

A partition is the tuple of its positive parts, weakly decreasing; `partition`
checks one and strips its trailing zeros.  It fits an (a, b) rectangle when
it has at most b parts, each of size at most a.  All counts are exact Python
integers, so rectangles well past 64-bit coefficient sizes are fine.
"""

from __future__ import annotations

from itertools import repeat
from operator import ge
from typing import Iterable, Iterator

from .qbinomial import _check_integers

__all__ = ["count_by_residue", "count_exact_parts_by_residue", "enumerate_restricted", "partition"]


def partition(parts: Iterable[int] = ()) -> tuple[int, ...]:
    """The weakly decreasing nonnegative part sizes as a tuple, trailing
    zeros stripped; the empty tuple is the zero partition."""
    parts = tuple(parts)
    if not (all(map(isinstance, parts, repeat(int))) and (not parts or min(parts) >= 0)):
        raise ValueError(f"parts must be nonnegative integers: {parts!r}")
    if not all(map(ge, parts, parts[1:])):
        raise ValueError(f"parts must be weakly decreasing: {parts!r}")
    if parts and not parts[-1]:
        parts = parts[:parts.index(0)]  # the zeros of a weakly decreasing tuple trail it
    return parts


def _validate_box(max_part: int, max_count: int) -> None:
    _check_integers(max_part=max_part, max_count=max_count)
    if max_part < 0 or max_count < 0:
        raise ValueError("rectangle dimensions must be nonnegative")


def enumerate_restricted(max_part: int, max_count: int) -> Iterator[tuple[int, ...]]:
    """Yield each partition fitting the box exactly once, ordered
    lexicographically by the zero-padded part vector.

    Produces C(max_part + max_count, max_count) partitions in total.  Each
    is built unchecked: its parts are positive and each is at most the one
    before it, so it is what `partition` returns for it.
    """
    _validate_box(max_part, max_count)

    def descend(bound: int, length: int) -> Iterator[tuple[int, ...]]:
        yield ()  # every part zero, the first padded vector
        if length:
            for first in range(1, bound + 1):
                for rest in descend(first, length - 1):
                    yield (first, *rest)

    yield from descend(max_part, max_count)


def count_by_residue(max_part: int, max_count: int, modulus: int) -> list[int]:
    """Partition counts for the box, bucketed by weight mod modulus.

    Entries sum to C(max_part + max_count, max_count); the zero partition
    sits in class 0.  Runs the box recurrence on vectors reduced mod
    q^width - 1, width = min(modulus, max_part * max_count + 1), so it never
    builds the full coefficient vector and is independent of
    `qbinomial.gaussian_coefficients`.  Cost O(max_part * max_count * width):
    slower than folding the full vector once the modulus exceeds about
    min(max_part, max_count).
    """
    _validate_box(max_part, max_count)
    _check_integers(modulus=modulus)
    if modulus < 1:
        raise ValueError("modulus must be positive")
    # A partition in the (a, b) box has fewer than b parts, or exactly b
    # nonzero parts that each lose one unit to land in the (a-1, b) box.
    width = min(modulus, max_part * max_count + 1)
    unit = [1] + [0] * (width - 1)
    row = [unit] * (max_count + 1)
    for _ in range(max_part):
        new_row = [unit]
        for b in range(1, max_count + 1):
            cut = width - b % width
            shifted = row[b][cut:] + row[b][:cut]
            new_row.append([x + y for x, y in zip(new_row[b - 1], shifted)])
        row = new_row
    return row[max_count] + [0] * (modulus - width)


def count_exact_parts_by_residue(part_bound: int, exact_count: int, modulus: int) -> list[int]:
    """Counts of partitions with exactly `exact_count` nonzero parts, each at
    most `part_bound`, bucketed by weight mod modulus.

    Removing one unit from each part is a bijection onto the
    (part_bound - 1, exact_count) box that lowers each weight by exact_count.
    """
    _check_integers(part_bound=part_bound, exact_count=exact_count, modulus=modulus)
    if part_bound < 0:
        raise ValueError("part_bound must be nonnegative")
    if exact_count < 1:
        raise ValueError("exact_count must be positive")
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if part_bound == 0:
        return [0] * modulus
    base = count_by_residue(part_bound - 1, exact_count, modulus)
    return [base[(j - exact_count) % modulus] for j in range(modulus)]
