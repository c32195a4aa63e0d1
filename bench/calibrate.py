"""Calibration block: a fixed piece of Python work that measures how fast
the machine runs at the moment.

On a shared host the same interpreter work takes from 0.7 to 1.5 times its
usual time, in phases from a fraction of a second to about a minute, and
the process's CPU time slows down with it, so neither wall nor CPU time
of a command is steady from run to run.  The worker therefore times this
block between commands and, on a timer, during them, and reports each
command's time scaled by `REFERENCE_S / (mean block time around it)`: the
time the command would take on a machine where the block takes
`REFERENCE_S`.  The block never calls qfiber, so a change to the program
moves the scaled times and leaves the block alone.

The block mixes the kinds of work qfiber does: big-integer additions over
tuples (the q-Pascal sweep of `qbinomial`), creation of small frozen
dataclasses with validation (`heisenberg`'s points and gap vectors), and
generator enumeration with small-integer arithmetic (`surjections`, the
fiber counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from time import perf_counter

# Seconds one block takes, at its median, between and during commands on
# the reference machine (2 cores, Python 3.11.7).  Only a unit: scaled
# times are in these seconds.
REFERENCE_S = 0.0023


@dataclass(frozen=True)
class _Gaps:
    gaps: tuple[int, ...]
    total: int

    def __post_init__(self):
        gaps = tuple(self.gaps)
        if any(not isinstance(g, int) or g < 1 for g in gaps):
            raise ValueError(gaps)
        if sum(gaps) != self.total:
            raise ValueError(gaps)
        object.__setattr__(self, "gaps", gaps)


def _pascal(m: int, n: int) -> tuple[int, ...]:
    col = [(1,)]
    for t in range(1, m + n + 1):
        new_col = [(1,)]
        for bottom in range(1, min(t, n) + 1):
            left = col[bottom - 1]
            if bottom == t:
                new_col.append(left)
                continue
            coeffs = list(left) + [0] * (bottom * (t - bottom) + 1 - len(left))
            for w, c in enumerate(col[bottom]):
                coeffs[w + bottom] += c
            new_col.append(tuple(coeffs))
        col = new_col
    return col[n]


def _points(ring: int, marked: int) -> int:
    table = [0] * marked
    for cuts in combinations(range(1, ring), marked - 1):
        bounds = (0,) + cuts + (ring,)
        point = _Gaps(tuple(b - a for a, b in zip(bounds, bounds[1:])), ring)
        weighted = sum(beta * g for beta, g in enumerate(point.gaps, start=1))
        table[-weighted % marked] += 1
    return sum(table)


def block() -> float:
    """Run the block once and return its duration in seconds."""
    start = perf_counter()
    coeffs = _pascal(13, 11)
    count = _points(13, 4)
    elapsed = perf_counter() - start
    if sum(coeffs) != 2496144 or count != 220:
        raise AssertionError("calibration block computed a wrong value")
    return elapsed
