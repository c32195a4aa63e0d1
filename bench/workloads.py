"""Seeded command streams for the three workloads.

A workload is a list of rounds; a round is a list of qfiber argv lists that
one fresh interpreter runs back to back.  Each round holds one command per
cost stratum, in seeded order, so every round (and every seed) carries the
same mix of sizes and only the concrete inputs differ.  A stratum's output
format, and on `tables` its command, follow a fixed rotation over rounds
that is the same for every seed.  The same seed and
round count always give the same stream.
"""

from __future__ import annotations

import random
from math import comb

FORMATS = ("table", "csv", "json")
GROUPS = ("cyclic", "units", "symmetric")

# Seconds one round of each workload takes at the seed commit (2 cores,
# Python 3.11).  `--seconds` buys seconds / ROUND_SECONDS rounds, so a run
# does the same work, on the same inputs, on every commit.
ROUND_SECONDS = {"tables": 3.1, "enumeration": 3.0, "verify-all": 6.0}

VERIFY_ARGV = ["verify", "all", "--format", "json"]
VERIFY_MIN_CHECKS = 1638
TINY_VERIFY_ARGV = VERIFY_ARGV + ["--k-max", "4", "--l-max", "4", "--primes", "3", "--m-max", "1", "--n-max", "4"]
TINY_VERIFY_MIN_CHECKS = 72


def pascal_work(m: int, n: int) -> int:
    """Big-int additions of the q-Pascal sweep for an m x n box: the sum of
    b*(t-b) + 1 over t <= m+n and 1 <= b <= min(t-1, n).  Used only to sort
    boxes into strata of similar cost."""
    work = 0
    for t in range(2, m + n + 1):
        b = min(t - 1, n)
        work += t * b * (b + 1) // 2 - b * (b + 1) * (2 * b + 1) // 6 + b
    return work


def _strata(candidates: dict, targets: list[float], spread: float) -> list[list]:
    """For each target cost, the candidates whose cost lies within a factor
    `spread` of it (the nearest one when none does)."""
    strata = []
    for target in targets:
        band = [key for key, cost in candidates.items() if target / spread <= cost <= target * spread]
        if not band:
            band = [min(candidates, key=lambda key: abs(candidates[key] - target))]
        strata.append(sorted(band))
    return strata


def _draw(rng: random.Random, band: list, used: set):
    """A member of `band` not in `used`; the band is reused once exhausted,
    which only happens across rounds, in different interpreters."""
    fresh = [key for key in band if key not in used]
    if not fresh:
        used.difference_update(band)
        fresh = band
    choice = rng.choice(fresh)
    used.add(choice)
    return choice


def _formatted(argv: list[str], stratum: int, round_: int) -> list[str]:
    return argv + ["--format", FORMATS[(stratum + round_) % len(FORMATS)]]


def round_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds / ROUND_SECONDS[workload]))


def tables(seed: int, rounds: int, tiny: bool = False) -> list[list[list[str]]]:
    """`coeffs m n` and `residue-sums m n r` on boxes with sides 30..70.

    Thirteen strata, geometric in q-Pascal work from about 0.5M to 7M
    additions (roughly 0.05 s to 0.8 s each at the seed commit).  An odd
    count puts the median and the p90 of a run's latencies inside a
    stratum rather than on the edge between two.  No box
    repeats until its stratum runs out of unused boxes, so the memo caches of
    `qbinomial` never hit inside a round.
    """
    rng = random.Random(seed)
    lo, hi, count = (3, 8, 4) if tiny else (30, 70, 13)
    boxes = {(m, n): pascal_work(m, n) for m in range(lo, hi + 1) for n in range(lo, hi + 1)}
    least, most = (pascal_work(lo, lo), pascal_work(hi, hi)) if tiny else (0.5e6, 7.0e6)
    targets = [least * (most / least) ** (i / (count - 1)) for i in range(count)]
    strata = _strata(boxes, targets, 1.03)
    used: set = set()
    stream = []
    for j in range(rounds):
        commands = []
        for i, band in enumerate(strata):
            m, n = _draw(rng, band, used)
            if (i + j) % 2 == 0:
                argv = ["coeffs", str(m), str(n)]
            else:
                argv = ["residue-sums", str(m), str(n), str(rng.randint(2, 16))]
            commands.append(_formatted(argv, i, j))
        rng.shuffle(commands)
        stream.append(commands)
    return stream


def enumeration(seed: int, rounds: int, tiny: bool = False) -> list[list[list[str]]]:
    """`fibers N r` with N in 16..22 and `orbits k l group` with k, l <= 9.

    Five fiber strata, from about 6k to 300k gap vectors (all far below the
    10^7 enumeration cap), and four orbit strata per group, from about 3k to
    24k step sequences.  Cost is close to linear in the count enumerated.
    """
    rng = random.Random(seed)
    if tiny:
        ring_sizes, side, fiber_targets, orbit_targets = range(5, 9), 4, [10, 30], [10, 30]
    else:
        ring_sizes, side = range(16, 23), 9
        fiber_targets = [6e3, 18e3, 45e3, 120e3, 300e3]
        orbit_targets = [3.2e3, 6e3, 12e3, 24e3]
    fibers = {(n, r): comb(n - 1, r - 1) for n in ring_sizes for r in range(2, n)}
    steps = {(k, l): comb(k + l - 1, l - 1) for k in range(1, side + 1) for l in range(2, side + 1)}
    strata = [("fibers", band) for band in _strata(fibers, fiber_targets, 1.1)]
    for group in GROUPS:
        strata += [(group, band) for band in _strata(steps, orbit_targets, 1.1)]
    stream = []
    for j in range(rounds):
        commands = []
        for i, (kind, band) in enumerate(strata):
            a, b = rng.choice(band)
            if kind == "fibers":
                argv = ["fibers", str(a), str(b)]
            else:
                argv = ["orbits", str(a), str(b), kind]
            commands.append(_formatted(argv, i, j))
        rng.shuffle(commands)
        stream.append(commands)
    return stream


def verify_all(seed: int, rounds: int, tiny: bool = False) -> list[list[list[str]]]:
    """One `verify all --format json` per round at the default bounds; the
    inputs do not depend on the seed."""
    return [[TINY_VERIFY_ARGV if tiny else VERIFY_ARGV]] * rounds


GENERATORS = {"tables": tables, "enumeration": enumeration, "verify-all": verify_all}
