"""Correctness oracles for the benchmark, written independently of qfiber.

Every command's captured output is parsed (in whichever of the three formats
it was requested) and compared against values computed here:

- coefficient vectors come from the product formula
  [m+n choose n]_q = prod_{i=1..n} (1 - q^(m+i)) / (1 - q^i),
  a different algorithm from the program's q-Pascal sweep;
- residue-class sums fold that polynomial mod r;
- fiber tables use the partition-bijection route (the route of
  `delta_fiber_sizes_via_partitions`) on the same polynomial;
- orbit histograms must cover all C(k+l-1, l-1) step sequences, and their
  orbit counts must match Burnside counts (cyclic and unit groups) or the
  count of multisets (symmetric group).

`check(argv, exit_code, output)` returns None when the output is right and a
one-line reason otherwise.  It never raises on malformed output.
"""

from __future__ import annotations

import csv
import io
import json
from math import comb, gcd


def gaussian_poly(m: int, n: int) -> list[int]:
    """Coefficients of [m+n choose n]_q by the product formula.

    Each factor multiplies by (1 - q^(m+i)) in place and then divides by
    (1 - q^i) with a running prefix sum; the division is exact, so the top i
    coefficients it leaves are zero and are dropped.
    """
    c = [1]
    for i in range(1, n + 1):
        d = m + i
        c.extend([0] * d)
        for w in range(len(c) - 1, d - 1, -1):
            c[w] -= c[w - d]
        for w in range(i, len(c)):
            c[w] += c[w - i]
        if any(c[-i:]):
            raise ArithmeticError(f"inexact division by 1 - q^{i}")
        del c[-i:]
    return c


def fold(poly: list[int], r: int) -> list[int]:
    sums = [0] * r
    for w, c in enumerate(poly):
        sums[w % r] += c
    return sums


def fiber_table(ring_size: int, marked: int) -> list[int]:
    n, r = ring_size, marked
    base = fold(gaussian_poly(n - r, r - 1), r)
    offset = r * (r - 1) // 2 + n
    return [base[((r - s) - offset) % r] for s in range(r)]


def _fixed_compositions(cycle_lengths: list[int], total: int) -> int:
    """Compositions of `total` into positive parts that are constant on each
    cycle of a position permutation with the given cycle lengths."""
    ways = [1] + [0] * total
    for length in cycle_lengths:
        new = [0] * (total + 1)
        for s, count in enumerate(ways):
            if count:
                step = s + length
                while step <= total:
                    new[step] += count
                    step += length
        ways = new
    return ways[total]


def _cycle_lengths(perm: list[int]) -> list[int]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def burnside_orbits(k: int, l: int, group: str) -> int:
    """Orbit count of the cyclic or unit group on compositions of k+l into l
    positive steps: the mean number of fixed compositions over the group."""
    if group == "cyclic":
        perms = [[(i + p) % l for i in range(l)] for p in range(l)]
    else:
        perms = [
            [(u * (i + 1) - 1) % l for i in range(l)] for u in range(1, l + 1) if gcd(u, l) == 1
        ]
    fixed = sum(_fixed_compositions(_cycle_lengths(p), k + l) for p in perms)
    orbit_count, remainder = divmod(fixed, len(perms))
    if remainder:
        raise ArithmeticError("Burnside sum not divisible by the group order")
    return orbit_count


def multiset_count(k: int, l: int) -> int:
    """Partitions of k into at most l parts: the symmetric-group orbit count."""
    ways = [1] + [0] * k
    for part in range(1, l + 1):
        for s in range(part, k + 1):
            ways[s] += ways[s - part]
    return ways[k]


def _option(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _rows(output: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(output)))[1:]


def _vector(output: str, fmt: str, key: str) -> list[int]:
    if fmt == "json":
        return [int(v) for v in json.loads(output)["result"][key]]
    if fmt == "csv":
        rows = _rows(output)
        if [row[0] for row in rows] != [str(i) for i in range(len(rows))]:
            raise ValueError("csv index column is not 0..len-1")
        return [int(row[1]) for row in rows]
    lines = output.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one line, got {len(lines)}")
    return [int(v) for v in lines[0].split()]


def _with_total(output: str, fmt: str, key: str, total_key: str):
    """Body rows and the trailing total of a fibers or orbits output."""
    if fmt == "json":
        result = json.loads(output)["result"]
        return result[key], int(result[total_key])
    if fmt == "csv":
        rows = _rows(output)
        if rows[-1][0] != "total":
            raise ValueError("missing csv total row")
        return rows[:-1], int(rows[-1][1])
    lines = output.splitlines()
    label, total = lines[-1].split()
    if label != "total":
        raise ValueError("missing total line")
    return [line.split() for line in lines[:-1]], int(total)


def _check_coeffs(m: int, n: int, values: list[int]) -> str | None:
    if sum(values) != comb(m + n, n):
        return "coefficients do not total C(m+n, n)"
    if values != values[::-1]:
        return "coefficient vector is not palindromic"
    if values != gaussian_poly(m, n):
        return "coefficients differ from the product formula"
    return None


def _check_sums(m: int, n: int, r: int, values: list[int]) -> str | None:
    if sum(values) != comb(m + n, n):
        return "class sums do not total C(m+n, n)"
    if values != fold(gaussian_poly(m, n), r):
        return "class sums differ from the folded product formula"
    return None


def _check_fibers(ring_size: int, marked: int, output: str, fmt: str) -> str | None:
    body, total = _with_total(output, fmt, "sizes", "total")
    if fmt == "json":
        sizes = [int(v) for v in body]
    elif fmt == "csv":
        if [row[0] for row in body] != [str(s) for s in range(len(body))]:
            raise ValueError("csv class column is not 0..r-1")
        sizes = [int(row[1]) for row in body]
    else:
        (line,) = body
        sizes = [int(v) for v in line]
    expected_total = comb(ring_size - 1, marked - 1)
    if total != expected_total or sum(sizes) != expected_total:
        return "fiber sizes do not total C(N-1, r-1)"
    if sizes != fiber_table(ring_size, marked):
        return "fiber sizes differ from the partition-bijection table"
    return None


def _check_orbits(k: int, l: int, group: str, output: str, fmt: str) -> str | None:
    body, total = _with_total(output, fmt, "histogram", "total_sequences")
    histogram = [(int(size), int(count)) for size, count in body]
    expected_total = comb(k + l - 1, l - 1)
    if total != expected_total or sum(s * c for s, c in histogram) != expected_total:
        return "orbit histogram does not cover C(k+l-1, l-1) sequences"
    orbit_count = sum(c for _, c in histogram)
    if group == "symmetric":
        expected = multiset_count(k, l)
    else:
        order = l if group == "cyclic" else sum(1 for u in range(1, l + 1) if gcd(u, l) == 1)
        if any(order % size for size, _ in histogram):
            return "an orbit size does not divide the group order"
        expected = burnside_orbits(k, l, group)
    if orbit_count != expected:
        return f"{orbit_count} orbits, Burnside count gives {expected}"
    return None


def check(argv: list[str], exit_code: int, output: str) -> str | None:
    """None when `output` is the right answer to the command `argv`."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    command = argv[0]
    fmt = _option(argv, "--format", "table")
    try:
        if command == "coeffs":
            m, n = int(argv[1]), int(argv[2])
            return _check_coeffs(m, n, _vector(output, fmt, "coeffs"))
        if command == "residue-sums":
            m, n, r = int(argv[1]), int(argv[2]), int(argv[3])
            return _check_sums(m, n, r, _vector(output, fmt, "sums"))
        if command == "fibers":
            return _check_fibers(int(argv[1]), int(argv[2]), output, fmt)
        if command == "orbits":
            return _check_orbits(int(argv[1]), int(argv[2]), argv[3], output, fmt)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable output: {exc!r}"
    return f"no oracle for command {command!r}"


def check_verify(exit_code: int, output: str, min_checks: int) -> tuple[int, int, str | None]:
    """(attempted, failed, reason) for one `verify all --format json` run.

    An op is one reported check.  Failing reports count as failed ops, and
    so does every check missing below `min_checks`, so that dropping checks
    reads as failure rather than speed.  A nonzero exit without failing
    reports, or output that does not parse, fails the whole run.
    """
    try:
        result = json.loads(output)["result"]
        reports = result["reports"]
        checks = int(result["checks"])
        failing = sum(1 for report in reports if report["status"] != "pass")
        if checks != len(reports) or int(result["failures"]) != failing:
            raise ValueError("check counts disagree with the report list")
    except (ValueError, KeyError, TypeError) as exc:
        return min_checks, min_checks, f"unparsable output: {exc!r}"
    attempted = max(checks, min_checks)
    failed = failing + (attempted - checks)
    if exit_code != (1 if failing else 0):
        return attempted, attempted, f"exit code {exit_code} with {failing} failing checks"
    if failed:
        return attempted, failed, f"{failing} failing checks, {attempted - checks} missing"
    return attempted, 0, None
