"""Command line interface for exact coefficient tables and identity suites.

Examples:

    qfiber coeffs 2 2
    qfiber residue-sums 6 5 6 --format csv
    qfiber fibers 5 2 --format json
    qfiber orbits 6 6 units
    qfiber verify all

Exit codes: 0 success, 1 a verification check failed, 2 bad arguments, 3
enumeration cap exceeded.  Exit 2 comes only from the parser and
`_validate`, before any handler runs, under the usage of the command
given; an internal failure, a ValueError included, is a traceback with
exit status 1.  Machine formats (json, csv) serialize every integer as a
decimal string; Python's limit on the digits of an int converted to or
from a string is lifted for the duration of `main`, and the output size is
capped instead.
The cap is the environment variable QFIBER_MAX_ENUM, else 10^7, for every
command.  It is this module's alone, and so is EnumerationCapError: the
library routes take no cap.  Before a handler computes anything, `_admit`
refuses (exit 3) at the first of its command's `estimates` past the cap.
`verify --timings` writes the time per check id and the ten slowest checks
to stderr.

`main` builds its parser on its first call in a process and reuses it for
every later call, so a later command spends about 35 us parsing its
arguments instead of about 700 us building the parser (Python 3.11, 2
cores).  Nothing is built at import, and `build_parser` returns a new
parser on every call.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from itertools import chain, islice
from math import comb, isqrt, log, log1p, pi
from typing import Iterable, Iterator

from .heisenberg import delta_fiber_sizes_via_partitions
from .qbinomial import coefficient_work, gaussian_coefficients, residue_sums, residue_sums_work
from .surjections import GROUPS, orbit_histogram
from .verify import (
    DEFAULT_KL_BOUND,
    DEFAULT_MULTIPLIER_BOUND,
    DEFAULT_PRIMES,
    DEFAULT_RING_BOUND,
    SUITES,
    CheckReport,
    _validate_primes,
    run_suite,
    suite_work,
)

SCHEMA_VERSION = "1"
FORMATS = ("table", "csv", "json")
DEFAULT_ENUMERATION_CAP = 10_000_000
Estimates = Iterator[tuple[int, str]]  # (amount, text) pairs, checked by `_admit`


class EnumerationCapError(RuntimeError):
    """A command's estimated work or output exceeds the cap (exit 3)."""


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = _nonneg(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be positive")
    return value


def _prime_list(text: str) -> tuple[int, ...]:
    """The --primes text as a tuple of integers; `_validate` checks them."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of integers")


# Rows joined per write by `_write_csv`, so its memory does not grow with the table.
CSV_BATCH_ROWS = 4096


def _write_csv(header: list[str], rows: Iterable[list[str]]) -> None:
    """CSV of two-field rows whose fields need no quoting (decimal integers
    and plain words): each row joined with "," and ended with "\n", the same
    bytes as `csv.writer` with lineterminator "\n", in batches of rows.  A
    joined batch is empty only once the rows are exhausted."""
    write, rows = sys.stdout.write, chain([header], rows)
    while batch := "\n".join(map(",".join, islice(rows, CSV_BATCH_ROWS))):
        write(batch + "\n")


def _emit(
    args: argparse.Namespace,
    parameters: dict,
    result: dict,
    header: list[str],
    rows: Iterable[list[str]],
    lines: list[str],
    free_text: bool = False,
) -> None:
    """Print one command's output in the chosen format: the JSON record of
    its parameters (stringified) and result, the CSV header and rows, or the
    table lines.  The rows may be a generator: only CSV reads them.  Rows
    with `free_text`, which may hold commas or quotes, go through
    `csv.writer`; the number tables' rows are joined by `_write_csv`."""
    if args.format == "json":
        record = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "parameters": {key: str(value) for key, value in parameters.items()},
            "result": result,
        }
        print(json.dumps(record, sort_keys=True, separators=(",", ":")))
    elif args.format == "csv" and free_text:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    elif args.format == "csv":
        _write_csv(header, rows)
    else:
        for line in lines:
            print(line)


def _binomial_digits(top: int, bottom: int) -> int:
    """Estimated decimal digits of C(top, bottom), never short at any size.
    With k the smaller of bottom and top - bottom and rest = top - k,
    Stirling's series, with Robbins' bounds 1/(12n+1) < t_n < 1/(12n) on the
    remainder of ln n!, bounds ln C(top, k) from above to within 0.03 by
    k (ln(top/k) + (rest/k) ln(top/rest)), half of ln(top / (2 pi k rest))
    as a sum of logs, and the remainders.  Every float stays in range, k
    multiplies the digits per mark exactly, and a margin of 10^-14 covers
    the rounding, so it is at most one digit over for outputs below 10^13
    digits."""
    k = min(bottom, top - bottom)
    if k == 0:
        return 1
    rest = top - k
    # ln(top/k) from a quotient below 2^65, top rounded down by the shift
    shift = max(top.bit_length() - k.bit_length() - 64, 0)
    ratio = k / rest  # 0.0 only below the smallest float, where log1p(x) / x is 1
    tail = (log(top) - log(2 * pi) - log(k) - log(rest)) / 2
    tail += 1 / (12 * top) - 1 / (12 * k + 1) - 1 / (12 * rest + 1)
    per_mark = log((top >> shift) / k) + shift * log(2) + (log1p(ratio) / ratio if ratio else 1)
    mark, den = ((per_mark + tail * (1 / k)) * (1 + 1e-14) / log(10)).as_integer_ratio()
    return k * mark // den + 1


def _admit(estimates: Iterable[tuple[int, str]], cap: int) -> None:
    """Refuse (exit 3) at the first (amount, text) estimate past the cap, drawn
    lazily, so a costly estimate can follow a cheap lower bound that refuses."""
    for amount, text in estimates:
        if amount > cap:
            raise EnumerationCapError(f"{text} the cap of {cap}")


def _table_estimates(work: int, entries: int, top: int, bottom: int) -> Estimates:
    """A table's work, then its output digits: `entries` numbers, each at most C(top, bottom)."""
    yield work, f"estimated work of {work} exceeds"
    digits = entries * _binomial_digits(top, bottom)
    yield digits, f"estimated output of {digits} digits exceeds"


def _class_sum_estimates(m: int, n: int, r: int, entries: int) -> Estimates:
    """The class sums mod r of the m x n box, printed as `entries` numbers,
    after the lower bound 2r on their work, so a huge r is never factored."""
    yield 2 * r, f"estimated work of {2 * r} exceeds"
    yield from _table_estimates(residue_sums_work(m, n, r), entries, m + n, n)


def _orbits_estimates(args: argparse.Namespace) -> Estimates:
    k, l, cap = args.k, args.l, args.max_enum
    top, bottom = k + l - 1, l - 1
    # the step sequences enumeration would build, not multiplied out once its
    # digit estimate, at most one over, passes the cap's digits by two
    past = _binomial_digits(top, bottom) > len(str(cap)) + 1
    text = f"C({top}, {bottom}) step sequences for (k={k}, l={l}) exceed"
    yield (cap + 1 if past else comb(top, bottom)), text
    # that count is 1 at k = 0 and at l = 1; for k >= 1 and l >= 2 it bounds these
    if args.group == "units":
        yield l, f"{l} residues tested for units mod l={l} exceed"
        yield k + 1, f"{k + 1} entries of a fixed-point count for k={k} exceed"
    elif args.group == "cyclic":
        yield isqrt(l), f"{isqrt(l)} trial divisions of l={l} exceed"


def _sweep(args: argparse.Namespace) -> dict:
    return dict(k_max=args.k_max, l_max=args.l_max, primes=args.primes, multiplier_max=args.m_max)


def _verify_estimates(args: argparse.Namespace) -> Estimates:
    n = args.n_max
    if args.suite in ("fibrations", "all"):
        # the covering points, after their lower bound 2^n, formed only up to the cap's bit length
        text = f"{n - 1}*2^{n} + 1 covering points for --n-max {n} exceed"
        yield 2 ** min(n, args.max_enum.bit_length()), text
        yield (n - 1) * 2**n + 1, text
    work = suite_work(args.suite, **_sweep(args))
    yield work, f"estimated work of {work} for verify {args.suite} exceeds"


def _cmd_coeffs(args: argparse.Namespace) -> int:
    m, n = args.m, args.n
    values = [str(c) for c in gaussian_coefficients(m, n)]
    rows = ([str(i), v] for i, v in enumerate(values))
    parameters = {"m": m, "n": n}
    _emit(args, parameters, {"coeffs": values}, ["index", "coefficient"], rows, [" ".join(values)])
    return 0


def _cmd_residue_sums(args: argparse.Namespace) -> int:
    m, n, r = args.m, args.n, args.r
    values = [str(v) for v in residue_sums(m, n, r)]
    rows = ([str(i), v] for i, v in enumerate(values))
    parameters = {"m": m, "n": n, "r": r}
    _emit(args, parameters, {"sums": values}, ["residue", "sum"], rows, [" ".join(values)])
    return 0


def _cmd_fibers(args: argparse.Namespace) -> int:
    n, r = args.ring_size, args.marked
    values = [str(v) for v in delta_fiber_sizes_via_partitions(n, r)]
    total = str(comb(n - 1, r - 1))
    rows = chain(([str(s), v] for s, v in enumerate(values)), [["total", total]])
    result = {"sizes": values, "total": total}
    lines = [" ".join(values), f"total {total}"]
    parameters = {"N": n, "r": r}
    _emit(args, parameters, result, ["class", "cardinality"], rows, lines)
    return 0


def _cmd_orbits(args: argparse.Namespace) -> int:
    k, l = args.k, args.l
    sizes = orbit_histogram(k, l, args.group)
    histogram = [[str(size), str(count)] for size, count in sizes.items()]
    total = str(comb(k + l - 1, l - 1))
    result = {"histogram": histogram, "total_sequences": total}
    rows = histogram + [["total", total]]
    lines = [" ".join(pair) for pair in histogram] + [f"total {total}"]
    parameters = {"k": k, "l": l, "group": args.group}
    _emit(args, parameters, result, ["orbit_size", "orbit_count"], rows, lines)
    return 0


def _report_payload(report: CheckReport) -> dict:
    def values(v):
        return [str(x) for x in v] if isinstance(v, list) else str(v)

    return {
        "check_id": report.check_id,
        "parameters": {key: str(value) for key, value in report.parameters.items()},
        "expected": values(report.expected),
        "actual": values(report.actual),
        "status": report.status,
    }


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = run_suite(args.suite, ring_max=args.n_max, **_sweep(args))
    failures = sum(1 for report in reports if report.status != "pass")
    payloads = [_report_payload(report) for report in reports]
    rows, lines = [], []
    for payload in payloads:
        params = _parameter_text(payload["parameters"])
        sides = (payload["expected"], payload["actual"])
        spaced = [" ".join(side) if isinstance(side, list) else side for side in sides]
        rows.append([payload["check_id"], params, *spaced, payload["status"]])
        line = f"{payload['status'].upper():4s} {payload['check_id']} {params}".rstrip()
        lines.append(line + _differing_classes(*sides))
    lines.append(f"{len(reports) - failures} of {len(reports)} checks passed")
    bounds = {
        "suite": args.suite,
        "k_max": args.k_max,
        "l_max": args.l_max,
        "primes": ",".join(map(str, args.primes)),
        "m_max": args.m_max,
        "n_max": args.n_max,
    }
    result = {"checks": str(len(reports)), "failures": str(failures), "reports": payloads}
    header = ["check_id", "parameters", "expected", "actual", "status"]
    _emit(args, bounds, result, header, rows, lines, free_text=True)
    if args.timings:
        _print_timings(reports)
    return 1 if failures else 0


def _differing_classes(expected: list[str] | str, actual: list[str] | str) -> str:
    """For a table line: the classes at which two tables of equal length differ."""
    if not (isinstance(expected, list) and isinstance(actual, list)) or expected == actual:
        return ""
    classes = [str(j) for j, (e, a) in enumerate(zip(expected, actual)) if e != a]
    return f" (classes {','.join(classes)} differ)" if len(expected) == len(actual) else ""


def _parameter_text(parameters: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in parameters.items())


def _print_timings(reports: list[CheckReport]) -> None:
    """Write to stderr the summed `elapsed` of each check id, largest first,
    and the ten slowest checks with their parameters.  stdout is untouched, so
    every format stays byte-reproducible."""
    totals: dict[str, list] = {}
    for report in reports:
        total = totals.setdefault(report.check_id, [0.0, 0])
        total[0] += report.elapsed
        total[1] += 1
    print("seconds  checks  check_id", file=sys.stderr)
    for check_id, (seconds, count) in sorted(totals.items(), key=lambda item: -item[1][0]):
        print(f"{seconds:9.6f}  {count:6d}  {check_id}", file=sys.stderr)
    print("slowest checks", file=sys.stderr)
    for report in sorted(reports, key=lambda report: -report.elapsed)[:10]:
        line = f"{report.elapsed:9.6f}  {report.check_id} {_parameter_text(report.parameters)}"
        print(line.rstrip(), file=sys.stderr)


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=FORMATS, default="table", help="output format (default: table)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfiber",
        description="Exact coefficient tables, orbit histograms, ring fiber counts, "
        "and identity verification.  Every command refuses (exit 3) work or output "
        "estimated past the cap QFIBER_MAX_ENUM, a positive integer (default 10^7).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coeffs = sub.add_parser("coeffs", help="coefficient vector for an m x n box")
    coeffs.add_argument("m", type=_nonneg, help="box width (max part size)")
    coeffs.add_argument("n", type=_nonneg, help="box height (max part count)")
    _add_format(coeffs)
    coeffs.set_defaults(handler=_cmd_coeffs, estimates=lambda a: _table_estimates(
        coefficient_work(a.m, a.n), a.m * a.n + 1, a.m + a.n, a.n))

    sums = sub.add_parser("residue-sums", help="coefficient sums per index class mod r")
    sums.add_argument("m", type=_nonneg, help="box width")
    sums.add_argument("n", type=_nonneg, help="box height")
    sums.add_argument("r", type=_positive, help="modulus")
    _add_format(sums)
    sums.set_defaults(handler=_cmd_residue_sums,
                      estimates=lambda a: _class_sum_estimates(a.m, a.n, a.r, a.r))

    fibers = sub.add_parser("fibers", help="gap-vector fiber sizes for a marked ring")
    fibers.add_argument("ring_size", metavar="N", type=_positive, help="ring size")
    fibers.add_argument("marked", metavar="r", type=_positive, help="marked nodes")
    _add_format(fibers)
    # the fibers are the class sums of the (N-r) x (r-1) box, reordered, and
    # their total C(N-1, r-1), which bounds each: r + 1 numbers
    fibers.set_defaults(handler=_cmd_fibers, estimates=lambda a: _class_sum_estimates(
        a.ring_size - a.marked, a.marked - 1, a.marked, a.marked + 1))

    orb = sub.add_parser("orbits", help="orbit-size histogram of step sequences")
    orb.add_argument("k", type=_nonneg)
    orb.add_argument("l", type=_positive)
    orb.add_argument("group", choices=GROUPS)
    _add_format(orb)
    orb.set_defaults(handler=_cmd_orbits, estimates=_orbits_estimates)

    ver = sub.add_parser("verify", help="run an identity suite")
    ver.add_argument("suite", choices=SUITES)
    ver.add_argument("--k-max", type=_positive, default=DEFAULT_KL_BOUND)
    ver.add_argument("--l-max", type=_positive, default=DEFAULT_KL_BOUND)
    ver.add_argument(
        "--primes", type=_prime_list, default=DEFAULT_PRIMES, help="comma-separated odd primes"
    )
    ver.add_argument("--m-max", type=_positive, default=DEFAULT_MULTIPLIER_BOUND)
    ver.add_argument("--n-max", type=_positive, default=DEFAULT_RING_BOUND)
    ver.add_argument(
        "--timings",
        action="store_true",
        help="write the time per check id and the ten slowest checks to stderr",
    )
    _add_format(ver)
    ver.set_defaults(handler=_cmd_verify, estimates=_verify_estimates)

    # `_validate` reports its errors under the chosen command's usage
    for command in sub.choices.values():
        command.set_defaults(command_parser=command)
    return parser


# The parser `main` uses, built on its first call.  No handler writes to it.
_shared_parser = functools.cache(build_parser)


def _validate(args: argparse.Namespace) -> None:
    """The argument checks argparse cannot make, as usage errors of the chosen
    command.  --primes is tested only once the cap admits the test's work."""
    parser = args.command_parser
    # the cap, read afresh on every call: QFIBER_MAX_ENUM, else 10^7
    env = os.environ.get("QFIBER_MAX_ENUM")
    try:
        args.max_enum = DEFAULT_ENUMERATION_CAP if env is None else _positive(env)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"QFIBER_MAX_ENUM: {exc}")
    if args.command == "fibers" and args.marked > args.ring_size:
        parser.error(f"r={args.marked} must not exceed N={args.ring_size}")
    if args.command == "verify":
        steps = sum(isqrt(p) for p in args.primes if p >= 2)  # bounds is_prime's divisions
        _admit([(steps, f"{steps} trial divisions for --primes exceed")], args.max_enum)
        try:
            _validate_primes(args.primes)
        except ValueError as exc:
            parser.error(f"argument --primes: {exc}")
        if args.suite in ("main1", "all") and (args.k_max < 2 or args.l_max < 2):
            parser.error("--k-max and --l-max must be at least 2")
        if args.suite in ("fibrations", "all") and args.n_max < 3:
            parser.error("--n-max must be at least 3")


def main(argv: list[str] | None = None) -> int:
    # The caps bound output size.  Python 3.10.7 and later also limit int <-> str
    # digits: lifted for the command, the caller's limit is restored however it ends.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args, extra = _shared_parser().parse_known_args(argv)
        if extra:  # under the usage of the command given, not the top-level one
            args.command_parser.error(f"unrecognized arguments: {' '.join(extra)}")
        _validate(args)
        _admit(args.estimates(args), args.max_enum)
        return args.handler(args)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
