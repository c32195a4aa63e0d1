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
exit status 1.  A reader of stdout that goes away early ends the command
with exit 1 and nothing on stderr.  Machine formats (json, csv) serialize every integer as a
decimal string; Python's limit on the digits of an int converted to or
from a string is lifted for the duration of `main`, and the output size is
capped instead.
The cap is the environment variable QFIBER_MAX_ENUM, else 10^7, for every
command.  It is this module's alone, and so is EnumerationCapError: the
library routes take no cap.  Before a handler computes anything, `_admit`
refuses (exit 3) at the first of its command's `estimates` past the cap.
`verify --timings` writes the time per check id and the ten slowest checks
to stderr.

A handler computes its whole table, or all its reports, before it writes a
byte, then hands `_emit` one sequence of items: ints for the number tables,
(size, count) pairs for `orbits`, CheckReports for `verify`.  `fibers`
computes the closed form's few distinct values first, and its r entries are
lookups made as they are written, so its table is never held.  Every format,
`verify`'s included, is written in batches of CSV_BATCH_ROWS items, each
item made text only inside its batch, so no command holds its output as
text.  JSON is the record encoded once with its item array empty, split
there, and the items written between; each report is encoded on its own.
`verify` keeps `csv.writer` for its rows, whose texts may hold commas and
quotes; the number tables' fields need no quoting.

Each command is described once, in `_COMMANDS`, and an argv takes one of
two routes.  `_read_direct` reads a well-formed one without argparse: a
command, exactly its positionals, then any of its options, each at most
once, as its exact name and a value not starting with "-", or the bare
`--timings`; every value goes through argparse's converter and choices.
Every other argv goes to argparse: help, `--`, `--opt=value`, an
abbreviation, a repeated option, an option first, an unknown or missing
token, and every value argparse refuses.  So argparse alone accepts what
only it accepts, writes help and makes usage errors, `_validate`'s
included.  Its parsers, the top-level one and one per command, are built
from the same table on the first call that needs them and reused after:
the build takes 2-3 ms, plus 1-2 ms for the `locale` module, which
argparse's gettext imports for its message strings on the first parser
built.  A well-formed command spends about 5-8 us in `_read_direct`
instead (Python 3.11, 2 cores), builds no parser and imports no `locale`.
Nothing is built at import, and `build_parser` returns a new parser on
every call.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from itertools import chain, islice
from math import comb, gcd, isqrt, log, log1p, pi
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn

from .heisenberg import delta_fiber_sizes_closed_form
from .qbinomial import (
    _divisor_table,
    coefficient_work,
    gaussian_coefficients,
    residue_sums,
    residue_sums_work,
)
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


# Item texts made, joined and written together by `_emit`, so no format
# holds more than one batch of a command's output.
CSV_BATCH_ROWS = 4096
# The one JSON encoder, compact and key-sorted, for records and reports alike.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _emit(args: argparse.Namespace, parameters: dict, fields: dict, key: str, texts: tuple) -> None:
    """Write one command's output from `texts`: an iterator of item texts,
    the separator between two, and the texts before and after them, all made
    for `args.format` by `_numbers`, `_pairs` or `_reports`.  The item texts
    are drawn, joined and written CSV_BATCH_ROWS at a time, so each is made
    only inside its batch; none is empty, so a joined batch is empty only once
    they are exhausted.  In JSON the items are the result's array `key`,
    beside its fixed `fields`, in the record of the parameters (stringified):
    the record is encoded with that array empty and split there."""
    items, sep, start, end = texts
    if args.format == "json":
        record = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "parameters": {name: str(value) for name, value in parameters.items()},
            "result": {**fields, key: []},
        }
        text = _ENCODE(record)
        # the only `"key":[]`, as a string value escapes its quotes
        head, _, tail = text.partition(f'"{key}":[]')
        start, end = f'{head}"{key}":[{start}', f"{end}]{tail}\n"
    write = sys.stdout.write
    write(start)
    lead = ""
    while batch := sep.join(islice(items, CSV_BATCH_ROWS)):
        write(lead + batch)
        lead = sep
    write(end)


def _pairs(fmt: str, pairs: Iterable[tuple], header: list[str], total: int | None = None) -> tuple:
    """Rows of two ints: JSON arrays ["a","b"], or a CSV row "a,b" each under
    `header`, or a line "a b" each, then the `total` row or line, if any.  The
    fields need no quoting, so the CSV is the bytes of `csv.writer`."""
    if fmt == "json":
        return map('["%s","%s"]'.__mod__, pairs), ",", "", ""
    rows = pairs if total is None else chain(pairs, [("total", total)])
    if fmt == "csv":
        return map("%s,%s\n".__mod__, rows), "", f"{','.join(header)}\n", ""
    return map("%s %s\n".__mod__, rows), "", "", ""


def _numbers(fmt: str, values: Iterable[int], header: list[str], total: int | None = None) -> tuple:
    """A table of ints, never empty, read once: JSON strings, joined by '","'
    inside one pair of quotes, as decimal digits need no escaping; or in CSV
    a row each with its index, as `_pairs` writes it; or one line of them;
    then the `total` row or line, if any."""
    if fmt == "json":
        return map(str, values), '","', '"', '"'
    if fmt == "csv":
        return _pairs(fmt, enumerate(values), header, total)
    return map(str, values), " ", "", "\n" if total is None else f"\ntotal {total}\n"


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


def _class_sum_estimates(m: int, n: int, r: int) -> Estimates:
    """The r class sums mod r of the m x n box, after the lower bound 2r on
    their work, so a huge r is never factored."""
    yield 2 * r, f"estimated work of {2 * r} exceeds"
    yield from _table_estimates(residue_sums_work(m, n, r), r, m + n, n)


def _fibers_estimates(args: argparse.Namespace) -> Estimates:
    """The closed form's work after its lower bound 2r, so no huge gcd is
    factored: r gcds and lookups, and tau(g)^2 divisor terms, g = gcd(N, r).
    Then its output: the r fibers and their total C(N-1, r-1), which bounds
    each, r + 1 numbers."""
    n, r = args.N, args.r
    yield 2 * r, f"estimated work of {2 * r} exceeds"
    work = 2 * r + len(_divisor_table(gcd(n, r))) ** 2
    yield from _table_estimates(work, r + 1, n - 1, r - 1)


def _orbits_estimates(args: argparse.Namespace) -> Estimates:
    k, l, cap = args.k, args.l, args.max_enum
    top, bottom = k + l - 1, l - 1
    # the step sequences enumeration would build, not multiplied out once its
    # digit estimate, at most one over, passes the cap's digits by two
    past = _binomial_digits(top, bottom) > len(str(cap)) + 1
    text = f"C({top}, {bottom}) step sequences for (k={k}, l={l}) exceed"
    yield (cap + 1 if past else comb(top, bottom)), text
    # At k = 0 every group answers {1: 1} at once.  For k >= 1 that count, at
    # least l, bounds l, so factoring l takes at most isqrt(cap) trial
    # divisions; the units route then builds an l-bit mask of the units
    # = 1 (mod d) for each of the tau(l) divisors d of l, tau(l)*l bits,
    # which tau(l)*phi(l) charges within a factor of l/phi(l).  The candidate
    # stabilizers it ands with those masks are not counted.
    if args.group == "units" and k:
        table = _divisor_table(l)
        residues = len(table) * table[l][1]
        yield residues, f"{residues} unit residues (tau(l)*phi(l)) for (k={k}, l={l}) exceed"


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
    texts = _numbers(args.format, gaussian_coefficients(m, n), ["index", "coefficient"])
    _emit(args, {"m": m, "n": n}, {}, "coeffs", texts)
    return 0


def _cmd_residue_sums(args: argparse.Namespace) -> int:
    m, n, r = args.m, args.n, args.r
    texts = _numbers(args.format, residue_sums(m, n, r), ["residue", "sum"])
    _emit(args, {"m": m, "n": n, "r": r}, {}, "sums", texts)
    return 0


def _cmd_fibers(args: argparse.Namespace) -> int:
    n, r = args.N, args.r
    sizes = delta_fiber_sizes_closed_form(n, r)
    total = comb(n - 1, r - 1)
    texts = _numbers(args.format, sizes, ["class", "cardinality"], total)
    _emit(args, {"N": n, "r": r}, {"total": str(total)}, "sizes", texts)
    return 0


def _cmd_orbits(args: argparse.Namespace) -> int:
    k, l = args.k, args.l
    sizes = orbit_histogram(k, l, args.group)
    total = comb(k + l - 1, l - 1)
    texts = _pairs(args.format, sizes.items(), ["orbit_size", "orbit_count"], total)
    parameters = {"k": k, "l": l, "group": args.group}
    _emit(args, parameters, {"total_sequences": str(total)}, "histogram", texts)
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


def _report_row(payload: dict) -> list[str]:
    """A CSV row, with the two sides' tables spaced."""
    sides = (payload["expected"], payload["actual"])
    spaced = [" ".join(side) if isinstance(side, list) else side for side in sides]
    return [payload["check_id"], _parameter_text(payload["parameters"]), *spaced, payload["status"]]


def _report_line(payload: dict) -> str:
    """A table line, which names the classes at which two tables of equal
    length differ."""
    params = _parameter_text(payload["parameters"])
    line = f"{payload['status'].upper():4s} {payload['check_id']} {params}".rstrip()
    expected, actual = payload["expected"], payload["actual"]
    if (isinstance(expected, list) and isinstance(actual, list)
            and len(expected) == len(actual) and expected != actual):
        classes = [str(j) for j, (e, a) in enumerate(zip(expected, actual)) if e != a]
        line += f" (classes {','.join(classes)} differ)"
    return line + "\n"


def _reports(fmt: str, reports: list[CheckReport], failures: int) -> tuple:
    """The reports' JSON objects; or a CSV row each under a header, quoted by
    `csv.writer`, as their texts may hold commas and quotes; or a line each,
    then how many passed."""
    payloads = map(_report_payload, reports)
    if fmt == "json":
        return map(_ENCODE, payloads), ",", "", ""
    if fmt == "csv":
        # `writerow` returns what the file's `write` returns: here the row's text
        row = csv.writer(argparse.Namespace(write=str), lineterminator="\n").writerow
        header = row(["check_id", "parameters", "expected", "actual", "status"])
        return map(row, map(_report_row, payloads)), "", header, ""
    summary = f"{len(reports) - failures} of {len(reports)} checks passed\n"
    return map(_report_line, payloads), "", "", summary


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = run_suite(args.suite, ring_max=args.n_max, **_sweep(args))
    failures = sum(1 for report in reports if report.status != "pass")
    bounds = {
        "suite": args.suite,
        "k_max": args.k_max,
        "l_max": args.l_max,
        "primes": ",".join(map(str, args.primes)),
        "m_max": args.m_max,
        "n_max": args.n_max,
    }
    fields = {"checks": str(len(reports)), "failures": str(failures)}
    _emit(args, bounds, fields, "reports", _reports(args.format, reports, failures))
    if args.timings:
        _print_timings(reports)
    return 1 if failures else 0


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


class _Arg(NamedTuple):
    """One argument of a command: a positional by its dest, an option by its
    name.  `convert` and `choices` are argparse's `type` and `choices`; `flag`
    makes a bare store_true option."""

    name: str
    help: str | None = None
    convert: Callable[[str], object] | None = None
    choices: tuple[str, ...] | None = None
    default: object = None
    flag: bool = False

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


class _Command(NamedTuple):
    """One command: the source of both its argparse parser and `_read_direct`."""

    help: str
    positionals: tuple[_Arg, ...]
    options: dict[str, _Arg]  # by name
    handler: Callable[[argparse.Namespace], int]
    estimates: Callable[[argparse.Namespace], Estimates]


_FORMAT = _Arg("--format", "output format (default: table)", choices=FORMATS, default="table")


def _options(*options: _Arg) -> dict[str, _Arg]:
    """A command's options by name: its own, then --format."""
    return {option.name: option for option in (*options, _FORMAT)}


_COMMANDS = {
    "coeffs": _Command(
        "coefficient vector for an m x n box",
        (_Arg("m", "box width (max part size)", _nonneg),
         _Arg("n", "box height (max part count)", _nonneg)),
        _options(),
        _cmd_coeffs,
        lambda a: _table_estimates(coefficient_work(a.m, a.n), a.m * a.n + 1, a.m + a.n, a.n),
    ),
    "residue-sums": _Command(
        "coefficient sums per index class mod r",
        (_Arg("m", "box width", _nonneg), _Arg("n", "box height", _nonneg),
         _Arg("r", "modulus", _positive)),
        _options(),
        _cmd_residue_sums,
        lambda a: _class_sum_estimates(a.m, a.n, a.r),
    ),
    "fibers": _Command(
        "gap-vector fiber sizes for a marked ring",
        (_Arg("N", "ring size", _positive), _Arg("r", "marked nodes", _positive)),
        _options(),
        _cmd_fibers,
        _fibers_estimates,
    ),
    "orbits": _Command(
        "orbit-size histogram of step sequences",
        (_Arg("k", convert=_nonneg), _Arg("l", convert=_positive),
         _Arg("group", choices=GROUPS)),
        _options(),
        _cmd_orbits,
        _orbits_estimates,
    ),
    "verify": _Command(
        "run an identity suite",
        (_Arg("suite", choices=SUITES),),
        _options(
            _Arg("--k-max", convert=_positive, default=DEFAULT_KL_BOUND),
            _Arg("--l-max", convert=_positive, default=DEFAULT_KL_BOUND),
            _Arg("--primes", "comma-separated odd primes", _prime_list, default=DEFAULT_PRIMES),
            _Arg("--m-max", convert=_positive, default=DEFAULT_MULTIPLIER_BOUND),
            _Arg("--n-max", convert=_positive, default=DEFAULT_RING_BOUND),
            _Arg("--timings", "write the time per check id and the ten slowest checks to stderr",
                 flag=True),
        ),
        _cmd_verify,
        _verify_estimates,
    ),
}


def _read_value(arg: _Arg, text: str) -> object:
    """`text` converted and checked as argparse does for `arg`.  A text that
    starts with "-", which argparse may read as an option, raises ValueError,
    as does a value outside the choices."""
    if text.startswith("-"):
        raise ValueError(text)
    value = text if arg.convert is None else arg.convert(text)
    if arg.choices is not None and value not in arg.choices:
        raise ValueError(text)
    return value


def _read_direct(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace argparse gives a well-formed command line, read without
    argparse, else None.  Well formed is a command, exactly its positionals,
    then any of its options, each at most once: its exact name and a value
    that does not start with "-", or the bare flag.  Every value goes through
    argparse's converter and choices.  Anything else, help and every argument
    that argparse refuses included, is None and left to argparse."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    tokens = iter(argv[1:])
    values = {}
    try:
        for arg in command.positionals:
            values[arg.dest] = _read_value(arg, next(tokens, "-"))  # "-": too few
        for name in tokens:
            arg = command.options.get(name)
            if arg is None or arg.dest in values:
                return None
            values[arg.dest] = True if arg.flag else _read_value(arg, next(tokens, "-"))
    except (argparse.ArgumentTypeError, TypeError, ValueError):  # as argparse's own catch
        return None
    for arg in command.options.values():
        values.setdefault(arg.dest, False if arg.flag else arg.default)
    return argparse.Namespace(
        command=argv[0], handler=command.handler, estimates=command.estimates, **values)


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the whole command line on every call."""
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subparsers by command name, from `_COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="qfiber",
        description="Exact coefficient tables, orbit histograms, ring fiber counts, "
        "and identity verification.  Every command refuses (exit 3) work or output "
        "estimated past the cap QFIBER_MAX_ENUM, a positive integer (default 10^7).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help)
        for arg in (*command.positionals, *command.options.values()):
            if arg.flag:
                subparser.add_argument(arg.name, action="store_true", help=arg.help)
            else:
                subparser.add_argument(arg.name, type=arg.convert, choices=arg.choices,
                                       default=arg.default, help=arg.help)
        # `command` is set on every route of `main`
        subparser.set_defaults(command=name, handler=command.handler, estimates=command.estimates)
    return parser, sub.choices


# The argparse parsers `main` uses, built on the first call that needs them:
# help, a command line `_read_direct` leaves to argparse, or a usage error.
# No handler writes to them.
_shared_parser = functools.cache(_build_parsers)


def _usage_error(args: argparse.Namespace, message: str) -> NoReturn:
    """Exit 2 with `message` under the usage of the chosen command."""
    _shared_parser()[1][args.command].error(message)


def _parse(argv: list[str]) -> argparse.Namespace:
    """argparse's reading of argv."""
    args, extra = _shared_parser()[0].parse_known_args(argv)
    if extra:  # under the usage of the command given, not the top-level one
        _usage_error(args, f"unrecognized arguments: {' '.join(extra)}")
    return args


def _validate(args: argparse.Namespace) -> None:
    """The argument checks argparse cannot make, as usage errors of the chosen
    command.  --primes is tested only once the cap admits the test's work."""
    # the cap, read afresh on every call: QFIBER_MAX_ENUM, else 10^7
    env = os.environ.get("QFIBER_MAX_ENUM")
    try:
        args.max_enum = DEFAULT_ENUMERATION_CAP if env is None else _positive(env)
    except argparse.ArgumentTypeError as exc:
        _usage_error(args, f"QFIBER_MAX_ENUM: {exc}")
    if args.command == "fibers" and args.r > args.N:
        _usage_error(args, f"r={args.r} must not exceed N={args.N}")
    if args.command == "verify":
        steps = sum(isqrt(p) for p in args.primes if p >= 2)  # bounds is_prime's divisions
        _admit([(steps, f"{steps} trial divisions for --primes exceed")], args.max_enum)
        try:
            _validate_primes(args.primes)
        except ValueError as exc:
            _usage_error(args, f"argument --primes: {exc}")
        if args.suite in ("main1", "all") and (args.k_max < 2 or args.l_max < 2):
            _usage_error(args, "--k-max and --l-max must be at least 2")
        if args.suite in ("fibrations", "all") and args.n_max < 3:
            _usage_error(args, "--n-max must be at least 3")


def main(argv: list[str] | None = None) -> int:
    # The caps bound output size.  Python 3.10.7 and later also limit int <-> str
    # digits: lifted for the command, the caller's limit is restored however it ends.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _read_direct(argv)
        if args is None:
            args = _parse(argv)
        _validate(args)
        _admit(args.estimates(args), args.max_enum)
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader of stdout went away.  What is left in its buffer goes to
        # os.devnull, so the interpreter's flush at exit raises nothing more.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
