"""Tests for the command line interface: outputs, formats, exit codes."""

import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from math import comb, log10, sqrt
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import qfiber.cli as cli
import qfiber.heisenberg as heisenberg
import qfiber.qbinomial as qbinomial
import qfiber.verify as verify
from qfiber.cli import main
from qfiber.heisenberg import delta_fiber_sizes_via_partitions
from qfiber.qbinomial import coefficient_work, gaussian_coefficients, residue_sums
from qfiber.surjections import orbit_histogram
from qfiber.verify import CheckReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_expecting_exit(capsys, *argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_coeffs_table(capsys):
    code, out, _ = run(capsys, "coeffs", "2", "2")
    assert code == 0
    assert out == "1 1 2 1 1\n"


def test_coeffs_json(capsys):
    code, out, _ = run(capsys, "coeffs", "1", "1", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["schema_version"] == "1"
    assert record["command"] == "coeffs"
    assert record["result"]["coeffs"] == ["1", "1"]


def test_coeffs_csv(capsys):
    code, out, _ = run(capsys, "coeffs", "2", "2", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["index", "coefficient"]
    assert [row[1] for row in rows[1:]] == ["1", "1", "2", "1", "1"]


def test_coeffs_rejects_negative(capsys):
    code, _, err = run_expecting_exit(capsys, "coeffs", "-1", "2")
    assert code == 2
    assert "usage" in err


def test_json_round_trips_byte_for_byte(capsys):
    for argv in (
        ["coeffs", "3", "2", "--format", "json"],
        ["residue-sums", "3", "3", "4", "--format", "json"],
        ["fibers", "5", "2", "--format", "json"],
        ["orbits", "4", "3", "cyclic", "--format", "json"],
        ["verify", "counterexamples", "--format", "json"],
    ):
        _, out, _ = run(capsys, *argv)
        reencoded = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
        assert reencoded + "\n" == out


# Exact stdout per (command, format); the verify outputs by SHA-256 digest.
EXACT_OUTPUTS = {
    ("coeffs 3 2", "table"): "1 1 2 2 2 1 1\n",
    ("coeffs 3 2", "csv"): "index,coefficient\n0,1\n1,1\n2,2\n3,2\n4,2\n5,1\n6,1\n",
    ("coeffs 3 2", "json"): '{"command":"coeffs","parameters":{"m":"3","n":"2"},'
    '"result":{"coeffs":["1","1","2","2","2","1","1"]},"schema_version":"1"}\n',
    ("residue-sums 6 5 6", "table"): "80 75 78 76 78 75\n",
    ("residue-sums 6 5 6", "csv"): "residue,sum\n0,80\n1,75\n2,78\n3,76\n4,78\n5,75\n",
    ("residue-sums 6 5 6", "json"): '{"command":"residue-sums",'
    '"parameters":{"m":"6","n":"5","r":"6"},'
    '"result":{"sums":["80","75","78","76","78","75"]},"schema_version":"1"}\n',
    ("fibers 10 5", "table"): "26 25 25 25 25\ntotal 126\n",
    ("fibers 10 5", "csv"): "class,cardinality\n0,26\n1,25\n2,25\n3,25\n4,25\ntotal,126\n",
    ("fibers 10 5", "json"): '{"command":"fibers","parameters":{"N":"10","r":"5"},'
    '"result":{"sizes":["26","25","25","25","25"],"total":"126"},"schema_version":"1"}\n',
    ("orbits 6 6 units", "table"): "1 30\n2 216\ntotal 462\n",
    ("orbits 6 6 units", "csv"): "orbit_size,orbit_count\n1,30\n2,216\ntotal,462\n",
    ("orbits 6 6 units", "json"): '{"command":"orbits",'
    '"parameters":{"group":"units","k":"6","l":"6"},'
    '"result":{"histogram":[["1","30"],["2","216"]],"total_sequences":"462"},'
    '"schema_version":"1"}\n',
    ("verify counterexamples", "table"):
    "811ff3884f78f23336cd9ac5105780b7e67d6019383fed9c6028f527d20d6e57",
    ("verify counterexamples", "csv"):
    "7e52e50549d35aa821e584bb4e2914e0507af965c42d23cf4e08341acebbded9",
    ("verify counterexamples", "json"):
    "4aaa53cbc9fe87e0c5cf74a8ce8fdc470074323e9ee8d43742b45a17fbed606b",
}


@pytest.mark.parametrize("command, fmt", sorted(EXACT_OUTPUTS))
def test_output_is_byte_exact(capsys, command, fmt):
    code, out, _ = run(capsys, *command.split(), "--format", fmt)
    assert code == 0
    if command.startswith("verify"):
        out = hashlib.sha256(out.encode()).hexdigest()
    assert out == EXACT_OUTPUTS[command, fmt]


# SHA-256 of stdout at benchmark sizes, from the full (untruncated) kernel
COEFFS_DIGESTS = {
    "coeffs 70 70 --format csv":
    "5410f975992260ddf9b4b182578d97bdb999be042627ba0331c9dc7f047f2d54",
    "coeffs 71 40 --format json":
    "9b476a59c8d4469a5ba40810f8b68a29f0f41ebd1f4c70c3b01aabee653c9286",
    "coeffs 200 3":
    "d64e5577147222ed19e3f6110fdd1abba57422711902531cb81a31101cbe09d3",
}


@pytest.mark.parametrize("command", sorted(COEFFS_DIGESTS))
def test_coeffs_digest_at_benchmark_sizes(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COEFFS_DIGESTS[command]


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "counterexamples", "--format", "json")
    _, second, _ = run(capsys, "verify", "counterexamples", "--format", "json")
    assert first == second
    # the bounds echo the parsed primes, not their spelling
    argv = ["verify", "therm", "--m-max", "1", "--format", "json", "--primes"]
    _, spaced, _ = run(capsys, *argv, " 3, 5")
    _, plain, _ = run(capsys, *argv, "3,5")
    assert spaced == plain and '"primes":"3,5"' in plain


def test_residue_sums_examples(capsys):
    code, out, _ = run(capsys, "residue-sums", "3", "3", "4")
    assert code == 0 and out == "5 5 5 5\n"
    code, out, _ = run(capsys, "residue-sums", "6", "5", "6")
    assert code == 0 and out == "80 75 78 76 78 75\n"


def test_residue_sums_rejects_zero_modulus(capsys):
    code, _, err = run_expecting_exit(capsys, "residue-sums", "3", "3", "0")
    assert code == 2
    assert "usage" in err


def test_table_guards_refuse_before_computing(capsys):
    for argv, message in (
        # 10^13 classes: a MemoryError traceback without the guard; refused
        # on the lower bound 2r, before r is factored
        (["residue-sums", "3", "3", "10000000000000"], "estimated work of 20000000000000 "),
        # 10^9 product-formula additions: hours
        (["coeffs", "1000", "1000"], "estimated work of 1000000000 "),
        # the 500 x 499 box left at d = 1000 costs 1.2 * 10^8 additions
        (["residue-sums", "500", "499", "1000"], "estimated work of 1"),
        # 10^7 + 1 coefficients of 8 digits, and 2 sums of about 6 * 10^7 digits
        (["coeffs", "10000000", "1"], "estimated output of 80000008 digits"),
        (["residue-sums", "100000000", "100000000", "2"], "estimated output of"),
    ):
        started = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - started < 1, argv
        assert code == 3 and out == "", argv
        assert message in err and "exceeds the cap of 10000000" in err, (argv, err)


def test_table_guards_read_the_environment_cap(capsys, monkeypatch):
    # residue-sums 3 3 4: estimated work (1 + 1) * (1 + 2 + 4) + 1, for one
    # fold of the box left at d = 1; output 4 sums of 2 digits
    monkeypatch.setenv("QFIBER_MAX_ENUM", "14")
    code, _, err = run(capsys, "residue-sums", "3", "3", "4")
    assert code == 3 and "estimated work of 15 exceeds the cap of 14" in err
    monkeypatch.setenv("QFIBER_MAX_ENUM", "15")
    assert run(capsys, "residue-sums", "3", "3", "4")[:2] == (0, "5 5 5 5\n")
    # coeffs 3 2: work 3*2*2 = 12, output 7 coefficients of at most 2 digits
    monkeypatch.setenv("QFIBER_MAX_ENUM", "13")
    code, _, err = run(capsys, "coeffs", "3", "2")
    assert code == 3 and "estimated output of 14 digits exceeds the cap of 13" in err
    monkeypatch.setenv("QFIBER_MAX_ENUM", "14")
    assert run(capsys, "coeffs", "3", "2")[:2] == (0, "1 1 2 2 2 1 1\n")
    # residue-sums 999999999999999 1 1: one sum, C(10^15, 1), of 16 digits
    monkeypatch.setenv("QFIBER_MAX_ENUM", "15")
    code, out, err = run(capsys, "residue-sums", "999999999999999", "1", "1")
    assert code == 3 and out == ""
    assert "estimated output of 16 digits exceeds the cap of 15" in err


def test_coeffs_gate_keeps_the_full_product_count(monkeypatch):
    # the kernel does at most half of m*n*min(m, n) additions, but the gate
    # keeps the full count: tightening it would let coeffs 216 216 through
    def kernel(m, n):
        raise AssertionError("the gate ran the kernel")

    monkeypatch.setattr(cli, "gaussian_coefficients", kernel)
    assert coefficient_work(215, 215) == 215**3
    assert coefficient_work(216, 40) == 216 * 40 * 40

    def admit(side):
        args = cli.build_parser().parse_args(["coeffs", str(side), str(side)])
        cli._admit(args.estimates(args), cli.DEFAULT_ENUMERATION_CAP)

    admit(215)
    with pytest.raises(cli.EnumerationCapError, match="^estimated work of 10077696 exceeds"):
        admit(216)


def test_residue_sums_past_the_int_digit_limit(capsys):
    # both sums have about 4800 digits, past the default limit of 4300 for str(int)
    started = time.perf_counter()
    code, out, _ = run(capsys, "residue-sums", "8000", "8000", "2")
    assert time.perf_counter() - started < 5
    assert code == 0
    # the Gaussian binomial at q = 1 and at q = -1; `main` restores the limit
    # when it returns, so the test lifts it again to parse the sums
    total, alternating = comb(16000, 8000), comb(8000, 4000)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        sums = [int(s) for s in out.split()]
    finally:
        sys.set_int_max_str_digits(limit)
    assert sums == [(total + alternating) // 2, (total - alternating) // 2]
    # a 5001-digit side parses too: the m x 1 box with m = 10^5000 has m + 1 weights
    code, out, _ = run(capsys, "residue-sums", "1" + "0" * 5000, "1", "2")
    assert code == 0
    assert out == "5" + "0" * 4998 + "1 5" + "0" * 4999 + "\n"


def test_main_restores_the_int_digit_limit(capsys, monkeypatch):
    # the limit is lifted only while a command runs, however the command ends
    def broken(m, n):
        raise ZeroDivisionError("an internal failure")

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert run(capsys, "coeffs", "2", "2")[0] == 0
        assert sys.get_int_max_str_digits() == 5000
        assert run(capsys, "coeffs", "1000", "1000")[0] == 3
        assert sys.get_int_max_str_digits() == 5000
        for argv in (("coeffs", "-1", "2"), ("fibers", "2", "5")):
            assert run_expecting_exit(capsys, *argv)[0] == 2
            assert sys.get_int_max_str_digits() == 5000
        monkeypatch.setattr(cli, "gaussian_coefficients", broken)
        with pytest.raises(ZeroDivisionError):
            main(["coeffs", "2", "2"])
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)


def binomial_refused(top, bottom, cap):
    """Whether the gate refuses C(top, bottom) step sequences: the symmetric
    group adds no estimate of its own to `orbits`."""
    args = argparse.Namespace(k=top - bottom, l=bottom + 1, group="symmetric", max_enum=cap)
    try:
        cli._admit(cli._orbits_estimates(args), cap)
    except cli.EnumerationCapError:
        return True
    return False


def test_binomial_exceeds_matches_comb():
    for top in range(60):
        for bottom in range(top + 1):
            value = comb(top, bottom)
            for cap in (-5, 0, 1, 2, value - 1, value, value + 1, 2 * value, 10**7):
                assert binomial_refused(top, bottom, cap) == (value > cap)
    # C(2999999, 999999) has about 829,000 digits; its digit estimate refuses it
    started = time.perf_counter()
    assert binomial_refused(2999999, 999999, 10**7)
    assert binomial_refused(29999999, 9999999, 10**7)
    assert not binomial_refused(29999999, 29999998, 10**8)
    assert time.perf_counter() - started < 0.01


def test_binomial_digit_estimate_is_never_short():
    # every C(top, b) below 700 by Pascal's rule, and the powers of ten
    # C(10^j, 1), whose log10 is an integer, so an estimate a little low loses a digit
    row = [1]
    for top in range(700):
        for b, value in enumerate(row):
            digits = len(str(value))
            assert digits <= cli._binomial_digits(top, b) <= digits + 1, (top, b)
        row = [1] + [x + y for x, y in zip(row, row[1:])] + [1]
    for j in range(15):
        assert j + 1 <= cli._binomial_digits(10**j, 1) <= j + 2, j
    # tops from 10^15 on, where (top/k)^k is a digit short at C(10^15, 1)
    for j in range(15, 41):
        for b in range(1, 51):
            digits = len(str(comb(10**j, b)))
            assert digits <= cli._binomial_digits(10**j, b) <= digits + 1, (j, b)
    # k past 2^64, where 3k/10 digits is short: C(2k, k) >= 4^k / (2 sqrt(k))
    k = 2**65
    assert cli._binomial_digits(2 * k, k) >= k * log10(4) - log10(2 * sqrt(k))
    # every float stays in range at 10^400, for any k
    for b in (1, 50, 10**200, 10**400 // 2, 10**400 - 1):
        assert cli._binomial_digits(10**400, b) > 0


def test_fibers_table(capsys):
    code, out, _ = run(capsys, "fibers", "5", "2")
    assert code == 0
    assert out == "2 2\ntotal 4\n"
    code, out, _ = run(capsys, "fibers", "3", "3")
    assert out.splitlines()[0] == "1 0 0"


def test_fibers_rejects_marked_above_ring(capsys):
    code, _, err = run_expecting_exit(capsys, "fibers", "2", "5")
    assert code == 2
    assert "usage" in err


def test_formats_carry_identical_numbers(capsys):
    _, table, _ = run(capsys, "fibers", "10", "5")
    _, as_csv, _ = run(capsys, "fibers", "10", "5", "--format", "csv")
    _, as_json, _ = run(capsys, "fibers", "10", "5", "--format", "json")
    table_values = table.split()[:5]
    csv_rows = parse_csv(as_csv)
    csv_values = [row[1] for row in csv_rows[1:6]]
    json_values = json.loads(as_json)["result"]["sizes"]
    assert table_values == csv_values == json_values == ["26", "25", "25", "25", "25"]
    assert table.split()[-1] == csv_rows[-1][1] == json.loads(as_json)["result"]["total"]


def test_orbits_histograms(capsys):
    code, out, _ = run(capsys, "orbits", "5", "3", "cyclic")
    assert code == 0
    assert out == "3 7\ntotal 21\n"
    code, out, _ = run(capsys, "orbits", "0", "1", "cyclic")
    assert code == 0
    assert out == "1 1\ntotal 1\n"
    code, out, _ = run(capsys, "orbits", "6", "6", "units")
    assert code == 0
    assert out == "1 30\n2 216\ntotal 462\n"


def test_orbits_rejects_unknown_group(capsys):
    code, _, err = run_expecting_exit(capsys, "orbits", "3", "2", "dihedral")
    assert code == 2
    assert "usage" in err


def test_orbits_at_k_zero_is_admitted_at_any_l(capsys, monkeypatch):
    # every group answers {1: 1} at once, so only the count C(l-1, l-1) = 1 is charged
    monkeypatch.setenv("QFIBER_MAX_ENUM", "1")
    for group in ("cyclic", "units", "symmetric"):
        started = time.perf_counter()
        result = run(capsys, "orbits", "0", "1000000000000000003", group)
        assert time.perf_counter() - started < 1
        assert result == (0, "1 1\ntotal 1\n", "")
    # so is l = 1, at any k: its one step sequence is C(k, 0) = 1
    monkeypatch.setenv("QFIBER_MAX_ENUM", "10")
    for k in ("1000000", str(10**30)):
        for group in ("cyclic", "units", "symmetric"):
            started = time.perf_counter()
            result = run(capsys, "orbits", k, "1", group)
            assert time.perf_counter() - started < 1
            assert result == (0, "1 1\ntotal 1\n", "")


def test_orbits_cap_via_env(capsys, monkeypatch):
    monkeypatch.delenv("QFIBER_MAX_ENUM", raising=False)
    # the binomial count is named, not printed: its ~8000 digits exceed str()'s limit
    code, _, err = run(capsys, "orbits", "20000", "10000", "cyclic")
    assert code == 3
    assert "cap" in err
    # C(2999999, 999999) has about 829,000 digits; the guard does not compute it
    for k, l in (("2000000", "1000000"), ("20000000", "10000000")):
        started = time.perf_counter()
        code, out, err = run(capsys, "orbits", k, l, "cyclic")
        assert time.perf_counter() - started < 1
        assert code == 3 and out == ""
        assert "step sequences for (k=" in err and "exceed the cap of 10000000" in err
    monkeypatch.setenv("QFIBER_MAX_ENUM", "10")
    code, _, err = run(capsys, "orbits", "10", "10", "cyclic")
    assert code == 3
    assert "cap" in err
    monkeypatch.setenv("QFIBER_MAX_ENUM", "100000")
    code, out, _ = run(capsys, "orbits", "10", "10", "cyclic")
    assert code == 0 and out.endswith("total 92378\n")
    monkeypatch.setenv("QFIBER_MAX_ENUM", "not-a-number")
    code, _, err = run_expecting_exit(capsys, "orbits", "10", "10", "cyclic")
    assert code == 2


def test_fibers_cap_exit(capsys, monkeypatch):
    monkeypatch.setenv("QFIBER_MAX_ENUM", "5")
    code, _, err = run(capsys, "fibers", "12", "6")
    assert code == 3
    assert "cap" in err
    # the binomial count is named, not printed: its ~6000 digits exceed str()'s limit
    code, _, err = run(capsys, "fibers", "20000", "10000")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_fibers_writes_nothing_before_a_failed_division(capsys, monkeypatch, fmt):
    # the route's d = 1 binomial off by one: its values are computed, and the
    # division by r fails, before the first byte of the table is written
    monkeypatch.setattr(heisenberg, "comb", lambda top, bottom: comb(top, bottom) + (top == 11))
    with pytest.raises(ArithmeticError, match="is not divisible by 6"):
        main(["fibers", "12", "6", "--format", fmt])
    assert capsys.readouterr().out == ""


def test_fibers_past_the_cap_does_not_enumerate(capsys):
    # C(99999, 99998) = 99,999 gap vectors pass the cap; enumerating them
    # builds 10^5 tuples of about 10^5 cuts each
    started = time.perf_counter()
    code, out, _ = run(capsys, "fibers", "100000", "99999")
    assert time.perf_counter() - started < 5
    assert code == 0
    assert out.endswith("\ntotal 99999\n")
    assert out.split("\n")[0] == " ".join(["1"] * 99999)


@pytest.mark.parametrize("argv, n", [
    (("residue-sums", "6", "5", "12"), 12), (("fibers", "30", "15"), 15),
    (("orbits", "8", "8", "units"), 8),
])
def test_each_command_builds_its_divisor_table_once(capsys, monkeypatch, argv, n):
    # the gate and the route read one table, and no caller can change it
    qbinomial._divisor_table(1)
    walks = []
    prime_powers = qbinomial._prime_powers
    monkeypatch.setattr(qbinomial, "_prime_powers", lambda m: walks.append(m) or prime_powers(m))
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert walks == [n]
    table = qbinomial._divisor_table(n)
    assert walks == [n]
    with pytest.raises(TypeError):
        table[1] = (0, 0)


def test_fibers_guard_estimates_the_class_sum_work(capsys, monkeypatch):
    # C(29, 14) = 77,558,760 gap vectors, but the q-Lucas work is 3 * 24 + (1 + 2 + 2 + 4)
    code, out, _ = run(capsys, "fibers", "30", "15")
    assert code == 0
    sizes, total = out.splitlines()
    assert sizes == (
        "5170604 5170575 5170575 5170600 5170575 5170578 5170600 5170575 "
        "5170575 5170600 5170578 5170575 5170600 5170575 5170575")
    assert total == f"total {comb(29, 14)}" == f"total {sum(map(int, sizes.split()))}"
    tables, estimates = [], []
    route, divisor_table = cli.delta_fiber_sizes_closed_form, cli._divisor_table
    monkeypatch.setattr(
        cli, "delta_fiber_sizes_closed_form", lambda *a: tables.append(a) or route(*a))
    monkeypatch.setattr(
        cli, "_divisor_table", lambda *a: estimates.append(a) or divisor_table(*a))

    # the single gap vector (1, ..., 1) has cuts 1, ..., r-1, in class r(r-1)/2 mod r
    def one_gap_vector(r):
        sizes = ["0"] * r
        sizes[r * (r - 1) // 2 % r] = "1"
        return " ".join(sizes) + "\ntotal 1\n"

    # the closed form's work is 2r + tau(g)^2, g = gcd(N, r): 720720 has 240
    # divisors, so 1,441,440 + 57,600 is below the cap
    started = time.perf_counter()
    code, out, err = run(capsys, "fibers", "720720", "720720")
    assert time.perf_counter() - started < 1
    assert (code, out, err) == (0, one_gap_vector(720720), "")
    assert tables == [(720720, 720720)] and estimates == [(720720,)]
    # past the lower bound 2r, r is not factored
    code, out, err = run(capsys, "fibers", "5000001", "5000001")
    assert code == 3 and out == ""
    assert "estimated work of 10000002 exceeds the cap of 10000000" in err
    assert tables == [(720720, 720720)] and estimates == [(720720,)]
    # 2 * 3000 + tau(3000)^2 is far below the cap, and the table takes milliseconds
    code, out, _ = run(capsys, "fibers", "3000", "3000")
    assert (code, out) == (0, one_gap_vector(3000))
    assert tables[-1] == (3000, 3000) and estimates[-1] == (3000,)
    started = time.perf_counter()
    code, out, _ = run(capsys, "fibers", "1000000", "1000000")
    assert time.perf_counter() - started < 2
    assert (code, out) == (0, one_gap_vector(1000000))
    # fibers 100 3: work 2 * (1 + 3) + 1, output 3 fibers and their total, each
    # of at most 4 digits (C(99, 2) = 4851)
    monkeypatch.setenv("QFIBER_MAX_ENUM", "15")
    code, _, err = run(capsys, "fibers", "100", "3")
    assert code == 3 and "estimated output of 16 digits exceeds the cap of 15" in err
    assert tables[-1] != (100, 3)
    monkeypatch.setenv("QFIBER_MAX_ENUM", "16")
    code, out, _ = run(capsys, "fibers", "100", "3")
    assert (code, out) == (0, "1617 1617 1617\ntotal 4851\n")
    assert tables[-1] == (100, 3)
    # fibers 100001 2: 2 fibers and the total 100000, 3 numbers of at most 6 digits
    monkeypatch.setenv("QFIBER_MAX_ENUM", "17")
    code, out, err = run(capsys, "fibers", "100001", "2")
    assert (code, out) == (3, "") and "estimated output of 18 digits exceeds the cap of 17" in err
    monkeypatch.setenv("QFIBER_MAX_ENUM", "18")
    code, out, _ = run(capsys, "fibers", "100001", "2")
    assert (code, out) == (0, "50000 50000\ntotal 100000\n")


def test_verify_counterexamples_pass(capsys):
    code, out, _ = run(capsys, "verify", "counterexamples")
    assert code == 0
    assert "7 of 7 checks passed" in out
    assert "FAIL" not in out


def test_verify_small_all_pass(capsys):
    code, out, _ = run(
        capsys,
        "verify", "all",
        "--k-max", "5", "--l-max", "5", "--primes", "3", "--m-max", "1", "--n-max", "5",
    )
    assert code == 0


def test_verify_all_default_bounds_pass(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "82e9a4556a366e14f8e09a62a61b7ff7368ca8c9c0efff3dd7eb020764f02307")
    summary = out.strip().splitlines()[-1]
    total = int(summary.split()[0])
    assert f"{total} of {total} checks passed" == summary
    assert total > 1500


def test_verify_work_guard_exits_before_any_suite(capsys, monkeypatch):
    suites_run = []
    monkeypatch.setattr(cli, "run_suite", lambda suite, **bounds: suites_run.append(suite) or [])
    # (n-1) * 2^n + 1 covering points: 9437185 at 19, 19922945 at 20, cap 10^7
    for suite in ("fibrations", "all"):
        for n_max in ("20", "40", "1000000000"):
            started = time.perf_counter()
            code, out, err = run(capsys, "verify", suite, "--n-max", n_max)
            assert time.perf_counter() - started < 1
            assert code == 3 and out == ""
            assert f"2^{n_max} + 1 covering points for --n-max {n_max} exceed the cap" in err
    assert suites_run == []
    code, _, _ = run(capsys, "verify", "fibrations", "--n-max", "19")
    assert code == 0 and suites_run == ["fibrations"]
    # other suites do no covering round trip, so --n-max does not bound them
    code, _, _ = run(capsys, "verify", "main1", "--n-max", "40")
    assert code == 0 and suites_run == ["fibrations", "main1"]
    # the cap comes from QFIBER_MAX_ENUM as for the enumerating commands
    monkeypatch.setenv("QFIBER_MAX_ENUM", "212992")
    code, _, err = run(capsys, "verify", "fibrations")
    assert code == 3 and "13*2^14 + 1 covering points" in err
    monkeypatch.setenv("QFIBER_MAX_ENUM", "212993")
    code, _, _ = run(capsys, "verify", "fibrations")
    assert code == 0 and suites_run[-1] == "fibrations"


def test_verify_suite_work_guard_exits_before_any_suite(capsys, monkeypatch):
    suites_run = []
    monkeypatch.setattr(cli, "run_suite", lambda suite, **bounds: suites_run.append(suite) or [])
    # each of these would build product-formula vectors for seconds to hours
    for argv in (
        ["therm", "--primes", "101", "--m-max", "1"],
        ["thmp", "--primes", "47"],
        ["main1", "--k-max", "1000000000", "--l-max", "3"],
        ["all", "--m-max", "100"],
    ):
        started = time.perf_counter()
        code, out, err = run(capsys, "verify", *argv)
        assert time.perf_counter() - started < 1, argv
        assert code == 3 and out == "", argv
        assert f"for verify {argv[0]} exceeds the cap of 10000000" in err, (argv, err)
    assert suites_run == []
    # therm at --primes 101 --m-max 1: 201 * (338350 + 5050) + 2 * 10200
    code, _, err = run(capsys, "verify", "therm", "--primes", "101", "--m-max", "1")
    assert "estimated work of 69043800 " in err
    monkeypatch.setenv("QFIBER_MAX_ENUM", "69043800")
    code, _, _ = run(capsys, "verify", "therm", "--primes", "101", "--m-max", "1")
    assert code == 0 and suites_run == ["therm"]
    # the default bounds pass with room to spare; the covering points are checked first
    assert cli.suite_work("all") < 10**7 // 3
    monkeypatch.setenv("QFIBER_MAX_ENUM", "1000")
    code, _, err = run(capsys, "verify", "all")
    assert code == 3 and "covering points" in err


def test_verify_timings_go_to_stderr_only(capsys, monkeypatch):
    argv = ["verify", "counterexamples", "--format", "json"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert run(capsys, *argv, "--timings")[:2] == (0, out)
    reports = [
        CheckReport(f"check-{i % 3}", {"i": i}, 0, 0, "pass", i / 1000) for i in range(1, 13)]
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: reports)
    code, out, err = run(capsys, "verify", "counterexamples", "--timings")
    assert code == 0 and out.endswith("12 of 12 checks passed\n")
    assert err.splitlines() == [
        "seconds  checks  check_id",
        " 0.030000       4  check-0",
        " 0.026000       4  check-2",
        " 0.022000       4  check-1",
        "slowest checks",
        *(f" 0.{i:03d}000  check-{i % 3} i={i}" for i in range(12, 2, -1)),
    ]


def test_verify_rejects_small_bounds(capsys):
    code, _, err = run_expecting_exit(capsys, "verify", "main1", "--k-max", "1")
    assert code == 2
    assert "usage" in err


def test_validation_errors_print_the_command_usage(capsys, monkeypatch):
    # as argparse does for its own errors, not the top-level usage
    for argv, env, message in (
        (["fibers", "3", "5"], None, "qfiber fibers: error: r=5 must not exceed N=3"),
        (["coeffs", "2", "2"], "0", "qfiber coeffs: error: QFIBER_MAX_ENUM: '0' must be positive"),
        (["verify", "main1", "--k-max", "1"], None,
         "qfiber verify: error: --k-max and --l-max must be at least 2"),
        (["verify", "all", "--n-max", "2"], None,
         "qfiber verify: error: --n-max must be at least 3"),
        (["coeffs", "3", "3", "--max-enum", "5"], None,
         "qfiber coeffs: error: unrecognized arguments: --max-enum 5"),
        (["fibers", "3", "2", "7"], None, "qfiber fibers: error: unrecognized arguments: 7"),
    ):
        if env is None:
            monkeypatch.delenv("QFIBER_MAX_ENUM", raising=False)
        else:
            monkeypatch.setenv("QFIBER_MAX_ENUM", env)
        code, out, err = run_expecting_exit(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"usage: qfiber {argv[0]} "), err
        assert err.endswith(message + "\n"), err


def test_table_fail_line_names_the_differing_classes(capsys, monkeypatch):
    sums = verify.residue_sums

    def broken(m, n, r):
        table = sums(m, n, r)
        if (m, n) == (6, 5):
            table[1] += 1
            table[4] -= 1
        return table[:-1] if (m, n) == (10, 9) else table

    monkeypatch.setattr(verify, "residue_sums", broken)
    code, out, _ = run(capsys, "verify", "counterexamples")
    assert code == 1
    lines = out.splitlines()
    assert "FAIL counterexample-6x5-table m=6 n=5 r=6 (classes 1,4 differ)" in lines
    assert "PASS counterexample-6x5-total m=6 n=5 r=6" in lines
    # tables of different lengths, and numbers, name no class
    assert "FAIL counterexample-10x9-table m=10 n=9 r=10" in lines
    assert "FAIL counterexample-10x9-total m=10 n=9 r=10" in lines
    assert out.count("differ") == 1
    # CSV and JSON carry both tables, as they do for a passing check
    code, out, _ = run(capsys, "verify", "counterexamples", "--format", "csv")
    assert code == 1
    row = next(row for row in parse_csv(out) if row[0] == "counterexample-6x5-table")
    assert row[1:] == ["m=6 n=5 r=6", "80 75 78 76 78 75", "80 76 78 76 77 75", "fail"]
    code, out, _ = run(capsys, "verify", "counterexamples", "--format", "json")
    assert code == 1 and "differ" not in out
    reports = json.loads(out)["result"]["reports"]
    assert all(
        set(report) == {"check_id", "parameters", "expected", "actual", "status"}
        for report in reports)


def test_verify_rejects_bad_primes(capsys, monkeypatch):
    suites_run = []
    monkeypatch.setattr(cli, "run_suite", lambda suite, **bounds: suites_run.append(suite) or [])
    # reported by argparse under the verify usage, before any suite runs
    for suite, primes, bad in (
        ("therm", "3,9", [9]), ("all", "4", [4]), ("thmp", "2,3", [2]), ("therm", "3,-3", [-3])
    ):
        code, out, err = run_expecting_exit(capsys, "verify", suite, "--primes", primes)
        assert code == 2 and out == ""
        assert err.startswith("usage: qfiber verify "), err
        assert f"argument --primes: not odd primes: {bad}" in err
    assert suites_run == []


def test_verify_refuses_repeated_primes(capsys, monkeypatch):
    # a repeated prime would run and report each of its checks twice
    suites_run = []
    monkeypatch.setattr(cli, "run_suite", lambda suite, **bounds: suites_run.append(suite) or [])
    for suite, primes, repeated in (
        ("therm", "3,3", [3]), ("thmp", "5,5", [5]), ("all", "5,3,5,3", [3, 5])
    ):
        code, out, err = run_expecting_exit(capsys, "verify", suite, "--primes", primes)
        assert code == 2 and out == ""
        assert err.startswith("usage: qfiber verify "), err
        assert err.endswith(f"error: argument --primes: repeated primes: {repeated}\n"), err
    assert suites_run == []


def test_verify_refuses_huge_primes_before_testing_them(capsys, monkeypatch):
    # is_prime would divide by up to 10^9 candidates; the cap refuses that first
    suites_run = []
    monkeypatch.setattr(cli, "run_suite", lambda suite, **bounds: suites_run.append(suite) or [])
    for suite in ("therm", "main1"):
        started = time.perf_counter()
        code, out, err = run(capsys, "verify", suite, "--primes", "1000000000000000003")
        assert time.perf_counter() - started < 1
        assert (code, out) == (3, "")
        assert "1000000000 trial divisions for --primes exceed the cap of 10000000" in err
    assert suites_run == []


def test_verify_primes_must_be_integers(capsys):
    # reported by argparse under the verify usage, not by int() under the top-level one
    for primes in ("3,x", "3,,5", ""):
        code, out, err = run_expecting_exit(capsys, "verify", "therm", "--primes", primes)
        assert code == 2 and out == ""
        assert err.startswith("usage: qfiber verify "), err
        assert f"argument --primes: {primes!r} is not a comma-separated list of integers" in err


def test_environment_cap_must_be_a_positive_integer(capsys, monkeypatch):
    suites_run = []
    monkeypatch.setattr(cli, "run_suite", lambda suite, **bounds: suites_run.append(suite) or [])
    for cap, problem in (("0", "must be positive"), ("-5", "must be nonnegative"),
                         ("x", "is not an integer")):
        monkeypatch.setenv("QFIBER_MAX_ENUM", cap)
        for argv in (["coeffs", "2", "2"], ["verify", "counterexamples"]):
            code, out, err = run_expecting_exit(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("usage: ") and f"QFIBER_MAX_ENUM: {cap!r} {problem}" in err
    assert suites_run == []


# (argv, a QFIBER_MAX_ENUM below its estimate, the refusal) for every command
CAPPED_CALLS = [
    (["coeffs", "3", "2"], "13", "estimated output of 14 digits exceeds the cap of 13"),
    (["residue-sums", "3", "3", "4"], "14", "estimated work of 15 exceeds the cap of 14"),
    (["fibers", "12", "6"], "5", "estimated work of 12 exceeds the cap of 5"),
    (["orbits", "10", "10", "cyclic"], "10",
     "C(19, 9) step sequences for (k=10, l=10) exceed the cap of 10"),
    (["verify", "fibrations", "--n-max", "12"], "1000",
     "11*2^12 + 1 covering points for --n-max 12 exceed the cap of 1000"),
    # the units route takes its tau(l)*phi(l) unit residues, though C(l, l-1) = l is admitted
    (["orbits", "1", "2520", "units"], "10000",
     "27648 unit residues (tau(l)*phi(l)) for (k=1, l=2520) exceed the cap of 10000"),
    (["orbits", "1", "1000000000000000003", "cyclic"], "10",
     "C(1000000000000000003, 1000000000000000002) step sequences for"
     " (k=1, l=1000000000000000003) exceed the cap of 10"),
]


def call_ids(calls):
    """Each call's command, or its whole argv once an earlier call has that command."""
    seen = set()
    ids = []
    for argv, _, _ in calls:
        ids.append("-".join(argv) if argv[0] in seen else argv[0])
        seen.add(argv[0])
    return ids


@pytest.mark.parametrize("argv, cap, message", CAPPED_CALLS, ids=call_ids(CAPPED_CALLS))
def test_every_command_takes_its_cap_from_the_environment_alone(
    capsys, monkeypatch, argv, cap, message
):
    monkeypatch.setenv("QFIBER_MAX_ENUM", cap)
    assert run(capsys, *argv) == (3, "", f"error: {message}\n")
    code, out, err = run_expecting_exit(capsys, *argv, "--max-enum", "5")
    assert code == 2 and out == ""
    assert err.startswith(f"usage: qfiber {argv[0]} "), err
    assert err.endswith("error: unrecognized arguments: --max-enum 5\n"), err


# The exit-code contract over drawn argvs, under a cap low enough that every
# admitted call stays small: integers log-uniform over 0..10^40 and the edges.
CONTRACT_CAP = 1000
NUMBERS = st.one_of(
    st.sampled_from([0, 1, CONTRACT_CAP - 1, CONTRACT_CAP, CONTRACT_CAP + 1, 2**63]),
    st.integers(0, 40).flatmap(lambda digits: st.integers(0, 10**digits)),
).map(str)
PRIMES = st.lists(st.one_of(st.sampled_from(["3", "5", "7", "101"]), NUMBERS),
                  min_size=1, max_size=3).map(",".join)
ARITY = {"coeffs": 2, "residue-sums": 3, "fibers": 2, "orbits": 2}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from([*ARITY, "verify"]))
    if command == "verify":
        argv = [command, draw(st.sampled_from(verify.SUITES))]
        for flag, value in (("--k-max", NUMBERS), ("--l-max", NUMBERS), ("--m-max", NUMBERS),
                            ("--n-max", NUMBERS), ("--primes", PRIMES)):
            if draw(st.booleans()):
                argv += [flag, draw(value)]
    else:
        argv = [command, *(draw(NUMBERS) for _ in range(ARITY[command]))]
        if command == "orbits":
            argv.append(draw(st.sampled_from(cli.GROUPS)))
    return argv + ["--format", draw(st.sampled_from(cli.FORMATS))]


def reports_a_failure(out):
    lines = out.splitlines()
    return any(line.startswith("FAIL ") or line.endswith(",fail") for line in lines) or (
        '"status":"fail"' in out)


@settings(max_examples=200, deadline=None)
@given(argvs())
@example(["orbits", "1000000000000000000000000000000", "1", "units"])
@example(["orbits", "1000000", "1", "units"])
@example(["orbits", "1000000000", "1", "units"])
@example(["orbits", "0", "27720", "units"])
@example(["orbits", "0", "1000000000000000003", "cyclic"])
def test_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"QFIBER_MAX_ENUM": str(CONTRACT_CAP)}), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # the parser's exit 2; any other exception fails the test
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 1:
        assert argv[0] == "verify" and reports_a_failure(out), (argv, out)
    if code in (2, 3):
        assert out == "", argv
    if code == 3:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(m, n, r):
        raise ValueError("an internal failure")

    monkeypatch.setattr(cli, "residue_sums", broken)
    with pytest.raises(ValueError, match="an internal failure"):
        main(["residue-sums", "3", "3", "4"])
    assert capsys.readouterr().err == ""


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "counterexamples", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["check_id", "parameters", "expected", "actual", "status"]
    assert len(rows) == 8
    assert all(row[4] == "pass" for row in rows[1:])
    table_row = next(row for row in rows if row[0] == "counterexample-6x5-table")
    assert table_row[3] == "80 75 78 76 78 75"


def test_verify_csv_quotes_free_text(capsys, monkeypatch):
    def broken(m, n, r):
        raise ValueError('sides (6, 5) disagree, "badly"')

    monkeypatch.setattr(verify, "residue_sums", broken)
    code, out, _ = run(capsys, "verify", "counterexamples", "--format", "csv")
    assert code == 1
    # the comma and the quotes are quoted, and the quotes doubled
    field = '"ValueError: sides (6, 5) disagree, ""badly"""'
    row = next(row for row in parse_csv(out) if row[0] == "counterexample-6x5-table")
    assert row[3] == 'ValueError: sides (6, 5) disagree, "badly"'
    assert f"m=6 n=5 r=6,80 75 78 76 78 75,{field},fail\n" in out


def _csv_writer_text(header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _number_table(command):
    """The whole outputs of a number-table command, from the library: its
    CSV header and rows, its JSON record and its table lines."""
    name, *args = command.split()
    numbers = [int(arg) for arg in args if arg.isdigit()]
    if name == "orbits":
        k, l = numbers
        histogram = orbit_histogram(k, l, args[2]).items()
        pairs = [[str(size), str(count)] for size, count in histogram]
        total = str(comb(k + l - 1, l - 1))
        parameters = {"k": args[0], "l": args[1], "group": args[2]}
        result = {"histogram": pairs, "total_sequences": total}
        header, rows = ["orbit_size", "orbit_count"], pairs + [["total", total]]
        lines = [" ".join(pair) for pair in pairs] + [f"total {total}"]
    else:
        header, names, key, route = {
            "coeffs": (["index", "coefficient"], "m n", "coeffs", gaussian_coefficients),
            "residue-sums": (["residue", "sum"], "m n r", "sums", residue_sums),
            "fibers": (["class", "cardinality"], "N r", "sizes", delta_fiber_sizes_via_partitions),
        }[name]
        values = [str(v) for v in route(*numbers)]
        parameters = dict(zip(names.split(), args))
        result = {key: values}
        rows = [[str(i), v] for i, v in enumerate(values)]
        lines = [" ".join(values)]
        if name == "fibers":
            n, r = numbers
            result["total"] = str(comb(n - 1, r - 1))
            rows.append(["total", result["total"]])
            lines.append(f"total {result['total']}")
    record = {"schema_version": "1", "command": name, "parameters": parameters, "result": result}
    return header, rows, record, lines


NUMBER_TABLES = [
    "coeffs 0 0", "coeffs 1 0", "coeffs 3 2", "coeffs 5 5", "coeffs 70 70",
    "residue-sums 0 0 1", "residue-sums 3 3 4", "residue-sums 6 5 6", "residue-sums 10 9 10",
    "fibers 1 1", "fibers 5 2", "fibers 10 5", "fibers 12 12", "fibers 1000 10",
    "orbits 0 1 cyclic", "orbits 6 6 units", "orbits 4 6 symmetric", "orbits 5 3 cyclic",
]


@pytest.mark.parametrize("batch", [1, 3, cli.CSV_BATCH_ROWS])
@pytest.mark.parametrize("command", NUMBER_TABLES)
def test_number_table_csv_matches_csv_writer(capsys, monkeypatch, command, batch):
    # the joined rows, written in batches, are the bytes csv.writer gives
    # for the same header and rows, the `total` rows included
    monkeypatch.setattr(cli, "CSV_BATCH_ROWS", batch)
    code, out, _ = run(capsys, *command.split(), "--format", "csv")
    assert code == 0
    header, rows, _, _ = _number_table(command)
    assert out == _csv_writer_text(header, rows)


@pytest.mark.parametrize("batch", [1, 3, cli.CSV_BATCH_ROWS])
@pytest.mark.parametrize("command", NUMBER_TABLES)
def test_number_table_json_and_table_match_whole_outputs(capsys, monkeypatch, command, batch):
    # written in batches, the JSON is the whole record encoded at once, and
    # the table is its lines printed one by one
    monkeypatch.setattr(cli, "CSV_BATCH_ROWS", batch)
    _, _, record, lines = _number_table(command)
    code, out, _ = run(capsys, *command.split(), "--format", "json")
    assert code == 0
    assert out == json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    code, out, _ = run(capsys, *command.split(), "--format", "table")
    assert code == 0
    assert out == "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("suite", [["counterexamples"], ["fibrations", "--n-max", "6"]])
def test_verify_output_does_not_depend_on_the_batch(capsys, monkeypatch, suite, fmt):
    argv = ["verify", *suite, "--format", fmt]
    whole = run(capsys, *argv)
    assert whole[0] == 0
    for batch in (1, 3):
        monkeypatch.setattr(cli, "CSV_BATCH_ROWS", batch)
        assert run(capsys, *argv) == whole


class Discard(io.TextIOBase):
    """A stdout that keeps nothing it is given."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("kind", ["numbers", "pairs", "reports"])
def test_writing_holds_a_few_batches_of_the_output(monkeypatch, kind, fmt):
    # 100,000 ints or pairs, or 10,000 reports, built before tracing; the
    # text of one item is a str of at least 50 bytes, so holding every item's
    # text, or the whole output, would pass the bound several times over
    big = 10**12
    if kind == "numbers":
        values = list(range(big, big + 100_000))
        monkeypatch.setattr(cli, "residue_sums", lambda m, n, r: values)
        argv = ["residue-sums", "1", "1", str(len(values))]
    elif kind == "pairs":
        histogram = dict.fromkeys(range(big, big + 100_000), big)
        monkeypatch.setattr(cli, "orbit_histogram", lambda k, l, group: histogram)
        argv = ["orbits", "2", "2", "cyclic"]
    else:
        reports = [CheckReport("check", {"m": i}, [big, i], [big, i], "pass", 0.0)
                   for i in range(10_000)]
        monkeypatch.setattr(cli, "run_suite", lambda suite, **bounds: reports)
        argv = ["verify", "counterexamples"]
    tracemalloc.start()
    try:
        with redirect_stdout(Discard()):
            assert main([*argv, "--format", fmt]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000  # about 2 MB at most: one batch of texts and their join


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_a_failing_route_writes_nothing(capsys, monkeypatch, fmt):
    # every command holds its whole table or its reports before the first write
    def failing(*args, **kwargs):
        raise RuntimeError("the route failed")

    for name, argv in (("residue_sums", ["residue-sums", "3", "3", "4"]),
                       ("orbit_histogram", ["orbits", "6", "6", "units"]),
                       ("run_suite", ["verify", "counterexamples"])):
        with monkeypatch.context() as patch:
            patch.setattr(cli, name, failing)
            with pytest.raises(RuntimeError, match="the route failed"):
                main([*argv, "--format", fmt])
        assert capsys.readouterr() == ("", "")


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    broken = CheckReport("fake", {"x": 1}, [1], [2], "fail", 0.0)
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [broken])
    code, out, _ = run(capsys, "verify", "counterexamples")
    assert code == 1
    assert "FAIL fake x=1" in out
    assert "0 of 1 checks passed" in out
    code, out, _ = run(capsys, "verify", "counterexamples", "--format", "json")
    assert code == 1
    record = json.loads(out)
    assert record["result"]["failures"] == "1"
    assert record["result"]["reports"][0]["status"] == "fail"


def test_verify_json_integers_are_strings(capsys):
    _, out, _ = run(capsys, "verify", "counterexamples", "--format", "json")
    record = json.loads(out)

    def walk(node):
        assert not isinstance(node, (int, float))
        if isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)
        else:
            assert isinstance(node, str)

    walk(record)


def test_missing_subcommand_exits_two(capsys):
    code, _, err = run_expecting_exit(capsys)
    assert code == 2
    assert "usage" in err


SRC = Path(cli.__file__).resolve().parents[1]


def run_fresh(*args, cap=None):
    """Exit code, stdout and stderr of a new interpreter running `python args`
    on this checkout, with QFIBER_MAX_ENUM set to cap (unset when None)."""
    env = {key: value for key, value in os.environ.items() if key != "QFIBER_MAX_ENUM"}
    env.update(PYTHONPATH=str(SRC), COLUMNS="80")
    if cap is not None:
        env["QFIBER_MAX_ENUM"] = cap
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )
    return done.returncode, done.stdout, done.stderr


def test_import_builds_no_parser():
    script = (
        "import argparse, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda *a, **k: built.append(1) or init(*a, **k)\n"
        "import qfiber.cli\n"
        "print(len(built), 'dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
        "qfiber.cli.main(['coeffs', '1', '1'])\n"
        "print(len(built), 'locale' in sys.modules)\n"
    )
    # a well-formed command builds no parser, so argparse's gettext never imports
    # locale; the value classes are written out, so nothing imports dataclasses
    assert run_fresh("-c", script) == (0, "0 False False\n1 1\n0 False\n", "")


def test_a_reader_that_goes_away_ends_the_command_quietly():
    # about 400 kB of output, far past a pipe's buffer, of which one byte is read
    env = {key: value for key, value in os.environ.items() if key != "QFIBER_MAX_ENUM"}
    env["PYTHONPATH"] = str(SRC)
    argv = [sys.executable, "-m", "qfiber.cli", "fibers", "200000", "200000"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as spawned:
        assert spawned.stdout.read(1) == b"0"
        spawned.stdout.close()
        assert spawned.wait(timeout=60) == 1
        assert spawned.stderr.read() == b""


SUBCOMMANDS = ("coeffs", "residue-sums", "fibers", "orbits", "verify")


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._shared_parser.cache_clear()
    # well-formed commands build nothing
    assert run(capsys, "coeffs", "2", "2")[:2] == (0, "1 1 2 1 1\n")
    assert run(capsys, "fibers", "5", "2")[:2] == (0, "2 2\ntotal 4\n")
    assert run(capsys, "orbits", "6", "6", "units", "--format", "csv")[0] == 0
    assert built == []
    # the first usage error builds the top parser, then one per subcommand
    assert run_expecting_exit(capsys, "fibers", "3", "5")[0] == 2
    assert built == ["qfiber"] + [f"qfiber {name}" for name in SUBCOMMANDS]
    assert run_expecting_exit(capsys, "--help")[0] == 0
    assert run_expecting_exit(capsys, "coeffs", "2", "2", "--format", "xml")[0] == 2
    assert run(capsys, "coeffs", "--format=csv", "2", "2")[0] == 0
    assert len(built) == 6
    # build_parser itself stays a factory
    assert cli.build_parser() is not cli.build_parser()
    assert len(built) == 18


# One process runs these in order, sharing one parser; each must behave as
# it does alone in a new interpreter.  (argv, QFIBER_MAX_ENUM or None)
MIXED_CALLS = [
    *(
        (argv + ["--format", fmt], None)
        for fmt in cli.FORMATS
        for argv in (
            ["coeffs", "3", "2"],
            ["residue-sums", "6", "5", "6"],
            ["fibers", "7", "3"],
            ["orbits", "4", "4", "cyclic"],
            ["verify", "counterexamples"],
        )
    ),
    (["--help"], None),
    (["verify", "--help"], None),
    # work at least 2 * 6, over the cap, then the same command under the default cap
    (["fibers", "12", "6"], "5"),
    (["fibers", "12", "6"], None),
    # no command takes a cap flag
    (["orbits", "6", "6", "units", "--max-enum", "100"], None),
    (["orbits", "6", "6", "units"], "100"),
    (["orbits", "6", "6", "units"], "1000"),
    (["coeffs", "3", "2"], "13"),
    (["coeffs", "3", "2"], None),
    (["verify", "fibrations", "--n-max", "12"], "1000"),
    (["fibers", "12", "6"], "not-a-number"),
    (["fibers", "3", "5"], None),
    (["orbits", "3", "2", "dihedral"], None),
    (["coeffs", "3", "2"], "100"),
    (["verify", "therm", "--primes", "3,x"], None),
    (["verify", "therm", "--primes", "4"], None),
    (["coeffs", "3", "2"], "0"),
    ([], None),
    (["fibers", "12", "6", "--format", "json"], None),
    # help, `--`, an option first and an unknown command go to argparse
    (["coeffs", "--", "2", "2"], None),
    (["--format", "csv", "coeffs", "2", "2"], None),
    (["fibers", "5", "2", "-h"], None),
    (["bogus"], None),
    (["-h"], None),
    # forms only argparse reads: `--opt=value`, an abbreviation, a repeated option
    (["coeffs", "--format=csv", "2", "2"], None),
    (["fibers", "5", "2", "--fo", "json"], None),
    (["orbits", "6", "6", "units", "--format", "json", "--format", "csv"], None),
]


def call_main(capsys, argv):
    """Exit code, stdout and stderr of `main(argv)`, a SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_calls_in_one_process_are_independent(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    # the fresh interpreters run two at a time, all before the in-process
    # calls start changing the environment
    with ThreadPoolExecutor(max_workers=2) as pool:
        spawned = list(pool.map(
            lambda call: run_fresh("-m", "qfiber.cli", *call[0], cap=call[1]), MIXED_CALLS))
    codes = set()
    for (argv, cap), spawn in zip(MIXED_CALLS, spawned):
        if cap is None:
            monkeypatch.delenv("QFIBER_MAX_ENUM", raising=False)
        else:
            monkeypatch.setenv("QFIBER_MAX_ENUM", cap)
        result = call_main(capsys, argv)
        assert result == spawn, (argv, cap)
        codes.add(result[0])
    assert codes == {0, 2, 3}


def test_both_parse_routes_give_the_same_result(capsys, monkeypatch):
    # two routes: the direct reader and, with it off, argparse
    monkeypatch.setenv("COLUMNS", "80")
    for argv, cap in MIXED_CALLS:
        if cap is None:
            monkeypatch.delenv("QFIBER_MAX_ENUM", raising=False)
        else:
            monkeypatch.setenv("QFIBER_MAX_ENUM", cap)
        direct = call_main(capsys, argv)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_read_direct", lambda argv: None)
            assert call_main(capsys, argv) == direct, (argv, cap)


def test_a_leading_command_skips_the_top_level_parse(capsys, monkeypatch):
    parser, commands = cli._shared_parser()

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parse")

    for argparser in (parser, *commands.values()):
        monkeypatch.setattr(argparser, "parse_known_args", refuse)
    # well-formed command lines take the direct reader, usage errors of `_validate` included
    assert run(capsys, "coeffs", "2", "2")[:2] == (0, "1 1 2 1 1\n")
    record = json.loads(run(capsys, "orbits", "4", "4", "symmetric", "--format", "json")[1])
    assert record["command"] == "orbits"
    assert run_expecting_exit(capsys, "fibers", "3", "5")[0] == 2
    with pytest.raises(AssertionError, match="argparse parse"):
        main(["--help"])


# Tokens of the differential test: command names, option names and their
# abbreviations, the forms only argparse reads, and words that int() or
# argparse may read unexpectedly.
NUMBER_WORDS = ["0", "1", "2", "3", "7", "12", "+5", " 5", "5_0", "\u0663", "3,5"]
WORDS = [*NUMBER_WORDS, "-5", "-3,5", "", " 3, 5", "3,x", *cli.FORMATS, *cli.GROUPS, *verify.SUITES,
         "x", "dihedral", "-", "-x"]
ODD_OPTIONS = ["--fo", "--form", "--k", "--pr", "--tim", "--n-", "--m", "--", "-h", "--help",
               "--format=json", "--primes=3,5"]
TOKENS = [*SUBCOMMANDS, "bogus", *cli._COMMANDS["verify"].options, *ODD_OPTIONS, *WORDS]


@st.composite
def command_lines(draw):
    """A command, a word per positional, then up to three distinct options of
    its own, each with a word unless it is a flag.  A word fits its argument
    three times in four.  Then, one time in four each, an odd option goes in
    among them, one token of TOKENS is put in anywhere and one taken out."""
    name = draw(st.sampled_from(SUBCOMMANDS))
    command = cli._COMMANDS[name]

    def word(arg):
        fitting = arg.choices if arg is not None and arg.choices else NUMBER_WORDS
        return draw(st.sampled_from(WORDS if draw(st.integers(0, 3)) == 0 else fitting))

    argv = [name, *(word(arg) for arg in command.positionals)]
    options = draw(st.lists(st.sampled_from(list(command.options)), max_size=3, unique=True))
    if draw(st.integers(0, 3)) == 0:
        options.insert(draw(st.integers(0, len(options))), draw(st.sampled_from(ODD_OPTIONS)))
    for option in options:
        arg = command.options.get(option)
        argv += [option] if arg is not None and arg.flag else [option, word(arg)]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(TOKENS)))
    if draw(st.integers(0, 3)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


def argparse_reading(parse, argv):
    """The Namespace `parse(argv)` gives, or None where argparse exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return parse(argv)
        except SystemExit:
            return None


@settings(max_examples=400, deadline=None)
@given(st.one_of(command_lines(), st.lists(st.sampled_from(TOKENS), max_size=8)))
@example(["coeffs", "2", "2"])
@example(["orbits", "6", "6", "units", "--format", "json"])
@example(["verify", "all", "--timings", "--primes", " 3, 5", "--n-max", "5_0"])
@example(["residue-sums", "+5", "\u0663", " 5", "--format", "csv"])
@example(["fibers", "5", "2", "--format", "json", "--format", "csv"])
@example(["verify", "therm", "--primes", "3,x"])
@example(["verify", "therm", "--primes", "-3,5"])
@example(["verify", "therm", "--primes"])
@example(["fibers", "-5", "2"])
@example(["coeffs", "2"])
def test_direct_reader_agrees_with_argparse(argv):
    direct = cli._read_direct(list(argv))
    if direct is None:
        return
    # a command line the reader reads, argparse reads alike
    top = argparse_reading(cli._shared_parser()[0].parse_args, argv)
    assert top is not None, argv
    assert vars(direct) == vars(top), argv


@settings(max_examples=60, deadline=None)
@given(argvs())
def test_argparse_alone_gives_the_same_result(argv):
    def outcome():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    with mock.patch.dict(os.environ, {"QFIBER_MAX_ENUM": str(CONTRACT_CAP)}):
        direct = outcome()
        with mock.patch.object(cli, "_read_direct", lambda argv: None):
            assert outcome() == direct, argv


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["qfiber", "coeffs", "2", "2"])
    assert main() == 0
    assert capsys.readouterr().out == "1 1 2 1 1\n"
    monkeypatch.setattr(sys, "argv", ["qfiber", "--help"])
    with pytest.raises(SystemExit) as excinfo:
        main(None)
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qfiber [-h]")
