"""Every function in `src/qfiber` is entered by a command or a `verify` suite,
or is listed in ALLOWLIST with its reason.

A fresh interpreter records the code objects it enters from the package,
its import included, while `cli.main` runs every argv of `test_cli`'s
MIXED_CALLS and CAPPED_CALLS, a few `orbits` calls and `verify all` in each
format.  Each `def` in the package is then matched to the entered code by
its file and first line.  `verify all` runs at small bounds here; the same
helper at the default bounds reaches the same functions.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import qfiber
from qfiber.cli import FORMATS
from test_cli import CAPPED_CALLS, MIXED_CALLS

PACKAGE = Path(qfiber.__file__).parent

# `verify all` at bounds that reach every check of the default sweep
SMALL_SWEEP = ["--k-max", "8", "--l-max", "8", "--primes", "3,5", "--m-max", "2", "--n-max", "7"]

ERROR_BRANCH = "error branch"
ARGPARSE_FALLBACK = "argparse fallback"
CHECKING_CONSTRUCTOR = "checking constructor"
TEST_ORACLE = "test oracle"
PAPER_OBJECT = "paper object that item 9 or 20 will check"
VALUE_CONTRACT = "value contract pinned by tests/test_value_classes.py"
REASONS = {
    ERROR_BRANCH, ARGPARSE_FALLBACK, CHECKING_CONSTRUCTOR, TEST_ORACLE, PAPER_OBJECT,
    VALUE_CONTRACT,
}

# The functions no command or suite enters, each with why it stays.  Items 9
# and 20 of ROADMAP.md decide the roles of the paper's objects.
ALLOWLIST = {
    "_value:_assign": VALUE_CONTRACT,
    "_value:_delete": VALUE_CONTRACT,
    "_value:_comparison.<locals>.method": VALUE_CONTRACT,
    "_value:_methods.<locals>.fields": VALUE_CONTRACT,
    "_value:_methods.<locals>.__repr__": VALUE_CONTRACT,
    "_value:_methods.<locals>.__eq__": VALUE_CONTRACT,
    "_value:_methods.<locals>.__hash__": VALUE_CONTRACT,
    "_value:_methods.<locals>.__reduce__": VALUE_CONTRACT,
    "cli:build_parser": ARGPARSE_FALLBACK,
    "heisenberg:CoveringPoint.__init__": CHECKING_CONSTRUCTOR,
    "heisenberg:center_projection": PAPER_OBJECT,
    "partitions:Partition.__init__": CHECKING_CONSTRUCTOR,
    "partitions:Partition.weight": PAPER_OBJECT,
    "partitions:Partition.fits": PAPER_OBJECT,
    "partitions:enumerate_restricted": TEST_ORACLE,
    "partitions:enumerate_restricted.<locals>.descend": TEST_ORACLE,
    "surjections:StepSequence.__init__": CHECKING_CONSTRUCTOR,
    "surjections:StepSequence.domain_length": PAPER_OBJECT,
    "surjections:StepSequence.level_count": PAPER_OBJECT,
    "surjections:ThresholdSequence.__init__": CHECKING_CONSTRUCTOR,
    "surjections:ThresholdSequence.level_count": PAPER_OBJECT,
    "surjections:thresholds_to_steps": PAPER_OBJECT,
    "surjections:steps_to_thresholds": PAPER_OBJECT,
    "surjections:integral": PAPER_OBJECT,
    "surjections:surjection_to_partition": PAPER_OBJECT,
    "surjections:partition_to_surjection": PAPER_OBJECT,
    "surjections:act_cyclic": PAPER_OBJECT,
    "surjections:_position": PAPER_OBJECT,
    "surjections:act_unit": PAPER_OBJECT,
    "surjections:act_symmetric": PAPER_OBJECT,
    "surjections:enumerate_step_sequences": TEST_ORACLE,
    "surjections:_cyclic_orbit": TEST_ORACLE,
    "surjections:_unit_orbit": TEST_ORACLE,
    "surjections:orbits": TEST_ORACLE,
    "verify:_error_text": ERROR_BRANCH,
}


def commands(sweep=SMALL_SWEEP):
    """(argv, QFIBER_MAX_ENUM or None) for every call the child runs, with
    `verify all` at the bounds `sweep` (its defaults when empty)."""
    calls = [*MIXED_CALLS, *((argv, cap) for argv, cap, _ in CAPPED_CALLS)]
    calls += [(["orbits", "8", "8", "units"], None), (["orbits", "9", "9", "symmetric"], None)]
    calls += [(["verify", "all", "--timings", *sweep], None)]
    calls += [(["verify", "all", "--format", fmt, *sweep], None) for fmt in FORMATS]
    return calls


# Run in a fresh interpreter: argv[1] is the package's directory, argv[2] the
# calls as JSON.  Prints the (file name, first line) of each code object
# entered from the package, the import of `qfiber.cli` included.
CHILD = """
import io, json, os, sys
from contextlib import redirect_stderr, redirect_stdout
package, calls = sys.argv[1], json.loads(sys.argv[2])
entered = set()
def profile(frame, event, arg):
    if event == "call" and os.path.dirname(frame.f_code.co_filename) == package:
        entered.add((os.path.basename(frame.f_code.co_filename), frame.f_code.co_firstlineno))
sys.setprofile(profile)
import qfiber.cli
for argv, cap in calls:
    if cap is None:
        os.environ.pop("QFIBER_MAX_ENUM", None)
    else:
        os.environ["QFIBER_MAX_ENUM"] = cap
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            qfiber.cli.main(argv)
        except SystemExit:
            pass
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def entered_lines(calls):
    """The (file name, first line) of each code object in the package that
    a fresh interpreter enters while it imports `qfiber.cli` and runs `calls`."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(PACKAGE), json.dumps(calls)],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, check=True, timeout=120)
    return {tuple(entry) for entry in json.loads(done.stdout)}


def package_defs():
    """{"module:qualname": (file name, first line)} for every `def` in the
    package, the first line of a decorated one being its first decorator's.
    Lambdas and comprehensions are left out."""
    defs = {}

    def visit(node, path, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                qualname = prefix + child.name
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                defs[f"{module}:{qualname}"] = (path.name, first)
                visit(child, path, module, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, module, prefix + child.name + ".")
            else:
                visit(child, path, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem, "")
    return defs


def unreached(calls):
    """The keys of the package's defs that `calls` never enter."""
    entered = entered_lines(calls)
    return {key for key, line in package_defs().items() if line not in entered}


def test_every_def_is_reached_or_allowlisted_with_a_reason():
    missed = unreached(commands())
    assert sorted(missed - set(ALLOWLIST)) == [], "unreached and not in ALLOWLIST"
    assert sorted(set(ALLOWLIST) - missed) == [], "in ALLOWLIST but reached, or not a def"
    assert {key: reason for key, reason in ALLOWLIST.items() if reason not in REASONS} == {}
