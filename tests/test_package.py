"""The package's exports: each name, its order and the object it is bound to;
and the layers its modules import along."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qfiber

PACKAGE = Path(qfiber.__file__).parent

# The public names by defining module, in the order `qfiber.__all__` gives them.
EXPORTS = {
    "heisenberg": [
        "center_projection", "covering_point",
        "delta_fiber_sizes", "delta_fiber_sizes_closed_form", "delta_fiber_sizes_via_partitions",
        "enumerate_configurations", "reconstruct", "relative_positions", "shift_action",
    ],
    "partitions": [
        "count_by_residue", "count_exact_parts_by_residue", "enumerate_restricted", "partition",
    ],
    "qbinomial": [
        "coprime_class_sum", "gaussian_coefficients", "is_prime", "prime_adjacent_class_sum",
        "prime_multiple_class_sum", "residue_sums",
    ],
    "surjections": [
        "GROUPS", "act_cyclic", "act_symmetric", "act_unit", "enumerate_step_sequences",
        "integral", "orbit_histogram", "orbits", "partition_to_surjection", "step_sequence",
        "surjection_to_partition",
    ],
    "verify": [
        "CheckReport", "check_counterexamples", "check_fibrations", "check_main1",
        "check_therm", "check_thmp", "run_suite",
    ],
}


def test_package_exports_each_name_from_its_module():
    assert qfiber.__all__ == [name for names in EXPORTS.values() for name in names]
    assert len(qfiber.__all__) == 37
    for module_name, names in EXPORTS.items():
        module = sys.modules[f"qfiber.{module_name}"]
        assert getattr(qfiber, module_name) is module
        for name in names:
            assert getattr(qfiber, name) is getattr(module, name), name


def test_importing_the_package_binds_its_exports_and_modules_alone():
    # in a fresh interpreter, as an `import qfiber.<module>` anywhere binds that module here too
    script = "import qfiber; print(*sorted(name for name in vars(qfiber) if name[:2] != '__'))"
    env = {**os.environ, "PYTHONPATH": str(Path(qfiber.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.split() == sorted([*qfiber.__all__, *EXPORTS])
    assert qfiber.__version__ == "0.1.0"


# The package's modules from the bottom layer up: each imports only from those before it.
LAYERS = ["qbinomial", "partitions", "surjections", "heisenberg", "verify", "cli"]


def package_imports(module):
    """The package modules that `module` imports, at any depth, each by a
    relative import: `from .x import f` or `from . import x`."""
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            assert all(name.split(".")[0] != "qfiber" for name in names), ast.unparse(node)
    return imported


def test_modules_import_along_the_layers():
    assert sorted(path.stem for path in PACKAGE.glob("*.py")) == sorted([*LAYERS, "__init__"])
    for rank, module in enumerate(LAYERS):
        below = set(LAYERS[:rank])
        assert package_imports(module) <= below, (module, sorted(package_imports(module) - below))
    # so no cycle, and no library module reaches the harness or the command line
    assert not set().union(*map(package_imports, LAYERS[:-2])) & {"verify", "cli"}


# For each route in `qfiber.__all__` that takes an argument: a call with one
# wrong-typed argument, and the name of that argument in its ValueError.
WRONG_TYPED = {
    "center_projection": ((((1, 2.5), 5),), "positions"),
    "covering_point": (((1, 2), "5"), "ring_size"),
    "delta_fiber_sizes": ((5, 2.0), "marked"),
    "delta_fiber_sizes_closed_form": ((5.0, 2), "ring_size"),
    "delta_fiber_sizes_via_partitions": ((5, "2"), "marked"),
    "enumerate_configurations": ((5, 2.0), "marked"),
    "reconstruct": ((3, (1, 1.0, 1)), "steps"),
    "relative_positions": ((((1, 3), 5.0),), "ring_size"),
    "shift_action": ((((1.0, 3), 5), 1), "positions"),
    "count_by_residue": ((2, 2, 3.0), "modulus"),
    "count_exact_parts_by_residue": ((2.0, 2, 3), "part_bound"),
    "enumerate_restricted": ((2, "2"), "max_count"),
    "partition": (((2, 1.5),), "parts"),
    "coprime_class_sum": ((2, 3.0, 3), "l"),
    "gaussian_coefficients": (("2", 2), "m"),
    "is_prime": ((7.0,), "n"),
    "prime_adjacent_class_sum": ((5, 1.0), "height"),
    "prime_multiple_class_sum": ((5.0, 1, 1, 0), "p"),
    "residue_sums": ((2, 2, 3.0), "r"),
    "act_cyclic": (((4, 1.0),), "steps"),
    "act_symmetric": (((1, 2, 3), (2.0, 1.0, 3.0)), "sigma"),
    "act_unit": (((1, 2), 1.0), "u"),
    "enumerate_step_sequences": ((2, 2.0), "l"),
    "integral": (((4, 1, 2.0, 8),), "steps"),
    "orbit_histogram": ((2, 2, 3), "group"),
    "orbits": ((2.5, 2, "cyclic"), "k"),
    "partition_to_surjection": (((4, 3.0, 3), 11, 4), "parts"),
    "step_sequence": (((1, "2"),), "steps"),
    "surjection_to_partition": (((4, 1, 2, 8.0),), "steps"),
    "check_fibrations": ((5.0,), "ring_max"),
    "check_main1": ((4, 4.0), "l_max"),
    "check_therm": (((3,), 1.0), "multiplier_max"),
    "check_thmp": (((3.0,), 1), "primes[0]"),
    "run_suite": ((5,), "suite"),
}


def test_every_route_refuses_a_wrong_typed_argument_by_name():
    # the constants, the report type and the one route that takes no argument aside
    takes_none = {"GROUPS", "CheckReport", "check_counterexamples"}
    assert sorted(WRONG_TYPED) == sorted(set(qfiber.__all__) - takes_none)
    for name, (arguments, argument) in WRONG_TYPED.items():
        with pytest.raises(ValueError) as refused:
            list(getattr(qfiber, name)(*arguments))  # a generator checks on its first item
        assert re.search(rf"(^|\s){re.escape(argument)}\s", str(refused.value)), (name, refused)


def test_paper_routes_take_plain_tuples():
    assert qfiber.surjection_to_partition((4, 1, 2, 8)) == (4, 3, 3)
    assert qfiber.act_cyclic((4, 1, 2, 8), 1) == (8, 4, 1, 2)
    assert qfiber.integral((4, 1, 2, 8)) == 31
    assert qfiber.partition_to_surjection((4, 3, 3), 11, 4) == (4, 1, 2, 8)
