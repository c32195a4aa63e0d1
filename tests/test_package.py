"""The package's exports: each name, its order and the object it is bound to;
and the layers its modules import along."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import qfiber

PACKAGE = Path(qfiber.__file__).parent

# The public names by defining module, in the order `qfiber.__all__` gives them.
EXPORTS = {
    "heisenberg": [
        "CoveringPoint", "center_projection",
        "delta_fiber_sizes", "delta_fiber_sizes_closed_form", "delta_fiber_sizes_via_partitions",
        "enumerate_configurations", "reconstruct", "relative_positions", "shift_action",
    ],
    "partitions": [
        "Partition", "count_by_residue", "count_exact_parts_by_residue", "enumerate_restricted",
    ],
    "qbinomial": [
        "coprime_class_sum", "gaussian_coefficients", "is_prime", "prime_adjacent_class_sum",
        "prime_multiple_class_sum", "residue_sums",
    ],
    "surjections": [
        "GROUPS", "StepSequence", "ThresholdSequence", "act_cyclic", "act_symmetric", "act_unit",
        "enumerate_step_sequences", "integral", "orbit_histogram", "orbits",
        "partition_to_surjection", "steps_to_thresholds", "surjection_to_partition",
        "thresholds_to_steps",
    ],
    "verify": [
        "CheckReport", "check_counterexamples", "check_fibrations", "check_main1",
        "check_therm", "check_thmp", "run_suite",
    ],
}


def test_package_exports_each_name_from_its_module():
    assert qfiber.__all__ == [name for names in EXPORTS.values() for name in names]
    assert len(qfiber.__all__) == 40
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
    assert done.stdout.split() == sorted([*qfiber.__all__, *EXPORTS, "_value"])
    assert qfiber.__version__ == "0.1.0"


# The package's modules from the bottom layer up: each imports only from those before it.
LAYERS = ["_value", "qbinomial", "partitions", "surjections", "heisenberg", "verify", "cli"]


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
