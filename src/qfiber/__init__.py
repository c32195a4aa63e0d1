"""Exact combinatorics of rectangle-restricted partitions, Gaussian binomial
coefficient vectors, step-sequence group actions, and marked-ring fibers.

Everything computes with exact integer arithmetic; the `verify` module and
the `qfiber` CLI cross-check every identity against independent enumeration.
"""

from .heisenberg import (
    Configuration,
    CoveringPoint,
    RelativePositions,
    center_projection,
    delta_fiber_sizes,
    delta_fiber_sizes_via_partitions,
    enumerate_configurations,
    reconstruct,
    relative_positions,
    shift_action,
)
from .partitions import (
    Partition,
    count_by_residue,
    count_exact_parts_by_residue,
    enumerate_restricted,
)
from .qbinomial import (
    coprime_class_sum,
    gaussian_coefficients,
    is_prime,
    prime_adjacent_class_sum,
    prime_multiple_class_sum,
    residue_sums,
)
from .surjections import (
    GROUPS,
    StepSequence,
    ThresholdSequence,
    act_cyclic,
    act_on_partition,
    act_symmetric,
    act_unit,
    enumerate_step_sequences,
    integral,
    orbit_histogram,
    orbits,
    partition_to_surjection,
    steps_to_thresholds,
    surjection_to_partition,
    thresholds_to_steps,
)
from .verify import (
    CheckReport,
    check_counterexamples,
    check_fibrations,
    check_main1,
    check_therm,
    check_thmp,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Configuration",
    "CoveringPoint",
    "RelativePositions",
    "center_projection",
    "delta_fiber_sizes",
    "delta_fiber_sizes_via_partitions",
    "enumerate_configurations",
    "reconstruct",
    "relative_positions",
    "shift_action",
    "Partition",
    "count_by_residue",
    "count_exact_parts_by_residue",
    "enumerate_restricted",
    "coprime_class_sum",
    "gaussian_coefficients",
    "is_prime",
    "prime_adjacent_class_sum",
    "prime_multiple_class_sum",
    "residue_sums",
    "GROUPS",
    "StepSequence",
    "ThresholdSequence",
    "act_cyclic",
    "act_on_partition",
    "act_symmetric",
    "act_unit",
    "enumerate_step_sequences",
    "integral",
    "orbit_histogram",
    "orbits",
    "partition_to_surjection",
    "steps_to_thresholds",
    "surjection_to_partition",
    "thresholds_to_steps",
    "CheckReport",
    "check_counterexamples",
    "check_fibrations",
    "check_main1",
    "check_therm",
    "check_thmp",
    "run_suite",
]
