"""Self-test of the benchmark at tiny sizes.

Usage (from the root of a checkout): python3 bench/selftest.py

For every workload in BENCHMARK.json it checks that an untraced run emits
exactly the `end_to_end` metrics with their units, that a traced run emits
exactly the `per_layer` metrics with their units, that both runs pass the
oracle, and that one deliberately corrupted output reaching the oracle is
counted as a failed op.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run.run(workload, seed=1, seconds=0.2, trace=trace, tiny=True)
            expected = {metric["name"]: metric["unit"] for metric in spec[section]}
            emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
            if emitted != expected:
                problems.append(f"{workload} trace={int(trace)}: metrics {emitted} != {section} {expected}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={int(trace)}: {result['failed']} failed ops")
        result, record = run.run(workload, seed=1, seconds=0.2, trace=False, tiny=True, corrupt=True)
        if result["correct"] or result["failed"] < 1 or record["error_rate"] <= 0:
            problems.append(f"{workload}: a corrupted output was not counted as a failure")
        print(f"{workload}: ok" if not problems else f"{workload}: {len(problems)} problems so far")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
