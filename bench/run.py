"""qfiber benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Workloads are `tables`, `enumeration` and `verify-all` (see bench/README.md).
The load is one closed loop: a single caller sends the next command only
after the previous one returns.  Commands go through `qfiber.cli.main` in
process, in rounds; each round runs in a fresh interpreter, so memo caches
never carry over between rounds or runs.  `--seconds` sets the number of
rounds from each workload's round time at the seed commit, so every commit
runs identical inputs and a seed-commit run measures about `--seconds`.

Times are scaled to a reference machine speed (bench/calibrate.py): the
worker runs a fixed calibration block between commands and, on a timer,
during them, and scales each command's time by the block's reference time
over its time around the command.  Set-up probes are scaled by blocks run
in this process just before and after each spawn.  On a shared host whose
speed drifts by tens of percent, this keeps a change in qfiber's speed
apart from a change in the host's.  The run record keeps the times as
measured too.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs half as many
rounds twice each, untraced and then traced (bench/tracer.py), and reports
per-layer metrics plus the tracing overhead.  Outputs are checked by
bench/oracle.py outside the timed window; a wrong output, a nonzero exit or
an exception is a failed op.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A run record (Python
version, core count, git sha, source digest, seed, argv digest, metrics) is
written to .bench_out/ in the checkout, and traced runs also write their
spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

SETUP_PROBES = 16
PROBE_BLOCKS = 3
WORKER_TIMEOUT_S = 150
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "calls": "count",
    "busy_s": "s",
    "self_s": "s",
    "memo_hit_ratio": "ratio",
    "coeffs_out": "count",
    "sequences_enumerated": "count",
    "orbits_out": "count",
    "gap_vectors_enumerated": "count",
    "point_ops": "count",
    "checks": "count",
    "checks_failed": "count",
    "bytes_out": "bytes",
    "trace_overhead_frac": "ratio",
}


class WorkerError(RuntimeError):
    """A worker interpreter crashed, timed out or ran another qfiber."""


def spawn(ops: list[list[str]], trace: bool) -> dict:
    """Run `ops` in a fresh interpreter and return its reply, with the
    set-up time from spawn to `import qfiber.cli` added as `setup_s`."""
    request = json.dumps({"ops": ops, "trace": trace})
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(BENCH / "worker.py"), str(ROOT)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        encoding="utf-8",
    )
    try:
        stdout, stderr = proc.communicate(request, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    try:
        reply = json.loads(stdout)
    except ValueError:
        raise WorkerError(f"worker reply is not JSON: {stdout[:200]!r}")
    if not Path(reply["qfiber"]).is_relative_to(ROOT / "src"):
        raise WorkerError(f"worker imported qfiber from {reply['qfiber']}, not from the checkout")
    reply["setup_s"] = reply["ready"] - started
    return reply


def setup_probe() -> tuple[float, float]:
    """One spawn of an interpreter that only imports qfiber: (measured,
    scaled) set-up time, scaled by calibration blocks run in this process
    just before and just after it."""
    blocks = [calibrate.block() for _ in range(PROBE_BLOCKS)]
    setup = spawn([], False)["setup_s"]
    blocks += [calibrate.block() for _ in range(PROBE_BLOCKS)]
    return setup, setup * calibrate.REFERENCE_S * len(blocks) / sum(blocks)


def _rank(values: list[float], percentile: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    index = max(0, -(-percentile * len(ordered) // 100) - 1)
    return ordered[index]


def tail(values: list[float]) -> tuple[int, float]:
    """The highest percentile of TAIL_PERCENTILES with at least ten samples
    beyond it, and its value; the maximum when there are too few samples."""
    for percentile in TAIL_PERCENTILES:
        if len(values) * (100 - percentile) >= 10 * 100:
            return percentile, _rank(values, percentile)
    return 100, max(values)


def _bump_last_digit(text: str) -> str:
    last = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:last] + str((int(text[last]) + 1) % 10) + text[last + 1 :]


def _corrupt(round_reply: dict, workload: str) -> None:
    """Damage the first output of a round, as a wrong answer would: a
    failing check, or the last digit of the answer (in JSON, of its
    `result`, not of the schema version that follows it)."""
    first = round_reply["results"][0]
    text = first["out"]
    if workload == "verify-all":
        first["out"] = text.replace('"status":"pass"', '"status":"fail"', 1)
    elif text.lstrip().startswith("{"):
        document = json.loads(text)
        document["result"] = json.loads(_bump_last_digit(json.dumps(document["result"])))
        first["out"] = json.dumps(document)
    else:
        first["out"] = _bump_last_digit(text)


def grade(workload: str, rounds: list, tiny: bool) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over (ops, reply) rounds.  On verify-all
    an op is one reported check; elsewhere it is one command."""
    min_checks = workloads.TINY_VERIFY_MIN_CHECKS if tiny else workloads.VERIFY_MIN_CHECKS
    attempted = failed = 0
    reasons = []
    for argvs, reply in rounds:
        for argv, result in zip(argvs, reply["results"]):
            if workload == "verify-all":
                tried, bad, reason = oracle.check_verify(result["exit"], result["out"], min_checks)
            else:
                reason = oracle.check(argv, result["exit"], result["out"])
                tried, bad = 1, int(reason is not None)
            attempted += tried
            failed += bad
            if reason:
                reasons.append(f"{' '.join(argv)}: {reason} {result['err'].strip()[-300:]}".strip())
    return attempted, failed, reasons


def round_time(reply: dict, key: str = "scaled") -> float:
    """Command time of one round, scaled (the default) or as measured."""
    return sum(result[key] for result in reply["results"])


def measure(stream: list) -> tuple[list, float, dict, dict]:
    """Run every round of `stream` in a closed loop.  Returns the rounds,
    the scaled command time, the end-to-end metrics except ops_per_s
    (which needs the oracle's verdict) and run details, which include the
    times as measured.  The set-up probes are spread over the run, a few
    before each round, so that they meet the host's speed phases as the
    rounds do."""
    for _ in range(PROBE_BLOCKS):
        calibrate.block()
    per_round = -(-SETUP_PROBES // len(stream))
    probes, rounds = [], []
    for ops in stream:
        probes += [setup_probe() for _ in range(per_round)]
        rounds.append((ops, spawn(ops, False)))
    results = [result for _, reply in rounds for result in reply["results"]]
    latencies = [result["scaled"] for result in results]
    percentile, tail_s = tail(latencies)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in probes),
        "wall_s": statistics.median(round_time(reply) for _, reply in rounds),
        "op_p50_ms": 1000 * _rank(latencies, 50),
        "op_tail_ms": 1000 * tail_s,
        "peak_rss_mb": statistics.median(reply["rss_kb"] for _, reply in rounds) / 1024,
    }
    info = {
        "rounds": len(rounds),
        "latency_samples": len(latencies),
        "tail_percentile": percentile,
        "calibration_blocks": sum(result["blocks"] for result in results),
        "block_s": statistics.median(reply["block_s"] for _, reply in rounds),
        "measured": {
            "setup_s": statistics.median(setup for setup, _ in probes),
            "wall_s": statistics.median(round_time(reply, "seconds") for _, reply in rounds),
            "op_p50_ms": 1000 * _rank([result["seconds"] for result in results], 50),
            "round_s": [round_time(reply, "seconds") for _, reply in rounds],
        },
    }
    return rounds, sum(latencies), metrics, info


def traced(stream: list) -> tuple[list, dict, list]:
    """Run the first half of the rounds untraced and traced, in alternation,
    and return all rounds, the per-layer metrics and the trace dumps."""
    import tracer

    plain, seen = [], []
    for ops in stream[: max(1, len(stream) // 2)]:
        plain.append((ops, spawn(ops, False)))
        seen.append((ops, spawn(ops, True)))
    metrics = tracer.summarize([reply["trace"] for _, reply in seen])
    metrics["cli.bytes_out"] = sum(
        len(result["out"].encode()) for _, reply in seen for result in reply["results"]
    )
    base = sum(round_time(reply) for _, reply in plain)
    metrics["trace_overhead_frac"] = (sum(round_time(reply) for _, reply in seen) - base) / base
    return plain + seen, metrics, [reply["trace"] for _, reply in seen]


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def source_digest() -> str:
    files = sorted((ROOT / "src" / "qfiber").rglob("*.py"))
    return _digest({str(f.relative_to(ROOT)): f.read_text() for f in files})


def unit(name: str) -> str:
    return END_TO_END.get(name) or PER_LAYER_UNITS[name.rpartition(".")[2]]


def run(
    workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, corrupt: bool = False
) -> tuple[dict, dict]:
    """One benchmark run: (result, record).  `tiny` and `corrupt` serve the
    self-test: tiny inputs, and one damaged output handed to the oracle."""
    stream = workloads.GENERATORS[workload](seed, workloads.round_count(workload, seconds), tiny)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "argv_digest": _digest(stream),
    }
    if trace:
        rounds, values, dumps = traced(stream)
        record["rounds"] = len(rounds) // 2
    else:
        rounds, measured, values, info = measure(stream)
        record.update(info)
    if corrupt:
        _corrupt(rounds[0][1], workload)
    attempted, failed, reasons = grade(workload, rounds, tiny)
    if not trace:
        values["ops_per_s"] = (attempted - failed) / measured
    metrics = {name: {"value": value, "unit": unit(name)} for name, value in sorted(values.items())}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record.update(result, error_rate=failed / attempted, failures=reasons[:20])
    OUT.mkdir(exist_ok=True)
    stem = f"{'tiny-' if tiny else ''}{workload}-seed{seed}"
    (OUT / f"{stem}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(dumps) + "\n")
    return result, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qfiber" / "cli.py").is_file():
        print(f"error: no qfiber sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    keys = ("workload", "seed", "python", "nproc", "git_sha", "argv_digest", "rounds", "latency_samples", "tail_percentile")
    print(" ".join(f"{key}={record[key]}" for key in keys if key in record))
    if "measured" in record:
        measured = record["measured"]
        print("as measured: " + " ".join(f"{k} {measured[k]:.6g}" for k in ("setup_s", "wall_s", "op_p50_ms")) + f" block_s {record['block_s']:.6g}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate {record['error_rate']:.6g} ratio ({result['failed']} of {result['attempted']} ops)")
    for reason in record["failures"]:
        print(f"FAIL {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
