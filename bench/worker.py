"""Runs one round of qfiber commands in a fresh interpreter.

Usage: python -I bench/worker.py CHECKOUT_ROOT < request.json

The request is {"ops": [argv, ...], "trace": bool}.  The worker imports
`qfiber.cli` first and stamps the monotonic clock, which the parent compares
with its own stamp taken just before the spawn to get the set-up time.  Each
command then goes through `qfiber.cli.main` in process, one after another,
with its stdout and stderr captured; only the call itself is timed.

Between commands, and every TICK_S during an untraced command, the worker
runs the calibration block of bench/calibrate.py; the time of the blocks run
during a command is taken out of its time.  Each result carries the
command's measured seconds and its scaled seconds: measured times
`REFERENCE_S / mean` of the blocks from just before it to just after it.
Traced rounds run no timer, so that spans hold only qfiber's time.  The
reply on stdout is one JSON object.
"""

import sys
import time

sys.path.insert(0, sys.argv[1] + "/src")
import qfiber.cli  # noqa: E402

READY = time.monotonic()

import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from calibrate import REFERENCE_S, block  # noqa: E402

TICK_S = 0.05
WARMUP_BLOCKS = 5


class Speed:
    """Calibration block times, in the order they were run, and when the
    timer's blocks ran and how long they took."""

    def __init__(self) -> None:
        self.blocks: list[float] = []
        self.ticks: list[tuple[float, float]] = []

    def sample(self) -> None:
        self.blocks.append(block())

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.blocks.append(block())
        self.ticks.append((start, time.perf_counter() - start))

    def stolen(self, start: float, end: float) -> float:
        """Time the timer's blocks took between start and end."""
        return sum(took for at, took in self.ticks if start <= at < end)

    def timer(self, on: bool) -> None:
        if on:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        else:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, first: int, last: int) -> float:
        """REFERENCE_S over the mean of blocks first..last inclusive."""
        around = self.blocks[first : last + 1]
        return REFERENCE_S * len(around) / sum(around)


def main() -> None:
    request = json.load(sys.stdin)
    tracer = None
    entry = qfiber.cli.main
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.span("cli", "main", entry)
    speed = Speed()
    for _ in range(WARMUP_BLOCKS):
        block()
    results = []
    for op, argv in enumerate(request["ops"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.op = op
        first = len(speed.blocks)
        speed.sample()
        with redirect_stdout(out), redirect_stderr(err):
            speed.timer(tracer is None)
            start = time.perf_counter()
            try:
                code = entry(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
            except Exception:
                code = -1
                err.write(traceback.format_exc())
            speed.timer(False)
            end = time.perf_counter()
        results.append(
            {
                "exit": code,
                "seconds": end - start - speed.stolen(start, end),
                "first": first,
                "out": out.getvalue(),
                "err": err.getvalue()[-2000:],
            }
        )
    speed.sample()
    firsts = [result.pop("first") for result in results]
    for result, first, last in zip(results, firsts, firsts[1:] + [len(speed.blocks) - 1]):
        result["scaled"] = result["seconds"] * speed.scale(first, last)
        result["blocks"] = last - first + 1
    reply = {
        "ready": READY,
        "results": results,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "block_s": sorted(speed.blocks)[len(speed.blocks) // 2],
        "qfiber": os.path.abspath(qfiber.cli.__file__),
    }
    if tracer:
        reply["trace"] = tracer.dump()
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
