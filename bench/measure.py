"""Process timing, host-speed gauge and summary statistics for runner and probes."""
from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass


# A fixed pure-Python loop, and an interpreter start (`python -c pass`), with
# their times on an uncontended core of the reference host (2.1 GHz Xeon,
# Python 3.11).
GAUGE_ITERATIONS = 200_000
GAUGE_NOMINAL_S = 0.0133
STARTUP_GAUGE_NOMINAL_S = 0.043


def _spin() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(GAUGE_ITERATIONS):
        x += i * i % 7
    return time.perf_counter() - start


class SpeedGauge:
    """The host's momentary speed, sampled right before each timed step.

    On a shared host the same command's wall time swings by up to 2x over
    minutes, and a fixed loop run just before it slows by about as much.  A
    wall time multiplied by the factor ``sample()`` returns is in seconds at
    the reference speed (the loop taking GAUGE_NOMINAL_S); such times vary
    across runs several times less than raw ones.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []

    def sample(self) -> float:
        factor = GAUGE_NOMINAL_S / _spin()
        self.factors.append(factor)
        return factor

    def sample_startup(self, env, cwd) -> float:
        """Factor from an interpreter start, for steps that are mostly start-up.

        Process start-up drifts apart from the loop's speed on this host; a
        start-up gauge tracks ``--help`` about twice as closely.
        """
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True)
        factor = STARTUP_GAUGE_NOMINAL_S / (time.perf_counter() - start)
        self.factors.append(factor)
        return factor


@dataclass(frozen=True)
class Outcome:
    wall_s: float
    rc: int
    stdout: str
    stderr: str
    rss_mb: float
    timed_out: bool


def run_process(args, *, env, cwd, timeout: float) -> Outcome:
    """Run ``args`` to completion; wall time, exit code, output and peak RSS.

    Output goes to files so no reader thread runs while the child does; the
    child is killed after ``timeout`` seconds and always reaped before return.
    """
    out_path = os.path.join(cwd, ".stdout")
    err_path = os.path.join(cwd, ".stderr")
    killed = threading.Event()
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=cwd)

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    return Outcome(
        wall_s=wall,
        rc=proc.returncode,
        stdout=stdout,
        stderr=stderr,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        timed_out=killed.is_set(),
    )


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, int, int]:
    """Highest whole percentile with at least ten samples above it.

    Returns (value, percentile, n) with the nearest-rank percentile; with
    fewer than eleven samples no such percentile exists and the maximum is
    returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100, n
    best = 0
    for p in range(1, 100):
        rank = max(1, math.ceil(p * n / 100.0))
        if n - rank >= 10:
            best = p
    rank = max(1, math.ceil(best * n / 100.0))
    return ordered[rank - 1], best, n
