"""Host speed, read from fixed probes, and timed intervals scaled by it.

The speed of the VM this benchmark was built on drifts by up to 60% within
tens of seconds, with little steal time: a fixed loop and a fresh taubench
process slow down and speed up together.  Such drift covers whole runs, so
medians within a run cannot remove it.  The driving process therefore
measures the host speed before and after everything it times, with probes
that do not depend on the program, and scales each interval to the host
speed at which a probe takes its reference time:

  compute  a fixed pure-Python loop of integer and dict work, run by the
           driving process between timed operations.  The host's speed
           also flickers within a second (back-to-back loops of 40 ms
           differ by 14% or more one time in ten), so a probe is the
           median of PASSES loops.  It tracks the program's computation:
           over 31 runs of a 3.5 s `verify kdv`, the spread (IQR/median)
           fell from 0.23 raw to 0.085 scaled.
  spawn    a fresh `python3 -c pass` process, run before and after each
           short process that is mostly interpreter start and imports.  It
           tracks those: over 19 groups of 16 cold starts, the spread of
           the group medians fell from 0.068 raw to 0.023 scaled.

No probe runs beside a working child: with two vCPUs, a probe beside a
busy child ran almost twice as slow, so it would measure the child's own
load.  A child that works longer than PROBE_EVERY seconds is instead stopped
(SIGSTOP) every PROBE_EVERY seconds for a compute probe and then continued,
so that drift within a long operation is measured too; the time it is held
does not count in its wall time.  Traced operations are not held, since
their spans would count the time held.  A change to the program moves a
scaled time as it moves the wall time.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time

REFERENCE_S = {"compute": 0.040, "spawn": 0.058}  # probe times on a 2.1 GHz vCPU, Python 3.11
SPAWN_ARGV = (sys.executable, "-c", "pass")
PASSES = 5
PROBE_EVERY = 2.0  # seconds between probes taken while a child is held


def _compute() -> None:
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    table: dict[int, int] = {}
    for i in range(50_000):
        table[i % 997] = table.get(i % 997, 0) + i


class Pace:
    """The probes of one run, as (end time, probe seconds) per kind."""

    def __init__(self, env: dict, cwd):
        self.env, self.cwd = env, cwd
        self.probes: dict[str, list[tuple[float, float]]] = {k: [] for k in REFERENCE_S}

    def compute(self) -> None:
        passes = []
        for _ in range(PASSES):
            start = time.perf_counter()
            _compute()
            passes.append(time.perf_counter() - start)
        self.probes["compute"].append((time.perf_counter(), statistics.median(passes)))

    def probe_held(self, pid: int):
        """Stop child `pid`, take a compute probe while it is stopped, and
        continue it.  Returns (seconds it was held, None), or (0.0, (status,
        rusage)) when the child ended instead of stopping, which reaps it."""
        start = time.perf_counter()
        os.kill(pid, signal.SIGSTOP)
        _, status, usage = os.wait4(pid, os.WUNTRACED)
        if not os.WIFSTOPPED(status):
            return 0.0, (status, usage)
        try:
            self.compute()
        finally:
            os.kill(pid, signal.SIGCONT)
        return time.perf_counter() - start, None

    def spawn(self) -> None:
        start = time.perf_counter()
        subprocess.run(SPAWN_ARGV, cwd=self.cwd, env=self.env, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        end = time.perf_counter()
        self.probes["spawn"].append((end, end - start))

    def factor(self, kind: str, start: float, end: float) -> float:
        """Reference over measured probe time, from the probes of `kind`
        that ended within [start, end] and the nearest one on either side."""
        probes = self.probes[kind]
        before = [i for i, (t, _) in enumerate(probes) if t <= start]
        after = [i for i, (t, _) in enumerate(probes) if t >= end]
        lo = before[-1] if before else 0
        hi = after[0] if after else len(probes) - 1
        return REFERENCE_S[kind] / statistics.fmean(d for _, d in probes[lo:hi + 1])
