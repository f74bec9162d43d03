"""Probes that time the shared host, so end-to-end times can be scaled to it.

The host this benchmark was tuned on (2 vCPUs of a shared machine) swings
in speed by tens of percent over minutes, and every op slows down with it.
A probe is a fixed piece of work that runs no bindet code, so no change to
bindet moves it.  The runner times the workload's probe after every op
(or every other op), outside the ops' timing, and scales each end-to-end
time of the run by the probe's ``REF_NS`` over its median time in the run
(see ``run.end_to_end``).  The figures then read as times on a host where
the probe takes ``REF_NS``.

Each workload uses the probe whose work resembles its ops:

* ``ComputeProbe`` (``construct-batch``, ``spectrum``): an exact
  determinant of one fixed 0/1 matrix by the benchmark's own elimination
  (``refimpl.det``), big-integer arithmetic over lists as in bindet's hot
  loops; about 2 ms.
* ``StartupProbe`` (``cli-oneshot``): a fresh interpreter that imports
  refimpl, and with it numpy and mpmath, as every ``bindet`` process
  imports them, then runs ComputeProbe's determinant 35 times; about
  350 ms, after every other op.  Process start-up and arithmetic slow
  down by different amounts on a shared host, so neither alone tracks an op.
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import refimpl

HERE = Path(__file__).resolve().parent


class ComputeProbe:
    REF_NS = 2_000_000
    EVERY = 1
    N = 36

    def __init__(self):
        rng = random.Random(0)
        self.rows = [[rng.randint(0, 1) for _ in range(self.N)] for _ in range(self.N)]
        self.expected = refimpl.det(self.rows)

    def __call__(self) -> int:
        t0 = perf_counter_ns()
        value = refimpl.det(self.rows)
        t1 = perf_counter_ns()
        if value != self.expected:
            raise RuntimeError("compute probe got a different determinant")
        return t1 - t0


class StartupProbe:
    """A fresh interpreter that imports refimpl and runs ComputeProbe's work.

    Importing refimpl imports numpy and mpmath, as every ``bindet``
    process does before its own code runs; the determinants then stand in
    for the certification a ``bindet`` op does after that.  Start-up and
    arithmetic slow down by different amounts on a shared host, so the probe
    mixes them roughly as a ``cli-oneshot`` op does.
    """

    REF_NS = 350_000_000
    EVERY = 2
    DETS = 35
    TIMEOUT_S = 60
    SCRIPT = ("import random, sys; sys.path.insert(0, sys.argv[1]); import refimpl; "
              "rng = random.Random(0); n = int(sys.argv[2]); "
              "rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]; "
              "[refimpl.det(rows) for _ in range(int(sys.argv[3]))]")

    def __call__(self) -> int:
        cmd = [sys.executable, "-c", self.SCRIPT, str(HERE), str(ComputeProbe.N), str(self.DETS)]
        t0 = perf_counter_ns()
        subprocess.run(cmd, check=True, timeout=self.TIMEOUT_S)
        return perf_counter_ns() - t0
