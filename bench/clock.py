"""Nominal-speed clock for a shared, noisy host.

On a shared 2-vCPU x86_64 host, the same depth-10 certificate took anywhere
from 0.30 s to 0.44 s depending on what the rest of the host was doing, in
phases a few seconds long; CPU time swung just as much as wall time.
To keep run-to-run spread small, the benchmark reads time from this clock:

* a SIGALRM timer runs a fixed calibration loop every INTERVAL_S seconds
  (small-array numpy calls and dict work, the same mix as per-node
  certificate work, with no code from the package under test);
* wall time between two calibrations is scaled by
  NOMINAL_S / (CPU time of the latest calibration loop);
* the calibration itself is left out of the timeline.

A single-threaded child process (a set-up process) can be timed this way
too, inside `alongside()`: the calibration then runs on the other CPU while
the child works, and its intervals stay in the timeline because the child
kept working through them (in a paired trial of six seeds of pointwise, the
spread of setup_s across seeds was 8% this way against 19% for raw wall
time).  The multi-process CLI workload is timed with plain perf_counter
instead: a calibration running alongside competes with its pool workers for
the CPUs, and calibrations made in the idle benchmark process just before
and after a CLI run do not track its speed (in paired trials of eight seeds
on the same host, cli-workers2 wall_s spread 9% that way against 5% for raw
wall time).

A reading is therefore "seconds at nominal host speed".  It moves with the
program's speed exactly as wall time does, and raw wall times are printed
next to it in every report.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

NOMINAL_S = 0.0085      # calibration loop CPU time at nominal speed
INTERVAL_S = 0.25
_V = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0, 8.0, 9.0, 7.0, 9.0, 3.0])


def calibration_work(reps: int = 250) -> float:
    x = 0.0
    for i in range(reps):
        u = np.unique(_V)
        k = _V.size - np.searchsorted(np.sort(_V), u, side="left")
        d = np.diff(np.concatenate([[0.0], u]))
        x += float(np.dot(d, k / 16.0))
        x += float(np.where(u > 2, u * np.log(u), 0.0).sum())
        t = {"a": x, "b": i}
        x += t["b"] * 1e-9
    return x


class NominalClock:
    def __init__(self) -> None:
        # (nominal seconds at ref, perf_counter at ref, factor); replaced as a
        # whole so a reading never mixes two calibrations
        self._state = (0.0, time.perf_counter(), 1.0)
        self._busy = False
        self._alongside = False
        self.calibrations: list[float] = []

    def now(self) -> float:
        while True:
            state = self._state
            t = time.perf_counter()
            if self._state is state:      # no calibration ran in between
                return state[0] + (t - state[1]) * state[2]

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextmanager
    def alongside(self):
        """Count calibration time in the timeline while the block runs: for
        waiting on a single-threaded child process that keeps working."""
        self._alongside = True
        try:
            yield
        finally:
            self._alongside = False

    def _tick(self, *_) -> None:
        if self._busy:          # a tick that arrives during a calibration
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            nominal, ref, factor = self._state
            c0 = time.thread_time()
            calibration_work()
            cpu = time.thread_time() - c0
            self.calibrations.append(cpu)
            t1 = time.perf_counter()
            upto = t1 if self._alongside else t0
            self._state = (nominal + (upto - ref) * factor, t1, NOMINAL_S / cpu)
        finally:
            self._busy = False
