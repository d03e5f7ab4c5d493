"""Machine-speed probe for the timed rounds.

On the reference machine, a 2-CPU VM shared with other work, speed swings
by up to 2x within seconds: a fixed 28 ms kernel took between 28 and 89 ms
over 40 s, with user time equal to wall time throughout.  A timed round
therefore runs a small fixed kernel from an interval timer, in the same
thread, between the program's bytecodes.  The probes sample the speed at
which the program is running, and a round's normalised time is

    (wall time - probe time) * mean(REFERENCE_PROBE_S / probe time)

that is, the time the round would take at the reference speed.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

#: time of one probe on the reference machine (2-CPU x86-64 VM, Python
#: 3.11, numpy 2.4): the median of 232 in-run probes over three
#: quadratic-sweep rounds and one rate-control round
REFERENCE_PROBE_S = 2.6e-3
#: wall-clock interval between probes; one probe costs about 2-3% of it
INTERVAL_S = 0.1

_A = np.arange(240.0).reshape(16, 15) / 240.0
_X0 = np.linspace(0.0, 1.0, 15)


def kernel() -> float:
    """Small-array numpy steps, small symmetric eigenvalue problems, JSON
    encoding and dict and string work: the mix of the program's inner
    loops, validators, set-up and output writing."""
    x, total, seen = _X0, 0.0, {}
    for i in range(100):
        y = np.clip(x - 0.01 * (_A.T @ (_A @ x)), 0.0, 2.0)
        total += float(np.linalg.norm(y - x))
        seen[f"k{i}"] = total
        x = y
    for i in range(40):
        row = json.dumps({"k": i, "x": [float(v) for v in _X0[:4]], "s": f"row {i}"})
        total += float(np.linalg.eigvalsh(np.eye(3) * (i + 1.0)).min()) + len(row)
    return total


class SpeedProbe:
    """Context manager that probes the machine speed every ``INTERVAL_S``
    seconds of wall time while it is active."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _probe(self, signum, frame):
        started = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - started)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def probe_s(self) -> float:
        return sum(self.samples)

    def factor(self) -> float:
        """Mean speed relative to the reference over the probes so far."""
        if not self.samples:
            return 1.0
        return statistics.fmean(REFERENCE_PROBE_S / s for s in self.samples)
