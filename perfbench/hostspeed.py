"""Host-speed probe: a fixed piece of work timed between the benchmark's calls.

On a shared virtual machine the speed of a vCPU drifts in phases of a few
seconds: the same wingtip-train call takes 0.33 s in one phase and 0.47 s in
the next, and process CPU time follows wall time, so the time is not taken
from the process but the machine runs it slower.  Across runs these phases
spread wall-clock medians by 10-30 %, more than a regression bound.

The benchmark therefore times this probe before and after every call and
scales the call's wall time by ``REFERENCE_S / probe``, the probe time taken
as the mean of the two probes around the call.  A scaled time reads as the
time the call would take at the speed at which the probe takes
``REFERENCE_S``.  The probe is the benchmark's own code, so no change to the
program moves it; a program change that makes a call slower raises its scaled
time by the same factor as its wall time.

The probe is interpreted Python plus many numpy calls on small arrays.  On
the baseline machine it tracked the phases of all four workloads better than
a probe that streams over arrays larger than L2, scan-encode included.
"""

from __future__ import annotations

import time

import numpy as np

# Probe seconds that scaled figures are expressed at: close to the probe's
# time on the 2-vCPU Xeon guest the baseline was measured on.
REFERENCE_S = 0.020
_SMALL = np.arange(2000.0)


def _work():
    s = 0
    for i in range(100_000):
        s += i * i % 7
    a = _SMALL
    for _ in range(1000):
        a = np.sqrt(a * a + 1.0)
    return s + float(a[0])


def probe():
    """Wall seconds the fixed probe work takes now."""
    t = time.perf_counter()
    _work()
    return time.perf_counter() - t


def scale(seconds, probe_s):
    """Wall seconds of a call rescaled to the reference host speed."""
    return seconds * REFERENCE_S / probe_s
