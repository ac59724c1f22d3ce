"""Machine-speed calibration interleaved with the measured calls.

On a shared host the same work can take twice as long from one second to the
next, and the share of slow time drifts from minute to minute.  A fixed
kernel that resembles the program's hot paths (exact rational arithmetic,
small numpy calls, integer and string handling in the interpreter) runs in
short slices after each measured call, for about a fifth of the call's time,
so the slices sample the host's state at the same density as the calls.
The slices just before and just after a call, against the slice time of an
idle reference machine, give that call's slowdown factor; times are reported
divided by it, and the raw values are kept beside them.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

# Slice time on an idle 2-vCPU Intel Xeon (2.1 GHz) VM, Python 3.11,
# numpy 2.4 with one BLAS thread.
REFERENCE_SLICE_S = 0.0155
UNITS_PER_SLICE = 25
# calibration time after each measured call, as a share of the call's time
CALIBRATION_SHARE = 0.2
# slices before the first call of a list
LEAD_SLICES = 4


def _unit(a=np.arange(96)):
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i % 7 - 3, 9)
        int(np.bincount(a % (i % 5 + 2)).sum())
    return len(" ".join(str(x * x % 97) for x in range(400)).split()) + acc.numerator


def calibration_slice():
    """Run one slice of the kernel; return its wall time."""
    t0 = perf_counter()
    for _ in range(UNITS_PER_SLICE):
        _unit()
    return perf_counter() - t0


def slices_after(seconds):
    """Slices to run after a call of this length: about CALIBRATION_SHARE of it."""
    return max(1, round(CALIBRATION_SHARE * seconds / REFERENCE_SLICE_S))


def slowdowns(groups):
    """Slowdown factor of each call from the slice groups around it.

    groups[0] ran before the first call and groups[k + 1] after call k; a
    call's factor is the mean of the group means on either side of it, over
    the reference slice time.
    """
    means = [sum(g) / len(g) for g in groups]
    return [(a + b) / 2 / REFERENCE_SLICE_S for a, b in zip(means, means[1:])]
