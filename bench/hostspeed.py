"""Correction of measured times for the speed of a shared host.

On a shared virtual machine the speed of the host's cores drifts with the
load of other tenants: ten consecutive runs of one workload have differed by
up to 50% in throughput, and the speed can swing by 20% within ten seconds.
Timings of a fixed reference kernel, benchmark code that no change to the
program can touch, are therefore interleaved with the timed calls.  A measured
time ``t`` is reported as ``t * REFERENCE_KERNEL_S / k``, with ``k`` the
median of the kernel timings around it: the time the call would have taken on
a host on which the kernel takes ``REFERENCE_KERNEL_S``.  Ratios between two
versions of the program keep their meaning; the drift of the host cancels.
"""

import math
import statistics
from time import perf_counter

import numpy as np
from scipy import special

# median kernel time on a 2-vCPU Intel Xeon virtual machine, Python 3.11,
# numpy 2.4, scipy 1.17; only ratios to it enter the reported times
REFERENCE_KERNEL_S = 3.0e-3
# sample the kernel at most this often, and scale each call by the median of
# the samples around it, so the factor follows the host within about a second
SAMPLE_PERIOD_S = 0.1
WINDOW = 6

_L = np.arange(1.0, 257.0)
_Y = _L[:64] * (0.3 + 1.0j)


def reference_kernel():
    """A fixed mix of scalar Python, small numpy arrays and a scipy special
    function, the kinds of work the program spends its time on."""
    total = 0.0
    for i in range(200):
        f = 0.5 + 0.002 * i
        total += float((f**_L / _L**1.5).sum())
        for j in range(40):
            total += math.exp(-j * f) / (j + f)
    return total + float(np.abs(special.wofz(_Y)).sum())


class HostSpeed:
    """Reference-kernel timings taken between calls, and the factor they give."""

    def __init__(self):
        self.samples = []
        self._last = -math.inf
        reference_kernel()  # the first call pays for lazy set-up in scipy

    def sample(self, force=False):
        """Time the kernel, unless it was timed within SAMPLE_PERIOD_S."""
        if not force and perf_counter() - self._last < SAMPLE_PERIOD_S:
            return
        t0 = perf_counter()
        reference_kernel()
        self._last = perf_counter()
        self.samples.append(self._last - t0)

    def factor(self, mark):
        """REFERENCE_KERNEL_S over the median of the WINDOW kernel timings
        centred on ``mark``, the number of timings taken before a call."""
        half = WINDOW // 2
        return REFERENCE_KERNEL_S / statistics.median(self.samples[max(0, mark - half): mark + half])
