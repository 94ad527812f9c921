"""Machine-speed calibration for the end-to-end times.

The benchmark runs on a few cores of a shared host, whose speed drifts by
up to half over seconds to tens of minutes as other tenants come and go;
every kind of CPU work slows together. A fixed kernel (a Python loop and
numpy array work, single-threaded, never touching the program) is timed
between the units of work, and each unit's wall time is scaled by
REF_KERNEL_S over the mean of the kernel times just before and just after
it. The scaled time is the unit's time on a machine that runs the kernel in
REF_KERNEL_S: the host's drift cancels, a change to the program does not.
The raw wall times and kernel times go to the record line.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# the kernel's time on the reference machine (a 2-vCPU VM, Python 3 with
# numpy 2); the value only fixes the scale of the reported numbers
REF_KERNEL_S = 0.025
_N = 2**14
_REPS = 12
_LOOP = 20_000


def kernel_s() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    t0 = perf_counter()
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(_REPS):
        x = rng.standard_normal(_N)
        y = np.exp(-np.abs(np.cumsum(x)) * 1e-3) * np.sqrt(np.abs(x) + 1.0)
        y.sort()
        acc += float(np.abs(np.fft.rfft(y)[1]))
        s = 0.0
        for k in range(_LOOP):
            s += k * 0.5
        acc += s
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return perf_counter() - t0


class Calibration:
    """Scale factors for consecutive units of work: next() runs the kernel
    and returns REF_KERNEL_S over the mean of this and the previous kernel
    time, the factor for the unit that ran between them."""

    def __init__(self):
        self.kernel_times = [kernel_s()]

    def next(self) -> float:
        self.kernel_times.append(kernel_s())
        return REF_KERNEL_S / (0.5 * (self.kernel_times[-2] + self.kernel_times[-1]))
