"""A fixed interpreter-bound kernel that the timed calls are calibrated against.

On a shared host the speed of interpreted code swings by up to twice within
seconds, as other tenants come and go, while LAPACK eigen-solves barely move.
The kernel runs the way the trial-state integrals do (``quad`` calling a
Python integrand on one-element numpy arrays) but uses nothing of the
package, so it tracks the host's speed and no change to the program moves it.
A calibrated time is a call's seconds times REFERENCE_S over the kernel's
seconds beside the call: the call's time at the speed where the kernel takes
REFERENCE_S.
"""

import time

import numpy as np
from scipy.integrate import quad

#: seconds of :func:`kernel` on a quiet core of the 2-vCPU Xeon test host
#: (its fastest of 300 runs, 6.6-6.7 ms); a fixed scale, so that calibrated
#: times of different runs compare as they are
REFERENCE_S = 0.0066


def _integrand(x, shift):
    a = np.array([x - shift])
    return float((np.sqrt(a * a + 1.0) * np.exp(-a * a))[0])


def kernel() -> float:
    """Seconds for six fixed adaptive quadratures."""
    t0 = time.perf_counter()
    for shift in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        quad(_integrand, -8.0, 8.0, args=(shift,), epsabs=1e-300, epsrel=1e-12,
             limit=200, points=[0.0])
    return time.perf_counter() - t0
