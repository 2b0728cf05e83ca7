"""Self-checks of the per-call times; run with ``python3 -m pytest perfbench/tests``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from run import Pass, call_times  # noqa: E402


def test_uncalibrated_times_are_per_call_medians():
    passes = [Pass(False, 0.0, [1.0, 5.0], []), Pass(False, 0.0, [3.0, 4.0], []),
              Pass(False, 0.0, [2.0, 9.0], [])]
    assert call_times(passes, reference_s=7.0) == [2.0, 5.0]


def test_calibrated_times_are_scaled_to_the_reference_kernel_time():
    # the kernel takes twice the reference time beside the first call of the
    # first pass, so that call is halved; the second call sees 1.5 times it
    slow = Pass(False, 0.0, [2.0, 3.0], [], kernel=[2.0, 2.0, 1.0])
    steady = Pass(False, 0.0, [1.0, 3.0], [], kernel=[1.0, 1.0, 1.0])
    assert call_times([slow], reference_s=1.0) == [1.0, 2.0]
    assert call_times([slow, steady, steady], reference_s=1.0) == [1.0, 3.0]
    assert call_times([steady], reference_s=0.5) == [0.5, 1.5]
