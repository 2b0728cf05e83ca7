"""Set-up cost of the package: import it and fill its lazy caches.

Run as a script, it prints the seconds this took in a fresh interpreter.
The benchmark also calls :func:`setup` in its own process before timing.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def setup() -> float:
    """Seconds to import every package module and warm the caches through public calls."""
    t0 = time.perf_counter()
    from landaucrit import critical_field, groundstate, potentials, trial_bounds  # noqa: F401
    potentials.z_of_y(1.0)
    for ell in (1, 2, 3):
        potentials.a_scaled_vec(ell, [0.5])
        trial_bounds.w_scaled_vec(ell, [0.5])
    potentials.mu_bound_constant()
    critical_field.nu_bar()
    return time.perf_counter() - t0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    print(repr(setup()))
