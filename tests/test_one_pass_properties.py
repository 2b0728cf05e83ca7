"""Property tests of the invariant behind one potential pass per Richardson
pair: on n -> 2n + 1 the coarse grid's samples, read at the odd positions
of the fine grid's pass, equal a pass of their own bit for bit."""

import math

import numpy as np
import pytest

from landaucrit import critical_field, groundstate
from landaucrit.potentials import PotentialSpec, log_mu_of_y
from landaucrit.sturm_liouville import grid_nodes, odd_points

from _reference import index_level

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(derandomize=True, deadline=None, max_examples=30, database=None)

#: half-length T of the t-interval and an odd interior point count n
T_AND_N = dict(T=st.floats(0.5, 12.0), n=st.integers(8, 1000).map(lambda k: 2 * k + 1))


def sliced(samples):
    """The coarse grid's samples, as sturm_liouville._mapped_domains yields them."""
    return tuple(s[1::2] for s in samples)


@SETTINGS
@hypothesis.given(nu=st.floats(0.05, 0.9), log10_B=st.floats(-1.0, 3.0), ell=st.integers(0, 3),
                  **T_AND_N)
def test_ground_level_grid(nu, log10_B, ell, T, n):
    spec = PotentialSpec(nu, 10.0**log10_B, ell)
    fine = groundstate._samples(spec, grid_nodes(T, 4 * n + 3)[1])
    own = groundstate._samples(spec, grid_nodes(T, 2 * n + 1)[1])
    assert all(np.array_equal(a, b) for a, b in zip(sliced(fine), own))
    assert (index_level(groundstate._Grid(spec, T, n, samples=sliced(fine)))
            == index_level(groundstate._Grid(spec, T, n)))


@SETTINGS
@hypothesis.given(delta=st.floats(0.05, 0.95), log10_B=st.floats(-2.0, 4.0), **T_AND_N)
def test_direct_route_grid(delta, log10_B, T, n):
    spec = PotentialSpec(delta, 10.0**log10_B)
    window = critical_field._window(delta, math.sqrt(spec.B) / delta)
    fine = groundstate._samples(spec, grid_nodes(T, 4 * n + 3)[1])
    own = groundstate._samples(spec, grid_nodes(T, 2 * n + 1)[1])
    assert all(np.array_equal(a, b) for a, b in zip(sliced(fine), own))
    assert (groundstate._Grid(spec, T, n, samples=sliced(fine)).threshold(window)
            == groundstate._Grid(spec, T, n).threshold(window))


@SETTINGS
@hypothesis.given(Y=st.floats(1.0, 200.0), h=st.floats(0.05, 0.5))
def test_schrodinger_grid_pair(Y, h):
    n = odd_points(Y, h)
    (step, log_mu), (step_fine, log_mu_fine) = critical_field._log_mu_grids(Y, h)
    want_step, nodes, _ = grid_nodes(Y, n)
    assert step == want_step and np.array_equal(log_mu, log_mu_of_y(nodes))
    want_step, nodes, _ = grid_nodes(Y, 2 * n + 1)
    assert step_fine == want_step and np.array_equal(log_mu_fine, log_mu_of_y(nodes))
