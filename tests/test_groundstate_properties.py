"""Property tests of the staggered Dirac level on one grid: it is the root of
Phi, its certified window reproduces the index selection to the
certificate's width, and T(-1) is the direct route's pencil plus one."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from landaucrit import critical_field, groundstate, sturm_liouville
from landaucrit.potentials import PotentialSpec

from _reference import phi_on

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(derandomize=True, deadline=None, max_examples=30, database=None)


@SETTINGS
@hypothesis.given(nu=st.floats(0.05, 0.9), log10_B=st.floats(-1.0, 3.0), ell=st.integers(0, 3))
def test_level_is_the_root_of_phi(nu, log10_B, ell):
    grid = groundstate._Grid(PotentialSpec(nu, 10.0**log10_B, ell), 6.0, 479)
    # Phi = T - lambda changes sign on [-1, 1]: a root, not a degenerate level
    hypothesis.assume(phi_on(grid, -1.0)[0] > 0.0 > phi_on(grid, 1.0)[0])
    want = brentq(lambda lam: phi_on(grid, lam)[0], -1.0, 1.0, xtol=1e-13, rtol=8.9e-16)
    assert abs(grid.level() - want) <= 1e-10


@SETTINGS
@hypothesis.given(nu=st.floats(0.05, 0.9), log10_B=st.floats(-1.0, 3.0), ell=st.integers(0, 3),
                  offset=st.floats(-0.5, 0.5), far=st.sampled_from([-10.0, 10.0]))
def test_windowed_level_matches_index_selection(nu, log10_B, ell, offset, far):
    spec, T, n = PotentialSpec(nu, 10.0**log10_B, ell), 6.0, 479
    W = groundstate.LEVEL_WINDOW
    want = groundstate._Grid(spec, T, n).level()
    # every window below stays above -1, where the Schur complement applies
    hypothesis.assume(want - 11.0 * W > -1.0)
    # half a window off, the level is certified within CERTIFICATE_WIDTH of itself
    near = groundstate._Grid(spec, T, n, centre=want + offset * min(W, (1.0 - want) / 32.0))
    got = near.level()
    width = sturm_liouville.CERTIFICATE_WIDTH * abs(got)
    assert abs(got - want) <= width and near.solves == 1 and near.top == got + width
    # 10 windows away the window misses: identical through the index selection
    assert groundstate._Grid(spec, T, n, centre=want + far * W).level() == want


@hypothesis.settings(derandomize=True, deadline=None, max_examples=20, database=None)
@hypothesis.given(nu=st.floats(0.05, 0.9), log10_B=st.floats(-2.0, 4.0))
def test_T_at_minus_one_is_one_plus_sqrt_B_m(nu, log10_B):
    # at lambda = -1 the T-pencil is the direct route's pencil plus the
    # identity on the same t-grid, and sqrt(B) z = sinh(t) makes that grid
    # the same for every B; both sides agree to the float floor of T
    B, T, n = 10.0**log10_B, 6.0, 479
    phi, floor = phi_on(groundstate._Grid(PotentialSpec(nu, B), T, n), -1.0)

    def m(B):
        window = critical_field._window(nu, math.sqrt(B) / nu)
        return groundstate._Grid(PotentialSpec(nu, B), T, n).threshold(window)[0]

    one_plus_m = 1.0 + m(B)
    assert abs((phi - 1.0) - one_plus_m) <= 4.0 * floor
    assert abs(one_plus_m - (1.0 + math.sqrt(B) * m(1.0))) <= 4.0 * floor
