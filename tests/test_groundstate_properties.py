"""Property tests of the staggered Dirac level on one grid: it is the root of
Phi, its certified window reproduces the index selection to the
certificate's width, and T(-1) is the direct route's pencil plus one."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from landaucrit import critical_field, groundstate, sturm_liouville
from landaucrit.potentials import PotentialSpec

from _reference import index_level, phi_on

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
    assert abs(index_level(grid) - want) <= 1e-10


@SETTINGS
@hypothesis.given(nu=st.floats(0.05, 0.9), log10_B=st.floats(-1.0, 3.0), ell=st.integers(0, 3),
                  offset=st.floats(-0.5, 0.5), far=st.sampled_from([-10.0, 10.0]),
                  log10_gap=st.none() | st.floats(-7.0, -3.5), past=st.booleans())
def test_windowed_level_matches_index_selection(nu, log10_B, ell, offset, far, log10_gap, past):
    spec, T, n = PotentialSpec(nu, 10.0**log10_B, ell), 6.0, 479
    if log10_gap is not None:
        # B a fraction gap below (or ``past`` it, above) the grid's own
        # critical field 4/m^2, where T(-1) = 1 + sqrt(B) m reaches -1: the
        # level lies less than 2e-4 above -1 (or just below it), and its
        # windows reach down to their bottom
        m = groundstate._Grid(replace(spec, B=1.0), T, n).threshold(None)[0]
        hypothesis.assume(m < 0.0)
        spec = replace(spec, B=(1.0 + (1.0 if past else -1.0) * 10.0**log10_gap) * 4.0 / m**2)
    grid = groundstate._Grid(spec, T, n)
    W = groundstate.LEVEL_WINDOW
    want = index_level(grid)
    # every window's bottom lies at or above -1 - min(nu a)/2, above which the
    # g block -(1 + lo + nu a) is negative definite; a level below it lies
    # under every window
    bottom = -1.0 - 0.5 * grid.nu_a[[0, -1]].min()
    hypothesis.assume(want > bottom)
    # half a window off, the level is certified within CERTIFICATE_WIDTH of itself
    near = want + offset * min(W, (1.0 - want) / 32.0)
    assert (grid.window(near)[0] == bottom) == (near - W <= bottom)
    got = grid.level(near)
    width = sturm_liouville.CERTIFICATE_WIDTH * abs(got)
    assert abs(got - want) <= width and grid.solves == 1 and grid.top == got + width
    # 10 windows away the window misses: identical through the index selection,
    # unless it is clipped at its bottom up to a level just above it
    lo, hi = grid.window(want + far * W)
    got = grid.level(want + far * W)
    if lo < want <= hi:
        assert lo == bottom and abs(got - want) <= sturm_liouville.CERTIFICATE_WIDTH * abs(got)
    else:
        assert got == want


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
