"""Property test: on any grid the staggered Dirac level is the root of Phi."""

import pytest
from scipy.optimize import brentq

from landaucrit import groundstate
from landaucrit.potentials import PotentialSpec

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(derandomize=True, deadline=None, max_examples=30, database=None)
@hypothesis.given(nu=st.floats(0.05, 0.9), log10_B=st.floats(-1.0, 3.0), ell=st.integers(0, 3))
def test_level_is_the_root_of_phi(nu, log10_B, ell):
    grid = groundstate._Grid(PotentialSpec(nu, 10.0**log10_B, ell), 6.0, 479)
    # Phi = T - lambda changes sign on [-1, 1]: a root, not a degenerate level
    hypothesis.assume(grid.phi(-1.0)[0] > 0.0 > grid.phi(1.0)[0])
    want = brentq(lambda lam: grid.phi(lam)[0], -1.0, 1.0, xtol=1e-13, rtol=8.9e-16)
    assert abs(grid.level() - want) <= 1e-10
