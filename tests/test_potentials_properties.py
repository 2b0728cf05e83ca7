"""Property test: the Chebyshev fits of a_ell, built separately for each
ell, obey the exact three-term recurrence between neighbouring indices."""

import numpy as np
import pytest

from landaucrit.potentials import a_scaled_vec

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(derandomize=True, deadline=None, max_examples=60, database=None)
@hypothesis.given(ell=st.integers(1, 6), zeta=st.floats(0.0, 1e3))
def test_three_term_recurrence(ell, zeta):
    # 2(ell+1) a_(ell+1) = (2ell+1 - zeta^2) a_ell + zeta^2 a_(ell-1) follows from
    # w_ell = zeta^2 a_ell + 2(ell+1) a_(ell+1) and w_ell = w_(ell-1) + a_ell, the
    # latter by parts: d/dt [t^(2ell) e^(-t^2/2)] against sqrt(t^2 + zeta^2)
    lower, mid, upper = (float(a_scaled_vec(k, np.array([zeta]))[0]) for k in (ell - 1, ell, ell + 1))
    terms = (2 * (ell + 1) * upper, (2 * ell + 1) * mid, zeta * zeta * mid, zeta * zeta * lower)
    residual = terms[0] - terms[1] + terms[2] - terms[3]
    assert abs(residual) <= 1e-12 * sum(terms)
