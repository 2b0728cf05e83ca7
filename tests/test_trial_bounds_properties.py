"""Property test: the Hermite profile's derivative, one contraction of the
oscillator table, equals the ladder sum taken one coefficient at a time."""

import math

import numpy as np
import pytest

from landaucrit.trial_bounds import HermiteBasisProfile

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(derandomize=True, deadline=None, max_examples=100, database=None)
@hypothesis.given(coeffs=st.lists(st.integers(-10**6, 10**6).map(lambda i: i / 10**5),
                                  min_size=1, max_size=12),
                  scale=st.floats(0.3, 4.0))
def test_derivative_is_the_ladder_sum(coeffs, scale):
    profile = HermiteBasisProfile(coeffs, scale)
    z = profile.support_radius() * np.linspace(-1.0, 1.0, 201)
    psi = profile._psi_table(z / scale, len(coeffs))
    # psi_k' = sqrt(k/2) psi_(k-1) - sqrt((k+1)/2) psi_(k+1)
    want = np.zeros_like(z)
    for k, c in enumerate(coeffs):
        want += c * (-math.sqrt((k + 1) / 2.0) * psi[k + 1])
        if k >= 1:
            want += c * math.sqrt(k / 2.0) * psi[k - 1]
    want /= scale**1.5
    got = profile.derivative(z)
    assert got.shape == z.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
