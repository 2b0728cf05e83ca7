"""Property test: m(delta, B) = sqrt(B) m(delta, 1) on the sinh-mapped grid."""

import math

import pytest

from landaucrit.critical_field import m_delta

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(derandomize=True, deadline=None, max_examples=20, database=None)
@hypothesis.given(delta=st.floats(0.1, 0.7), log10_B=st.floats(-2.0, 4.0))
def test_m_scales_like_sqrt_B(delta, log10_B):
    # sqrt(B) z = sinh(t) makes the t-grid the same for every B, so the two
    # sides differ only by rounding
    B = 10.0**log10_B
    assert m_delta(delta, B=B) == pytest.approx(math.sqrt(B) * m_delta(delta), rel=1e-9)
