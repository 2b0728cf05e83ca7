"""Tests for the unit conventions: coupling from the nuclear charge and the
field in Tesla."""

import math

import pytest

from landaucrit.units import (DEFAULT_CONSTANTS, PhysicalConstants, Z_of_nu,
                              log10_tesla_of_log_B, nu_of_Z, tesla_of_B)


def test_nu_of_Z_admits_Z_below_one_over_alpha():
    # 1/alpha = 137.037: Z = 137 gives nu just below 1, Z = 138 above
    assert nu_of_Z(137) == pytest.approx(137.0 / 137.037, rel=1e-15) and nu_of_Z(137) < 1.0
    with pytest.raises(ValueError, match="outside the admissible range"):
        nu_of_Z(138)


@pytest.mark.parametrize("Z", [0, -1, 2.5])
def test_nu_of_Z_rejects_non_positive_or_fractional_Z(Z):
    with pytest.raises(ValueError, match="positive integer"):
        nu_of_Z(Z)


@pytest.mark.parametrize("Z", [1, 26, 92, 137])
def test_Z_of_nu_inverts_nu_of_Z(Z):
    assert Z_of_nu(nu_of_Z(Z)) == pytest.approx(Z, rel=1e-15)


@pytest.mark.parametrize("nu", [0.0, 1.0, -0.5, math.nan])
def test_Z_of_nu_rejects_nu_outside_the_unit_interval(nu):
    with pytest.raises(ValueError):
        Z_of_nu(nu)


@pytest.mark.parametrize("B", [1e-3, 1.0, 37.5, 1e8])
def test_log10_tesla_matches_tesla(B):
    assert log10_tesla_of_log_B(math.log(B)) == pytest.approx(
        math.log10(tesla_of_B(B)), rel=1e-14)
    assert tesla_of_B(B) == B * DEFAULT_CONSTANTS.B_unit_tesla


@pytest.mark.parametrize("B", [0.0, -1.0, math.nan, math.inf])
def test_tesla_of_B_rejects_non_positive_fields(B):
    with pytest.raises(ValueError, match="B must be positive and finite"):
        tesla_of_B(B)


def test_constants_override_and_nonrelativistic_unit():
    sharp = PhysicalConstants(alpha=1.0 / 137.035999, B_unit_tesla=4.414e9)
    assert tesla_of_B(2.0, sharp) == 2.0 * 4.414e9
    assert sharp.nonrel_B_unit_tesla == pytest.approx(4.414e9 / 137.035999**2, rel=1e-15)
    # about 2.35e5 T, the atomic unit of field
    assert DEFAULT_CONSTANTS.nonrel_B_unit_tesla == pytest.approx(2.343e5, rel=1e-3)


@pytest.mark.parametrize("kwargs", [dict(alpha=0.0), dict(alpha=-1e-2),
                                    dict(B_unit_tesla=0.0), dict(B_unit_tesla=-4.4e9)])
def test_constants_must_be_positive(kwargs):
    with pytest.raises(ValueError, match="positive"):
        PhysicalConstants(**kwargs)
