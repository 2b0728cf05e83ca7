"""Unit conventions: nuclear charge, coupling strength, and Tesla conversion.

Energies are measured in electron rest energies, lengths in reduced Compton
wavelengths, and the dimensionless field unit is m^2 c^2 / (|q| hbar), which
is about 4.4e9 Tesla.  The default constants deliberately keep the rounded
4.4e9 value (rather than the sharper CODATA number) so that published
headline figures reproduce to their printed precision; override the dataclass
for anything sharper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PhysicalConstants",
    "DEFAULT_CONSTANTS",
    "nu_of_Z",
    "Z_of_nu",
    "tesla_of_B",
    "log10_tesla_of_log_B",
]


@dataclass(frozen=True)
class PhysicalConstants:
    alpha: float = 1.0 / 137.037
    B_unit_tesla: float = 4.4e9

    def __post_init__(self):
        if self.alpha <= 0.0 or self.B_unit_tesla <= 0.0:
            raise ValueError("constants must be positive")

    @property
    def nonrel_B_unit_tesla(self) -> float:
        """Field scale of nonrelativistic atomic physics, alpha^2 times the unit."""
        return self.alpha**2 * self.B_unit_tesla


DEFAULT_CONSTANTS = PhysicalConstants()


def nu_of_Z(Z: int, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Coupling nu = Z * alpha; rejects Z with nu >= 1 (no selfadjoint operator)."""
    if Z <= 0 or Z != int(Z):
        raise ValueError(f"Z must be a positive integer, got {Z}")
    nu = Z * constants.alpha
    if nu >= 1.0:
        raise ValueError(f"Z = {Z} gives nu = {nu:.5f} >= 1, outside the admissible range")
    return nu


def Z_of_nu(nu: float, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Inverse of nu_of_Z (returned as a float; not rounded to an integer)."""
    if not (0.0 < nu < 1.0):
        raise ValueError(f"nu must lie in (0, 1), got {nu}")
    return nu / constants.alpha


def tesla_of_B(B: float, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Dimensionless field to Tesla."""
    if not (B > 0.0 and math.isfinite(B)):
        raise ValueError(f"B must be positive and finite, got {B}")
    return B * constants.B_unit_tesla


def log10_tesla_of_log_B(log_B: float, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """log10 of the Tesla value from a natural-log dimensionless field."""
    return log_B / math.log(10.0) + math.log10(constants.B_unit_tesla)
