"""Ground states and critical magnetic fields of a relativistic hydrogenic atom
restricted to its lowest Landau level.

The package computes the effective one-dimensional theory of a Dirac-Coulomb
electron in a strong constant magnetic field: the Landau-averaged potentials,
the nonlinear Rayleigh fixed point for the lowest level lambda_1(nu, B), the
critical field B_L(nu) at which that level reaches the lower continuum edge,
rigorous analytic brackets for the three-dimensional critical field, and the
conversions to Tesla.
"""

from .critical_field import (CriticalFieldResult, SandwichBracket, critical_field_direct,
                             critical_field_schrodinger, sandwich)
from .errors import AccuracyError, BracketError, CoefficientError, TruncationError
from .groundstate import FixedPointResult, ground_state_lambda
from .potentials import PotentialSpec, VariableMap, a_ell_grid, mu_bound_constant, z_of_y
from .trial_bounds import (UpperBoundCertificate, certify_critical_upper_bound,
                           check_sqrt5_inequality)

__all__ = [
    # entry points and their results
    "critical_field_schrodinger", "critical_field_direct", "sandwich", "CriticalFieldResult",
    "SandwichBracket", "ground_state_lambda", "FixedPointResult", "certify_critical_upper_bound",
    "check_sqrt5_inequality", "UpperBoundCertificate",
    # potentials, the change of variables and the error types
    "PotentialSpec", "VariableMap", "a_ell_grid", "mu_bound_constant", "z_of_y",
    "AccuracyError", "BracketError", "CoefficientError", "TruncationError",
]

__version__ = "0.1.0"
