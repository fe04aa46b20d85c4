"""Exactly solvable and rationally extended trigonometric Poschl-Teller
potential families on a torus surface.

The package reconstructs the reduction of a massless spin-1/2 mode on a
torus to one-dimensional Schrodinger form, the four superpotential families
with their partner potentials and closed-form spectra, the modified iso(2,1)
generators whose Casimir operator reproduces the same spectrum, and an
independent eigensolver that checks the closed forms: Gauss-Jacobi
collocation (toruspt.oracle), for the verify suite's spectra and
eigenfunctions and for the spectrum and algebra commands.  Its only runtime
dependency is numpy; importing the package does not load the oracle.
"""

from .errors import (
    BlowUp,
    ConvergenceFailure,
    DegenerateJacobiWarning,
    DegenerateMode,
    DomainError,
    GridTooCoarse,
    IllPosedPotential,
    InconsistentConditions,
    InvalidVelocity,
    NonConvergence,
    NonFinitePotential,
    NormalizationFailure,
    OutOfRange,
    SingularGeometry,
    TorusPTError,
)
from .geometry import ModeParams, TorusGeometry, TransformResult
from .iso21 import AlgebraParams
from .special import JacobiParams
from .susy import (
    AppellTail,
    BetaTail,
    PTCoefficients,
    PureTrigPT,
    RationalSin,
)

__version__ = "0.14.0"

