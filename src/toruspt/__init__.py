"""Exactly solvable and rationally extended trigonometric Poschl-Teller
potential families on a torus surface.

The package reconstructs the reduction of a massless spin-1/2 mode on a
torus to one-dimensional Schrodinger form, the four superpotential families
with their partner potentials and closed-form spectra, the modified iso(2,1)
generators whose Casimir operator reproduces the same spectrum, and an
independent finite-difference eigensolver used as ground truth for every
closed-form claim.
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
    IndexOutOfRange,
    InvalidVelocity,
    NonConvergence,
    NonFinitePotential,
    NonNormalizableWarning,
    NormalizationFailure,
    OutOfRange,
    SingularGeometry,
    TorusPTError,
)
from .geometry import ModeParams, TorusGeometry, TransformResult
from .iso21 import AlgebraParams
from .special import JacobiParams, SeriesControl
from .susy import (
    AppellTail,
    BetaTail,
    PTCoefficients,
    PureTrigPT,
    RationalSin,
    SpectrumFormula,
)

__version__ = "0.3.2"


# oracle imports scipy.linalg, so its names are imported on first access and
# "import toruspt" stays free of scipy
_ORACLE_NAMES = ("EigenReport", "Grid1D", "SymTridiagonal")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
