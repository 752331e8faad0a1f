"""Exception hierarchy for milacsim.

Every error raised deliberately by this package derives from MilacError so
callers can catch the whole family with one clause.  Validation problems
(bad shapes, bad values) and numerical failures (singular matrices,
exhausted searches) get distinct subclasses.
"""


class MilacError(Exception):
    """Base class for all milacsim errors."""


class DimensionMismatchError(MilacError):
    """Operands have incompatible shapes for the requested operation."""


class SingularMatrixError(MilacError):
    """A matrix that must be inverted is singular or beyond the condition cap."""


class NotUnitaryInputError(MilacError):
    """An input that must be unitary fails the unitarity check."""


class SingularImaginaryPartError(MilacError):
    """The imaginary part of a unitary factor is numerically singular."""


class NonFiniteInputError(MilacError):
    """An input contains NaN or infinite entries."""


class PhaseSearchExhaustedError(MilacError):
    """No column phase rotation met the invertibility threshold within the attempt budget."""


class AllZeroEigenvaluesError(MilacError):
    """Every channel eigenvalue is zero, so no power allocation exists."""


class ZeroCombinerRowError(MilacError):
    """A receive combining row is identically zero, making the stream rate undefined."""


class RateFormMismatchError(MilacError):
    """The raw and the row-normalized forms of an analog rate disagree beyond tolerance."""


class TrialIndexError(MilacError, IndexError):
    """A Monte-Carlo trial index lies outside the configured ensemble."""
