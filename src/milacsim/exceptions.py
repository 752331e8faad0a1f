"""Exception hierarchy and input rules for milacsim.

Shape and numerical failures raised deliberately by this package (bad
shapes, singular matrices, a singular imaginary part) derive from
MilacError, so callers can catch the whole family with one clause; the CLI
exits 2 on them.
A value that breaks an input rule (a count or seed that is not an integer, a
power or admittance that is not a positive, finite and normal double) is a
plain ValueError naming the field, on which the CLI exits 1.  The rule
helpers live here, in the leaf module that every other one imports.
"""

import numbers
import sys


def _check_integers(**values) -> None:
    """Raise ValueError naming the first value that is not an integer (numpy's
    count; 2.0 does not, and neither does True, which is no count)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_seed(master_seed) -> None:
    """Raise ValueError unless the integer master_seed fits in a channel's uint64 key."""
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must fit in an unsigned 64-bit integer")


def _check_positive_finite(**values) -> None:
    """Raise ValueError naming the first value that is not a positive,
    finite and normal double.

    A subnormal power carries too few digits for the rate: at a noise power
    of 1e-320 the raw and row-normalized rate forms disagree.
    """
    for name, value in values.items():
        # The smallest and largest normal doubles; NaN fails both comparisons.
        if not sys.float_info.min <= value <= sys.float_info.max:
            raise ValueError(
                f"{name} must be positive and finite, and not subnormal (>= {sys.float_info.min!r})"
            )


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
    """Kept for perfbench until ROADMAP item 1; nothing in milacsim raises it."""


class AllZeroEigenvaluesError(MilacError):
    """Every channel eigenvalue is zero, so no power allocation exists."""


class ZeroCombinerRowError(MilacError):
    """A receive combining row is identically zero, making the stream rate undefined."""


class RateFormMismatchError(MilacError):
    """The raw and the row-normalized forms of an analog rate disagree beyond tolerance."""


class TrialIndexError(MilacError, IndexError):
    """A Monte-Carlo trial index lies outside the configured ensemble."""
