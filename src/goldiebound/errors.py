"""Exception types shared across the package."""
from __future__ import annotations


class GoldieBoundError(Exception):
    """Base class for all domain errors raised by this package."""


class UnsupportedType(GoldieBoundError):
    """Family/rank combination outside the supported classical range."""


class DimensionMismatch(GoldieBoundError):
    """Vectors of incompatible ambient dimension were combined."""


class NotDominant(GoldieBoundError):
    """A dominant weight was required but the argument is not dominant."""


class NotInWeightLattice(GoldieBoundError):
    """The weight does not lie in the integral weight lattice."""


class ParityViolation(GoldieBoundError):
    """Partition violates the multiplicity parity rule of its family."""


class SizeMismatch(GoldieBoundError):
    """Partition does not sum to the requested matrix size."""


class UnsupportedOrbit(GoldieBoundError):
    """No slice-torus embedding is implemented for this orbit."""


class NonGenericNu(GoldieBoundError):
    """The chosen slice parameter vanishes on a root that survives restriction,
    or lies outside the chamber of t_Q that the worked example needs."""


class NotEvenOrbit(GoldieBoundError):
    """An even nilpotent orbit was required."""


class NotDivisible(GoldieBoundError):
    """Expected an exact integer quotient but the division has a remainder."""


class InvariantViolation(GoldieBoundError):
    """An internal consistency check failed on valid input: a library bug."""


class PipelineError(GoldieBoundError):
    """A named step of the worked-example pipeline failed its check."""

    def __init__(self, step: str, message: str):
        self.step = step
        super().__init__(f"{step}: {message}")
