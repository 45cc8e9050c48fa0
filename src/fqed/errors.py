"""Exception types shared across the package, the batched raiser and the
mass check."""

import math

import numpy as np


class FqedError(Exception):
    """Base class for all library errors."""


class DomainError(FqedError, ValueError):
    """Invalid input: off-shell momenta, bad indices, violated conservation."""


class PoleError(FqedError, ArithmeticError):
    """Evaluation requested too close to a propagator pole."""


class SingularityError(FqedError, ArithmeticError):
    """Evaluation at a point where the result is genuinely singular."""


class NumericError(FqedError, RuntimeError):
    """A numerical procedure (quadrature, fit) failed to reach its tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class DegenerateLevelError(DomainError):
    """Two spectrum levels coincide but are connected by a nonzero current."""


def reject(bad: np.ndarray, what: str, values: np.ndarray, legs=(),
           error=DomainError) -> None:
    """Raise error at the first point where bad holds; with legs, the
    first axis of bad runs over those leg labels."""
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        where = f"{legs[first[0]]} " if legs else ""
        raise error(f"{where}{what} = {values[first]:.3e}")


def check_mass(mass) -> None:
    """A mass must be finite and > 0: a DomainError naming it otherwise."""
    if not 0.0 < mass < math.inf:
        raise DomainError(f"mass must be finite and > 0, got {mass!r}")
