"""Momentum-space propagators with the i*epsilon prescription.

The fermion kernel is the rationalized inverse of (slash(p) - m); the
transverse photon kernel keeps the two-term form

    (1/2 omega) * ( 1/(omega - |k| + i eps) + 1/(omega + |k| - i eps) )

which recombines to 1/(omega^2 - k^2) off shell. The zero-energy
longitudinal kernel is the static Coulomb form 1/|k|^2 (the delta(omega)
integral is done analytically; the Coulomb form is the one the
Bremsstrahlung matrix element actually uses).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import I4, slash
from .errors import DomainError, PoleError, SingularityError
from .fourvec import minkowski_dot


@dataclass(frozen=True)
class PropagatorConfig:
    mass: float = 1.0
    epsilon: float = 1e-9           # pole displacement, units of m^2

    def __post_init__(self):
        if self.mass <= 0:
            raise DomainError(f"mass must be positive, got {self.mass}")
        if self.epsilon < 0:
            raise DomainError(f"epsilon must be >= 0, got {self.epsilon}")


def fermion_propagator(p, cfg: PropagatorConfig) -> np.ndarray:
    """(slash(p) + m) / (p^2 - m^2 + i eps), at a FourVector or (..., 4)."""
    m = cfg.mass
    denom = np.asarray(minkowski_dot(p, p) - m * m
                       + 1j * cfg.epsilon * m * m)
    if np.any(denom == 0):
        raise SingularityError("fermion propagator evaluated exactly on shell"
                               " with epsilon = 0")
    return (slash(p) + m * I4) / denom[..., None, None]


def transverse_photon_kernel(omega: float, kmag: float,
                             cfg: PropagatorConfig) -> complex:
    """Scalar two-pole kernel of the transverse photon line."""
    if kmag < 0:
        raise DomainError(f"|k| must be >= 0, got {kmag}")
    if omega == 0.0 and kmag == 0.0:
        raise DomainError("omega = |k| = 0 is the vacuum line, "
                          "which has no kernel")
    eps = cfg.epsilon * cfg.mass * cfg.mass
    scale = max(abs(omega), kmag)
    if abs(abs(omega) - kmag) <= 1e-12 * scale:
        raise PoleError(
            f"on-shell photon pole at omega = {omega}, |k| = {kmag}")
    if omega == 0.0:
        # omega -> 0 limit of the recombined form 1/(omega^2 - k^2)
        return complex(-1.0 / (kmag * kmag))
    return complex((1.0 / (omega - kmag + 1j * eps)
                    + 1.0 / (omega + kmag - 1j * eps)) / (2.0 * omega))


def longitudinal_photon_kernel(kmag: float, cfg: PropagatorConfig) -> complex:
    """Static Coulomb kernel 1/|k|^2 of the zero-energy line."""
    if kmag <= 0:
        raise DomainError(f"|k| must be > 0, got {kmag}")
    return complex(1.0 / (kmag * kmag))

