"""The internal lines of the tree cores, batched, each with its pole guard.

fermion_line is the electron line 1/(slash(q) - m), rationalized to
(slash(q) + m) / (q^2 - m^2). photon_line is the q^2 that the photon
line -g_mu_nu / q^2 (Feynman gauge) divides by; at q = (omega, k) its
inverse is the two-pole form (1/2 omega)(1/(omega - |k|) + 1/(omega + |k|)).
coulomb_line is the |q|^2 of the static Coulomb line 1/|q|^2.

The lines take (..., 4) momenta, or (..., 3) for the static line, at real
kinematics, so they carry no i epsilon. Instead each refuses a batch with
any point nearer its pole than its threshold (in units of m^2), raising a
PoleError that names the first such point.
"""

from __future__ import annotations

import numpy as np

from .algebra import I4, slash
from .errors import PoleError, reject
from .fourvec import minkowski_dot

FERMION_POLE_THRESHOLD = 1e-6      # |q^2 - m^2| below this raises, units m^2
PHOTON_POLE_THRESHOLD = 1e-10      # |q^2|, |q|^2 below this raise, units m^2


def fermion_denominator(q: np.ndarray, mass: float) -> np.ndarray:
    """The fermion line's q^2 - m^2 at (..., 4) momenta, guarded."""
    dev = minkowski_dot(q, q) - mass * mass
    reject(np.abs(dev) < FERMION_POLE_THRESHOLD * mass * mass,
           "intermediate fermion too close to mass shell: q^2 - m^2", dev,
           error=PoleError)
    return dev


def fermion_line(q: np.ndarray, mass: float) -> np.ndarray:
    """(slash(q) + m) / (q^2 - m^2) at (..., 4) momenta, shape
    (..., 4, 4)."""
    dev = fermion_denominator(q, mass)
    return (slash(q) + mass * I4) / dev[..., None, None]


def photon_line(q: np.ndarray, mass: float) -> np.ndarray:
    """q^2 at (..., 4) momenta, the denominator of the photon line."""
    q2 = minkowski_dot(q, q)
    reject(np.abs(q2) < PHOTON_POLE_THRESHOLD * mass * mass,
           "photon line at q^2", q2, error=PoleError)
    return q2


def coulomb_line(qvec: np.ndarray, mass: float) -> np.ndarray:
    """|q|^2 at (..., 3) momenta, the denominator of the static line."""
    q2 = np.sum(qvec * qvec, axis=-1)
    reject(q2 < PHOTON_POLE_THRESHOLD * mass * mass, "Coulomb pole: |q|^2",
           q2, error=PoleError)
    return q2
