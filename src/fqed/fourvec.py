"""Minkowski four-vectors with signature (+, -, -, -).

All operations accept contravariant components; index lowering happens
inside the dot product and the slash contraction, never in user code.
It owns the metric's diagonal, METRIC_DIAG, and the mass-shell rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, reject

METRIC_DIAG = np.array([1.0, -1.0, -1.0, -1.0])
METRIC_DIAG.setflags(write=False)
# on_shell's tolerance on p^2 - m^2, in units of max(m^2, p0^2)
SHELL_TOL = 1e-10


@dataclass(frozen=True)
class FourVector:
    """Contravariant real four-vector (t, x, y, z) in natural units."""

    t: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        for c in (self.t, self.x, self.y, self.z):
            if not math.isfinite(c):
                raise DomainError(f"non-finite four-vector component: {c}")

    @classmethod
    def from_array(cls, a) -> "FourVector":
        a = np.asarray(a, dtype=float)
        if a.shape != (4,):
            raise DomainError(f"expected 4 components, got shape {a.shape}")
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    @classmethod
    def from_spatial(cls, t: float, xyz) -> "FourVector":
        xyz = np.asarray(xyz, dtype=float)
        return cls(float(t), float(xyz[0]), float(xyz[1]), float(xyz[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z], dtype=float)

    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.t + other.t, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.t - other.t, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def norm2(self) -> float:
        """Minkowski square p.p."""
        return minkowski_dot(self, self)


def _components(v):
    """Contravariant components of a FourVector or of a (..., 4) array."""
    if isinstance(v, FourVector):
        return v.as_array()
    a = np.asarray(v)
    if a.ndim == 0 or a.shape[-1] != 4:
        raise DomainError(f"expected 4 components, got shape {a.shape}")
    return a


def minkowski_dot(a, b):
    """a0*b0 - a.b under signature (+,-,-,-).

    Accepts FourVectors or (..., 4) arrays, contracting the last axis;
    complex arrays are allowed (polarization vectors), in which case the
    result is complex and no conjugation is applied.
    """
    av = _components(a)
    bv = _components(b)
    return (av[..., 0] * bv[..., 0] - av[..., 1] * bv[..., 1]
            - av[..., 2] * bv[..., 2] - av[..., 3] * bv[..., 3])


def on_shell(dev, mass, p0):
    """Where dev, a p^2 - m^2 (or a photon's k^2), is zero up to rounding
    at energy p0: |dev| < SHELL_TOL max(m^2, p0^2), as p^2 cancels terms
    of size p0^2. A non-finite dev is never on shell."""
    return np.abs(dev) < SHELL_TOL * np.maximum(mass * mass, p0 * p0)


def check_on_shell(p, mass: float) -> None:
    """Raise DomainError unless p (a FourVector or (..., 4) array) is on
    the mass shell at every point."""
    p = _components(p)
    dev = np.asarray(minkowski_dot(p, p) - mass * mass)
    reject(~on_shell(dev, mass, p[..., 0]), "momentum off shell: p^2 - m^2",
           dev)
