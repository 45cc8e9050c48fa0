"""Free wave functions: electron u/v spinors and the photon internal states.

Electron spinors (Dirac-Pauli representation, chi quantized along z):

    u(p,s) = sqrt((E+m)/(2E)) [ chi_s ; (sigma.p/(E+m)) chi_s ]
    v(p,s) = sqrt((E+m)/(2E)) [ (sigma.p/(E+m)) chi_s ; chi_s ]

so u^dag u = v^dag v = 1 and (slash(p) -+ m) annihilates u / v.

Photon internal states live in C^2 (x) C^2. Along the propagation axis:

    plus          |uu>            omega = +k   (positive helicity)
    minus         |dd>            omega = -k   (stored as written; it is
                                  the opposite-helicity forward wave)
    longitudinal  (|ud>+|du>)/sqrt2, omega = 0, k != 0
    vacuum        (|ud>+|du>)/sqrt2, omega = k = 0

Arbitrary axes are reached by the spin-1/2 (x) spin-1/2 rotation
U (x) U with U in SU(2).

dirac_spinors and polarization_vectors are the one builder of each: both
slots of every point of a (..., 4) momentum array at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import SIGMA
from .errors import DomainError
from .fourvec import FourVector, check_on_shell

PHOTON_KINDS = ("plus", "minus", "longitudinal", "vacuum")
# polarization-vector slots: positive helicity first
HELICITIES = ("plus", "minus")
_V_ORDER = [2, 3, 0, 1]     # v(p, s) is u(p, s) with its halves swapped


@dataclass(frozen=True)
class PhotonSpinor:
    components: np.ndarray          # 4 complex in C^2 (x) C^2
    omega: float                    # energy read off the plane-wave phase
    kvec: np.ndarray                # 3-momentum read off the phase
    kind: str
    axis: np.ndarray                # unit propagation axis

    def phase_momentum(self) -> FourVector:
        """(p0, pvec) entering the wave-equation residual."""
        return FourVector.from_spatial(self.omega, self.kvec)


def dirac_spinors(p, mass: float = 1.0,
                  backward: bool = False) -> np.ndarray:
    """Normalized u (forward) or v (backward) spinors at on-shell momenta.

    p is a (..., 4) array with p0 > 0 everywhere (the time direction is
    carried by the backward flag). Returns (..., 2, 4): both spin slots
    of every point, slot 0 built on chi_up and slot 1 on chi_down.
    """
    p = np.asarray(p, dtype=float)
    check_on_shell(p, mass)
    E = p[..., 0]
    if not (E > 0).all():
        raise DomainError(f"p0 must be positive, got {E[~(E > 0)][0]}")
    u = _u_spinors(p, mass)
    return u[..., _V_ORDER] if backward else u


def _u_spinors(p: np.ndarray, mass: float) -> np.ndarray:
    """dirac_spinors' u spinors without its checks: p on shell, p0 > 0."""
    E, x, y, z = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    norm = np.sqrt((E + mass) / (2.0 * E))
    f = norm / (E + mass)
    out = np.zeros(p.shape[:-1] + (2, 4), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = norm
    # (sigma.p) chi_s / (E + m) in the lower half
    out[..., 0, 2] = z * f
    out[..., 0, 3] = (x + 1j * y) * f
    out[..., 1, 2] = (x - 1j * y) * f
    out[..., 1, 3] = -z * f
    return out


def _su2_to_axis(axis: np.ndarray) -> np.ndarray:
    """SU(2) element rotating z-hat into the given unit axis.

    The polar angle comes from atan2, which stays accurate next to the
    poles, where acos of the z component loses the angle to rounding.
    """
    sin_theta = math.hypot(axis[0], axis[1])
    theta = math.atan2(sin_theta, axis[2])
    if sin_theta == 0.0:
        # along +-z: rotate about x (by 0 or pi)
        m = (1.0, 0.0)
    else:
        # the unit vector z-hat x axis
        m = (-axis[1] / sin_theta, axis[0] / sin_theta)
    sm = m[0] * SIGMA[1] + m[1] * SIGMA[2]
    return math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * sm


_BASE_SPINOR = {
    "plus": np.array([1, 0, 0, 0], dtype=complex),
    "minus": np.array([0, 0, 0, 1], dtype=complex),
    "longitudinal": np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
    "vacuum": np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2),
}


def photon_state(kind: str, k: float, axis=(0.0, 0.0, 1.0)) -> PhotonSpinor:
    """One of the four internal photon solutions, propagating along axis."""
    if kind not in PHOTON_KINDS:
        raise DomainError(f"unknown photon kind: {kind}")
    axis = np.asarray(axis, dtype=float)
    if abs(np.linalg.norm(axis) - 1.0) > 1e-10:
        raise DomainError("axis must be a unit 3-vector")
    if kind == "vacuum":
        if k != 0.0:
            raise DomainError("vacuum state requires k = 0")
    elif k <= 0.0:
        raise DomainError(f"{kind} state requires k > 0")

    U = _su2_to_axis(axis)
    comp = np.kron(U, U) @ _BASE_SPINOR[kind]
    if kind == "plus":
        omega, kvec = k, k * axis
    elif kind == "minus":
        omega, kvec = -k, k * axis
    elif kind == "longitudinal":
        omega, kvec = 0.0, k * axis
    else:
        omega, kvec = 0.0, np.zeros(3)
    return PhotonSpinor(comp, omega, kvec, kind, axis)


def wave_equation_residual(state: PhotonSpinor) -> float:
    """|| (Sigma^0 p0 - Sigma.pvec) a || with (p0, pvec) off the phase."""
    op = algebra.big_sigma_slash(state.phase_momentum())
    return float(np.linalg.norm(op @ state.components))


def transverse_frame(axis) -> tuple[np.ndarray, np.ndarray]:
    """Right-handed (e1, e2) with e1 x e2 = axis, chosen deterministically.

    axis is a unit 3-vector or a (..., 3) array of them.
    """
    axis = np.asarray(axis, dtype=float)
    x, y, z = axis[..., 0], axis[..., 1], axis[..., 2]
    # e1 = z-hat x axis normalized, or x-hat on the poles, and where
    # x^2 + y^2 underflows (off the axis by less than 1.5e-154, which is
    # then how far x-hat is from transverse); e1_z = 0
    rho2 = y * y + x * x
    polar = rho2 < 2.2250738585072014e-308      # the smallest normal double
    norm = np.where(polar, 1.0, np.sqrt(rho2))
    e1, e2 = np.zeros((2,) + axis.shape)
    e1[..., 0] = e1x = np.where(polar, 1.0, -y / norm)
    e1[..., 1] = e1y = np.where(polar, 0.0, x / norm)
    e2[..., 0], e2[..., 1], e2[..., 2] = -z * e1y, z * e1x, x * e1y - y * e1x
    return e1, e2


def polarization_vectors(k) -> np.ndarray:
    """Circular polarization four-vectors of photons with momenta k.

    k is a (..., 4) array with |k| > 0; returns (..., 2, 4), slot s the
    helicity HELICITIES[s] along k-hat: eps = (0, e1 +- i e2)/sqrt2 with
    (e1, e2, k-hat) right-handed, so eps.k = 0 and eps.eps* = -1; emitted
    photons take their conjugates.
    """
    k = np.asarray(k, dtype=float)
    kmag = np.sqrt(np.add.reduce(k[..., 1:] ** 2, -1, keepdims=True))
    if not (kmag > 0).all():
        raise DomainError("photon leg requires |k| > 0")
    e1, e2 = transverse_frame(k[..., 1:] / kmag)
    eps = np.zeros(e1.shape[:-1] + (2, 4), dtype=complex)
    eps[..., 0, 1:] = (e1 + 1j * e2) / math.sqrt(2)
    eps[..., 1, 1:] = eps[..., 0, 1:].conj()        # e1, e2 are real
    return eps
