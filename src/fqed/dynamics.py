"""Classical spinning-particle dynamics of the electron and photon.

The electron carries external variables (x, p) and an internal spinor
z with conjugate z-bar = z^dag gamma^0 (reconstructed, never integrated
separately):

    dz/dtau  = -i gamma^mu [p_mu - e A_mu(x)] z
    dx^mu/dtau = zbar gamma^mu z
    dp^mu/dtau = -e zbar gamma^nu z  dA_nu/dx_mu

The photon is the two-component analogue with sigma^mu in place of
gamma^mu. Free motion (field = None) is a linear constant-coefficient
system with the exact solution

    z(tau) = exp(-i slash(p) tau) z0
           = [cos(w tau) - i sin(w tau) slash(p)/w] z0,   w = sqrt(p^2)

whose velocity zbar gamma^mu z splits into a constant drift plus
e^{+-2iw tau} oscillation (zitterbewegung at frequency 2E in the rest
frame); x(tau) follows by closed-form integration.

The point-contact coupling between an electron and a photon trajectory
is not integrated as a two-body problem; interactions enter through a
smooth external-field callable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import GAMMA, SIGMA, slash, sigma_slash
from .errors import DomainError
from .fourvec import FourVector

_G0 = GAMMA[0]
# gamma^0 gamma^mu stacked, for the velocity bilinear
_G0G = np.stack([_G0 @ GAMMA[mu] for mu in range(4)])
_S = np.stack([SIGMA[mu] for mu in range(4)])


@dataclass(frozen=True)
class ElectronState:
    x: FourVector
    p: FourVector
    z: np.ndarray               # 4 complex
    tau: float = 0.0

    @property
    def zbar(self) -> np.ndarray:
        return self.z.conj() @ _G0

    @property
    def zbar_z(self) -> float:
        return _dirac_norm(self.z)


def _dirac_norm(z: np.ndarray) -> float:
    """zbar z = |z_upper|^2 - |z_lower|^2, in real arithmetic: conjugate
    upper and lower components cancel exactly."""
    sq = z.real ** 2 + z.imag ** 2
    return float((sq[0] + sq[1]) - (sq[2] + sq[3]))


@dataclass(frozen=True)
class PhotonClassicalState:
    x: FourVector
    p: FourVector
    eta: np.ndarray             # 2 complex
    tau: float = 0.0


@dataclass(frozen=True)
class ExternalField:
    """Smooth vector potential A(x) with gradient dA[mu][nu] = dA_nu/dx_mu."""

    A: object                   # FourVector -> length-4 array
    grad: object                # FourVector -> (4, 4) array
    charge: float = 1.0         # coupling e multiplying the potential


def electron_velocity(z: np.ndarray) -> np.ndarray:
    """zbar gamma^mu z, real four-velocity of the internal motion."""
    return np.real(z.conj() @ _G0G @ z)


def photon_velocity(eta: np.ndarray) -> np.ndarray:
    return np.real(eta.conj() @ _S @ eta)


def electron_derivative(state: ElectronState,
                        field: ExternalField | None = None):
    """(dx, dp, dz) right-hand sides; free equations when field is None."""
    v = electron_velocity(state.z)
    if field is None:
        return v, np.zeros(4), -1j * (slash(state.p) @ state.z)
    a = np.asarray(field.A(state.x), dtype=float)
    kin = state.p.as_array() - field.charge * a
    dz = -1j * (slash(kin) @ state.z)
    da = np.asarray(field.grad(state.x), dtype=float)
    # dp^mu = -e v^nu dA_nu/dx_mu with the index raised by the metric
    dp_lower = -field.charge * (da @ v)
    dp = dp_lower * np.array([1.0, -1.0, -1.0, -1.0])
    return v, dp, dz


def photon_derivative(state: PhotonClassicalState,
                      field: ExternalField | None = None):
    v = photon_velocity(state.eta)
    if field is None:
        return v, np.zeros(4), -1j * (sigma_slash(state.p) @ state.eta)
    a = np.asarray(field.A(state.x), dtype=float)
    kin = state.p.as_array() - field.charge * a
    deta = -1j * (sigma_slash(kin) @ state.eta)
    da = np.asarray(field.grad(state.x), dtype=float)
    dp_lower = -field.charge * (da @ v)
    dp = dp_lower * np.array([1.0, -1.0, -1.0, -1.0])
    return v, dp, deta


def exact_free_electron(z0: np.ndarray, p: FourVector, tau: float
                        ) -> np.ndarray:
    """z(tau) = exp(-i slash(p) tau) z0 for constant p with p^2 > 0."""
    w2 = float(p.norm2())
    if w2 <= 0:
        raise DomainError(f"free solution needs p^2 > 0, got {w2}")
    w = math.sqrt(w2)
    s = slash(p)
    z0 = np.asarray(z0, dtype=complex)
    return math.cos(w * tau) * z0 - 1j * math.sin(w * tau) / w * (s @ z0)


def exact_free_trajectory(z0: np.ndarray, p: FourVector, x0: FourVector,
                          taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (z(tau), x(tau)) arrays on the given tau samples.

    The velocity bilinear is decomposed on the +-w eigenprojections of
    slash(p); the constant part integrates to a linear drift and the
    e^{+-2iw tau} parts to explicit oscillations.
    """
    w2 = float(p.norm2())
    if w2 <= 0:
        raise DomainError(f"free solution needs p^2 > 0, got {w2}")
    w = math.sqrt(w2)
    s = slash(p)
    z0 = np.asarray(z0, dtype=complex)
    taus = np.asarray(taus, dtype=float)
    proj_p = (w * np.eye(4) + s) / (2.0 * w)
    proj_m = (w * np.eye(4) - s) / (2.0 * w)
    zb0 = z0.conj() @ _G0
    # velocity v^mu(tau) = c0 + c_plus e^{2iw tau} + c_minus e^{-2iw tau}
    c0 = np.array([zb0 @ proj_p @ GAMMA[mu] @ proj_p @ z0
                   + zb0 @ proj_m @ GAMMA[mu] @ proj_m @ z0
                   for mu in range(4)])
    c_plus = np.array([zb0 @ proj_p @ GAMMA[mu] @ proj_m @ z0
                       for mu in range(4)])
    c_minus = np.array([zb0 @ proj_m @ GAMMA[mu] @ proj_p @ z0
                        for mu in range(4)])
    ph = np.exp(2j * w * taus)
    zs = (np.cos(w * taus)[:, None] * z0[None, :]
          - 1j * np.sin(w * taus)[:, None] / w * (s @ z0)[None, :])
    xs = (x0.as_array()[None, :]
          + taus[:, None] * c0[None, :].real
          + np.real((ph[:, None] - 1.0) / (2j * w) * c_plus[None, :]
                    + (1.0 / ph[:, None] - 1.0) / (-2j * w)
                    * c_minus[None, :]))
    return zs, xs


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled integration record (one row per step)."""

    tau: np.ndarray
    x: np.ndarray               # (n, 4)
    p: np.ndarray               # (n, 4)
    spinor: np.ndarray          # (n, 4) or (n, 2) complex
    zbar_z: np.ndarray          # internal norm log
    H: np.ndarray               # zbar gamma^mu z p_mu log
    aborted: bool = False

    def velocity(self, mu: int) -> np.ndarray:
        if self.spinor.shape[1] == 4:
            return np.real(np.einsum("ni,ij,nj->n", self.spinor.conj(),
                                     _G0G[mu], self.spinor))
        return np.real(np.einsum("ni,ij,nj->n", self.spinor.conj(),
                                 _S[mu], self.spinor))


_METRIC_DIAG = np.array([1.0, -1.0, -1.0, -1.0])


def integrate(state0, field: ExternalField | None = None,
              tau_span: tuple[float, float] = (0.0, 1.0),
              dt: float = 1e-3, method: str = "rk4") -> Trajectory:
    """Fixed-step RK4 trajectory with per-step conserved-quantity log.

    Works for ElectronState and PhotonClassicalState. NaN appearance
    aborts the run, returning the samples up to the last valid state.
    """
    if method != "rk4":
        raise DomainError(f"unsupported method: {method}")
    if dt <= 0:
        raise DomainError("dt must be positive")
    t0, t1 = tau_span
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise DomainError("bad tau span")
    n = int(round((t1 - t0) / dt))
    if n < 1:
        raise DomainError("span shorter than one step")

    if isinstance(state0, ElectronState):
        dim, mats = 4, _G0G
        deriv = electron_derivative
        make = ElectronState
        spin0 = state0.z
    elif isinstance(state0, PhotonClassicalState):
        dim, mats = 2, _S
        deriv = photon_derivative
        make = PhotonClassicalState
        spin0 = state0.eta
    else:
        raise DomainError("state0 must be an electron or photon state")

    taus = t0 + dt * np.arange(n + 1)
    xs = np.empty((n + 1, 4))
    ps = np.empty((n + 1, 4))
    zs = np.empty((n + 1, dim), dtype=complex)
    norms = np.empty(n + 1)
    hs = np.empty(n + 1)

    x = np.asarray(state0.x.as_array(), dtype=float)
    p = np.asarray(state0.p.as_array(), dtype=float)
    z = np.asarray(spin0, dtype=complex)

    free = field is None
    gen = None
    if free:
        # constant generator -i slash(p): precompute once
        gen = -1j * (slash(p) if dim == 4 else sigma_slash(p))
    half = 0.5 * dt
    sixth = dt / 6.0
    aborted = False

    def record(i, x, p, z):
        xs[i] = x
        ps[i] = p
        zs[i] = z
        v = np.real(z.conj() @ mats @ z) if dim == 4 else np.real(
            z.conj() @ _S @ z)
        norms[i] = (_dirac_norm(z) if dim == 4
                    else np.real(z.conj() @ z))
        hs[i] = float(v @ (_METRIC_DIAG * p))

    record(0, x, p, z)
    if free:
        for i in range(1, n + 1):
            # RK4 on (x, z); p is constant for free motion
            v1 = np.real(z.conj() @ mats @ z)
            k1 = gen @ z
            z2 = z + half * k1
            v2 = np.real(z2.conj() @ mats @ z2)
            k2 = gen @ z2
            z3 = z + half * k2
            v3 = np.real(z3.conj() @ mats @ z3)
            k3 = gen @ z3
            z4 = z + dt * k3
            v4 = np.real(z4.conj() @ mats @ z4)
            k4 = gen @ z4
            x = x + sixth * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
            z = z + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(z).all():
                aborted = True
                n = i - 1
                break
            record(i, x, p, z)
    else:
        for i in range(1, n + 1):
            try:
                st = make(FourVector.from_array(x),
                          FourVector.from_array(p), z, taus[i - 1])
                v1, q1, k1 = deriv(st, field)
                st2 = make(FourVector.from_array(x + half * v1),
                           FourVector.from_array(p + half * q1),
                           z + half * k1, taus[i - 1] + half)
                v2, q2, k2 = deriv(st2, field)
                st3 = make(FourVector.from_array(x + half * v2),
                           FourVector.from_array(p + half * q2),
                           z + half * k2, taus[i - 1] + half)
                v3, q3, k3 = deriv(st3, field)
                st4 = make(FourVector.from_array(x + dt * v3),
                           FourVector.from_array(p + dt * q3),
                           z + dt * k3, taus[i - 1] + dt)
                v4, q4, k4 = deriv(st4, field)
            except DomainError:
                # a NaN produced by the field reached a four-vector guard
                aborted = True
                n = i - 1
                break
            x = x + sixth * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
            p = p + sixth * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
            z = z + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not (np.isfinite(z).all() and np.isfinite(p).all()):
                aborted = True
                n = i - 1
                break
            record(i, x, p, z)
    sl = slice(0, n + 1)
    return Trajectory(taus[sl], xs[sl], ps[sl], zs[sl], norms[sl], hs[sl],
                      aborted)


def zitterbewegung_frequency(traj: Trajectory, component: int = 3) -> float:
    """Dominant nonzero frequency of the velocity component (rad/tau).

    FFT with zero padding and parabolic peak interpolation.
    """
    v = traj.velocity(component)
    v = v - v.mean()
    n = len(v)
    if n < 16:
        raise DomainError("trajectory too short for a spectrum")
    dt = float(traj.tau[1] - traj.tau[0])
    padded = 1 << (int(np.ceil(np.log2(n))) + 3)
    spec = np.abs(np.fft.rfft(v, padded))
    freqs = np.fft.rfftfreq(padded, dt)
    i = int(np.argmax(spec[1:])) + 1
    if 1 <= i < len(spec) - 1:
        a, b, c = spec[i - 1], spec[i], spec[i + 1]
        denom = a - 2.0 * b + c
        shift = 0.5 * (a - c) / denom if denom != 0 else 0.0
    else:
        shift = 0.0
    return 2.0 * math.pi * (freqs[i] + shift * (freqs[1] - freqs[0]))


def trajectory_csv(traj: Trajectory) -> str:
    """CSV text: tau, x0..x3, p0..p3, spinor Re/Im pairs, zbar_z, H."""
    dim = traj.spinor.shape[1]
    cols = (["tau"] + [f"x{i}" for i in range(4)]
            + [f"p{i}" for i in range(4)]
            + sum([[f"re_z{i}", f"im_z{i}"] for i in range(dim)], [])
            + ["zbar_z", "H"])
    lines = [",".join(cols)]
    for i in range(len(traj.tau)):
        row = [repr(float(traj.tau[i]))]
        row += [repr(float(v)) for v in traj.x[i]]
        row += [repr(float(v)) for v in traj.p[i]]
        for j in range(dim):
            row += [repr(float(traj.spinor[i, j].real)),
                    repr(float(traj.spinor[i, j].imag))]
        row += [repr(float(traj.zbar_z[i])), repr(float(traj.H[i]))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
