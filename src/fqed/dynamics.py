"""Classical spinning-particle dynamics of the electron and photon.

The electron carries external variables (x, p) and an internal spinor
z with conjugate z-bar = z^dag gamma^0 (reconstructed, never integrated
separately):

    dz/dtau  = -i gamma^mu [p_mu - e A_mu(x)] z
    dx^mu/dtau = zbar gamma^mu z
    dp^mu/dtau = -e zbar gamma^nu z  dA_nu/dx_mu

The photon is the two-component analogue with sigma^mu in place of
gamma^mu and eta^dag in place of zbar. Both are integrated by one
fixed-step RK4 scheme on raw arrays (`_rhs`).

Free motion (field = None) is a linear constant-coefficient system, so
one RK4 step is a linear map, z -> M z and x -> x + z^dag Q^mu z, built
once from the stage matrices; a trajectory applies the powers of M by
doubling and sums the position increments, with no per-step loop. The
exact solution

    z(tau) = exp(-i slash(p) tau) z0
           = [cos(w tau) - i sin(w tau) slash(p)/w] z0,   w = sqrt(p^2)

has a velocity zbar gamma^mu z that splits into a constant drift plus
e^{+-2iw tau} oscillation (zitterbewegung at frequency 2E in the rest
frame); x(tau) follows by closed-form integration. It is the oracle the
integrator is tested against.

A run stops at the first sample where x, p or z is non-finite and
returns the samples before it, flagged as aborted.

The point-contact coupling between an electron and a photon trajectory
is not integrated as a two-body problem; interactions enter through a
smooth external-field callable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import GAMMA, SIGMA, _lowered, slash
from .errors import DomainError
from .fourvec import FourVector

_G0 = GAMMA[0]
# velocity matrices: dx^mu/dtau = z^dag mats^mu z, with mats = gamma^0
# gamma^mu for the electron and sigma^mu for the photon
_G0G = np.stack([_G0 @ GAMMA[mu] for mu in range(4)])
_S = SIGMA
_METRIC_DIAG = np.array([1.0, -1.0, -1.0, -1.0])


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
        return float(_internal_norm(GAMMA, self.z))


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


def _velocity(mats: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Re z^dag mats^mu z over the last axis of z, which may carry leading
    batch axes: the four-velocity for mats = _G0G or _S."""
    zm = (z.conj()[..., None, None, :] @ mats)[..., 0, :]
    return np.real(zm @ z[..., None])[..., 0]


def _internal_norm(cliff: np.ndarray, z: np.ndarray) -> np.ndarray:
    """z^dag cliff^0 z (zbar z, or eta^dag eta) in real arithmetic:
    cliff^0 is diagonal, so conjugate components cancel exactly."""
    return (z.real ** 2 + z.imag ** 2) @ cliff[0].diagonal().real


def _rhs(mats, cliff, x, p, z, field):
    """(dx, dp, dz) on raw arrays; cliff is GAMMA or SIGMA, mats the
    matching velocity matrices. Free equations when field is None."""
    v = _velocity(mats, z)
    if field is None:
        return v, np.zeros(4), -1j * (_lowered(p, cliff) @ z)
    xv = FourVector.from_array(x)
    kin = p - field.charge * np.asarray(field.A(xv), dtype=float)
    dz = -1j * (_lowered(kin, cliff) @ z)
    da = np.asarray(field.grad(xv), dtype=float)
    # dp^mu = -e v^nu dA_nu/dx_mu with the index raised by the metric
    return v, -field.charge * (da @ v) * _METRIC_DIAG, dz


def electron_velocity(z: np.ndarray) -> np.ndarray:
    """zbar gamma^mu z, real four-velocity of the internal motion."""
    return _velocity(_G0G, z)


def photon_velocity(eta: np.ndarray) -> np.ndarray:
    """eta^dag sigma^mu eta, the photon's (lightlike) four-velocity."""
    return _velocity(_S, eta)


def electron_derivative(state: ElectronState,
                        field: ExternalField | None = None):
    """(dx, dp, dz) right-hand sides; free equations when field is None."""
    return _rhs(_G0G, GAMMA, state.x.as_array(), state.p.as_array(),
                state.z, field)


def photon_derivative(state: PhotonClassicalState,
                      field: ExternalField | None = None):
    """(dx, dp, deta) right-hand sides; free equations when field is None."""
    return _rhs(_S, SIGMA, state.x.as_array(), state.p.as_array(),
                state.eta, field)


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
        mats = _G0G if self.spinor.shape[1] == 4 else _S
        return _velocity(mats, self.spinor)[:, mu]


def _free_steps(mats, cliff, x0, p, z0, n, dt):
    """n free RK4 steps as the step map: (xs, zs), each with n + 1 rows.

    With the constant generator G = -i cliff^mu p_mu the RK4 stages are
    S_i z with S_1 = 1, S_2 = 1 + h/2 G, S_3 = 1 + h/2 G S_2 and
    S_4 = 1 + h G S_3, so a step is z -> M z, M = 1 + h/6 G (S_1 + 2 S_2
    + 2 S_3 + S_4), and x -> x + z^dag Q^mu z, Q^mu = h/6 sum_i w_i
    S_i^dag mats^mu S_i with weights (1, 2, 2, 1).
    """
    eye = np.eye(len(z0))
    # dz/dtau is linear in z, so the right-hand side of the identity is G
    g = _rhs(mats, cliff, x0, p, eye, None)[2]
    s2 = eye + 0.5 * dt * g
    s3 = eye + 0.5 * dt * g @ s2
    s4 = eye + dt * g @ s3
    m = eye + dt / 6.0 * g @ (eye + 2.0 * s2 + 2.0 * s3 + s4)
    q = dt / 6.0 * sum(w * (s.conj().T @ mats @ s) for w, s in
                       zip((1.0, 2.0, 2.0, 1.0), (eye, s2, s3, s4)))
    zs = np.empty((n + 1, len(z0)), dtype=complex)
    zs[0] = z0
    done = 1
    while done <= n:
        # rows done.. are M^done times rows 0..; then M <- M^2
        k = min(done, n + 1 - done)
        zs[done:done + k] = zs[:k] @ m.T
        m = m @ m
        done += k
    xs = np.cumsum(np.vstack([x0, _velocity(q, zs[:-1])]), axis=0)
    return xs, zs


def _field_steps(mats, cliff, x, p, z, n, dt, field):
    """n RK4 steps in the field: (xs, ps, zs), each with n + 1 rows; the
    rows after a non-finite state stay NaN."""
    xs = np.full((n + 1, 4), np.nan)
    ps = np.full((n + 1, 4), np.nan)
    zs = np.full((n + 1, len(z)), np.nan, dtype=complex)
    xs[0], ps[0], zs[0] = x, p, z
    half = 0.5 * dt
    sixth = dt / 6.0
    for i in range(1, n + 1):
        try:
            v1, q1, k1 = _rhs(mats, cliff, x, p, z, field)
            v2, q2, k2 = _rhs(mats, cliff, x + half * v1, p + half * q1,
                              z + half * k1, field)
            v3, q3, k3 = _rhs(mats, cliff, x + half * v2, p + half * q2,
                              z + half * k2, field)
            v4, q4, k4 = _rhs(mats, cliff, x + dt * v3, p + dt * q3,
                              z + dt * k3, field)
        except DomainError:
            # a non-finite stage position reached the four-vector guard
            break
        x = x + sixth * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
        p = p + sixth * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
        z = z + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs[i], ps[i], zs[i] = x, p, z
        if not (np.isfinite(x).all() and np.isfinite(p).all()
                and np.isfinite(z).all()):
            break
    return xs, ps, zs


def integrate(state0, field: ExternalField | None = None,
              tau_span: tuple[float, float] = (0.0, 1.0),
              dt: float = 1e-3, method: str = "rk4") -> Trajectory:
    """Fixed-step RK4 trajectory with per-step conserved-quantity log.

    Works for ElectronState and PhotonClassicalState. The run stops at
    the first sample where x, p or z is non-finite, returning the
    samples before it with aborted set.
    """
    if method != "rk4":
        raise DomainError(f"unsupported method: {method}")
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt must be finite and positive, got {dt!r}")
    t0, t1 = tau_span
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise DomainError("bad tau span")
    n = int(round((t1 - t0) / dt))
    if n < 1:
        raise DomainError("span shorter than one step")

    if isinstance(state0, ElectronState):
        mats, cliff, z = _G0G, GAMMA, state0.z
    elif isinstance(state0, PhotonClassicalState):
        mats, cliff, z = _S, SIGMA, state0.eta
    else:
        raise DomainError("state0 must be an electron or photon state")
    x = state0.x.as_array()
    p = state0.p.as_array()
    z = np.asarray(z, dtype=complex)

    if field is None:
        xs, zs = _free_steps(mats, cliff, x, p, z, n, dt)
        ps = np.tile(p, (n + 1, 1))
    else:
        xs, ps, zs = _field_steps(mats, cliff, x, p, z, n, dt, field)
    finite = (np.isfinite(xs).all(axis=1) & np.isfinite(ps).all(axis=1)
              & np.isfinite(zs).all(axis=1))
    end = n + 1 if finite.all() else int(np.argmin(finite))
    xs, ps, zs = xs[:end], ps[:end], zs[:end]
    hs = np.einsum("nm,nm->n", _velocity(mats, zs), ps * _METRIC_DIAG)
    return Trajectory(t0 + dt * np.arange(end), xs, ps, zs,
                      _internal_norm(cliff, zs), hs, end <= n)


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


def trajectory_columns(traj: Trajectory) -> dict:
    """Named columns of a trajectory: tau, x0..x3, p0..p3, the spinor's
    re_z/im_z pairs, zbar_z, H."""
    cols = {"tau": traj.tau}
    cols.update({f"x{i}": traj.x[:, i] for i in range(4)})
    cols.update({f"p{i}": traj.p[:, i] for i in range(4)})
    for i in range(traj.spinor.shape[1]):
        cols[f"re_z{i}"] = traj.spinor[:, i].real
        cols[f"im_z{i}"] = traj.spinor[:, i].imag
    cols["zbar_z"] = traj.zbar_z
    cols["H"] = traj.H
    return cols
