"""Classical spinning-particle dynamics of the electron and photon.

The electron carries external variables (x, p) and an internal spinor
z with conjugate z-bar = z^dag gamma^0 (reconstructed, never integrated
separately):

    dz/dtau  = -i gamma^mu [p_mu - e A_mu(x)] z
    dx^mu/dtau = zbar gamma^mu z
    dp^mu/dtau = -e zbar gamma^nu z  dA_nu/dx_mu

The photon is the two-component analogue with sigma^mu in place of
gamma^mu and eta^dag in place of zbar. One law serves both: `velocity`
reads dx/dtau off either spinor by its length, and `derivative` is the
one right-hand side of either state, with no field the zero field. It
and `integrate` in a field run one stage core (`_stage`) on the packed
real row y = (x, A, p_lowered, Re z, Im z), which carries p with its
index lowered and whose A slot the stage fills with A(x). The
symmetrised velocity operator V, -e V, the generator -e C_A of the
potential and the generator C_p of the lowered momentum are stacked in
one real (16 * 2d, 2d) array, so with u = (Re z, Im z) and r =
stacked.dot(u) viewed as (16, 2d) a stage is [v, -e v] = r[:8].dot(u),
dp_lowered = grad(A).dot(-e v), and dz = -i cliff^mu (p - e A)_mu z =
[A, p_lowered].dot(r[8:]), one product of the row's contiguous [A, p].
Each is written by `ndarray.dot(..., out=)` into a view built once per
run: r into one (16 * 2d,) buffer, and [v, -e v], dp and dz into the
slices of the stage's derivative row, whose A slot so holds -e v, which
the next stage input's A(x) overwrites. The stage inputs and the state
share rows: the state y and the four derivative rows k are one (5, 12 +
2d) array, and stage input s > 0 is one product coef_s.dot([y; k]),
coef_s picking y + h_s k[s - 1], so an RK4 step in a field is y +=
w.dot(k), with w = dt (1, 2, 2, 1) / 6. p is raised in place once, at
the end of a run. The field's A(x) and grad(x) get the stage position x
as a new (4,) float64 array, after a test that it is finite.

Free runs of `integrate` (field = None) run no stage: the free equations
are a linear constant-coefficient system, so one RK4 step is a linear
map, z -> M z and x -> x + z^dag Q^mu z, built once from the stage
matrices; a trajectory applies the powers of M by doubling and sums
the position increments, with no per-step loop. Its products (and
those of `_velocity`) are einsums, which call no BLAS, so a free run's
bits do not depend on the OpenBLAS kernel numpy picks for the CPU; a
field run's, through the stage's `.dot`, do. The exact solution

    z(tau) = exp(-i slash(p) tau) z0
           = [cos(w tau) - i sin(w tau) slash(p)/w] z0,   w = sqrt(p^2)

has a velocity zbar gamma^mu z that splits into a constant drift plus
e^{+-2iw tau} oscillation (zitterbewegung at frequency 2 sqrt(p^2) in
proper time, in every frame); x(tau) follows by closed-form integration.
It is the oracle the integrator is tested against.

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

from .algebra import GAMMA, SIGMA, slash
from .constants import MAX_RECORD_BYTES
from .errors import DomainError
from .fourvec import METRIC_DIAG, FourVector

_G0 = GAMMA[0]
# velocity matrices: dx^mu/dtau = z^dag mats^mu z, with mats = gamma^0
# gamma^mu for the electron and sigma^mu for the photon
_G0G = np.stack([_G0 @ GAMMA[mu] for mu in range(4)])
_S = SIGMA


@dataclass(frozen=True)
class ElectronState:
    x: FourVector
    p: FourVector
    z: np.ndarray               # 4 complex


@dataclass(frozen=True)
class PhotonClassicalState:
    x: FourVector
    p: FourVector
    eta: np.ndarray             # 2 complex


@dataclass(frozen=True)
class ExternalField:
    """Smooth vector potential A(x) with gradient dA[mu][nu] = dA_nu/dx_mu."""

    A: object                   # (4,) float64 array x -> (4,) array
    grad: object                # (4,) float64 array x -> (4, 4) array
    charge: float = 1.0         # coupling e multiplying the potential


# rows of z per block in `_velocity`, whose contiguous copy of the block,
# its conjugate and the (rows, 4) einsum result then stay under 200 kB
# however long the trajectory
_VELOCITY_ROWS = 1024


def _velocity(mats: np.ndarray, z: np.ndarray, out=None) -> np.ndarray:
    """Re z^dag mats^mu z over the last axis of z, which may carry leading
    batch axes: the four-velocity for mats = _G0G or _S. The rows are
    taken in blocks of _VELOCITY_ROWS into one (..., 4) result, or into
    out (n rows of z). Each block is one einsum of a contiguous copy,
    points last, with no BLAS, so a row's bits depend on that row alone:
    not on the block, the strides of z or the CPU's BLAS kernel."""
    rows = z.reshape(-1, z.shape[-1])
    out = np.empty((len(rows), 4)) if out is None else out
    for start in range(0, len(rows), _VELOCITY_ROWS):
        stop = start + _VELOCITY_ROWS
        zb = np.ascontiguousarray(rows[start:stop].T)
        out[start:stop] = np.einsum("in,mij,jn->nm", zb.conj(), mats,
                                    zb).real
    return out.reshape(z.shape[:-1] + (4,))


def _internal_norm(cliff: np.ndarray, z: np.ndarray) -> np.ndarray:
    """z^dag cliff^0 z (zbar z, or eta^dag eta) in real arithmetic:
    cliff^0 is diagonal, so conjugate components cancel exactly. Summed
    with no BLAS: a row's bits depend on it alone."""
    return np.add.reduce((z.real ** 2 + z.imag ** 2)
                         * cliff[0].diagonal().real, axis=-1)


def _packed(mats, cliff, x, p, z, field):
    """The packed row y = (x, A = 0, p_lowered, Re z, Im z) of a run and
    its operators (stacked, r): stacked is the real (16 * 2d, 2d) stack of
    V, -e V, -e C_A and C_p such that, with u = (Re z, Im z) and r =
    stacked.dot(u) viewed as (16, 2d), r[:8].dot(u) is [v, -e v] with
    v^mu = z^dag mats^mu z, and [A, p_lowered].dot(r[8:]) is dz = -i
    cliff^mu (p - e A)_mu z; r is the (16 * 2d,) buffer each stage
    fills, with its [:8] and [8:] row views. Refuses unless A(x) and
    grad(x) are real, of shapes (4,) and (4, 4)."""
    xa = x.copy()
    a, g = field.A(xa), field.grad(xa)
    shapes = np.shape(a), np.shape(g)
    if shapes != ((4,), (4, 4)):
        raise DomainError(f"field A(x), grad(x) must have shapes (4,), "
                          f"(4, 4), got {shapes[0]}, {shapes[1]}")
    if np.iscomplexobj(a) or np.iscomplexobj(g):
        raise DomainError("field A(x), grad(x) must be real")
    # -i cliff^mu with A's index lowered by the metric, -i cliff^mu for
    # the lowered p, and the velocity matrices
    m = np.stack([-1j * METRIC_DIAG[:, None, None] * cliff, -1j * cliff,
                  mats])
    c_a, c_p, v = np.block([[m.real, -m.imag], [m.imag, m.real]])
    n = v.shape[-1]
    v = (v + v.swapaxes(1, 2)) / 2
    e = field.charge
    stacked = np.concatenate((v, -e * v, -e * c_a, c_p))
    r = np.zeros(16 * n)
    rows = r.reshape(16, n)
    return ((stacked.reshape(16 * n, n), (r, rows[:8], rows[8:])),
            np.concatenate((x, np.zeros(4), p * METRIC_DIAG, z.real,
                            z.imag)))


def _unpacked(y, d: int):
    """(x, p, z) of packed states y, over the last axis; p is raised in
    place, so y's p slot then holds p^mu (and a derivative row's dp^mu)."""
    y[..., 8:12] *= METRIC_DIAG
    return y[..., :4], y[..., 8:12], y[..., 12:12 + d] + 1j * y[..., 12 + d:]


def _stage(ops, field, state, deriv):
    """The stage core: a function of no arguments that writes dy/dtau of
    the packed state row (x, A, p_lowered, u) in the field into the
    derivative row ([v, -e v], dp_lowered, dz), bound to views of both
    once. stacked.dot(u) fills the run's product buffer r: [v, -e v] =
    r[:8].dot(u), dp_lowered = grad.dot(-e v) and, with A(x) in the
    state's A slot, dz = [A, p_lowered].dot(r[8:]). A non-finite position
    raises DomainError before the field is called; A and grad get the
    position as a new (4,) float64 array."""
    stacked, (r, rv, rc) = ops
    x, a, ap, u = state[:4], state[4:8], state[4:12], state[12:]
    vev, ev, dp, dz = deriv[:8], deriv[4:8], deriv[8:12], deriv[12:]
    potential, gradient = field.A, field.grad

    def stage():
        t, x1, x2, x3 = x.tolist()
        # c - c is 0.0 for a finite c and NaN otherwise, and cannot overflow
        if (t - t) + (x1 - x1) + (x2 - x2) + (x3 - x3) != 0.0:
            raise DomainError(f"non-finite position: {[t, x1, x2, x3]}")
        stacked.dot(u, out=r)
        rv.dot(u, out=vev)
        xa = x.copy()
        a[...] = potential(xa)
        # dp_mu = -e v^nu dA_nu/dx^mu
        np.asarray(gradient(xa), dtype=float).dot(ev, out=dp)
        ap.dot(rc, out=dz)
    return stage


def velocity(spinor) -> np.ndarray:
    """Four-velocity Re z^dag M^mu z over the spinor's last axis (it may
    have batch axes): M = gamma^0 gamma^mu for an electron's 4-spinor,
    sigma^mu for a photon's 2-spinor; any other length is a DomainError."""
    spinor = np.asarray(spinor)
    mats = {(4,): _G0G, (2,): _S}.get(spinor.shape[-1:])
    if mats is None:
        raise DomainError(f"a spinor has 4 (electron) or 2 (photon) "
                          f"components, got shape {spinor.shape}")
    return _velocity(mats, spinor)


def _particle(state):
    """(velocity matrices, Clifford matrices, complex spinor) of an
    ElectronState or PhotonClassicalState."""
    if isinstance(state, ElectronState):
        return _G0G, GAMMA, np.asarray(state.z, dtype=complex)
    if isinstance(state, PhotonClassicalState):
        return _S, SIGMA, np.asarray(state.eta, dtype=complex)
    raise DomainError("state must be an electron or photon state")


def derivative(state, field: ExternalField | None = None):
    """(dx, dp, dz) right-hand sides of an ElectronState (z) or
    PhotonClassicalState (eta). No field is the zero field (A = 0,
    grad = 0, charge 0), through the same stage core."""
    mats, cliff, z = _particle(state)
    x = state.x.as_array()
    if field is None:
        a, g, charge = np.zeros(4), np.zeros((4, 4)), 0.0
    else:
        # A and grad are called once each: `_packed`'s shape check and
        # the stage read the same values
        xa = x.copy()
        a, g, charge = field.A(xa), field.grad(xa), field.charge
    field = ExternalField(lambda _: a, lambda _: g, charge)
    ops, y = _packed(mats, cliff, x, state.p.as_array(), z, field)
    out = np.zeros_like(y)
    _stage(ops, field, y, out)()
    return _unpacked(out, len(z))


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


def _free_steps(mats, cliff, x0, p, z0, n, dt):
    """n free RK4 steps as the step map: (xs, zs), each with n + 1 rows.

    With the constant generator G = -i cliff^mu p_mu the RK4 stages are
    S_i z with S_1 = 1, S_2 = 1 + h/2 G, S_3 = 1 + h/2 G S_2 and
    S_4 = 1 + h G S_3, so a step is z -> M z, M = 1 + h/6 G (S_1 + 2 S_2
    + 2 S_3 + S_4), and x -> x + z^dag Q^mu z, Q^mu = h/6 sum_i w_i
    S_i^dag mats^mu S_i with weights (1, 2, 2, 1).
    """
    eye = np.eye(len(z0))
    g = -1j * np.einsum("m,mij->ij", p, METRIC_DIAG[:, None, None] * cliff)
    s2 = eye + 0.5 * dt * g
    s3 = eye + np.einsum("ij,jk->ik", 0.5 * dt * g, s2)
    s4 = eye + np.einsum("ij,jk->ik", dt * g, s3)
    m = eye + np.einsum("ij,jk->ik", dt / 6.0 * g,
                        eye + 2.0 * s2 + 2.0 * s3 + s4)
    q = dt / 6.0 * sum(w * np.einsum("ki,mkl,lj->mij", s.conj(), mats, s)
                       for w, s in zip((1.0, 2.0, 2.0, 1.0),
                                       (eye, s2, s3, s4)))
    zs = np.empty((n + 1, len(z0)), dtype=complex)
    zs[0] = z0
    done = 1
    while done <= n:
        # rows done.. are M^done times rows 0..; then M <- M^2
        k = min(done, n + 1 - done)
        zs[done:done + k] = np.einsum("ij,nj->ni", m, zs[:k])
        m = np.einsum("ij,jk->ik", m, m)
        done += k
    xs = np.empty((n + 1, 4))
    xs[0] = x0
    _velocity(q, zs[:-1], out=xs[1:])
    return np.cumsum(xs, axis=0, out=xs), zs


def _field_steps(mats, cliff, x, p, z, n, dt, field):
    """n RK4 steps in the field on the packed state: (xs, ps, zs), each
    with n + 1 rows; the rows after a non-finite state stay NaN.

    The state y and the stage rows k are the rows of one array yk = [y;
    k]. The four stages are bound once per run: stage 0 reads y, stage s
    > 0 reads row s - 1 of stage_in, filled in place with coef[s -
    1].dot(yk) = y + h_s k[s - 1], h = dt (1/2, 1/2, 1), and stage s
    writes k[s]; a step is y += w.dot(k) with w = dt (1, 2, 2, 1) / 6.
    A non-finite state needs no test of its own: a non-finite x stops
    the next step at its first stage, and a non-finite p or u makes the
    velocity, and so the position of a later stage of that step,
    non-finite. The other rows of k enter a stage input times 0, which
    is NaN where one is non-finite; such a row makes a stage position of
    its step, or the state after it, non-finite, so the run ends at the
    same step as with y + h_s k[s - 1] formed alone."""
    ops, y0 = _packed(mats, cliff, x, p, z, field)
    ys = np.full((n + 1, len(y0)), np.nan)
    ys[0] = y0
    yk = np.zeros((5, len(y0)))
    yk[0] = y0
    y, k = yk[0], yk[1:]
    stage_in = np.zeros((3, len(y0)))
    coef = np.array([[1.0, 0.5 * dt, 0.0, 0.0, 0.0],
                     [1.0, 0.0, 0.5 * dt, 0.0, 0.0],
                     [1.0, 0.0, 0.0, dt, 0.0]])
    w = dt * np.array([1.0, 2.0, 2.0, 1.0]) / 6.0
    first = _stage(ops, field, y, k[0])
    later = [(c, row, _stage(ops, field, row, k[s]))
             for s, (c, row) in enumerate(zip(coef, stage_in), 1)]
    for i in range(1, n + 1):
        try:
            first()
            for c, row, stage in later:
                c.dot(yk, out=row)
                stage()
        except DomainError:
            # a stage position is non-finite
            break
        y += w.dot(k)
        ys[i] = y
    return _unpacked(ys, len(z))


def integrate(state0, field: ExternalField | None = None,
              tau_span: tuple[float, float] = (0.0, 1.0),
              dt: float = 1e-3) -> Trajectory:
    """Fixed-step RK4 trajectory with a per-step log of zbar_z and H.

    zbar_z is conserved in any field. H = v^mu p_mu takes the canonical
    p, so it is conserved by a free run but not in a field, where the
    conserved quantity is v^mu (p - e A)_mu.

    Works for ElectronState and PhotonClassicalState. The run stops at
    the first sample where x, p or z is non-finite, returning the
    samples before it with aborted set; numpy's overflow warnings are
    not raised. The step count is the largest that does not pass t1 by
    more than a relative 1e-9, so the last sample is at or before t1; a
    span shorter than one step, or a step count whose samples would not
    fit in memory, is a DomainError, raised before allocating.

    A free run calls no BLAS (einsums and an elementwise zbar_z), so its
    bits do not depend on numpy's OpenBLAS kernel; in a field, the last
    bits of x, p, the spinor and H do, through the stage's `.dot`.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt must be finite and positive, got {dt!r}")
    t0, t1 = tau_span
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise DomainError("bad tau span")

    mats, cliff, z = _particle(state0)
    x = state0.x.as_array()
    p = state0.p.as_array()

    steps = (t1 - t0) / dt
    # a run holds per sample tau, x, p, z, zbar_z and H, and in a field its
    # packed rows, of which x and p are views; its temporaries and the
    # CLI's table go in row blocks, so the samples are what must fit
    floats = 11 + 2 * len(z) if field is None else 15 + 4 * len(z)
    if (steps + 1.0) * 8 * floats > MAX_RECORD_BYTES:
        raise DomainError(f"{steps:.3g} steps: the samples would not fit "
                          f"in memory ({MAX_RECORD_BYTES} bytes)")
    # (t1 - t0) / dt may fall short of a whole count by rounding
    n = math.floor(steps * (1.0 + 1e-9))
    if n < 1:
        raise DomainError("span shorter than one step")

    # a run that overflows is reported by its abort flag, or by an inf in
    # its H or zbar_z log, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if field is None:
            xs, zs = _free_steps(mats, cliff, x, p, z, n, dt)
            # the constant momentum, one read-only row per sample
            ps = np.broadcast_to(p, (n + 1, 4))
        else:
            xs, ps, zs = _field_steps(mats, cliff, x, p, z, n, dt, field)
        finite = (np.isfinite(xs).all(axis=1) & np.isfinite(ps).all(axis=1)
                  & np.isfinite(zs).all(axis=1))
        end = n + 1 if finite.all() else int(np.argmin(finite))
        xs, ps, zs = xs[:end], ps[:end], zs[:end]
        # H = v^mu p_mu and zbar_z in the row blocks of _velocity, each
        # row through the same products as in one pass
        hs, norms = np.empty(end), np.empty(end)
        for start in range(0, end, _VELOCITY_ROWS):
            rows = slice(start, start + _VELOCITY_ROWS)
            hs[rows] = np.einsum("nm,nm->n", _velocity(mats, zs[rows]),
                                 ps[rows] * METRIC_DIAG)
            norms[rows] = _internal_norm(cliff, zs[rows])
    return Trajectory(t0 + dt * np.arange(end), xs, ps, zs, norms, hs,
                      end <= n)


def zitterbewegung_frequency(traj: Trajectory) -> float:
    """Frequency (rad/tau) of the one oscillation in a free run's velocity.

    Its steps d = diff(v) obey diff(d, 2)[n] = -x d[n + 1], x = 4 sin^2(w
    dt / 2), in every component; x is their least-squares fit, by einsums
    (no BLAS). For RK4, w is the step map's frequency |arg(R(-i l1 dt) /
    R(-i l2 dt))| / dt, l1 and l2 the eigenvalues of slash(p), to rounding.
    Fewer than 5 samples, or a relative residual |diff(d, 2) + x d[1:-1]|
    / |diff(d, 2)| above 1e-2, is a DomainError: a free run's is at most
    1.5e-4 (rounding and RK4's decay; 7300 random runs at w dt <= 0.3); an
    eigenstate of slash(p) reads 0.37, a run in a weak field 0.10.
    """
    n = len(traj.tau)
    if n < 5:
        raise DomainError(f"{n} samples: the frequency needs at least 5")
    d = np.diff(velocity(traj.spinor), axis=0)
    dd, mid = np.diff(d, 2, axis=0), d[1:-1]
    dot, norm, norm_dd = (float(np.einsum("nm,nm->", a, b))
                          for a, b in ((mid, dd), (mid, mid), (dd, dd)))
    x = -dot / norm if norm > 0.0 else 0.0
    # at the least-squares x, |diff(d, 2) + x d[1:-1]|^2 = norm_dd + x dot
    residual = math.sqrt(max(0.0, 1.0 + x * dot / norm_dd)) if x > 0 else 1.0
    if not (residual <= 1e-2 and x <= 4.0):
        raise DomainError(f"the velocity is not one oscillation: relative "
                          f"residual {residual:.2g} (bound 1e-2), x = {x:.3g}")
    dt = float(traj.tau[-1] - traj.tau[0]) / (n - 1)
    return 2.0 * math.asin(math.sqrt(x) / 2.0) / dt


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
