import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fqed import cli
from fqed import dynamics as dyn
from fqed.algebra import GAMMA, SIGMA, slash
from fqed.errors import DomainError
from fqed.fourvec import METRIC_DIAG, FourVector, minkowski_dot

import oracles


# a plane-wave potential A_nu = a_nu sin(k.x): its gradient dA_nu/dx^mu =
# k_mu a_nu cos(k.x) is nonzero in every row
_WAVE_K = np.array([0.3, 0.5, -0.4, 0.7])
_WAVE_A = np.array([0.02, 0.05, -0.03, 0.04])
WAVE_FIELD = dyn.ExternalField(
    A=lambda x: _WAVE_A * math.sin(_WAVE_K @ x),
    grad=lambda x: np.outer(_WAVE_K, _WAVE_A) * math.cos(_WAVE_K @ x))


def rest_state(z=(1.0, 0.0, 0.0, 0.0), mass=1.0):
    return dyn.ElectronState(FourVector(0, 0, 0, 0),
                             FourVector(mass, 0, 0, 0),
                             np.array(z, dtype=complex))


def rk4_free_reference(state, n, dt):
    """Free motion, one RK4 step at a time: the loop that the step map
    in `integrate` must reproduce. Returns the (n + 1)-row x and spinor."""
    if isinstance(state, dyn.ElectronState):
        mats = np.stack([GAMMA[0] @ GAMMA[mu] for mu in range(4)])
        gen, z = -1j * slash(state.p), state.z
    else:
        # sigma^mu p_mu
        p_lower = state.p.as_array() * np.array([1.0, -1.0, -1.0, -1.0])
        mats, z = SIGMA, state.eta
        gen = -1j * np.einsum("m,mij->ij", p_lower, SIGMA)

    def vel(z):
        return np.real(np.einsum("i,mij,j->m", z.conj(), mats, z))

    x = state.x.as_array()
    xs, zs = [x], [z]
    for _ in range(n):
        k1 = gen @ z
        z2 = z + 0.5 * dt * k1
        k2 = gen @ z2
        z3 = z + 0.5 * dt * k2
        k3 = gen @ z3
        z4 = z + dt * k3
        k4 = gen @ z4
        x = x + dt / 6.0 * (vel(z) + 2.0 * vel(z2) + 2.0 * vel(z3)
                            + vel(z4))
        z = z + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs.append(x)
        zs.append(z)
    return np.array(xs), np.array(zs)


def packed_rk4_reference(state, field, n, dt):
    """n RK4 steps in a field built stage by stage from `derivative` of
    the packed state y = (x, A, p_lowered, Re z, Im z), with the stage
    inputs formed as `integrate` forms them: y and the stage rows k are
    the rows of one array yk, stage input s > 0 is coef_s.dot(yk) =
    y + h_s k[s - 1], and a step is y + w.dot(k). Returns the (n + 1,
    12 + 2d) states (p lowered; A slot unused), NaN after the first
    non-finite one and from the first step with a non-finite stage
    position or momentum (which FourVector refuses), and the stage
    positions in the order reached."""
    z = state.eta if isinstance(state, dyn.PhotonClassicalState) else state.z
    build = type(state)
    d = len(z)

    def rhs(y):
        p = y[8:12] * METRIC_DIAG
        dx, dp, dz = dyn.derivative(build(FourVector.from_array(y[:4]),
                                          FourVector.from_array(p),
                                          y[12:12 + d] + 1j * y[12 + d:]),
                                    field)
        return np.concatenate((dx, np.zeros(4), dp * METRIC_DIAG, dz.real,
                               dz.imag))

    y0 = np.concatenate((state.x.as_array(), np.zeros(4),
                         state.p.as_array() * METRIC_DIAG, z.real, z.imag))
    yk = np.zeros((5, len(y0)))
    yk[0] = y0
    coef = np.array([[1.0, 0.5 * dt, 0.0, 0.0, 0.0],
                     [1.0, 0.0, 0.5 * dt, 0.0, 0.0],
                     [1.0, 0.0, 0.0, dt, 0.0]])
    w = dt * np.array([1.0, 2.0, 2.0, 1.0]) / 6.0
    ys = np.full((n + 1, len(y0)), np.nan)
    ys[0] = y0
    positions = []
    for i in range(1, n + 1):
        try:
            for s in range(4):
                stage_y = yk[0].copy() if s == 0 else coef[s - 1].dot(yk)
                positions.append(stage_y[:4])
                yk[1 + s] = rhs(stage_y)
        except DomainError:
            break
        yk[0] = yk[0] + w.dot(yk[1:])
        ys[i] = yk[0]
        if not np.isfinite(yk[0]).all():
            break
    return ys, positions


class TestDerivatives:

    def test_rest_frame_electron(self):
        st = rest_state()
        dx, dp, dz = dyn.derivative(st)
        assert np.allclose(dz, -1j * st.z)
        assert np.isclose(dx[0], 1.0)
        assert np.allclose(dp, 0.0)

    def test_zbar_z_derivative_vanishes(self):
        rng = np.random.default_rng(3)
        st = dyn.ElectronState(FourVector(0, 0, 0, 0),
                               FourVector(math.sqrt(1.0 + 0.89),
                                          0.3, -0.8, 0.4),
                               rng.normal(size=4) + 1j * rng.normal(size=4))
        _, _, dz = dyn.derivative(st)
        from fqed.algebra import GAMMA
        dzbar = dz.conj() @ GAMMA[0] @ st.z + st.z.conj() @ GAMMA[0] @ dz
        assert abs(dzbar) <= 1e-12

    def test_helicity_aligned_photon_stationary(self):
        st = dyn.PhotonClassicalState(FourVector(0, 0, 0, 0),
                                      FourVector(2.0, 0, 0, 2.0),
                                      np.array([1.0, 0.0], dtype=complex))
        dx, dp, deta = dyn.derivative(st)
        assert np.allclose(deta, 0.0)
        assert np.allclose(dx, [1.0, 0.0, 0.0, 1.0])
        assert np.allclose(dp, 0.0)

    def test_photon_velocity_is_null(self):
        v = dyn.velocity(np.array([1.0, 0.0], dtype=complex))
        assert abs(minkowski_dot(v, v)) <= 1e-14

    @pytest.mark.parametrize("shape", [(), (3,), (5, 1), (2, 3)])
    def test_velocity_refuses_other_lengths(self, shape):
        """velocity reads electron or photon off the spinor's last axis:
        4 or 2 components, and nothing else."""
        with pytest.raises(DomainError, match="4 .electron. or 2"):
            dyn.velocity(np.ones(shape, dtype=complex))

    def test_derivative_refuses_other_states(self):
        for run in (dyn.derivative, dyn.integrate):
            with pytest.raises(DomainError, match="electron or photon"):
                run(object())

    @pytest.mark.parametrize("rows", [
        dyn._VELOCITY_ROWS - 1, dyn._VELOCITY_ROWS, dyn._VELOCITY_ROWS + 1,
        2 * dyn._VELOCITY_ROWS + 1])
    def test_velocity_blocks_equal_one_pass(self, rows):
        """Taken in row blocks, the velocity has the bits of the same
        einsum over all rows at once."""
        rng = np.random.default_rng(rows)
        for mats in (dyn._G0G, dyn._S):
            d = mats.shape[-1]
            z = rng.normal(size=(rows, d)) + 1j * rng.normal(size=(rows, d))
            one_pass = np.einsum("ni,mij,nj->nm", z.conj(), mats, z).real
            assert np.array_equal(dyn._velocity(mats, z), one_pass)
            assert np.array_equal(dyn._velocity(mats, z[0]), one_pass[0])

    @pytest.mark.parametrize("d", [4, 2])
    def test_velocity_of_strided_spinors_equals_contiguous(self, d):
        """velocity of a strided spinor array (every other row and
        column of a larger one, or a column-major copy) has the bits of
        its contiguous copy: einsum may pick its summation order from
        its operands' strides, so the blocks are made contiguous."""
        rng = np.random.default_rng(d)
        rows = dyn._VELOCITY_ROWS + 7
        big = (rng.normal(size=(2 * rows, 2 * d))
               + 1j * rng.normal(size=(2 * rows, 2 * d)))
        for z in (big[::2, ::2], big[::2, ::2].T.copy().T):
            assert not z.flags.c_contiguous
            want = dyn.velocity(np.ascontiguousarray(z))
            assert dyn.velocity(z).tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [
        dyn._VELOCITY_ROWS - 1, dyn._VELOCITY_ROWS, dyn._VELOCITY_ROWS + 1,
        2 * dyn._VELOCITY_ROWS + 1])
    def test_H_blocks_equal_one_pass(self, rows):
        """integrate forms H and zbar_z in row blocks; each row keeps the
        bits of one pass over all rows, and a free run's p rows are its
        p."""
        origin = FourVector(0, 0, 0, 0)
        electron = dyn.ElectronState(
            origin, FourVector(math.sqrt(1.0 + 0.29), 0.3, -0.2, 0.4),
            np.array([0.6, 0.2j, 0.7, -0.3]))
        photon = dyn.PhotonClassicalState(
            origin, FourVector(1.0, 0.0, 0.6, 0.8), np.array([0.8, 0.6j]))
        potential = np.array([0.05, -0.02, 0.01, 0.03])
        field = dyn.ExternalField(lambda x: potential,
                                  lambda x: np.zeros((4, 4)))
        for state, mats, cliff in ((electron, dyn._G0G, GAMMA),
                                   (photon, dyn._S, SIGMA)):
            for f in (None, field):
                traj = dyn.integrate(state, f, (0.0, 0.01 * (rows - 1)), 0.01)
                assert len(traj.H) == rows
                z = traj.spinor
                # contiguous, as _velocity returns it: einsum's reduction
                # order depends on the operands' strides
                v = np.einsum("ni,mij,nj->nm", z.conj(), mats, z).real.copy()
                if f is None:
                    ps = np.tile(state.p.as_array(), (rows, 1))
                    assert np.array_equal(traj.p, ps)
                    assert traj.p.tobytes() == ps.tobytes()
                else:
                    ps = np.array(traj.p)
                assert np.array_equal(
                    traj.H, np.einsum("nm,nm->n", v, ps * METRIC_DIAG))
                assert np.array_equal(traj.zbar_z,
                                      dyn._internal_norm(cliff, z))

    def test_field_accelerates(self):
        field = dyn.ExternalField(
            A=lambda x: np.array([0.0, 0.1 * x[0], 0.0, 0.0]),
            grad=lambda x: np.array([[0.0, 0.1, 0.0, 0.0],
                                     [0.0, 0.0, 0.0, 0.0],
                                     [0.0, 0.0, 0.0, 0.0],
                                     [0.0, 0.0, 0.0, 0.0]]))
        _, dp, _ = dyn.derivative(rest_state(), field)
        # dp_mu = -e v^nu dA_nu/dx_mu; only dA_1/dx_0 = 0.1 is nonzero,
        # and v^1 = 0 at rest, so the rest state feels no force yet
        assert np.allclose(dp, 0.0)
        st = rest_state(z=(1.0, 0.0, 0.3, 0.2))
        v = dyn.velocity(st.z)
        _, dp, _ = dyn.derivative(st, field)
        assert np.isclose(dp[0], -0.1 * v[1])
        # a spatial gradient, dA_0/dx_3 = 0.1: raising the index flips
        # the sign, dp^3 = +e v^0 dA_0/dx_3
        slope = np.zeros((4, 4))
        slope[3, 0] = 0.1
        field = dyn.ExternalField(A=lambda x: np.zeros(4),
                                  grad=lambda x: slope)
        _, dp, _ = dyn.derivative(st, field)
        assert np.allclose(dp, [0.0, 0.0, 0.0, 0.1 * v[0]])


def exact_z(z0, p, tau):
    """The closed-form spinor z(tau) = exp(-i slash(p) tau) z0 that
    exact_free_trajectory samples."""
    return dyn.exact_free_trajectory(z0, p, FourVector(0, 0, 0, 0),
                                     [tau])[0][0]


class TestExactSolution:

    def test_tau_zero_identity(self):
        z0 = np.array([0.3, 0.1j, 0.0, 0.5], dtype=complex)
        p = FourVector(1.2, 0.2, 0.3, 0.6)
        assert np.allclose(exact_z(z0, p, 0.0), z0)

    def test_rest_frame_phases(self):
        p = FourVector(1.0, 0.0, 0.0, 0.0)
        z0 = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)
        z = exact_z(z0, p, 0.7)
        assert np.isclose(z[0], np.exp(-1j * 0.7))
        assert np.isclose(z[2], np.exp(+1j * 0.7))

    def test_matches_matrix_exponential(self):
        import mpmath as mp
        from fqed.algebra import slash
        p = FourVector(math.sqrt(1.0 + 0.74), 0.3, -0.7, 0.4)
        z0 = np.array([0.2, -0.4j, 0.8, 0.1], dtype=complex)
        tau = 1.37
        with mp.workdps(30):
            U = mp.expm(mp.matrix((-1j * slash(p) * tau).tolist()))
            direct = np.array(U.tolist(), dtype=complex) @ z0
        assert np.allclose(exact_z(z0, p, tau), direct, atol=1e-12)

    def test_zbar_z_preserved_not_dagger_norm(self):
        from fqed.algebra import GAMMA
        p = FourVector(math.sqrt(1.0 + 1.0), 1.0, 0.0, 0.0)
        z0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        z = exact_z(z0, p, 2.0)
        zb0 = z0.conj() @ GAMMA[0] @ z0
        zb = z.conj() @ GAMMA[0] @ z
        assert abs(zb - zb0) <= 1e-12
        assert abs(np.vdot(z, z) - 1.0) > 1e-3

    def test_trajectory_velocity_consistent(self):
        p = FourVector(math.sqrt(1.0 + 0.25), 0.5, 0.0, 0.0)
        z0 = np.array([1.0, 0.2, 0.1j, 0.0], dtype=complex)
        taus = np.linspace(0.0, 3.0, 7)
        zs, xs = dyn.exact_free_trajectory(z0, p, FourVector(0, 0, 0, 0),
                                           taus)
        # numerical derivative of x matches the velocity bilinear
        h = 1e-6
        _, xp = dyn.exact_free_trajectory(z0, p, FourVector(0, 0, 0, 0),
                                          taus + h)
        vel = (xp - xs) / h
        for i in range(len(taus)):
            assert np.allclose(vel[i], dyn.velocity(zs[i]), atol=1e-5)

    def test_spacelike_momentum_rejected(self):
        with pytest.raises(DomainError):
            exact_z(np.ones(4), FourVector(0, 1, 0, 0), 1.0)


def frequency_tolerance(traj, w, top):
    """The bound zitterbewegung_frequency earns at frequency w, for a
    generator whose largest |eigenvalue| is top, from two perturbations
    of the velocity v carried through the least-squares fit of x = (w
    dt)^2 (d = diff(v) its steps): a rounding of max|v| in each cell,
    which moves w by eps max|v| / (|d[1:-1]| x) relative, and RK4's
    decay of |R|^2 by t^6 / 72 a step, t = top dt, which shifts each step
    by up to t^6 / 72 max|v| and w by up to that times max|v| / |d[1:-1]|^2
    (its product with d[1:-1] telescopes to one difference of v). Each
    is taken 64 times."""
    v = dyn.velocity(traj.spinor)
    dt = traj.tau[1] - traj.tau[0]
    vmax = np.max(np.abs(v))
    steps = np.linalg.norm(np.diff(v, axis=0)[1:-1])
    eps = np.finfo(float).eps
    return 64 * w * (eps * (1.0 + vmax / (steps * (w * dt) ** 2))
                     + (top * dt) ** 6 / 72 * (vmax / steps) ** 2)


class TestIntegrate:

    Z0 = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)

    def free_state(self):
        return dyn.ElectronState(FourVector(0, 0, 0, 0),
                                 FourVector(math.sqrt(1.0 + 0.09),
                                            0.0, 0.0, 0.3), self.Z0)

    def test_matches_exact_oracle(self):
        st = self.free_state()
        traj = dyn.integrate(st, None, (0.0, 5.0), 1e-3)
        zs, xs = dyn.exact_free_trajectory(self.Z0, st.p, st.x, traj.tau)
        assert np.max(np.abs(traj.spinor - zs)) <= 1e-9
        assert np.max(np.abs(traj.x - xs)) <= 1e-8

    def test_fourth_order_convergence(self):
        st = self.free_state()

        def err(dt):
            traj = dyn.integrate(st, None, (0.0, 2.0), dt)
            zs, _ = dyn.exact_free_trajectory(self.Z0, st.p, st.x,
                                              traj.tau)
            return np.max(np.abs(traj.spinor - zs))

        assert err(0.02) / err(0.01) >= 15.0

    def test_conserved_quantities_drift(self):
        traj = dyn.integrate(self.free_state(), None, (0.0, 10.0), 1e-3)
        assert np.max(np.abs(traj.zbar_z - traj.zbar_z[0])) <= 1e-10
        assert np.max(np.abs(traj.H - traj.H[0])) <= 1e-10
        assert np.max(np.abs(traj.p - traj.p[0])) == 0.0

    def test_photon_norm_conserved(self):
        st = dyn.PhotonClassicalState(
            FourVector(0, 0, 0, 0), FourVector(1.5, 0.0, 0.0, 1.5),
            np.array([0.6, 0.8j], dtype=complex))
        traj = dyn.integrate(st, None, (0.0, 10.0), 1e-3)
        norms = np.real(np.einsum("ni,ni->n", traj.spinor.conj(),
                                  traj.spinor))
        assert np.max(np.abs(norms - norms[0])) <= 1e-10

    def test_zitterbewegung_peak(self):
        traj = dyn.integrate(rest_state(z=self.Z0), None, (0.0, 60.0),
                             1e-2)
        w = dyn.zitterbewegung_frequency(traj)
        assert (abs(w - oracles.rk4_step_frequency(1.0, -1.0, 1e-2))
                <= frequency_tolerance(traj, 2.0, 1.0))

    SIN_FIELD = dyn.ExternalField(
        A=lambda x: np.array([0.05 * math.sin(x[3]), 0.0, 0.0, 0.0]),
        grad=lambda x: np.array([[0.0, 0.0, 0.0, 0.0],
                                 [0.0, 0.0, 0.0, 0.0],
                                 [0.0, 0.0, 0.0, 0.0],
                                 [0.05 * math.cos(x[3]), 0.0, 0.0, 0.0]]))

    def test_field_run_conserves_internal_norm(self):
        traj = dyn.integrate(self.free_state(), self.SIN_FIELD, (0.0, 5.0),
                             1e-3)
        assert not traj.aborted
        assert np.max(np.abs(traj.zbar_z - traj.zbar_z[0])) <= 1e-8
        assert np.max(np.abs(traj.p - traj.p[0])) > 0.0

    def photon_state(self):
        k = np.array([0.3, -0.2, 1.2])
        return dyn.PhotonClassicalState(
            FourVector(0, 0, 0, 0), FourVector.from_spatial(
                math.sqrt(k @ k), k), np.array([0.6, 0.8j], dtype=complex))

    @pytest.mark.parametrize("kind, charge", [
        ("sin", 1.0), ("sin", 0.8), ("sin", -1.3), ("wave", 0.8)])
    @pytest.mark.parametrize("photon", [False, True])
    def test_field_run_matches_complex_loop(self, photon, kind, charge):
        """The packed real loop against the stage-by-stage complex RK4."""
        st = self.photon_state() if photon else self.free_state()
        field = dataclasses.replace(
            self.SIN_FIELD if kind == "sin" else WAVE_FIELD, charge=charge)
        traj = dyn.integrate(st, field, (0.0, 5.0), 1e-3)
        xs, ps, zs = oracles.rk4_field_complex(
            SIGMA if photon else GAMMA, st.x.as_array(), st.p.as_array(),
            st.eta if photon else st.z, field, 5000, 1e-3)
        assert not traj.aborted and len(traj.tau) == 5001
        assert np.max(np.abs(traj.p - traj.p[0])) > 0.0
        for got, want in ((traj.x, xs), (traj.p, ps), (traj.spinor, zs)):
            assert np.max(np.abs(got - want)) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(photon=st.booleans(), kind=st.sampled_from(["sin", "wave"]),
           charge=st.one_of(st.sampled_from([0.0, 1.0, -1.0]),
                            st.floats(-2.0, 2.0)),
           steps=st.integers(50, 300), dt=st.floats(1e-3, 1e-2),
           x=st.tuples(*[st.floats(-2.0, 2.0)] * 4),
           k=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
           mass=st.floats(0.3, 2.0),
           z=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=4,
                      max_size=4))
    def test_random_field_runs_match_complex_loop(self, photon, kind, charge,
                                                  steps, dt, x, k, mass, z):
        """integrate in the sin and wave fields against the complex RK4
        oracle, at random states (an electron on its mass shell, a
        photon on the light cone, a unit spinor), charges and step
        counts: within eps times the step count times 1 + the largest
        oracle component, per x, p and spinor. In 1600 random draws at
        the ranges' bounds, on the default and the Prescott OpenBLAS
        kernel, the largest difference was 0.067 of that."""
        d = 2 if photon else 4
        z = np.array(z[:d])
        assume(np.linalg.norm(z) > 0.1)
        z /= np.linalg.norm(z)
        k = np.array(k)
        assume(not photon or k @ k > 0.0)
        p = np.concatenate(([math.sqrt((0.0 if photon else mass ** 2)
                                       + k @ k)], k))
        build = dyn.PhotonClassicalState if photon else dyn.ElectronState
        state = build(FourVector(*x), FourVector.from_array(p), z)
        field = dataclasses.replace(
            self.SIN_FIELD if kind == "sin" else WAVE_FIELD, charge=charge)
        traj = dyn.integrate(state, field, (0.0, steps * dt), dt)
        want = oracles.rk4_field_complex(SIGMA if photon else GAMMA,
                                         np.array(x), p, z, field, steps, dt)
        assert not traj.aborted and len(traj.tau) == steps + 1
        for got, ref in zip((traj.x, traj.p, traj.spinor), want):
            tol = np.finfo(float).eps * steps * (1.0 + np.max(np.abs(ref)))
            assert np.max(np.abs(got - ref)) <= tol

    @pytest.mark.parametrize("charge", [1.0, -1.3])
    @pytest.mark.parametrize("kind", ["sin", "wave"])
    @pytest.mark.parametrize("photon", [False, True])
    def test_field_run_is_rk4_of_packed_rhs(self, photon, kind, charge):
        """integrate in a field equals, bit for bit, RK4 built stage by
        stage from `derivative` of the packed state y, its stage inputs
        coef_s.dot([y; k]) formed as the run forms them
        (packed_rk4_reference), then y + w.dot(k)."""
        st = self.photon_state() if photon else self.free_state()
        field = dataclasses.replace(
            self.SIN_FIELD if kind == "sin" else WAVE_FIELD, charge=charge)
        n, dt = 400, 1e-3
        traj = dyn.integrate(st, field, (0.0, n * dt), dt)
        ys, _ = packed_rk4_reference(st, field, n, dt)
        xs, ps, zs = dyn._unpacked(ys, len(st.eta if photon else st.z))
        assert not traj.aborted and len(traj.tau) == n + 1
        assert np.max(np.abs(traj.p - traj.p[0])) > 0.0
        for got, want in ((traj.x, xs), (traj.p, ps), (traj.spinor, zs)):
            assert np.array_equal(got, want)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), photon=st.booleans(),
           kind=st.sampled_from(["none", "sin", "wave"]),
           charge=st.sampled_from([1.0, 0.8, -1.3, 0.0, 37.0]))
    def test_derivatives_match_complex_rhs(self, seed, photon, kind,
                                           charge):
        """derivative of an electron and of a photon state against the
        complex right-hand side of the oracle loop, at random states; no
        field is a field of zero potential."""
        rng = np.random.default_rng(seed)
        d = 2 if photon else 4
        x, p = rng.normal(size=4), rng.normal(size=4)
        z = rng.normal(size=d) + 1j * rng.normal(size=d)
        zero = dyn.ExternalField(lambda x: np.zeros(4),
                                 lambda x: np.zeros((4, 4)))
        f = (None if kind == "none" else dataclasses.replace(
            self.SIN_FIELD if kind == "sin" else WAVE_FIELD, charge=charge))
        build = dyn.PhotonClassicalState if photon else dyn.ElectronState
        got = dyn.derivative(build(FourVector.from_array(x),
                                   FourVector.from_array(p), z), f)
        want = oracles.field_rhs_complex(SIGMA if photon else GAMMA,
                                         f or zero, x, p, z)
        scale = (1.0 + np.abs(p).sum()) * (z.conj() @ z).real
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-14 * scale

    @pytest.mark.parametrize("photon", [False, True])
    def test_free_derivative_is_the_zero_field(self, photon):
        """derivative without a field is derivative in the zero field (A =
        0, grad = 0, charge 0), exactly, with dp zero."""
        rng = np.random.default_rng(11)
        d = 2 if photon else 4
        build = dyn.PhotonClassicalState if photon else dyn.ElectronState
        zero = dyn.ExternalField(lambda x: np.zeros(4),
                                 lambda x: np.zeros((4, 4)), charge=0.0)
        for _ in range(20):
            st = build(FourVector.from_array(rng.normal(size=4)),
                       FourVector.from_array(rng.normal(size=4)),
                       rng.normal(size=d) + 1j * rng.normal(size=d))
            free, field = dyn.derivative(st), dyn.derivative(st, zero)
            for got, want in zip(free, field):
                assert np.array_equal(got, want)
            assert np.all(free[1] == 0.0)

    @pytest.mark.parametrize("kind", ["none", "sin", "wave"])
    @pytest.mark.parametrize("photon", [False, True])
    def test_packed_rhs_fills_its_row(self, photon, kind):
        """The stage core (the packed right-hand side) writes every entry
        of its stage row, -e v in the A slot beside v, and nothing
        outside it: the rows of a NaN stage array, against the complex
        right-hand side."""
        rng = np.random.default_rng(5)
        cliff = SIGMA if photon else GAMMA
        mats = SIGMA if photon else dyn._G0G
        d = 2 if photon else 4
        x, p = rng.normal(size=4), rng.normal(size=4)
        z = rng.normal(size=d) + 1j * rng.normal(size=d)
        zero = dyn.ExternalField(lambda x: np.zeros(4),
                                 lambda x: np.zeros((4, 4)))
        f = {"none": zero, "sin": self.SIN_FIELD, "wave": WAVE_FIELD}[kind]
        ops, y = dyn._packed(mats, cliff, x, p, z, f)
        want = np.concatenate(oracles.field_rhs_complex(cliff, f, x, p, z))
        for row in range(4):
            k = np.full((4, len(y)), np.nan)
            out = k[row]
            dyn._stage(ops, f, y, out)()
            # e = 1 here, so -e V is V negated and -e v is exactly -v
            assert f.charge == 1.0
            assert np.array_equal(out[4:8], -out[:4])
            got = (np.concatenate((out[:4], out[8:12] * METRIC_DIAG,
                                   out[12:12 + d]))
                   + 1j * np.append(np.zeros(8), out[12 + d:]))
            assert np.max(np.abs(got - want)) <= 1e-14 * (
                1.0 + np.abs(p).sum()) * (z.conj() @ z).real
            assert np.isnan(np.delete(k, row, axis=0)).all()

    @pytest.mark.parametrize("photon", [False, True])
    def test_constant_field_is_free_motion_at_kinetic_momentum(self,
                                                               photon):
        """A constant potential is a pure gauge: the internal norm holds
        and the motion is free motion at p - eA, with p unchanged."""
        a = np.array([0.07, -0.03, 0.05, 0.02])
        field = dyn.ExternalField(lambda x: a, lambda x: np.zeros((4, 4)),
                                  charge=0.8)
        st = self.photon_state() if photon else self.free_state()
        traj = dyn.integrate(st, field, (0.0, 2.0), 1e-3)
        kin = st.p.as_array() - 0.8 * a
        if photon:
            zs, xs = oracles.exact_free_photon(st.eta, kin, st.x.as_array(),
                                       traj.tau)
        else:
            zs, xs = dyn.exact_free_trajectory(
                st.z, FourVector.from_array(kin), st.x, traj.tau)
        assert not traj.aborted
        assert np.max(np.abs(traj.zbar_z - traj.zbar_z[0])) <= 1e-12
        assert np.max(np.abs(traj.p - st.p.as_array())) == 0.0
        assert np.max(np.abs(traj.spinor - zs)) <= 1e-10
        assert np.max(np.abs(traj.x - xs)) <= 1e-10

    @pytest.mark.parametrize("a_shape, grad_shape", [
        ((3,), (4, 4)), ((4,), (3, 3)), ((4,), (4,)), ((4, 1), (4, 4))])
    def test_field_of_wrong_shape_is_refused(self, a_shape, grad_shape):
        """A wrong shape fails before the first step, however numpy would
        broadcast it (a (4,) gradient would give a wrong dp silently)."""
        calls = []

        def grad(x):
            calls.append(x)
            return np.full(grad_shape, 0.01)

        field = dyn.ExternalField(lambda x: np.full(a_shape, 0.01), grad)
        with pytest.raises(DomainError, match="shape"):
            dyn.integrate(self.free_state(), field, (0.0, 1.0), 0.1)
        assert len(calls) == 1
        for state in (self.free_state(), self.photon_state()):
            with pytest.raises(DomainError, match="shape"):
                dyn.derivative(state, field)

    @pytest.mark.parametrize("a, grad", [
        (np.full(4, 0.01j), np.zeros((4, 4))),
        (np.zeros(4), np.full((4, 4), 0.01j))])
    def test_complex_field_is_refused(self, a, grad):
        """A complex A(x) or grad(x) fails before the first step: the
        stage holds both as floats, which would drop an imaginary part."""
        field = dyn.ExternalField(lambda x: a, lambda x: grad)
        for state in (self.free_state(), self.photon_state()):
            for run in (dyn.integrate, dyn.derivative):
                with pytest.raises(DomainError, match="must be real"):
                    run(state, field)

    def test_field_shape_checked_once(self):
        calls = []

        def grad(x):
            calls.append(x)
            return np.zeros((4, 4))

        field = dyn.ExternalField(lambda x: np.zeros(4), grad)
        dyn.integrate(self.free_state(), field, (0.0, 1.0), 0.1)
        # one check at the start, then four stages for each of 10 steps
        assert len(calls) == 1 + 4 * 10

    @pytest.mark.parametrize("photon", [False, True])
    def test_derivative_calls_field_once(self, photon):
        """One derivative calls A and grad once each, both with the one
        copy of the state's position, and gives the right-hand side of
        the field's values there."""
        st = self.photon_state() if photon else self.free_state()
        st = dataclasses.replace(st, x=FourVector(0.2, 0.0, 0.1, 0.7))
        recorded, seen_a, seen_grad = self.recording(WAVE_FIELD)
        got = dyn.derivative(st, recorded)
        assert len(seen_a) == len(seen_grad) == 1
        assert seen_a[0] is seen_grad[0]
        assert np.array_equal(seen_a[0], st.x.as_array())
        z = st.eta if photon else st.z
        p = st.p.as_array()
        want = oracles.field_rhs_complex(SIGMA if photon else GAMMA,
                                         WAVE_FIELD, st.x.as_array(), p, z)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-14 * (
                1.0 + np.abs(p).sum()) * (z.conj() @ z).real

    @staticmethod
    def recording(field):
        """field, with every position that A and grad get appended to
        the returned lists."""
        seen_a, seen_grad = [], []

        def potential(x):
            seen_a.append(x)
            return field.A(x)

        def gradient(x):
            seen_grad.append(x)
            return field.grad(x)

        return (dataclasses.replace(field, A=potential, grad=gradient),
                seen_a, seen_grad)

    @pytest.mark.parametrize("kind", ["sin", "wave"])
    @pytest.mark.parametrize("photon", [False, True])
    def test_field_gets_stage_positions_as_arrays(self, photon, kind):
        """A and grad each get every stage position, in stage order after
        the one shape check at x0, as a new float64 (4,) ndarray whose
        values are those of the stage-by-stage loop."""
        st = self.photon_state() if photon else self.free_state()
        field = self.SIN_FIELD if kind == "sin" else WAVE_FIELD
        n, dt = 50, 1e-3
        recorded, seen_a, seen_grad = self.recording(field)
        traj = dyn.integrate(st, recorded, (0.0, n * dt), dt)
        ys, positions = packed_rk4_reference(st, field, n, dt)
        assert not traj.aborted and np.array_equal(traj.x, ys[:, :4])
        want = [st.x.as_array()] + positions
        assert len(positions) == 4 * n
        for seen in (seen_a, seen_grad):
            assert len(seen) == len(want)
            for got, x in zip(seen, want):
                assert type(got) is np.ndarray
                assert got.dtype == np.float64 and got.shape == (4,)
                # read after the run: no array is a view it overwrote
                assert np.array_equal(got, x)

    @pytest.mark.parametrize("kind", ["momentum", "position"])
    def test_overflowing_field_run_never_passes_non_finite_position(
            self, kind):
        """A field run whose state overflows (p and z under a steep
        gradient, or x at a huge internal norm) is aborted and ends at its
        first non-finite sample, with the rows of the stage-by-stage loop
        before it; A and grad never get a non-finite position."""
        if kind == "momentum":
            st, dt = rest_state(z=(0.6, 0.0, 0.0, 0.8j)), 0.1
            field = dyn.ExternalField(lambda x: np.zeros(4),
                                      lambda x: np.full((4, 4), 100.0))
        else:
            st, dt = rest_state(z=(math.sqrt(1e307), 0.0, 0.0, 0.0)), 0.3
            field = dyn.ExternalField(lambda x: np.array([0.1, 0, 0, 0]),
                                      lambda x: np.zeros((4, 4)))
        recorded, seen_a, seen_grad = self.recording(field)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = dyn.integrate(st, recorded, (0.0, 100 * dt), dt)
            ys, _ = packed_rk4_reference(st, field, 100, dt)
        first_bad = np.flatnonzero(~np.isfinite(ys).all(axis=1))[0]
        assert first_bad > 1
        assert traj.aborted and len(traj.tau) == first_bad
        xs, ps, zs = dyn._unpacked(ys[:first_bad], len(st.z))
        for got, want in ((traj.x, xs), (traj.p, ps), (traj.spinor, zs)):
            assert np.array_equal(got, want)
        assert seen_a and seen_grad
        assert all(np.isfinite(x).all() for x in seen_a + seen_grad)

    def test_field_run_builds_no_four_vector(self, monkeypatch):
        """A 100-step field run builds no FourVector once its state is
        built, and calls A and grad once each for the shape check and
        once each per stage."""
        st = self.free_state()
        recorded, seen_a, seen_grad = self.recording(self.SIN_FIELD)
        built = []
        check = FourVector.__post_init__

        def counting(v):
            built.append(v)
            check(v)

        monkeypatch.setattr(FourVector, "__post_init__", counting)
        traj = dyn.integrate(st, recorded, (0.0, 0.1), 1e-3)
        assert len(traj.tau) == 101 and not traj.aborted
        assert built == []
        assert len(seen_a) == len(seen_grad) == 1 + 4 * 100

    def test_nan_field_aborts(self):
        field = dyn.ExternalField(
            A=lambda x: np.array([math.nan, 0.0, 0.0, 0.0]),
            grad=lambda x: np.zeros((4, 4)))
        traj = dyn.integrate(self.free_state(), field, (0.0, 1.0), 0.1)
        assert traj.aborted
        assert len(traj.tau) < 11
        assert np.isfinite(traj.spinor).all()

    def test_bad_arguments(self):
        st = self.free_state()
        with pytest.raises(DomainError):
            dyn.integrate(st, None, (0.0, 1.0), -0.1)
        for dt in (math.nan, math.inf):
            with pytest.raises(DomainError):
                dyn.integrate(st, None, (0.0, 1.0), dt)
        with pytest.raises(DomainError):
            dyn.integrate(st, None, (1.0, 0.0), 0.1)
        with pytest.raises(DomainError):
            dyn.integrate("nope", None, (0.0, 1.0), 0.1)
        # more samples than memory holds, or an overflowing span / dt,
        # are refused before any allocation
        for span, dt in (((0.0, 1.0), 1e-300), ((0.0, 1e10), 5e-324),
                         ((0.0, 1e10), 1e-3)):
            with pytest.raises(DomainError, match="memory"):
                dyn.integrate(st, None, span, dt)

    @pytest.mark.parametrize("field", [None, WAVE_FIELD])
    def test_last_sample_at_or_before_span_end(self, field):
        """The step count is the largest whose last sample does not pass
        the span's end: 1.5 and 2.5 steps give 1 and 2 steps, and a span
        shorter than one step is refused."""
        for span, rows in ((0.0015, 2), (0.0025, 3), (0.003, 4)):
            traj = dyn.integrate(self.free_state(), field, (0.0, span), 1e-3)
            assert len(traj.tau) == rows, span
            assert traj.tau[-1] <= span
        for span in (0.0006, 0.0004):
            with pytest.raises(DomainError, match="shorter than one step"):
                dyn.integrate(self.free_state(), field, (0.0, span), 1e-3)

    def test_free_run_memory_is_its_samples(self):
        """A free run holds its samples and the temporaries of one row
        block, never a full-length temporary: the traced peak of a
        20001-row electron run stays below 1.15 times its samples' bytes
        (its p is one row, broadcast)."""
        state = rest_state(z=(0.6, 0.0, 0.0, 0.8j))
        dyn.integrate(state, None, (0.0, 0.01), 0.001)
        tracemalloc.start()
        try:
            traj = dyn.integrate(state, None, (0.0, 20.0), 0.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.tau) == 20001 and traj.p.strides[0] == 0
        samples = sum(a.nbytes for a in (traj.tau, traj.x, traj.spinor,
                                         traj.zbar_z, traj.H))
        assert peak < 1.15 * samples, (peak, samples)

    @pytest.mark.parametrize("photon", [False, True])
    def test_memory_guard_counts_what_a_run_holds(self, monkeypatch,
                                                  photon):
        """The memory guard counts a free sample as 11 floats and the
        spinor, and a field sample, whose packed row (x, p, A, spinor)
        sits beside the unpacked spinor, as 15 floats and the spinor
        twice: 1001 samples of each fit in just their own count."""
        st = self.photon_state() if photon else self.free_state()
        d = 2 if photon else 4
        for field, floats in ((None, 11 + 2 * d), (WAVE_FIELD, 15 + 4 * d)):
            monkeypatch.setattr(dyn, "MAX_RECORD_BYTES", 1000 * 8 * floats)
            with pytest.raises(DomainError, match="memory"):
                dyn.integrate(st, field, (0.0, 1.0), 1e-3)
            monkeypatch.setattr(dyn, "MAX_RECORD_BYTES", 1002 * 8 * floats)
            assert len(dyn.integrate(st, field, (0.0, 1.0), 1e-3).tau) == 1001
        monkeypatch.setattr(dyn, "MAX_RECORD_BYTES", 1002 * 8 * (11 + 2 * d))
        with pytest.raises(DomainError, match="memory"):
            dyn.integrate(st, WAVE_FIELD, (0.0, 1.0), 1e-3)

    def test_position_overflow_aborts_after_last_finite_sample(self):
        # |z|^2 = 1e307 at rest: x0 grows by about 3e306 a step and
        # overflows near step 60 while z stays of order 1e153
        st = rest_state(z=(math.sqrt(1e307), 0.0, 0.0, 0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            traj = dyn.integrate(st, None, (0.0, 30.0), 0.3)
            xs, zs = rk4_free_reference(st, 100, 0.3)
        first_bad = np.flatnonzero(~np.isfinite(xs).all(axis=1))[0]
        assert np.isfinite(zs[first_bad]).all()
        assert traj.aborted
        assert len(traj.tau) == first_bad
        assert np.allclose(traj.x, xs[:first_bad], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("field", [None, dyn.ExternalField(
        lambda x: np.array([0.1, 0.0, 0.0, 0.0]), lambda x: np.zeros((4, 4)))])
    @pytest.mark.parametrize("scale", [1e154, 1e160])
    def test_overflowing_run_aborts_without_warnings(self, field, scale):
        """An overflow in the steps (the position cumsum at 1e154, the
        internal norm at 1e160) is reported by the abort flag alone: a
        library caller sees no RuntimeWarning."""
        st = rest_state(z=(scale, 0.0, scale, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = dyn.integrate(st, field, (0.0, 5.0), 1e-2)
        assert traj.aborted and 0 < len(traj.tau) < 501
        assert np.isfinite(traj.x).all() and np.isfinite(traj.spinor).all()


unit = st.floats(-1.0, 1.0)


class TestStepMap:

    @settings(max_examples=30)
    @given(photon=st.booleans(), mass=st.floats(0.5, 2.0),
           p3=st.lists(unit, min_size=3, max_size=3),
           spin=st.lists(unit, min_size=8, max_size=8),
           n=st.integers(1, 3000), dt=st.floats(1e-3, 0.05))
    def test_matches_step_loop(self, photon, mass, p3, spin, n, dt):
        p3 = np.array(p3)
        spin = np.array(spin[:4]) + 1j * np.array(spin[4:])
        if photon:
            assume(np.linalg.norm(p3) > 0.1 and np.linalg.norm(spin[:2]) > 0.1)
            state = dyn.PhotonClassicalState(
                FourVector(0, 0, 0, 0),
                FourVector.from_spatial(np.linalg.norm(p3), p3), spin[:2])
        else:
            assume(np.linalg.norm(spin) > 0.1)
            state = dyn.ElectronState(
                FourVector(0, 0, 0, 0),
                FourVector.from_spatial(math.sqrt(mass ** 2 + p3 @ p3), p3),
                spin)
        traj = dyn.integrate(state, None, (0.0, n * dt), dt)
        xs, zs = rk4_free_reference(state, n, dt)
        assert not traj.aborted
        assert len(traj.tau) == n + 1
        assert (np.max(np.abs(traj.spinor - zs))
                <= 1e-12 * np.max(np.abs(zs)))
        assert np.max(np.abs(traj.x - xs)) <= 1e-12 * np.max(np.abs(xs))


class TestZitterbewegungFrequency:

    @staticmethod
    def weights(state):
        """The norms of the spinor's components on the generator's two
        eigenspaces."""
        if isinstance(state, dyn.PhotonClassicalState):
            k = state.p.as_array() * METRIC_DIAG
            _, vec = np.linalg.eigh(np.einsum("m,mij->ij", k, SIGMA))
            return np.abs(vec.conj().T @ state.eta)
        s, m = slash(state.p), math.sqrt(state.p.norm2())
        return [np.linalg.norm((m * np.eye(4) + sign * s) @ state.z) / (2 * m)
                for sign in (1.0, -1.0)]

    @settings(max_examples=40)
    @given(photon=st.booleans(), scale=st.floats(0.1, 10.0),
           boost=st.floats(0.0, 10.0), direction=st.lists(
               unit, min_size=3, max_size=3),
           spin=st.lists(unit, min_size=8, max_size=8),
           periods=st.floats(2.0, 20.0), wdt=st.floats(1e-3, 0.05))
    def test_reads_step_map_frequency(self, photon, scale, boost, direction,
                                      spin, periods, wdt):
        """Electrons of mass `scale` and momentum up to 10 m, photons of
        |k| = `scale`, in any direction, with any unit spinor that has
        both eigencomponents, over 2 to 20 periods at w dt from 1e-3 to
        0.05: the estimate is the step map's frequency within
        frequency_tolerance. In 7000 random draws over these ranges the
        largest difference was 0.062 of that bound."""
        u = np.array(direction)
        assume(np.linalg.norm(u) > 0.1)
        u /= np.linalg.norm(u)
        spin = np.array(spin[:4]) + 1j * np.array(spin[4:])
        if photon:
            spin = spin[:2]
            p = FourVector.from_spatial(scale, scale * u)
            build, l1, l2 = dyn.PhotonClassicalState, 2.0 * scale, 0.0
        else:
            p = FourVector.from_spatial(scale * math.sqrt(1.0 + boost ** 2),
                                        scale * boost * u)
            build, l1, l2 = dyn.ElectronState, scale, -scale
        assume(np.linalg.norm(spin) > 0.1)
        state = build(FourVector(0, 0, 0, 0), p, spin / np.linalg.norm(spin))
        assume(min(self.weights(state)) > 0.05)
        dt = wdt / (l1 - l2)
        traj = dyn.integrate(state, None, (0.0, periods * 2 * math.pi
                                           / (l1 - l2)), dt)
        w = oracles.rk4_step_frequency(l1, l2, dt)
        assert (abs(dyn.zitterbewegung_frequency(traj) - w)
                <= frequency_tolerance(traj, w, l1))

    @settings(max_examples=60)
    @given(photon=st.booleans(), scale=st.floats(1e-3, 10.0),
           theta=st.floats(1e-4, 0.5))
    def test_step_map_frequency_is_the_gap(self, photon, scale, theta):
        """The step map's frequency is the gap l1 - l2 short by (max|l|
        dt)^4 / 120 relative, to leading order: the next term of RK4's
        phase error, arg R(i t) = t - t^5 / 120 + t^7 / 336 - ..., bounds
        what is left."""
        l1, l2 = (2.0 * scale, 0.0) if photon else (scale, -scale)
        dt = theta / max(abs(l1), abs(l2))
        rel = oracles.rk4_step_frequency(l1, l2, dt) / (l1 - l2) - 1.0
        eps = np.finfo(float).eps
        assert abs(rel) <= theta ** 4 / 120 + 16 * eps
        assert abs(rel + theta ** 4 / 120) <= theta ** 6 / 336 + 16 * eps

    def test_photon_along_z(self):
        """A photon moving along z, whose z-velocity is constant: the
        frequency is read off all four components, 2|k| = 1.4."""
        state = dyn.PhotonClassicalState(
            FourVector(0, 0, 0, 0), FourVector(0.7, 0.0, 0.0, 0.7),
            np.array([0.6, 0.8j]))
        traj = dyn.integrate(state, None, (0.0, 20.0), 1e-3)
        w = oracles.rk4_step_frequency(1.4, 0.0, 1e-3)
        assert (abs(dyn.zitterbewegung_frequency(traj) - w)
                <= frequency_tolerance(traj, w, 1.4))
        assert abs(w - 1.4) <= 1e-13

    @pytest.mark.parametrize("run", [
        lambda: dyn.integrate(rest_state((1, 0, 0, 0)), None, (0.0, 20.0),
                              1e-3),
        lambda: dyn.integrate(rest_state((0, 0, 1, 0)), None, (0.0, 20.0),
                              1e-3),
        lambda: dyn.integrate(TestIntegrate().free_state(),
                              TestIntegrate.SIN_FIELD, (0.0, 5.0), 1e-3),
        lambda: dyn.integrate(rest_state(TestIntegrate.Z0), None,
                              (0.0, 0.003), 1e-3)],
        ids=["upper-eigenstate", "lower-eigenstate", "sin-field",
             "four-samples"])
    def test_refuses_what_is_not_one_oscillation(self, run):
        """Eigenstates of slash(p), whose velocity is constant, a run in
        a field, and a run of 4 samples raise DomainError, with no
        warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run()
            with pytest.raises(DomainError):
                dyn.zitterbewegung_frequency(traj)


class TestTrajectoryCSV:

    ARGV = ["classical", "--z", "1,0,0,0", "--tau-max", "0.1",
            "--dt", "0.01"]

    @staticmethod
    def library_columns():
        traj = dyn.integrate(rest_state(), None, (0.0, 0.1), 0.01)
        return traj, dyn.trajectory_columns(traj)

    def test_columns_and_rows(self, capsys):
        traj, cols = self.library_columns()
        names = list(cols)
        assert names[0] == "tau"
        assert "re_z3" in names and "im_z0" in names
        assert names[-2:] == ["zbar_z", "H"]
        assert all(len(v) == len(traj.tau) for v in cols.values())
        photon = dyn.integrate(
            dyn.PhotonClassicalState(FourVector(0, 0, 0, 0),
                                     FourVector(1.0, 0, 0, 1.0),
                                     np.array([1, 0], dtype=complex)),
            None, (0.0, 0.1), 0.01)
        assert list(dyn.trajectory_columns(photon))[9:] == [
            "re_z0", "im_z0", "re_z1", "im_z1", "zbar_z", "H"]
        assert cli.run(self.ARGV) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split(",") == names
        assert len(lines) == 1 + len(traj.tau)
        assert all(len(ln.split(",")) == len(names) for ln in lines[1:])

    def test_round_trip_precision(self, capsys):
        traj, _ = self.library_columns()
        assert cli.run(self.ARGV) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = lines[0].split(",")
        csv_rows = [dict(zip(header, map(float, ln.split(","))))
                    for ln in lines[1:]]
        assert cli.run(self.ARGV + ["--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == csv_rows
        for i, row in enumerate(csv_rows):
            z = traj.spinor[i]
            assert list(row.values()) == [
                traj.tau[i], *traj.x[i], *traj.p[i],
                *np.column_stack([z.real, z.imag]).ravel(),
                traj.zbar_z[i], traj.H[i]]
