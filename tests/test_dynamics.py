import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fqed import cli
from fqed import dynamics as dyn
from fqed.algebra import GAMMA, SIGMA, sigma_slash, slash
from fqed.errors import DomainError
from fqed.fourvec import FourVector, minkowski_dot


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
        mats, gen, z = SIGMA, -1j * sigma_slash(state.p), state.eta

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


class TestDerivatives:

    def test_rest_frame_electron(self):
        st = rest_state()
        dx, dp, dz = dyn.electron_derivative(st)
        assert np.allclose(dz, -1j * st.z)
        assert np.isclose(dx[0], 1.0)
        assert np.allclose(dp, 0.0)

    def test_zbar_z_derivative_vanishes(self):
        rng = np.random.default_rng(3)
        st = dyn.ElectronState(FourVector(0, 0, 0, 0),
                               FourVector(math.sqrt(1.0 + 0.89),
                                          0.3, -0.8, 0.4),
                               rng.normal(size=4) + 1j * rng.normal(size=4))
        _, _, dz = dyn.electron_derivative(st)
        from fqed.algebra import GAMMA
        dzbar = (dz.conj() @ GAMMA[0]) @ st.z + st.zbar @ dz
        assert abs(dzbar) <= 1e-12

    def test_helicity_aligned_photon_stationary(self):
        st = dyn.PhotonClassicalState(FourVector(0, 0, 0, 0),
                                      FourVector(2.0, 0, 0, 2.0),
                                      np.array([1.0, 0.0], dtype=complex))
        dx, dp, deta = dyn.photon_derivative(st)
        assert np.allclose(deta, 0.0)
        assert np.allclose(dx, [1.0, 0.0, 0.0, 1.0])
        assert np.allclose(dp, 0.0)

    def test_photon_velocity_is_null(self):
        v = dyn.photon_velocity(np.array([1.0, 0.0], dtype=complex))
        assert abs(minkowski_dot(v, v)) <= 1e-14

    def test_field_accelerates(self):
        field = dyn.ExternalField(
            A=lambda x: np.array([0.0, 0.1 * x.t, 0.0, 0.0]),
            grad=lambda x: np.array([[0.0, 0.1, 0.0, 0.0],
                                     [0.0, 0.0, 0.0, 0.0],
                                     [0.0, 0.0, 0.0, 0.0],
                                     [0.0, 0.0, 0.0, 0.0]]))
        _, dp, _ = dyn.electron_derivative(rest_state(), field)
        # dp_mu = -e v^nu dA_nu/dx_mu; only dA_1/dx_0 = 0.1 is nonzero,
        # and v^1 = 0 at rest, so the rest state feels no force yet
        assert np.allclose(dp, 0.0)
        st = rest_state(z=(1.0, 0.0, 0.3, 0.2))
        v = dyn.electron_velocity(st.z)
        _, dp, _ = dyn.electron_derivative(st, field)
        assert np.isclose(dp[0], -0.1 * v[1])
        # a spatial gradient, dA_0/dx_3 = 0.1: raising the index flips
        # the sign, dp^3 = +e v^0 dA_0/dx_3
        slope = np.zeros((4, 4))
        slope[3, 0] = 0.1
        field = dyn.ExternalField(A=lambda x: np.zeros(4),
                                  grad=lambda x: slope)
        _, dp, _ = dyn.electron_derivative(st, field)
        assert np.allclose(dp, [0.0, 0.0, 0.0, 0.1 * v[0]])


class TestExactSolution:

    def test_tau_zero_identity(self):
        z0 = np.array([0.3, 0.1j, 0.0, 0.5], dtype=complex)
        p = FourVector(1.2, 0.2, 0.3, 0.6)
        assert np.allclose(dyn.exact_free_electron(z0, p, 0.0), z0)

    def test_rest_frame_phases(self):
        p = FourVector(1.0, 0.0, 0.0, 0.0)
        z0 = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)
        z = dyn.exact_free_electron(z0, p, 0.7)
        assert np.isclose(z[0], np.exp(-1j * 0.7))
        assert np.isclose(z[2], np.exp(+1j * 0.7))

    def test_matches_matrix_exponential(self):
        from scipy.linalg import expm
        from fqed.algebra import slash
        p = FourVector(math.sqrt(1.0 + 0.74), 0.3, -0.7, 0.4)
        z0 = np.array([0.2, -0.4j, 0.8, 0.1], dtype=complex)
        tau = 1.37
        direct = expm(-1j * slash(p) * tau) @ z0
        assert np.allclose(dyn.exact_free_electron(z0, p, tau), direct,
                           atol=1e-12)

    def test_zbar_z_preserved_not_dagger_norm(self):
        from fqed.algebra import GAMMA
        p = FourVector(math.sqrt(1.0 + 1.0), 1.0, 0.0, 0.0)
        z0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        z = dyn.exact_free_electron(z0, p, 2.0)
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
        for i, t in enumerate(taus):
            z = dyn.exact_free_electron(z0, p, float(t))
            assert np.allclose(vel[i], dyn.electron_velocity(z), atol=1e-5)

    def test_spacelike_momentum_rejected(self):
        with pytest.raises(DomainError):
            dyn.exact_free_electron(np.ones(4), FourVector(0, 1, 0, 0), 1.0)


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
        w = dyn.zitterbewegung_frequency(traj, component=3)
        assert abs(w - 2.0) <= 0.01 * 2.0

    def test_field_run_conserves_internal_norm(self):
        field = dyn.ExternalField(
            A=lambda x: np.array([0.05 * math.sin(x.z), 0.0, 0.0, 0.0]),
            grad=lambda x: np.array(
                [[0.0, 0.0, 0.0, 0.0],
                 [0.0, 0.0, 0.0, 0.0],
                 [0.0, 0.0, 0.0, 0.0],
                 [0.05 * math.cos(x.z), 0.0, 0.0, 0.0]]))
        traj = dyn.integrate(self.free_state(), field, (0.0, 5.0), 1e-3)
        assert not traj.aborted
        assert np.max(np.abs(traj.zbar_z - traj.zbar_z[0])) <= 1e-8
        assert np.max(np.abs(traj.p - traj.p[0])) > 0.0

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
            dyn.integrate(st, None, (0.0, 1.0), 0.1, method="euler")
        with pytest.raises(DomainError):
            dyn.integrate("nope", None, (0.0, 1.0), 0.1)


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
