import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fqed import algebra, states
from fqed.algebra import BIG_SIGMA, GAMMA, SIGMA
from fqed.errors import DomainError
from fqed.fourvec import FourVector, minkowski_dot

rng = np.random.default_rng(7)


def random_on_shell(mass=1.0, scale=1.0):
    p3 = rng.normal(scale=scale, size=3)
    return FourVector.from_spatial(math.sqrt(mass * mass + p3 @ p3), p3)


class TestElectronSpinors:

    def test_rest_frame_u(self):
        u = states.dirac_spinors([1.0, 0.0, 0.0, 0.0])[0]     # spin up
        assert np.allclose(u, [1, 0, 0, 0])

    def test_unit_norm(self):
        p = np.array([random_on_shell().as_array() for _ in range(30)])
        for backward in (False, True):
            sp = states.dirac_spinors(p, 1.0, backward)
            norms = np.einsum("nsi,nsi->ns", sp.conj(), sp)
            assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_ubar_u(self):
        p = random_on_shell()
        u = states.dirac_spinors(p.as_array())[0]
        assert np.isclose(u.conj() @ GAMMA[0] @ u, 1.0 / p.t, atol=1e-12)
        v = states.dirac_spinors(p.as_array(), 1.0, True)[0]
        assert np.isclose(v.conj() @ GAMMA[0] @ v, -1.0 / p.t, atol=1e-12)

    def test_dirac_equation_residual(self):
        for _ in range(200):
            p = random_on_shell(scale=2.0)
            u = states.dirac_spinors(p.as_array())[0]             # spin up
            v = states.dirac_spinors(p.as_array(), 1.0, True)[1]  # spin down
            ru = (algebra.slash(p) - np.eye(4)) @ u
            rv = (algebra.slash(p) + np.eye(4)) @ v
            assert np.linalg.norm(ru) <= 1e-12
            assert np.linalg.norm(rv) <= 1e-12

    def test_uv_orthogonality(self):
        # ubar(p, s) v(p, s') = 0 at equal momentum
        p = random_on_shell().as_array()
        for s in (0, 1):
            for sp in (0, 1):
                u = states.dirac_spinors(p)[s]
                v = states.dirac_spinors(p, 1.0, True)[sp]
                assert abs(u.conj() @ GAMMA[0] @ v) <= 1e-12

    # axes on and next to the poles, where x^2 + y^2 underflows
    @example(1.0, [(1e-160, 0.0, 1.0), (0.0, -1e-170, -3.0)])
    @example(1e-3, [(0.0, 0.0, 2.0), (1e-9, 1e-9, -0.5)])
    @example(1e3, [(0.0, 0.0, 0.0)])
    @settings(max_examples=200)
    @given(st.floats(1e-3, 1e3),
           st.lists(st.tuples(*[st.floats(-10.0, 10.0)] * 3), min_size=1,
                    max_size=5))
    def test_v_is_u_with_halves_swapped(self, mass, p3s):
        # the amplitude layer builds v spinors by this exact placement
        p3 = mass * np.array(p3s)
        p = np.column_stack([np.sqrt(mass * mass + np.sum(p3 * p3, axis=1)),
                             p3])
        u = states.dirac_spinors(p, mass)
        v = states.dirac_spinors(p, mass, True)
        assert v.tobytes() == u[..., [2, 3, 0, 1]].tobytes()

    def test_off_shell_rejected(self):
        with pytest.raises(DomainError):
            states.dirac_spinors([2.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("p", [[-1.0, 0.0, 0.0, 0.0],
                                   [[1.0, 0.0, 0.0, 0.0],
                                    [-math.sqrt(2.0), 0.0, 1.0, 0.0]]])
    def test_negative_energy_rejected(self, p):
        """An on-shell momentum with p0 < 0 is refused: the time direction
        is the backward flag's."""
        with pytest.raises(DomainError, match="p0 must be positive"):
            states.dirac_spinors(p)


class TestPhotonStates:

    def test_unit_norm_and_residual(self):
        for kind in states.PHOTON_KINDS:
            k = 0.0 if kind == "vacuum" else 1.7
            st = states.photon_state(kind, k)
            assert abs(np.vdot(st.components, st.components) - 1.0) <= 1e-12
            assert states.wave_equation_residual(st) <= 1e-12

    # the first two axes of the fixed-seed version of this test
    @example("plus", 2.2276926851004872,
             (0.7984290498487794, -0.09311313556042694, 0.594845354982016))
    @example("minus", 1.2687510289293455,
             (0.7984290498487794, -0.09311313556042694, 0.594845354982016))
    @example("longitudinal", 0.8831340995140493,
             (0.7984290498487794, -0.09311313556042694, 0.594845354982016))
    @example("vacuum", 0.0,
             (0.7984290498487794, -0.09311313556042694, 0.594845354982016))
    @example("plus", 1.7216081430917238,
             (0.8239168542403944, 0.33595584888546814, 0.4563931253845274))
    @example("minus", 0.4103726014787372,
             (0.8239168542403944, 0.33595584888546814, 0.4563931253845274))
    @example("longitudinal", 2.4718705404098227,
             (0.8239168542403944, 0.33595584888546814, 0.4563931253845274))
    @example("vacuum", 0.0,
             (0.8239168542403944, 0.33595584888546814, 0.4563931253845274))
    @settings(max_examples=200)
    @given(st.sampled_from(states.PHOTON_KINDS), st.floats(0.1, 3.0),
           st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
               lambda v: np.linalg.norm(v) > 0.1))
    def test_residual_under_random_axes(self, kind, k, axis):
        axis = np.array(axis) / np.linalg.norm(axis)
        st = states.photon_state(kind, 0.0 if kind == "vacuum" else k, axis)
        assert states.wave_equation_residual(st) <= 1e-12

    def test_currents_along_z(self):
        def current(kind):
            """The velocity-type current a^dag Sigma^mu a of a state."""
            a = states.photon_state(kind, 1.0).components
            return np.real(np.einsum("i,mij,j->m", a.conj(), BIG_SIGMA, a))

        assert np.allclose(current("plus"), [2, 0, 0, 2], atol=1e-12)
        assert np.allclose(current("minus"), [2, 0, 0, -2], atol=1e-12)
        assert np.allclose(current("longitudinal"), [2, 0, 0, 0],
                           atol=1e-12)

    def test_dispersion_bookkeeping(self):
        st = states.photon_state("plus", 1.3)
        assert st.omega == 1.3
        assert states.photon_state("minus", 1.3).omega == -1.3
        assert states.photon_state("longitudinal", 1.3).omega == 0.0

    def test_vacuum_requires_zero_k(self):
        with pytest.raises(DomainError):
            states.photon_state("vacuum", 0.5)
        with pytest.raises(DomainError):
            states.photon_state("plus", 0.0)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            states.photon_state("scalar", 1.0)

    @pytest.mark.parametrize("axis", [(0.0, 0.0, 2.0), (0.0, 0.0, 0.0),
                                      (0.6, 0.8, 1e-4)])
    def test_non_unit_axis_rejected(self, axis):
        with pytest.raises(DomainError, match="unit 3-vector"):
            states.photon_state("plus", 1.0, axis)

    @pytest.mark.parametrize("k", [[1.0, 0.0, 0.0, 0.0],
                                   [[1.0, 0.0, 0.0, 1.0],
                                    [0.0, 0.0, 0.0, 0.0]]])
    def test_polarization_of_zero_momentum_rejected(self, k):
        with pytest.raises(DomainError, match=r"\|k\| > 0"):
            states.polarization_vectors(k)

    def test_polarization_vector_z_axis(self):
        st = states.photon_state("plus", 1.0)
        k = np.concatenate([[st.omega], st.kvec])
        eps = states.polarization_vectors(k)[states.HELICITIES.index(st.kind)]
        s2 = 1.0 / math.sqrt(2)
        assert np.allclose(eps, [0, s2, 1j * s2, 0])

    def test_polarization_orthogonality(self):
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            st = states.photon_state("plus", 2.0, axis)
            k = np.concatenate([[2.0], st.kvec])
            eps = states.polarization_vectors(k)[
                states.HELICITIES.index(st.kind)]
            assert abs(minkowski_dot(eps, k)) <= 1e-12
            assert abs(minkowski_dot(eps, eps.conj()) + 1.0) <= 1e-12

    @pytest.mark.parametrize("t", [1e-5, 1e-6, 1e-7, 1e-9, 1e-12])
    @pytest.mark.parametrize("south", [False, True])
    def test_polarization_next_to_the_poles(self, t, south):
        """An axis a small angle t off +-z gets a transverse frame: near
        the pole, x-hat is not transverse (eps.k would be ~ t / sqrt2)."""
        for phi in (0.0, 0.7, 2.5, -1.9):
            n = np.array([math.sin(t) * math.cos(phi),
                          math.sin(t) * math.sin(phi),
                          -math.cos(t) if south else math.cos(t)])
            e1, e2 = states.transverse_frame(n)
            assert np.allclose(np.cross(e1, e2), n, rtol=0, atol=1e-15)
            assert abs(e1 @ e2) <= 1e-15
            k = np.concatenate([[1.0], n])
            for eps in states.polarization_vectors(k):
                assert abs(minkowski_dot(eps, k)) <= 1e-15
                assert abs(minkowski_dot(eps, eps.conj()) + 1.0) <= 1e-15

    def test_polarization_on_the_poles(self):
        s2 = 1.0 / math.sqrt(2)
        for kz, turn in ((1.0, 1j), (-1.0, -1j)):
            eps = states.polarization_vectors(np.array([1.0, 0.0, 0.0, kz]))
            want = np.array([[0, s2, turn * s2, 0], [0, s2, -turn * s2, 0]])
            assert np.array_equal(eps, want)

    def test_su2_vector_rotation_is_orthogonal(self):
        """_su2_to_axis induces an SO(3) rotation that takes z-hat onto
        the axis: R_ij = tr(U^dag sigma_i U sigma_j) / 2."""
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        U = states._su2_to_axis(axis)
        R = np.real(np.einsum("ab,ibc,cd,jda->ij", U.conj().T, SIGMA[1:], U,
                              SIGMA[1:])) / 2.0
        assert np.allclose(np.linalg.det(R), 1.0, atol=1e-12)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.allclose(R @ np.array([0.0, 0.0, 1.0]), axis, atol=1e-12)
