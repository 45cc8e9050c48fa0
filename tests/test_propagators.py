import numpy as np
import pytest

from fqed import propagators as prop
from fqed.algebra import slash
from fqed.errors import DomainError, PoleError, SingularityError
from fqed.fourvec import FourVector

CFG = prop.PropagatorConfig()


def test_config_validation():
    with pytest.raises(DomainError):
        prop.PropagatorConfig(mass=0.0)
    with pytest.raises(DomainError):
        prop.PropagatorConfig(epsilon=-1.0)


def test_fermion_propagator_inverse():
    p = FourVector(1.9, 0.4, -0.2, 0.8)
    cfg = prop.PropagatorConfig(epsilon=0.0)
    S = prop.fermion_propagator(p, cfg)
    assert np.allclose((slash(p) - np.eye(4)) @ S, np.eye(4), atol=1e-12)


def test_fermion_propagator_on_shell():
    p = FourVector(1.25, 0.75, 0.0, 0.0)
    with pytest.raises(SingularityError):
        prop.fermion_propagator(p, prop.PropagatorConfig(epsilon=0.0))
    # with epsilon > 0 the pole is displaced and the value is finite
    S = prop.fermion_propagator(p, CFG)
    assert np.all(np.isfinite(S))


def test_transverse_kernel_recombines():
    for omega, k in [(0.3, 1.1), (2.0, 0.5), (-1.2, 0.8)]:
        val = prop.transverse_photon_kernel(omega, k, CFG)
        assert abs(val - 1.0 / (omega * omega - k * k)) <= 1e-6 * abs(val)


def test_transverse_kernel_zero_omega_limit():
    val = prop.transverse_photon_kernel(0.0, 1.5, CFG)
    assert np.isclose(val, -1.0 / 2.25)


def test_transverse_kernel_pole():
    with pytest.raises(PoleError):
        prop.transverse_photon_kernel(1.0, 1.0, CFG)


def test_transverse_kernel_vacuum_redirect():
    with pytest.raises(DomainError):
        prop.transverse_photon_kernel(0.0, 0.0, CFG)


def test_longitudinal_kernel():
    assert np.isclose(prop.longitudinal_photon_kernel(2.0, CFG), 0.25)
    with pytest.raises(DomainError):
        prop.longitudinal_photon_kernel(0.0, CFG)
