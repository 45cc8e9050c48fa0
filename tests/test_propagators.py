import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fqed import propagators as prop
from fqed.algebra import I4, slash
from fqed.errors import PoleError

masses = st.floats(0.1, 10.0)
seeds = st.integers(0, 2 ** 32 - 1)


def unit_vectors(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


@given(seeds, masses)
def test_fermion_propagator_inverse(seed, mass):
    """(slash(q) - m) fermion_line(q, m) = 1 on a (2, N) batch of
    off-shell momenta, as the cores stack their two lines."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(-3.0, 3.0, (2, 16, 4)) * mass
    dev = q[..., 0] ** 2 - np.sum(q[..., 1:] ** 2, -1) - mass * mass
    # a point by the shell is pushed off it along the energy
    q[..., 0] += np.where(np.abs(dev) < 0.1 * mass * mass, 2.0 * mass, 0.0)
    S = prop.fermion_line(q, mass)
    assert S.shape == (2, 16, 4, 4)
    inverse = (slash(q) - mass * I4) @ S
    assert np.allclose(inverse, I4, rtol=0.0, atol=1e-10)


def test_fermion_propagator_on_shell():
    """A batch with a point on, or nearer than the threshold to, the
    mass shell is refused, naming the first such point."""
    off = [1.9, 0.4, -0.2, 0.8]
    for mass, near in ((1.0, 0.0), (1.0, 5e-7), (2.0, 3e-6)):
        E = math.sqrt(0.75 ** 2 + mass * mass + near)
        q = np.array([off, [E, 0.75, 0.0, 0.0], [mass, 0.0, 0.0, 0.0]])
        dev = E * E - 0.75 ** 2 - mass * mass
        with pytest.raises(PoleError) as info:
            prop.fermion_line(q, mass)
        assert str(info.value) == ("intermediate fermion too close to mass "
                                   f"shell: q^2 - m^2 = {dev:.3e}")
    assert np.isfinite(prop.fermion_line(np.array([off]), 1.0)).all()


@given(seeds, masses)
def test_transverse_kernel_recombines(seed, mass):
    """1/photon_line at q = (omega, k) is the two-pole form
    (1/2 omega) (1/(omega - |k|) + 1/(omega + |k|))."""
    rng = np.random.default_rng(seed)
    omega = rng.uniform(-4.0, 4.0, 32) * mass
    kmag = np.abs(omega) * rng.choice([0.3, 0.7, 1.4, 3.0], 32)
    q = np.concatenate([omega[:, None],
                        kmag[:, None] * unit_vectors(rng, 32)], axis=1)
    two_pole = (1.0 / (omega - kmag) + 1.0 / (omega + kmag)) / (2.0 * omega)
    assert np.allclose(1.0 / prop.photon_line(q, mass), two_pole,
                       rtol=1e-12, atol=0.0)


def test_transverse_kernel_zero_omega_limit():
    """At omega = 0 the two poles cancel to -1/|k|^2."""
    q = np.array([[0.0, 1.5, 0.0, 0.0], [0.0, 0.3, -0.4, 1.2]])
    assert np.allclose(1.0 / prop.photon_line(q, 1.0), [-1 / 2.25, -1 / 1.69],
                       rtol=1e-14, atol=0.0)


def test_transverse_kernel_vacuum_redirect():
    """The vacuum line omega = |k| = 0 is refused as a pole of the
    photon line, wherever it sits in the batch."""
    for mass in (0.1, 1.0, 10.0):
        for q in (np.zeros((1, 4)), np.array([[0.5, 0.0, 0.0, 0.0],
                                              [0.0, 0.0, 0.0, 0.0]])):
            with pytest.raises(PoleError) as info:
                prop.photon_line(q, mass)
            assert str(info.value) == "photon line at q^2 = 0.000e+00"


def test_transverse_kernel_pole():
    """omega = |k| and any |q^2| below the threshold in units of m^2
    are refused."""
    for q, mass in (([1.0, 1.0, 0.0, 0.0], 1.0),
                    ([-2.0, 0.0, 1.2, 1.6], 1.0),
                    ([math.sqrt(1 + 3e-10), 1.0, 0.0, 0.0], 2.0)):
        with pytest.raises(PoleError, match=r"^photon line at q\^2 = "):
            prop.photon_line(np.array([[0.5, 0.0, 0.0, 0.0], q]), mass)
    q = np.array([[math.sqrt(1 + 3e-10), 1.0, 0.0, 0.0]])
    assert prop.photon_line(q, 1.0)[0] > 0.0


def test_longitudinal_kernel():
    """1/coulomb_line is 1/|k|^2, refused once |k|^2 falls below the
    threshold in units of m^2."""
    rng = np.random.default_rng(7)
    kmag = rng.uniform(0.01, 5.0, 32)
    k = kmag[:, None] * unit_vectors(rng, 32)
    assert np.allclose(1.0 / prop.coulomb_line(k, 1.0), 1.0 / kmag ** 2,
                       rtol=1e-14, atol=0.0)
    for size in (1e-4, 1e-5, 1e-6, 0.0):
        q = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, size]])
        if size * size >= prop.PHOTON_POLE_THRESHOLD:
            assert prop.coulomb_line(q, 1.0)[1] == size * size
        else:
            with pytest.raises(PoleError) as info:
                prop.coulomb_line(q, 1.0)
            assert str(info.value) == f"Coulomb pole: |q|^2 = {size ** 2:.3e}"
