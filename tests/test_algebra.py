import numpy as np

from fqed import algebra
from fqed.fourvec import METRIC_DIAG, FourVector, minkowski_dot

rng = np.random.default_rng(42)


def test_clifford_algebra():
    for mu in range(4):
        for nu in range(4):
            anti = (algebra.GAMMA[mu] @ algebra.GAMMA[nu]
                    + algebra.GAMMA[nu] @ algebra.GAMMA[mu])
            target = 2.0 * np.diag(METRIC_DIAG)[mu, nu] * np.eye(4)
            assert np.max(np.abs(anti - target)) <= 1e-14


def test_slash_square_identity():
    for _ in range(20):
        p = FourVector(*rng.normal(size=4))
        sq = algebra.slash(p) @ algebra.slash(p)
        assert np.allclose(sq, p.norm2() * np.eye(4), atol=1e-12)


def test_sigma_slash_determinant():
    # det(sigma^mu p_mu) = p^2 for the 2x2 Pauli contraction
    for _ in range(10):
        p = FourVector(*rng.normal(size=4))
        p_lower = p.as_array() * np.array([1.0, -1.0, -1.0, -1.0])
        sigma_p = np.einsum("m,mij->ij", p_lower, algebra.SIGMA)
        assert np.isclose(np.linalg.det(sigma_p), p.norm2(), atol=1e-12)


def test_trace_of_two_slashes():
    p = FourVector(*rng.normal(size=4))
    q = FourVector(*rng.normal(size=4))
    tr = np.trace(algebra.slash(p) @ algebra.slash(q))
    assert abs(tr - 4.0 * minkowski_dot(p, q)) <= 1e-12


def test_odd_trace_vanishes():
    p = FourVector(*rng.normal(size=4))
    q = FourVector(*rng.normal(size=4))
    r = FourVector(*rng.normal(size=4))
    tr = np.trace(algebra.slash(p) @ algebra.slash(q) @ algebra.slash(r))
    assert abs(tr) <= 1e-12


def test_minkowski_dot_conventions():
    a = FourVector(1.0, 2.0, 3.0, 4.0)
    assert np.isclose(minkowski_dot(a, a), 1.0 - 4.0 - 9.0 - 16.0)
    assert np.isclose(minkowski_dot(a.as_array(), a.as_array()),
                      a.norm2())
