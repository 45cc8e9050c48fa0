"""Dirac, Pauli and photon-space matrix algebra.

Gamma matrices are in the Dirac-Pauli representation with signature
(+,-,-,-):

    gamma^0 = diag(1, 1, -1, -1)
    gamma^i = [[0, sigma_i], [-sigma_i, 0]]

The photon internal space is C^2 (x) C^2 in the basis
(|uu>, |ud>, |du>, |dd>); the generators acting on it are the
Kronecker sums Sigma^mu = sigma^mu (x) 1 + 1 (x) sigma^mu.

Everything here is a pure function over immutable numpy arrays; module
level constants are never mutated.
"""

from __future__ import annotations

import numpy as np

from .fourvec import METRIC_DIAG, _components

_I2 = np.eye(2, dtype=complex)

SIGMA = np.empty((4, 2, 2), dtype=complex)
SIGMA[0] = _I2
SIGMA[1] = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA[2] = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA[3] = np.array([[1, 0], [0, -1]], dtype=complex)

GAMMA = np.empty((4, 4, 4), dtype=complex)
GAMMA[0] = np.block([[_I2, np.zeros((2, 2))], [np.zeros((2, 2)), -_I2]])
for _i in (1, 2, 3):
    GAMMA[_i] = np.block([[np.zeros((2, 2)), SIGMA[_i]],
                          [-SIGMA[_i], np.zeros((2, 2))]])
GAMMA.setflags(write=False)
SIGMA.setflags(write=False)

BIG_SIGMA = np.empty((4, 4, 4), dtype=complex)
for _m in range(4):
    BIG_SIGMA[_m] = np.kron(SIGMA[_m], _I2) + np.kron(_I2, SIGMA[_m])
BIG_SIGMA.setflags(write=False)

I4 = np.eye(4, dtype=complex)
I4.setflags(write=False)

# the matrices with their index lowered, mats_mu: each slash contracts
# the last axis of a FourVector or (..., 4) (possibly complex) array of
# contravariant components with one of them
_GAMMA_LOWERED, _BIG_SIGMA_LOWERED = (
    METRIC_DIAG[:, None, None] * mats for mats in (GAMMA, BIG_SIGMA))


def slash(p) -> np.ndarray:
    """gamma^mu p_mu = gamma^0 p^0 - gamma_vec . p_vec, shape (..., 4, 4)."""
    # real p is cast up front: einsum's own cast buffers at about twice
    # the cost, through the same products
    return np.einsum("...m,mij->...ij", np.asarray(_components(p), complex),
                     _GAMMA_LOWERED)


def big_sigma_slash(p) -> np.ndarray:
    """Sigma^mu p_mu on the photon internal C^2 (x) C^2 space."""
    return np.einsum("...m,mij->...ij", _components(p), _BIG_SIGMA_LOWERED)
