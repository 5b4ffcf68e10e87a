"""Quaternion arithmetic on float64 arrays.

Conventions pinned here and used everywhere else:

* the imaginary units satisfy i*j = k, j*k = i, k*i = j, i^2 = j^2 = k^2 = -1;
* components are stored in the order (w, x, y, z) = (1, i, j, k);
* H^n is a right H-module: unit quaternions act on vectors by right
  multiplication, entry by entry.

A quaternion is an array of shape (4,), a vector in H^n one of shape
(n, 4) and an n x n matrix one of shape (n, n, 4); all quaternion
products go through the structure tensor QTAB.
"""

from __future__ import annotations

import numpy as np

# QTAB[a, b, c]: coefficient of unit c in the product (unit a)*(unit b).
QTAB = np.zeros((4, 4, 4))
QTAB[0, 0, 0] = 1.0
for _a in range(1, 4):
    QTAB[0, _a, _a] = 1.0
    QTAB[_a, 0, _a] = 1.0
    QTAB[_a, _a, 0] = -1.0
QTAB[1, 2, 3] = 1.0
QTAB[2, 1, 3] = -1.0
QTAB[2, 3, 1] = 1.0
QTAB[3, 2, 1] = -1.0
QTAB[3, 1, 2] = 1.0
QTAB[1, 3, 2] = -1.0
QTAB.setflags(write=False)

# Signs such that Re(p*q) = sum_a RE_SIGNS[a] * p_a * q_a.
RE_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])
RE_SIGNS.setflags(write=False)

# Componentwise factor of quaternion conjugation.
CONJ = np.array([1.0, -1.0, -1.0, -1.0])
CONJ.setflags(write=False)

# The units 1, i, j, k as the rows of the identity.
UNITS = np.eye(4)
UNITS.setflags(write=False)


def mul(a, b):
    """Componentwise quaternion product of two (..., 4) arrays.

    With a vector Z of shape (n, 4) and a quaternion q this is the right
    action Z -> Z q.
    """
    return np.einsum("...p,...q,pqc->...c", a, b, QTAB)


def conj(q):
    """Quaternion conjugate, componentwise on a (..., 4) array."""
    return q * CONJ


def im(q):
    """Imaginary part of a quaternion: the copy with its real part zeroed."""
    out = np.array(q, dtype=float)
    out[..., 0] = 0.0
    return out


def norm(q):
    """Euclidean norm of a quaternion, vector or matrix, as a float."""
    return float(np.linalg.norm(q))


def vec_inner(u, v):
    """Standard real inner product on H^n: <U, V> = Re(U^dag V)."""
    return float(np.dot(u.reshape(-1), v.reshape(-1)))


def _check_n(u, v):
    if u.shape[0] != v.shape[0]:
        raise ValueError("length mismatch: %d vs %d" % (u.shape[0], v.shape[0]))


def dagger_product(w, z):
    """The quaternion W^dag Z = sum_i conj(W_i) Z_i."""
    _check_n(w, z)
    return mul(w * CONJ, z).sum(axis=0)


def unit_matrix(n, i, j, q=UNITS[0]):
    """E_ij * q: the n x n matrix with quaternion q in slot (i, j)."""
    out = np.zeros((n, n, 4))
    out[i, j] = q
    return out


def mat_apply(u, z):
    """Matrix-vector product u Z in H^n."""
    return np.einsum("ijp,jq,pqc->ic", u, z, QTAB)


def mat_mul(u, v):
    """Matrix product u v, quaternion entries multiplied left-to-right."""
    return np.einsum("ikp,kjq,pqc->ijc", u, v, QTAB)


def mat_dagger(u):
    """Conjugate transpose."""
    return np.transpose(u, (1, 0, 2)) * CONJ


def trace_re(u):
    """Real part of the trace."""
    n = u.shape[0]
    return float(u[np.arange(n), np.arange(n), 0].sum())


def outer(z, w):
    """The matrix Z W^dag."""
    _check_n(z, w)
    return np.einsum("ip,jq,pqc->ijc", z, w * CONJ, QTAB)


def real_rep(m):
    """Real 4n x 4n matrix R with flat(m Z) = R @ flat(Z) for every Z."""
    n = m.shape[0]
    r = np.einsum("ijp,pqc->icjq", m, QTAB)
    return r.reshape(4 * n, 4 * n)


def random_qvector(rng, n, scale=1.0):
    return rng.standard_normal((n, 4)) * scale


def random_qmatrix(rng, n, scale=1.0):
    return rng.standard_normal((n, n, 4)) * scale


def random_unit_quaternion(rng):
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return v
