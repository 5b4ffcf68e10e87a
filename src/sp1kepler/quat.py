"""Quaternion arithmetic on float64 arrays.

Conventions pinned here and used everywhere else:

* the imaginary units satisfy i*j = k, j*k = i, k*i = j, i^2 = j^2 = k^2 = -1;
* components are stored in the order (w, x, y, z) = (1, i, j, k);
* H^n is a right H-module: unit quaternions act on vectors by right
  multiplication, entry by entry.

A quaternion is an array of shape (4,), a vector in H^n one of shape
(n, 4) and an n x n matrix one of shape (n, n, 4); all quaternion
products go through the structure tensor QTAB.  The products take leading
stack axes (...) and broadcast them, so a stack of k points is one call.

SeededRng draws the CLI's seeded test points from the standard library's
Mersenne Twister, so that no command loads numpy.random.
"""

from __future__ import annotations

import math
import random

import numpy as np

# the byte budget of one block in conformal and in realization, owned here so
# that the algebra and the realization checked against it stay independent
_BLOCK_BYTES = 2**20

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


def norms(x, axes):
    """Per-element Euclidean norms of a stack over its last `axes` axes, bit for
    bit those of numpy.linalg.norm: the root of one BLAS dot per element (a
    stacked matmul sums alike but maps more numpy code, adding to peak RSS)."""
    lead = x.shape[: x.ndim - axes]
    f = x.reshape(math.prod(lead), -1)
    return np.sqrt(np.fromiter(map(np.dot, f, f), float, len(f))).reshape(lead)


def _check_n(u, v):
    if u.shape[-2] != v.shape[-2]:
        raise ValueError("length mismatch: %d vs %d" % (u.shape[-2], v.shape[-2]))


def dagger_product(w, z):
    """The quaternion W^dag Z = sum_i conj(W_i) Z_i."""
    _check_n(w, z)
    return mul(w * CONJ, z).sum(axis=-2)


def unit_matrix(n, i, j, q=UNITS[0]):
    """E_ij * q: the n x n matrix with quaternion q in slot (i, j)."""
    out = np.zeros((n, n, 4))
    out[i, j] = q
    return out


def mat_apply(u, z):
    """Matrix-vector product u Z in H^n."""
    return np.einsum("...ijp,...jq,pqc->...ic", u, z, QTAB)


def mat_mul(u, v):
    """Matrix product u v, quaternion entries multiplied left-to-right."""
    return np.einsum("...ikp,...kjq,pqc->...ijc", u, v, QTAB)


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
    return np.einsum("...ip,...jq,pqc->...ijc", z, w * CONJ, QTAB)


def real_rep(m):
    """Real 4n x 4n matrix R with flat(m Z) = R @ flat(Z) for every Z.

    Takes one matrix (n, n, 4) or a stack (..., n, n, 4) and returns
    (..., 4n, 4n).  R(uv) = R(u) R(v) and R(u^dag) = R(u)^T.
    """
    n = m.shape[-2]
    r = np.einsum("...ijp,pqc->...icjq", m, QTAB)
    return r.reshape(m.shape[:-3] + (4 * n, 4 * n))


class SeededRng:
    """Seeded draws from the standard library's Mersenne Twister (MT19937),
    with the two methods the package calls on a numpy Generator.

    Word pairs (a, b) of Random(seed).getrandbits give the uniforms
    ((a >> 5) 2^26 + (b >> 6)) / 2^53, those of Random(seed).random().
    Normals: Box-Muller on (1 - u1, u2), cosine then sine, served from a
    block refilled _BLOCK at a time, so that a draw does not depend on how
    earlier draws were sized.  Integers: randrange.
    """

    _BLOCK = 1024  # normals per refill

    def __init__(self, seed):
        self._random, self._normals, self._next = random.Random(seed), np.empty(0), 0

    def _uniforms(self, count):
        """The next `count` uniforms; word pair (a, b) is read as a + 2^32 b."""
        ab = np.frombuffer(self._random.getrandbits(64 * count).to_bytes(8 * count, "little"), "<u8")
        return ((ab & 0xFFFFFFFF) >> 5 << 26 | ab >> 38) * 2.0**-53

    def standard_normal(self, size=None):
        """A float for size=None, else an array of that shape."""
        shape = () if size is None else size if isinstance(size, tuple) else (size,)
        count = math.prod(shape)
        start, end = self._next, self._next + count
        if end > len(self._normals):
            u = self._uniforms(max(self._BLOCK, count + 1) & ~1)
            r, theta = np.sqrt(-2.0 * np.log(1.0 - u[0::2])), 2.0 * math.pi * u[1::2]
            fresh = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1).reshape(-1)
            self._normals, start, end = np.concatenate([self._normals[start:], fresh]), 0, count
        self._next = end
        out = self._normals[start:end]
        return float(out[0]) if size is None else out.reshape(shape)

    def integers(self, low, high, size):
        """An array of `size` integers uniform on [low, high)."""
        return np.array([self._random.randrange(low, high) for _ in range(size)])
