"""Quaternion arithmetic on float64 arrays, sparse entry joins and memory bounds.

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
Mersenne Twister, so that no command loads numpy.random; each caller draws
a block of points by one call, and the rng holds no state but the Twister's.
"""

from __future__ import annotations

import math
import os
import random

import numpy as np

# the byte budget of one block in conformal and in realization, owned here so
# that the algebra and the realization checked against it stay independent
_BLOCK_BYTES = 2**19

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

# Componentwise factor of quaternion conjugation, and the signs of
# Re(p*q) = sum_a CONJ[a] * p_a * q_a.
CONJ = np.array([1.0, -1.0, -1.0, -1.0])
CONJ.setflags(write=False)

# The units 1, i, j, k as the rows of the identity.
UNITS = np.eye(4)
UNITS.setflags(write=False)


def physical_bytes():
    """The machine's physical memory in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(need, what):
    """Raise MemoryError, before allocating, if `what` needs more than physical memory."""
    have = physical_bytes()
    if need > have:
        raise MemoryError("%s needs %.1f GiB; physical memory is %.1f GiB"
                          % (what, need / 2**30, have / 2**30))


def mul(a, b):
    """Componentwise quaternion product of two (..., 4) arrays.

    With a vector Z of shape (n, 4) and a quaternion q this is the right
    action Z -> Z q.
    """
    return np.einsum("...p,...q,pqc->...c", a, b, QTAB)


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


def mat_apply(u, z):
    """Matrix-vector product u Z in H^n."""
    return np.einsum("...ijp,...jq,pqc->...ic", u, z, QTAB)


def mat_mul(u, v):
    """Matrix product u v, quaternion entries multiplied left-to-right."""
    return np.einsum("...ikp,...kjq,pqc->...ijc", u, v, QTAB)


def mat_dagger(u):
    """Conjugate transpose, of each matrix of a stack."""
    return np.swapaxes(u, -3, -2) * CONJ


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


def entries(mats):
    """The nonzero entries (f, row, col, value) of matrices f = 0, 1, ..., one at a time."""
    return tuple(np.concatenate(x) for x in zip(*(
        (np.full(np.count_nonzero(x), f), *np.nonzero(x), x[x != 0]) for f, x in enumerate(mats))))


def view(keys):
    """The (stable order, sorted keys) of a key array, for join and group."""
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


def group(keys):
    """The distinct keys in increasing order and, for each key, the index of
    its group, read off view(keys): the first of each run of equal sorted
    keys opens a group, so one stable sort serves join, group and sum_by."""
    order, key = view(keys)
    first = np.empty(len(key), bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    inv = np.empty(len(key), np.intp)
    inv[order] = np.cumsum(first) - 1
    return key[first], inv


def sum_by(keys, vals):
    """The distinct keys in increasing order and the sum of the values of
    each, in input order (np.bincount over group's inverse)."""
    keys, inv = group(keys)
    return keys, np.bincount(inv, vals)


def join(by, lo, hi):
    """Pairs (l, e), by l and then in the order of by = view(keys), with key e
    in [lo_l, hi_l); by = (None, keys) for keys sorted already."""
    order, key = by
    start = np.searchsorted(key, lo)
    cnt = np.searchsorted(key, hi) - start
    left = np.repeat(np.arange(len(cnt)), cnt)
    e = np.arange(len(left)) + np.repeat(start - np.cumsum(cnt) + cnt, cnt)
    return left, e if order is None else order[e]


class SeededRng:
    """Seeded draws from the standard library's Mersenne Twister (MT19937),
    with the two methods the package calls on a numpy Generator.

    Word pairs (a, b) of Random(seed).getrandbits give the uniforms
    ((a >> 5) 2^26 + (b >> 6)) / 2^53, those of Random(seed).random().
    Normals: Box-Muller on (1 - u1, u2), cosine then sine, each draw of an
    even count from exactly that many uniforms, so that draws of any even
    sizes read one stream and leave the same state.  Integers: randrange.
    """

    def __init__(self, seed):
        self._random = random.Random(seed)

    def _uniforms(self, count):
        """The next `count` uniforms; word pair (a, b) is read as a + 2^32 b."""
        ab = np.frombuffer(self._random.getrandbits(64 * count).to_bytes(8 * count, "little"), "<u8")
        return ((ab & 0xFFFFFFFF) >> 5 << 26 | ab >> 38) * 2.0**-53

    def standard_normal(self, size):
        """An array of that shape, of an even number of normals."""
        shape = size if isinstance(size, tuple) else (size,)
        count = math.prod(shape)
        if count % 2:
            raise ValueError("SeededRng draws normals in pairs; %d is odd" % count)
        u = self._uniforms(count)
        r, theta = np.sqrt(-2.0 * np.log(1.0 - u[0::2])), 2.0 * math.pi * u[1::2]
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1).reshape(shape)

    def integers(self, low, high, size):
        """An array of `size` integers uniform on [low, high)."""
        return np.array([self._random.randrange(low, high) for _ in range(size)])
