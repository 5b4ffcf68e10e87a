"""Canonical Poisson structure on the punctured quaternionic phase space.

Phase points are pairs (Z, W) in H^n_* x H^n, flattened to R^{8n} as
(Z coordinates, then W coordinates), each quaternion expanded (w, x, y, z).
The bracket sign convention is {q_i, p_j} = delta_ij with positions from Z
and momenta from W, which makes {<U, Z>, <V, W>} = <U, V> hold exactly.

Affine-quadratic observables f(z) = z^T A z / 2 + b^T z + c are closed
under the bracket, so every algebra relation downstream is checked as an
exact matrix identity.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .quat import norm

DOMAIN_EPS = 1e-9


class PhasePoint:
    """A point (Z, W) of the phase space with Z != 0; Z, W are (n, 4) arrays."""

    __slots__ = ("Z", "W")

    def __init__(self, Z, W):
        Z = np.asarray(Z, dtype=float)
        W = np.asarray(W, dtype=float)
        if Z.ndim != 2 or Z.shape[1] != 4 or Z.shape != W.shape:
            raise ValueError("Z and W must both have shape (n, 4)")
        if norm(Z) <= DOMAIN_EPS:
            raise ValueError("phase point requires |Z| > %g" % DOMAIN_EPS)
        self.Z = Z
        self.W = W

    @property
    def n(self):
        return self.Z.shape[0]

    def flatten(self):
        return np.concatenate([self.Z.reshape(-1), self.W.reshape(-1)])

    @classmethod
    def unflatten(cls, vec, n):
        vec = np.array(vec, dtype=float)
        if vec.size != 8 * n:
            raise ValueError("expected %d coordinates, got %d" % (8 * n, vec.size))
        return cls(vec[: 4 * n].reshape(n, 4), vec[4 * n :].reshape(n, 4))

    def __repr__(self):
        return "PhasePoint(Z=%r, W=%r)" % (self.Z, self.W)


@lru_cache(maxsize=16)
def poisson_j(n):
    """The constant Poisson tensor J with {z_a, z_b} = J_ab."""
    m = 4 * n
    j = np.zeros((2 * m, 2 * m))
    j[:m, m:] = np.eye(m)
    j[m:, :m] = -np.eye(m)
    j.setflags(write=False)
    return j


class QuadObservable:
    """An observable f(z) = z^T A z / 2 + b^T z + c on R^{8n}."""

    __slots__ = ("A", "b", "c", "n")

    def __init__(self, A, b=None, c=0.0):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if A.shape[0] % 8:
            raise ValueError("A must be (8n) x (8n)")
        self.n = A.shape[0] // 8
        self.A = 0.5 * (A + A.T)
        self.b = np.zeros(8 * self.n) if b is None else np.asarray(b, dtype=float).copy()
        self.c = float(c)

    def evaluate(self, p):
        z = p.flatten() if isinstance(p, PhasePoint) else np.asarray(p, dtype=float)
        if z.size != 8 * self.n:
            raise ValueError("dimension mismatch")
        return float(0.5 * z @ self.A @ z + self.b @ z + self.c)

    __call__ = evaluate

    def __add__(self, other):
        self._check(other)
        return QuadObservable(self.A + other.A, self.b + other.b, self.c + other.c)

    def __sub__(self, other):
        self._check(other)
        return QuadObservable(self.A - other.A, self.b - other.b, self.c - other.c)

    def scale(self, s):
        return QuadObservable(self.A * s, self.b * s, self.c * s)

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch")

    def norm(self):
        return float(np.linalg.norm(self.A) + np.linalg.norm(self.b) + abs(self.c))

    def __repr__(self):
        return "QuadObservable(n=%d, |A|=%.3g, |b|=%.3g, c=%.3g)" % (
            self.n,
            np.linalg.norm(self.A),
            np.linalg.norm(self.b),
            self.c,
        )


def quad_bracket(a, b):
    """Quadratic part A J B - B J A of the bracket of quadratic parts A, B.

    A and B are (8n, 8n) or stacks (..., 8n, 8n) that broadcast together.
    """
    j = poisson_j(a.shape[-1] // 8)
    return a @ j @ b - b @ j @ a


def block_bracket(a, b):
    """quad_bracket on quadratic parts given by their (4n, 4n) blocks: dicts
    {(r, s): block or stack of blocks}, 0 for Z and 1 for W, a missing key
    for a zero block.  J is the signed block permutation (J B)_0s = B_1s,
    (J B)_1s = -B_0s, so

        [A, B]_rs = A_r0 B_1s - A_r1 B_0s - B_r0 A_1s + B_r1 A_0s,

    and a product with a zero block is skipped."""
    out = {}
    for r in (0, 1):
        for s in (0, 1):
            for sign, p, q in ((1, a.get((r, 0)), b.get((1, s))), (-1, a.get((r, 1)), b.get((0, s))),
                               (-1, b.get((r, 0)), a.get((1, s))), (1, b.get((r, 1)), a.get((0, s)))):
                if p is None or q is None:
                    continue
                t = p @ q
                if (r, s) not in out:
                    out[r, s] = np.negative(t, out=t) if sign < 0 else t
                elif sign < 0:
                    out[r, s] -= t
                else:
                    out[r, s] += t
    return out


def block_relation_max(rows, cols, predicted, width, budget):
    """Max over all pairs i, j of |{rows_i, cols_j} - P| / max(1, |{.,.}|, |P|),
    Frobenius norms over all four blocks, with P the predicted bracket.

    rows, cols: triples (count, data, blocks), where data(c) is a (len(c),
    width, width) stack of data of the elements in the slice c and
    blocks(x) their quadratic parts as blocks (see block_bracket), stacks of
    the same shape, from their data x; predicted(a, b) gives the blocks of
    P from the data a of one row and the data b of a chunk of columns.
    Nothing is held for the whole sweep: it runs one row by a chunk of k
    columns at a time, each chunk of columns built once and its rows one
    by one.  In (width, width) float64
    arrays, a tile holds the data and the blocks of each column (2), of the
    row the same and a transposed copy of the data that predicted may take
    (3), and per pair the prediction beside the bracket: two blocks and one
    product while the bracket is formed (4; the prediction is formed first,
    in at most 3), then each difference formed in its bracket block (3),
    with one numpy iterator buffer while the blocks differ in layout;
    beside them a few float64 norms per pair, with their array headers.
    That is all the so*(4n) relations need; k is the largest that keeps it
    within budget bytes.  A batch of rows would only shorten sweeps that
    already fit a few tiles, and take up to the whole budget to do it.
    """
    def sq(x):
        return np.einsum("...ij,...ij->...", x, x)

    def sq_diff(x, p, shape):
        """sq(x - p), the difference formed in x if x is a whole bracket block."""
        return sq(np.subtract(x, p, out=x if np.shape(x) == shape else None))

    def tile_bytes(k):
        block = 8 * width * width
        return block * (2 * k + 3) + 3 * block * k + max(block * k, 8 * np.getbufsize()) + 128 * k

    (n_rows, row_data, row_blocks), (n_cols, col_data, col_blocks) = rows, cols
    k = max([1] + [j for j in range(1, n_cols + 1) if tile_bytes(j) <= budget])
    # glibc's malloc hands free memory at the top of its heap back to the
    # system once there is more than twice the largest chunk it has mapped
    # and freed (128 KiB at first), and every tile frees its arrays: one
    # mapped and freed chunk of half the budget keeps each tile from faulting
    # its pages in anew (at n = 6, 137,000 minor faults and twice the time)
    np.empty(budget // 16)
    worst = 0.0
    for lo in range(0, n_cols, k):
        b_data = col_data(slice(lo, min(lo + k, n_cols)))
        b = col_blocks(b_data)
        for i in range(n_rows):
            a_data = row_data(slice(i, i + 1))
            a = row_blocks(a_data)
            rhs = predicted(a_data[0], b_data)
            lhs = block_bracket({key: x[0] for key, x in a.items()}, b)
            del a_data, a
            size = np.maximum(sum(sq(x) for x in lhs.values()), sum(sq(x) for x in rhs.values()))
            num = sum(sq_diff(lhs.get(key, 0.0), rhs.get(key, 0.0), b_data.shape)
                      for key in lhs.keys() | rhs.keys())
            worst = max(worst, float(np.max(np.sqrt(num) / np.maximum(1.0, np.sqrt(size)))))
            del lhs, rhs  # freed before the next row is built
        del b_data, b
    return worst


def bracket_exact(f, g):
    """Exact canonical bracket of two affine-quadratic observables."""
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    j = poisson_j(f.n)
    a_new = quad_bracket(f.A, g.A)
    b_new = f.A @ j @ g.b - g.A @ j @ f.b
    c_new = float(f.b @ j @ g.b)
    return QuadObservable(a_new, b_new, c_new)


def quad_residual(lhs, rhs):
    """Relative Frobenius-style distance between two quadratic observables."""
    num = (
        np.linalg.norm(lhs.A - rhs.A)
        + np.linalg.norm(lhs.b - rhs.b)
        + abs(lhs.c - rhs.c)
    )
    den = max(1.0, lhs.norm(), rhs.norm())
    return num / den
