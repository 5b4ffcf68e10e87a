"""Canonical Poisson structure on the punctured quaternionic phase space.

Phase points are pairs (Z, W) in H^n_* x H^n, flattened to R^{8n} as
(Z coordinates, then W coordinates), each quaternion expanded (w, x, y, z).
The bracket sign convention is {q_i, p_j} = delta_ij with positions from Z
and momenta from W, which makes {<U, Z>, <V, W>} = <U, V> hold exactly.

Affine-quadratic observables f(z) = z^T A z / 2 + b^T z + c are closed
under the bracket, so every algebra relation downstream is checked as an
exact matrix identity.  A central-difference bracket serves as the
independent oracle and handles non-quadratic observables.
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
                if sign < 0:
                    np.negative(t, out=t)
                if (r, s) in out:
                    out[r, s] += t
                else:
                    out[r, s] = t
    return out


def block_relation_max(rows, cols, predicted, budget):
    """Max over all pairs i, j of |{rows_i, cols_j} - P| / max(1, |{.,.}|, |P|),
    Frobenius norms over all four blocks, with P the predicted bracket.

    rows, cols: stacks of quadratic parts as blocks (see block_bracket);
    predicted(i, c) gives the blocks of P for row i and the columns c, a
    slice.  A chunk of columns at a time keeps its brackets, predictions and
    differences, at most six (4n, 4n) arrays per column, within budget bytes.
    """
    def sq(x):
        return np.einsum("...ij,...ij->...", x, x)

    first_rows, first_cols = (next(iter(f.values())) for f in (rows, cols))
    step = max(1, budget // (48 * first_cols.shape[-1] ** 2))
    worst = 0.0
    for i in range(len(first_rows)):
        for lo in range(0, len(first_cols), step):
            c = slice(lo, lo + step)
            lhs = block_bracket({key: x[i] for key, x in rows.items()},
                                {key: x[c] for key, x in cols.items()})
            rhs = predicted(i, c)
            num = sum(sq(lhs.get(key, 0.0) - rhs.get(key, 0.0)) for key in lhs.keys() | rhs.keys())
            size = np.maximum(sum(sq(x) for x in lhs.values()), sum(sq(x) for x in rhs.values()))
            worst = max(worst, float(np.max(np.sqrt(num) / np.maximum(1.0, np.sqrt(size)))))
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


def _eval_any(f, z, n):
    if isinstance(f, QuadObservable):
        return f.evaluate(z)
    return float(f(z))


def _fd_gradient(f, z, n, h):
    z = np.asarray(z, dtype=float)
    grad = np.empty_like(z)
    for i in range(z.size):
        zp = z.copy()
        zp[i] += h
        zm = z.copy()
        zm[i] -= h
        grad[i] = (_eval_any(f, zp, n) - _eval_any(f, zm, n)) / (2 * h)
    return grad


def bracket_numeric(f, g, p, h=1e-5):
    """Central-difference canonical bracket at a point.

    f, g may be QuadObservables or callables on flat R^{8n} coordinates.
    Falls back to Richardson extrapolation (step h/2) when the two step
    sizes disagree noticeably.
    """
    if h <= 0 or h < 1e-12:
        raise ValueError("step underflow")
    if isinstance(p, PhasePoint):
        if norm(p.Z) <= DOMAIN_EPS:
            raise ValueError("evaluation too close to Z = 0")
        n = p.n
        z = p.flatten()
    else:
        z = np.asarray(p, dtype=float)
        n = z.size // 8
    j = poisson_j(n)

    def value(step):
        gf = _fd_gradient(f, z, n, step)
        gg = _fd_gradient(g, z, n, step)
        return float(gf @ j @ gg)

    v1 = value(h)
    v2 = value(h / 2)
    if abs(v1 - v2) > 1e-6 * max(1.0, abs(v1)):
        # second-order scheme: Richardson combination cancels the h^2 term
        return (4 * v2 - v1) / 3
    return v2

