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

from .quat import mul, norm, random_qvector

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

    def transformed(self, g):
        """The point (Z g, W g) for a unit quaternion g."""
        return PhasePoint(mul(self.Z, g), mul(self.W, g))

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

    def evaluate_batch(self, zs):
        """Evaluate at stacked flat coordinates of shape (N, 8n)."""
        zs = np.asarray(zs, dtype=float)
        return 0.5 * np.einsum("ni,ij,nj->n", zs, self.A, zs) + zs @ self.b + self.c

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


def random_quad_observable(rng, n, scale=1.0):
    m = 8 * n
    a = rng.standard_normal((m, m)) * scale
    return QuadObservable(a + a.T, rng.standard_normal(m) * scale, float(rng.standard_normal()) * scale)


def random_phase_point(rng, n, scale=1.0, min_z=0.3):
    while True:
        z = random_qvector(rng, n, scale)
        if norm(z) > min_z:
            break
    return PhasePoint(z, random_qvector(rng, n, scale))
