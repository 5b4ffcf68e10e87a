"""The conformal algebra co = V + str + V* as a real Lie algebra.

Elements carry an x-part and a y-part in the Jordan algebra V (V* is
identified with V through the inner product) and an s-part which is a
real operator on V constrained to the span of the structure operators
S_uv.  Bracket rules:

    [S, X_z] = X_{S(z)},   [S, Y_w] = -Y_{S^T w},   [S, S'] = SS' - S'S,
    [X_u, Y_v] = -2 S_uv,  [X, X] = [Y, Y] = 0.

The transpose rule reproduces [S_uv, Y_w] = -Y_{vuw} because S_uv^T = S_vu
in the orthonormal basis.  Everything is finite-dimensional linear
algebra, so closure, dimension and the Jacobi identity are all checked by
rank computations and dense sweeps.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import jordan

_SPAN_TOL = 1e-10


@lru_cache(maxsize=8)
def str_span(n):
    """Orthonormal (Frobenius) basis of span{S_{e_a e_b}}, shape (r, d, d)."""
    t = jordan.s_tensor(n)
    d = jordan.dim_v(n)
    flat = t.reshape(d * d, d * d)
    u, s, vt = np.linalg.svd(flat, full_matrices=False)
    rank = int((s > 1e-9 * s[0]).sum())
    out = vt[:rank].reshape(rank, d, d)
    out.setflags(write=False)
    return out


def str_dimension(n):
    """dim str as the rank of the S-operator span; equals 4 n^2."""
    return str_span(n).shape[0]


def co_dimension(n):
    """dim co = 2 dim V + dim str = 2n(4n-1)."""
    return 2 * jordan.dim_v(n) + str_dimension(n)


def _project_span(n, s):
    span = str_span(n)
    coeff = np.einsum("rij,ij->r", span, s)
    proj = np.einsum("r,rij->ij", coeff, span)
    return coeff, proj


def span_residual(n, s):
    """Distance of a matrix from the structure-operator span, relative."""
    _, proj = _project_span(n, s)
    return float(np.linalg.norm(s - proj) / max(1.0, np.linalg.norm(s)))


class ConformalElement:
    """An element (x, S, y) of co; x and y are hermitian (n, n, 4) arrays
    and the s-part must lie in the S-span."""

    __slots__ = ("n", "x", "s", "y")

    def __init__(self, x, s, y, check=True):
        if x.shape != y.shape:
            raise ValueError("component order mismatch")
        self.n = x.shape[0]
        d = jordan.dim_v(self.n)
        s = np.asarray(s, dtype=float)
        if s.shape != (d, d):
            raise ValueError("s-part must be %d x %d" % (d, d))
        if check and span_residual(self.n, s) > _SPAN_TOL:
            raise ValueError("s-part is not in the structure-operator span")
        self.x = x
        self.s = s
        self.y = y

    def __add__(self, other):
        self._check(other)
        return ConformalElement(self.x + other.x, self.s + other.s, self.y + other.y, check=False)

    def __sub__(self, other):
        self._check(other)
        return ConformalElement(self.x - other.x, self.s - other.s, self.y - other.y, check=False)

    def scale(self, t):
        return ConformalElement(self.x * t, self.s * t, self.y * t, check=False)

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("order mismatch")

    def norm(self):
        return float(
            np.sqrt(
                jordan.inner(self.x, self.x)
                + np.sum(self.s * self.s)
                + jordan.inner(self.y, self.y)
            )
        )

    def coords(self):
        """Coordinates in the basis (X_{e_a}, S-span basis, Y_{e_a})."""
        basis = jordan.orthonormal_basis(self.n)
        cs, _ = _project_span(self.n, self.s)
        return np.concatenate([basis.coords(self.x), cs, basis.coords(self.y)])

    def __repr__(self):
        return "ConformalElement(n=%d, |.|=%.3g)" % (self.n, self.norm())


def x_element(u):
    """The generator X_u."""
    n = u.shape[0]
    d = jordan.dim_v(n)
    return ConformalElement(u, np.zeros((d, d)), np.zeros((n, n, 4)), check=False)


def y_element(v):
    """The generator Y_v."""
    n = v.shape[0]
    d = jordan.dim_v(n)
    return ConformalElement(np.zeros((n, n, 4)), np.zeros((d, d)), v, check=False)


def s_matrix(u, v):
    """Matrix of S_uv in the orthonormal basis, via the structure tensor."""
    n = u.shape[0]
    basis = jordan.orthonormal_basis(n)
    t = jordan.s_tensor(n)
    return np.einsum("a,b,abij->ij", basis.coords(u), basis.coords(v), t)


def s_element(u, v):
    """The generator S_uv as a conformal element."""
    n = u.shape[0]
    z = np.zeros((n, n, 4))
    return ConformalElement(z, s_matrix(u, v), z, check=False)


def co_bracket(a, b):
    """The Lie bracket on co, assembled from the component rules."""
    if a.n != b.n:
        raise ValueError("order mismatch")
    n = a.n
    basis = jordan.orthonormal_basis(n)
    x_new = basis.from_coords(a.s @ basis.coords(b.x) - b.s @ basis.coords(a.x))
    y_new = basis.from_coords(-(a.s.T @ basis.coords(b.y)) + b.s.T @ basis.coords(a.y))
    s_new = (
        a.s @ b.s
        - b.s @ a.s
        - 2.0 * s_matrix(a.x, b.y)
        + 2.0 * s_matrix(b.x, a.y)
    )
    return ConformalElement(x_new, s_new, y_new, check=False)


def jacobi_residual(a, b, c):
    """Component-wise norm of [a,[b,c]] + [b,[c,a]] + [c,[a,b]]."""
    total = (
        co_bracket(a, co_bracket(b, c))
        + co_bracket(b, co_bracket(c, a))
        + co_bracket(c, co_bracket(a, b))
    )
    return total.norm()


@lru_cache(maxsize=8)
def structure_constants(n):
    """Structure constants C[a, b, c] with [e_a, e_b] = sum_c C[a,b,c] e_c.

    The basis is (X_{e_a}), the orthonormal S-span basis, (Y_{e_a});
    dimension 2n(4n-1).  Coordinates come from orthonormal projections,
    so the constants are exact up to rounding.
    """
    basis = jordan.orthonormal_basis(n)
    span = str_span(n)
    elems = [x_element(u) for u in basis]
    for k in range(span.shape[0]):
        z = np.zeros((n, n, 4))
        elems.append(ConformalElement(z, span[k].copy(), z, check=False))
    elems.extend(y_element(u) for u in basis)
    dim = len(elems)
    c = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(i + 1, dim):
            coords = co_bracket(elems[i], elems[j]).coords()
            c[i, j] = coords
            c[j, i] = -coords
    c.setflags(write=False)
    return c


def jacobi_tensor_residual(n):
    """Max Jacobi residual over ALL basis triples, via structure constants.

    By trilinearity this bounds the residual for every generator triple
    (each X_{e_a}, Y_{e_b}, S_{e_c e_d} is a combination of basis elements
    with O(1) coefficients).
    """
    c = structure_constants(n)
    cyc = np.einsum("bcd,ade->abce", c, c)
    total = cyc + np.einsum("cad,bde->abce", c, c) + np.einsum("abd,cde->abce", c, c)
    return float(np.abs(total).max())


def closure_residual(n):
    """Max distance of [S_ab, S_cd] from the S-span, over all basis pairs."""
    t = jordan.s_tensor(n)
    d = jordan.dim_v(n)
    mats = t.reshape(d * d, d, d)
    worst = 0.0
    for i in range(mats.shape[0]):
        si = mats[i]
        comm = si @ mats - mats @ si  # (d*d, d, d)
        for j in range(mats.shape[0]):
            worst = max(worst, span_residual(n, comm[j]))
    return worst


def random_element(rng, n, scale=1.0):
    """A random conformal element with s-part drawn inside the S-span."""
    span = str_span(n)
    coeff = rng.standard_normal(span.shape[0]) * scale
    s = np.einsum("r,rij->ij", coeff, span)
    return ConformalElement(
        jordan.random_herm(rng, n, scale), s, jordan.random_herm(rng, n, scale), check=False
    )
