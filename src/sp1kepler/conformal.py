"""The conformal algebra co = V + str + V* as a real Lie algebra.

An element is its coordinate vector in the basis (X_{e_a}), then an
orthonormal (Frobenius) basis S_k of the span of the structure operators
S_uv, then (Y_{e_a}); V* is identified with V through the inner product.
The bracket is one structure-constant tensor, written block by block from

    [S, X_z] = X_{S(z)},   [S, Y_w] = -Y_{S^T w},   [S, S'] = SS' - S'S,
    [X_u, Y_v] = -2 S_uv,  [X, X] = [Y, Y] = 0.

The transpose rule reproduces [S_uv, Y_w] = -Y_{vuw} because S_uv^T = S_vu
in the orthonormal basis.  Closure, dimension and the Jacobi identity are
rank computations and dense contractions.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import jordan


@lru_cache(maxsize=8)
def str_span(n):
    """Orthonormal (Frobenius) basis of span{S_{e_a e_b}}, shape (r, d, d)."""
    d = jordan.dim_v(n)
    u, s, vt = np.linalg.svd(jordan.s_tensor(n).reshape(d * d, d * d), full_matrices=False)
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


def span_residual(n, s):
    """Distance of a (d, d) matrix, or of each in a stack (..., d, d), from
    the structure-operator span, relative to max(1, |s|)."""
    span = str_span(n)
    proj = np.einsum("...r,rij->...ij", np.einsum("rij,...ij->...r", span, s), span)
    size = np.linalg.norm(s, axis=(-2, -1))
    return np.linalg.norm(s - proj, axis=(-2, -1)) / np.maximum(1.0, size)


def element(x, coeff, y):
    """Coordinates of X_x + sum_k coeff[k] S_k + Y_y, for hermitian x and y."""
    return np.concatenate([jordan.coords(x), coeff, jordan.coords(y)])


def x_element(u):
    """The generator X_u."""
    return element(u, np.zeros(str_dimension(u.shape[0])), np.zeros_like(u))


def y_element(v):
    """The generator Y_v."""
    return element(np.zeros_like(v), np.zeros(str_dimension(v.shape[0])), v)


def s_matrix(u, v):
    """Matrix of S_uv in the orthonormal basis, via the structure tensor."""
    t = jordan.s_tensor(u.shape[0])
    return np.einsum("a,b,abij->ij", jordan.coords(u), jordan.coords(v), t)


def s_element(u, v):
    """The generator S_uv, projected onto the span basis."""
    coeff = np.einsum("rij,ij->r", str_span(u.shape[0]), s_matrix(u, v))
    return element(np.zeros_like(u), coeff, np.zeros_like(u))


def _span_commutators(span):
    """[S_k, S_l] for every l, one row k at a time, as (r, d, d) stacks."""
    for sk in span:
        yield sk @ span - span @ sk


@lru_cache(maxsize=8)
def structure_constants(n):
    """C[i, j, k] with [e_i, e_j] = sum_k C[i, j, k] e_k, block by block in
    closed form from s_tensor and the span basis; the s-parts are orthonormal
    projections, so the constants are exact up to rounding."""
    t = jordan.s_tensor(n)
    span = str_span(n)
    d, r = t.shape[0], span.shape[0]
    x, s, y = slice(0, d), slice(d, d + r), slice(d + r, 2 * d + r)
    c = np.zeros((2 * d + r,) * 3)
    c[x, y, s] = -2.0 * np.einsum("kij,abij->abk", span, t)  # [X_a, Y_b] = -2 S_ab
    c[s, x, x] = np.swapaxes(span, 1, 2)  # [S_k, X_b] = X_{S_k e_b}
    c[s, y, y] = -span  # [S_k, Y_b] = -Y_{S_k^T e_b}
    for i, j, k in ((x, y, s), (s, x, x), (s, y, y)):
        c[j, i, k] = -np.swapaxes(c[i, j, k], 0, 1)
    for k, comm in enumerate(_span_commutators(span)):
        c[d + k, s, s] = np.einsum("mij,lij->lm", span, comm)
    c.setflags(write=False)
    return c


def _ad(n, a):
    """The matrix M with [a, b] = b @ M."""
    return np.tensordot(a, structure_constants(n), 1)


def co_bracket(n, a, b):
    """The Lie bracket [a, b] of two coordinate vectors."""
    return b @ _ad(n, a)


def jacobi_residual(n, a, b, c):
    """Norm of [a,[b,c]] + [b,[c,a]] + [c,[a,b]] in coordinates."""
    ad_a, ad_b, ad_c = (_ad(n, v) for v in (a, b, c))
    total = (c @ ad_b) @ ad_a + (a @ ad_c) @ ad_b + (b @ ad_a) @ ad_c
    return float(np.linalg.norm(total))


def jacobi_tensor_residual(n):
    """Max Jacobi residual over ALL basis triples, via structure constants;
    by trilinearity it bounds the residual of every generator triple (each
    is a combination of basis elements with O(1) coefficients)."""
    c = structure_constants(n)
    worst = 0.0
    # one first index a at a time, so the peak is dim^3 rather than dim^4;
    # the cyclic terms, indexed [b, c, e], sum over d of
    # C[b,c,d] C[a,d,e], C[c,a,d] C[b,d,e] and C[a,b,d] C[c,d,e]
    for a in range(c.shape[0]):
        total = c @ c[a] + c[:, a] @ c + np.swapaxes(c[a] @ c, 0, 1)
        worst = max(worst, float(np.abs(total).max()))
    return worst


def closure_residual(n):
    """Max distance of [S_k, S_l] from the S-span over all span basis pairs;
    the S_k span the S_{e_a e_b}, so by bilinearity this is closure of str."""
    return max(float(span_residual(n, comm).max()) for comm in _span_commutators(str_span(n)))


def random_element(rng, n, scale=1.0):
    """A random element: span coefficients first, then the x- and y-parts."""
    coeff = rng.standard_normal(str_dimension(n)) * scale
    return element(jordan.random_herm(rng, n, scale), coeff, jordan.random_herm(rng, n, scale))
