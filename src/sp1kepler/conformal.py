"""The conformal algebra co = V + str + V* as a real Lie algebra.

An element is its coordinate vector in the basis (X_{e_a}), then an
orthonormal (Frobenius) basis S_k of the span of the structure operators
S_uv (a QR factor, see str_span), then (Y_{e_a}); V* is identified with V
through the inner product.  The bracket is one structure-constant tensor,
written block by block from

    [S, X_z] = X_{S(z)},   [S, Y_w] = -Y_{S^T w},   [S, S'] = SS' - S'S,
    [X_u, Y_v] = -2 S_uv,  [X, X] = [Y, Y] = 0.

The transpose rule reproduces [S_uv, Y_w] = -Y_{vuw} because S_uv^T = S_vu
in the orthonormal basis.  Closure and dimension are rank computations;
the Jacobi identity is a contraction, graded for all basis triples.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import jordan
from .quat import real_rep

# the byte budget of one block of random Jacobi triples, as realization's is
# of one block of sample points; the abstract algebra imports nothing from
# the realization it is checked against
_BLOCK_BYTES = 2**20


@lru_cache(maxsize=8)
def str_span(n):
    """Orthonormal (Frobenius) basis of span{S_{e_a e_b}}, shape (r, d, d).

    S_uv = S_m for m = uv, S_m(z) = (mz + zm^dag)/2, so this is the span of
    S_m[D, c] = tr(R_D R_m R_c) / (4n) = <R_D R_c, R_m> / (4n), R = real_rep,
    over a basis of M_n(H): the Q factor of their QR, with the rank from the
    diagonal of R.  Unlike singular vectors of a degenerate singular value,
    it is continuous in its input.
    """
    d = jordan.dim_v(n)
    rm = real_rep(np.eye(4 * n * n).reshape(-1, n, n, 4)).reshape(4 * n * n, -1)  # E_ab q
    q, r = np.linalg.qr(jordan.pair_products(n) @ rm.T / (4 * n))
    diag = np.abs(np.diagonal(r))
    out = np.ascontiguousarray(q[:, diag > 1e-9 * diag.max()].T).reshape(-1, d, d)
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


def co_bracket(n, a, b):
    """The Lie bracket [a, b] of two coordinate vectors."""
    return b @ np.tensordot(a, structure_constants(n), 1)


def _jacobi_norms(c2, abc):
    """Jacobiator norms of the triples abc[3t : 3t + 3], c2 = C as (dim, dim^2)."""
    k, dim = len(abc) // 3, c2.shape[0]
    ad_a, ad_b, ad_c = np.swapaxes((abc @ c2).reshape(k, 3, dim, dim), 0, 1)
    a, b, c = np.swapaxes(abc.reshape(k, 3, 1, dim), 0, 1)
    total = (c @ ad_b) @ ad_a + (a @ ad_c) @ ad_b + (b @ ad_a) @ ad_c
    return np.sqrt(total @ np.swapaxes(total, 1, 2)).ravel()


def jacobi_residual(n, a, b, c):
    """Norm of [a,[b,c]] + [b,[c,a]] + [c,[a,b]] in coordinates."""
    c2 = structure_constants(n).reshape(co_dimension(n), -1)
    return float(_jacobi_norms(c2, np.array([a, b, c]))[0])


def jacobi_random_max(n, rng, triples):
    """Max Jacobi residual over `triples` random triples, drawn a, b, c per
    triple by random_element and checked a block of triples at a time, so
    that the (3 * block, dim^2) float64 ad stack fits in _BLOCK_BYTES."""
    c2 = structure_constants(n).reshape(co_dimension(n), -1)
    block = max(1, _BLOCK_BYTES // (24 * c2.shape[1]))
    worst = 0.0
    for start in range(0, triples, block):
        k = min(block, triples - start)
        abc = np.array([random_element(rng, n) for _ in range(3 * k)])
        worst = max(worst, float(_jacobi_norms(c2, abc).max()))
    return worst


def jacobi_tensor_residual(n):
    """Max Jacobi residual over ALL basis triples, via structure constants;
    by trilinearity it bounds the residual of every generator triple (each
    is a combination of basis elements with O(1) coefficients).  With X, S
    and Y of degree 1, 0 and -1, only the block types XXY, XSS, XSY, SSS,
    SSY and XYY can be nonzero, one ordering each by antisymmetry; that C
    is antisymmetric and zero off the graded blocks is checked as well."""
    c = structure_constants(n)
    d, r = jordan.dim_v(n), str_dimension(n)
    g = {1: slice(0, d), 0: slice(d, d + r), -1: slice(d + r, 2 * d + r)}
    worst = 0.0
    for i in g:
        for j in g:
            for k in g:
                # C + C^T vanishes on the graded blocks, C itself elsewhere
                block = c[g[i], g[j], g[k]]
                if k == i + j:
                    block = block + np.swapaxes(c[g[j], g[i], g[k]], 0, 1)
                worst = max(worst, float(np.abs(block).max()))
    for ga, gb, gc in ((1, 1, -1), (1, 0, 0), (1, 0, -1), (0, 0, 0), (0, 0, -1), (1, -1, -1)):
        sb, sc, se = g[gb], g[gc], g[ga + gb + gc]
        # an inner bracket of degree +-2 vanishes: an empty slice sums to 0
        bc, ca, ab = (g.get(deg, slice(0)) for deg in (gb + gc, gc + ga, ga + gb))
        for a in range(len(c))[g[ga]]:
            # the cyclic terms, indexed [b, c, e]: C[b,c,d] C[a,d,e],
            # C[c,a,d] C[b,d,e] and C[a,b,d] C[c,d,e], each summed over d
            # in the degree of its inner bracket
            total = (c[sb, sc, bc] @ c[a, bc, se] + c[sc, a, ca] @ c[sb, ca, se]
                     + np.swapaxes(c[a, sb, ab] @ c[sc, ab, se], 0, 1))
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
