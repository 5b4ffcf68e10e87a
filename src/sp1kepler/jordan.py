"""The Euclidean Jordan algebra of quaternionic hermitian matrices.

Elements are n x n quaternionic hermitian matrices, stored as (n, n, 4)
arrays or stacks (..., n, n, 4) of them, which the products, inner and
coords take whole, with the symmetrized product u o v = (uv + vu)/2.
The inner product is normalized as <a|b> = Re tr(a b) / n, so that
<e|e> = 1 for the identity e.

Structure operators S_{uv} = [L_u, L_v] + L_{u o v} act on the algebra;
in an orthonormal basis they are plain real matrices (L_operator and
s_tensor from traces of real_rep products), and the conformal algebra
checks its structure constants against L_operator.  The basis is itself
an array, a cached read-only (d, n, n, 4) stack, and coords / from_coords
map an element to its d coordinates and back.  Its action Z -> e_a Z on
H^n is cached once, as the signed gather basis_gather that L_operator and
realization read.
"""

from __future__ import annotations

from functools import lru_cache

from .quat import CONJ, check_memory, entries, join, mat_dagger, mat_mul, outer, real_rep, view

import numpy as np  # after the package's modules, so they compile before it loads


def identity(n):
    """The Jordan identity element e."""
    data = np.zeros((n, n, 4))
    data[np.arange(n), np.arange(n), 0] = 1.0
    return data


def jordan_product(u, v):
    """The Jordan product u o v = (uv + vu)/2."""
    prod = mat_mul(u, v)
    prod2 = mat_mul(v, u)
    return (prod + prod2) * 0.5


def triple_product(u, v, z):
    """The Jordan triple product {uvz} = (u v z + z v u)/2."""
    uvz = mat_mul(mat_mul(u, v), z)
    zvu = mat_mul(mat_mul(z, v), u)
    return (uvz + zvu) * 0.5


def inner(u, v):
    """<u|v> = Re tr(u v) / n; positive definite, <e|e> = 1."""
    # Re tr(uv) = sum_{i,j,p} CONJ[p] u[i,j,p] v[j,i,p], by the Re(pq) rule
    return np.einsum("...ijp,...jip,p->...", u, v, CONJ) / u.shape[-2]


@lru_cache(maxsize=8)
def orthonormal_basis(n):
    """The standard orthonormal basis of H_n(H), as a read-only (d, n, n, 4)
    stack of its d = n(2n-1) elements, written into one zeroed stack
    (MemoryError, before it is allocated, past physical memory).

    Diagonal generators sqrt(n) E_aa come first, then for each a < b the
    four off-diagonal generators sqrt(n/2) (E_ab q + E_ba conj(q)) with
    q running over 1, i, j, k.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    d = dim_v(n)
    check_memory(32 * d * n * n, "the basis of H_%d(H)" % n)
    stack = np.zeros((d, n, n, 4))
    for a in range(n):
        stack[a, a, a, 0] = np.sqrt(n)
    k, r = n, np.sqrt(n / 2.0)
    for a in range(n):
        for b in range(a + 1, n):
            for q in range(4):
                stack[k, a, b, q], stack[k, b, a, q] = r, r * CONJ[q]
                k += 1
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=8)
def basis_gather(n):
    """The basis action on H^n as a signed gather: each row of R_a =
    real_rep(e_a) has at most one nonzero, so flat(e_a Z) is entry x
    val[a, x] flat(Z)[idx[a, x]].  Returns the cached read-only (d, 4n)
    arrays idx and val (0 and 0.0 in an all-zero row), scattered from the
    entries of the R_a (quat.entries)."""
    a, row, col, v = entries(map(real_rep, orthonormal_basis(n)))
    idx = np.zeros((dim_v(n), 4 * n), dtype=np.intp)
    val = np.zeros(idx.shape)
    idx[a, row], val[a, row] = col, v
    idx.setflags(write=False)
    val.setflags(write=False)
    return idx, val


def coords(u):
    """Coordinates of u in the orthonormal basis (plain projections)."""
    n = u.shape[-2]
    return np.einsum("aijp,...jip,p->...a", orthonormal_basis(n), u, CONJ) / n


def from_coords(c, n):
    """The element of H_n(H) with coordinates c in the orthonormal basis."""
    return np.einsum("a,aijp->ijp", np.asarray(c, float), orthonormal_basis(n))


def dim_v(n):
    return n * (2 * n - 1)


def L_operator(u):
    """Matrix of Jordan multiplication L_u in the orthonormal basis.

    For hermitian u, as Re tr m = tr real_rep(m) / 4 and Re tr(u e_b e_c) =
    Re tr(e_b u e_c), <e_b | u o e_c> = tr(R_b R_u R_c) / (4n), R = real_rep.
    A row x of R_b has one nonzero at most and R_c is symmetric, so the
    trace sums over the pairs of basis_gather entries that share a row x.
    """
    idx, val = basis_gather(u.shape[0])
    b, x = np.nonzero(val)
    col, v, d = idx[b, x], val[b, x], len(idx)
    left, e = join(view(x), x, x + 1)  # entry pairs (l, e) that share a row x
    terms = real_rep(u)[col[left], col[e]]
    terms *= v[left] * v[e]
    return np.bincount(b[left] * d + b[e], terms, d * d).reshape(d, d) / val.shape[1]  # 4n


def pair_products(n):
    """The products R_a R_b of R_a = real_rep(e_a) over every basis pair,
    as a (d^2, (4n)^2) matrix with row a * d + b."""
    r = real_rep(orthonormal_basis(n))  # (d, 4n, 4n)
    return (r[:, None] @ r[None]).reshape(len(r) ** 2, -1)


@lru_cache(maxsize=4)
def s_tensor(n):
    """Structure tensor T[a, b] = matrix of S_{e_a e_b} in the basis.

    Shape (d, d, d, d) with d = n(2n-1); conformal.s_matrix reads it.
    As Re tr m = tr real_rep(m) / 4, T[a, b, D, c] = <e_D | {e_a e_b e_c}>
    = (tr R_D R_a R_b R_c + tr R_D R_c R_b R_a) / (8n), and as the R_a are
    symmetric both traces are entries of the Gram matrix of the R_a R_b.
    """
    d = dim_v(n)
    p = pair_products(n)
    k = (p @ p.T).reshape(d, d, d, d)  # k[x, y, z, w] = tr R_x R_y R_w R_z
    # S_{e_a e_b} maps e_c to sum_D T[a, b, D, c] e_D: rows D, columns c
    out = k.transpose(1, 3, 0, 2) + k.transpose(2, 3, 0, 1)
    out /= 8 * n
    out.setflags(write=False)
    return out


def random_herm(rng, n):
    m = rng.standard_normal((n, n, 4))
    return (m + mat_dagger(m)) * 0.5


def herm_from_vector_pair(v, z):
    """The tangent-type element n (v z^dag + z v^dag)."""
    m = outer(v, z) + outer(z, v)
    return m * float(v.shape[-2])
