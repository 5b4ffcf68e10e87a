"""The Euclidean Jordan algebra of quaternionic hermitian matrices.

Elements are n x n quaternionic hermitian matrices, stored as (n, n, 4)
arrays or stacks (..., n, n, 4) of them, which the products, inner and
coords take whole, with the symmetrized product u o v = (uv + vu)/2.
The inner product is normalized as <a|b> = Re tr(a b) / n, so that
<e|e> = 1 for the identity e.

Structure operators S_{uv} = [L_u, L_v] + L_{u o v} act on the algebra;
in an orthonormal basis they are plain real matrices (L_operator and
s_tensor from real_rep traces), and the conformal algebra checks its
structure constants against L_operator.  The basis is itself an array, a
read-only (d, n, n, 4) stack, cached with its real_rep stack, and coords /
from_coords map an element to its d coordinates and back.
"""

from __future__ import annotations

from functools import lru_cache

from .quat import CONJ, check_memory, mat_dagger, mat_mul, outer, real_rep

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
def _basis_reps(n):
    """real_rep of the orthonormal basis, a cached read-only (d, 4n, 4n) stack."""
    r = real_rep(orthonormal_basis(n))
    r.setflags(write=False)
    return r


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

    As Re tr m = tr real_rep(m) / 4, <e_a | u o e_b> = (tr R_a R_u R_b +
    tr R_u R_a R_b) / (8n) with R = real_rep, and as R_b is symmetric both
    traces are Frobenius products with R_b.
    """
    n = u.shape[0]
    r = _basis_reps(n)
    ru = real_rep(u)
    rr = r @ ru
    rr += ru @ r
    return rr.reshape(len(r), -1) @ r.reshape(len(r), -1).T / (8 * n)


def pair_products(n):
    """The products R_a R_b of R_a = real_rep(e_a) over every basis pair,
    as a (d^2, (4n)^2) matrix with row a * d + b."""
    r = _basis_reps(n)  # (d, 4n, 4n)
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
