"""The conformal algebra co = V + M_n(H) + V* as a real Lie algebra.

An element is its coordinate vector in the basis (X_{e_a}), (S_{E_ij q}),
(Y_{e_a}): the orthonormal basis e_a of V = H_n(H) for the X- and Y-parts,
and the real basis E_ij q of M_n(H), flat index (i n + j) 4 + q, for the
S-part; V* is identified with V through the inner product.  S_m acts on V by S_m(z) = (mz + zm^dag)/2,
so the structure algebra str(H_n(H)) is the image of M_n(H): all of it for
n >= 2, and only the real part at n = 1, where Im H acts trivially on V and
co = sl(2, R) + su(2) = so*(4).  The bracket is

    [X_u, Y_v] = -2 S_{uv},             [X, X] = [Y, Y] = 0,
    [S_m, X_z] = X_{(mz + zm^dag)/2},    [S_m, Y_z] = -Y_{(m^dag z + zm)/2},
    [S_m, S_m'] = S_{[m, m']/2}.

Its structure constants come from quaternion products alone (QTAB) and are
stored sparse and exact, as COO arrays (i, j, k, v) with [e_i, e_j] the sum
of v e_k over the entries; every check reads them a block at a time through
np.bincount and quat's entries, range join and sum by key (entries, join,
sum_by), the join and the sum on one stable sort (quat.view).  With this C
the Jacobi identity is associativity of M_n(H); the Jordan algebra enters
through closure_residual.
"""

from __future__ import annotations

from functools import lru_cache

from . import jordan
from .quat import _BLOCK_BYTES, QTAB, entries, join, mat_dagger, real_rep, sum_by, view

import numpy as np  # after the package's modules, so they compile before it loads


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
    """Size of the S-part, dim M_n(H) = 4 n^2."""
    return 4 * n * n


def co_dimension(n):
    """dim co = 2 dim V + dim M_n(H) = 2n(4n-1)."""
    return 2 * jordan.dim_v(n) + str_dimension(n)


def span_residual(n, s):
    """Distance of a (d, d) matrix, or of each in a stack (..., d, d), from
    the structure-operator span, relative to max(1, |s|)."""
    span = str_span(n)
    proj = np.einsum("...r,rij->...ij", np.einsum("rij,...ij->...r", span, s), span)
    size = np.linalg.norm(s, axis=(-2, -1))
    return np.linalg.norm(s - proj, axis=(-2, -1)) / np.maximum(1.0, size)


def element(x, s, y):
    """Coordinates of X_x + S_s + Y_y, for hermitian x and y and any s in M_n(H);
    stacks (..., n, n, 4) of them give a (..., dim) stack."""
    s = np.reshape(s, x.shape[:-3] + (-1,))
    return np.concatenate([jordan.coords(x), s, jordan.coords(y)], axis=-1)


def s_matrix(u, v):
    """Matrix of S_uv in the orthonormal basis, via the structure tensor."""
    t = jordan.s_tensor(u.shape[0])
    return np.einsum("a,b,abij->ij", jordan.coords(u), jordan.coords(v), t)


def _products(n, a, b):
    """Every product a_s b_t of two stacks of (n, n, 4) matrices, from their
    nonzero entries through QTAB: arrays s, t, the flat M_n(H) index of each
    product entry and its value, repeated (s, t, index) to be summed."""
    (ao, ar, ac, au), (bo, br, bc, bu) = np.nonzero(a), np.nonzero(b)
    x, y = join(view(br), ac, ac + 1)  # entry pairs meeting at the inner index
    val = a[ao[x], ar[x], ac[x], au[x]] * b[bo[y], br[y], bc[y], bu[y]]
    prod = QTAB[au[x], bu[y]] * val[:, None]
    pair, unit = np.nonzero(prod)
    x, y = x[pair], y[pair]
    return ao[x], bo[y], (ar[x] * n + bc[y]) * 4 + unit, prod[pair, unit]


@lru_cache(maxsize=8)
def structure_constants(n):
    """C as exact sparse COO arrays (i, j, k, v), [e_i, e_j] = sum of v e_k
    over the entries, in the form every check relies on: sorted by (i, j, k)
    with unique keys, no zero entry and C[j, i, k] = -C[i, j, k] exactly.

    Every rule is a product in M_n(H) from QTAB: the entries of e_a e_b for
    [X, Y]; the V-coordinates of m e_b and m^dag e_b, which are those of
    their hermitian parts, for [S, X] and [S, Y]; and the entries of m m'
    for [S, S], each entered with its antisymmetric partner, summed per key."""
    d, r = jordan.dim_v(n), str_dimension(n)
    dim = 2 * d + r
    herm, mb = jordan.orthonormal_basis(n), np.eye(r).reshape(r, n, n, 4)
    to_v = jordan.coords(mb)  # at most one nonzero per row
    target = np.abs(to_v).argmax(axis=1)
    weight = to_v[np.arange(r), target]
    a, b, k, v = _products(n, herm, herm)
    parts = [(a, d + r + b, d + k, -2.0 * v)]  # [X_a, Y_b] = -2 S_{e_a e_b}
    # [S_m, X_b] = X_{m e_b} and [S_m, Y_b] = -Y_{m^dag e_b}
    for left, shift, sign in ((mb, 0, 1.0), (mat_dagger(mb), d + r, -1.0)):
        m, b, k, v = _products(n, left, herm)
        parts.append((d + m, shift + b, shift + target[k], sign * v * weight[k]))
    m, m2, k, v = _products(n, mb, mb)
    parts.append((d + m, d + m2, d + k, 0.5 * v))  # [S_m, S_m'] = S_{[m, m']/2}
    i, j, k, v = (np.concatenate(x) for x in zip(*parts))
    keys, v = sum_by(np.concatenate([(i * dim + j) * dim + k, (j * dim + i) * dim + k]),
                     np.concatenate([v, -v]))
    keys, v = keys[v != 0.0], v[v != 0.0]
    out = (keys // (dim * dim), keys // dim % dim, keys % dim, v)
    for arr in out:
        arr.setflags(write=False)
    return out


def _brackets(c, keys, x, y):
    """[x_t, y_t] for the columns of the (dim, t) arrays x and y: one
    bincount over the entries of C for all t, each output summed in entry
    order; keys[e, s] = k_e t + s places entry e of column s."""
    i, j, _, v = c
    w = np.take(x, i, axis=0)  # (nnz, t)
    w *= np.take(y, j, axis=0)
    w *= v[:, None]
    return np.bincount(keys.ravel(), w.ravel(), x.size).reshape(x.shape)


def co_bracket(n, a, b):
    """The Lie bracket [a, b] of two coordinate vectors."""
    c = structure_constants(n)
    return _brackets(c, c[2][:, None], a[:, None], b[:, None])[:, 0]


def _jacobi_norms(n, a, b, e):
    """Jacobiator norms of the triples (a_t, b_t, e_t), the columns of three
    (dim, t) arrays."""
    c = structure_constants(n)
    keys = c[2][:, None] * a.shape[1] + np.arange(a.shape[1])
    total = _brackets(c, keys, a, _brackets(c, keys, b, e))
    total += _brackets(c, keys, b, _brackets(c, keys, e, a))
    total += _brackets(c, keys, e, _brackets(c, keys, a, b))
    return np.linalg.norm(total, axis=0)


def jacobi_residual(n, a, b, c):
    """Norm of [a,[b,c]] + [b,[c,a]] + [c,[a,b]] in coordinates."""
    return float(_jacobi_norms(n, a[:, None], b[:, None], c[:, None])[0])


def _triple_bytes(n):
    """Bytes one random triple adds to a block's working set, at most: three
    (nnz,) rows of _brackets (the bincount keys, the weights and the factor
    gathered into them), a fourth for the copy of the read-only index row
    that np.take makes (one per block, whatever its size), 16 (dim,)
    float64 rows with their array headers (the triple's coordinates, the
    brackets and their sum), and eight copies of its 36 n^2 normals (the
    draw, the rng's Box-Muller temporaries and the hermitian parts)."""
    nnz, dim = len(structure_constants(n)[3]), co_dimension(n)
    return 32 * nnz + 16 * (8 * dim + 128) + 8 * 8 * 36 * n * n


def jacobi_random_max(n, rng, triples):
    """Max Jacobi residual over `triples` random triples, drawn a, b, c per
    triple, a block of triples by one random_element call, and checked a
    block at a time, so that a block's whole working set stays within
    _BLOCK_BYTES."""
    block = max(1, _BLOCK_BYTES // _triple_bytes(n))
    worst = 0.0
    for start in range(0, triples, block):
        k = min(block, triples - start)
        abc = random_element(rng, n, 3 * k).T.reshape(k, 3, -1)  # (triple, part, coordinate)
        worst = max(worst, float(_jacobi_norms(n, *np.moveaxis(abc, 0, 2)).max()))
    return worst


def _jacobi_block(c, views, dim, row, x0, x1):
    """Max |J(a, x, y)| over x0 <= x < x1 and every y, where row = (s, t, w)
    are the entries (a, s, t) of row a of C and their values, and

        J(a, x, y) = [a, [x, y]] - [[a, x], y] - [x, [a, y]]

    is the cyclic Jacobi sum when C is antisymmetric.  Each term joins row
    a with other entries of C on its summed index m, in C's (i, j) order or
    (k, i) view, with C[x, m, p] = -C[m, x, p]; terms are summed per (x, y, p)."""
    i, j, k, v = c
    by_ij, by_ki = views
    s, t, w = row
    inner = (s >= x0) & (s < x1)
    keys, vals = [], []
    left, e = join(by_ki, s * dim + x0, s * dim + x1)  # [a, [x, y]]: C[x, y, m] C[a, m, p]
    keys.append(((i[e] - x0) * dim + j[e]) * dim + t[left])
    vals.append(w[left] * v[e])
    left, e = join(by_ij, t[inner] * dim, t[inner] * dim + dim)  # [[a, x], y]: C[a, x, m] C[m, y, p]
    keys.append(((s[inner][left] - x0) * dim + j[e]) * dim + k[e])
    vals.append(-w[inner][left] * v[e])
    left, e = join(by_ij, t * dim + x0, t * dim + x1)  # [x, [a, y]]: -C[a, y, m] C[m, x, p]
    keys.append(((j[e] - x0) * dim + s[left]) * dim + k[e])
    vals.append(w[left] * v[e])
    del left, e
    keys = np.concatenate(keys)
    vals = np.concatenate(vals)
    return float(np.abs(sum_by(keys, vals)[1]).max(initial=0.0))


def jacobi_tensor_residual(n):
    """Max Jacobi residual over ALL basis triples, via structure constants;
    by trilinearity it bounds the residual of every generator triple (each
    is a combination of basis elements with O(1) coefficients).  The sum is
    taken in derivation form from joins of the COO entries, row a of C (a
    slice of C) with second indices in a range at a time, each block within
    _BLOCK_BYTES (a summed term holds at most 80 bytes: its key and value,
    and quat.group's stable order, sorted keys, first-of-run mask, running
    count and inverse, 57 bytes in all) unless one index alone needs more.
    Beside the blocks live about 8 arrays of C's size: the keys of C and of
    its transposes with their lookup, the (i, j) keys, the (k, i) view, and
    the gathers of the cost count, so from n = 4 the whole sum peaks above
    _BLOCK_BYTES.  The derivation form is the cyclic sum only for an
    antisymmetric C, so each entry is checked against its transpose, looked
    up in C's keys, and so is that C vanishes off the 3-grading (X, S, Y of
    degree 1, 0, -1)."""
    c = structure_constants(n)
    i, j, k, v = c
    d, r = jordan.dim_v(n), str_dimension(n)
    dim = 2 * d + r
    grade = np.repeat([1, 0, -1], [d, r, d])
    worst = float(np.abs(v[grade[k] != grade[i] + grade[j]]).max(initial=0.0))
    key, tkey = (i * dim + j) * dim + k, (j * dim + i) * dim + k
    at = np.minimum(np.searchsorted(key, tkey), len(key) - 1)
    worst = max(worst, float(np.abs(v + v[at] * (key[at] == tkey)).max(initial=0.0)))
    views = ((None, i * dim + j), view(k * dim + i))
    rows = np.searchsorted(views[0][1], np.arange(dim + 1) * dim)
    most = max(1, _BLOCK_BYTES // 80)
    for a in range(dim):
        e = slice(rows[a], rows[a + 1])
        s, t = j[e], k[e]
        # the terms each second index x adds to the sum of row a
        at_s, at_t = np.bincount(s, minlength=dim), np.bincount(t, minlength=dim)
        cost = np.cumsum(np.bincount(i, at_s[k] + at_t[j], dim)
                         + np.bincount(s, np.diff(rows)[t], dim))
        x0 = 0
        while x0 < dim:
            base = cost[x0 - 1] if x0 else 0
            x1 = max(x0 + 1, int(np.searchsorted(cost, base + most, side="right")))
            worst = max(worst, _jacobi_block(c, views, dim, (s, t, v[e]), x0, x1))
            x0 = x1
    return worst


def closure_residual(n):
    """The Jordan side of str, for every basis pair: S_{e_a} = L_{e_a} and
    [L_a, L_b] = S_{[e_a, e_b]/2}, with S_m read off C and the Jordan
    multiplication L_u = jordan.L_operator(u) from real_rep traces, a route
    independent of C.  For n >= 2 the e_a and [e_a, e_b] span M_n(H), so
    this ties every S_m to the Jordan algebra: str(H_n(H)) = S(M_n(H)).

    Both sides are sparse and summed by joins, one a at a time for every b:
    L_a L_b and L_b L_a join the nonzeros of L_a with those of each L_b
    (collected one L_operator at a time) on their shared index, and S_m
    joins the M_n(H) coefficients of m, from _products, with the slices of
    C at (S_q, X).  S_{e_a} - L_{e_a} is summed as plane b = d of the keys."""
    basis = jordan.orthonormal_basis(n)
    d, r, dim = len(basis), str_dimension(n), co_dimension(n)
    lb, lr, lc, lv = entries(map(jordan.L_operator, basis))
    by_row, by_col = view(lr * d + lb), view(lc * d + lb)
    i, j, k, v = structure_constants(n)
    by_ij = (None, i * dim + j)
    worst = 0.0
    for a, ea in enumerate(basis):
        row, col, w = lr[lb == a], lc[lb == a], lv[lb == a]
        # the coefficients of -[e_a, e_b]/2 on planes b < d and of e_a on plane d
        _, b1, q1, p1 = _products(n, ea[None], basis)
        b2, _, q2, p2 = _products(n, basis, ea[None])
        q0 = np.flatnonzero(ea)
        sq, coef = sum_by(np.concatenate([b1 * r + q1, b2 * r + q2, d * r + q0]),
                          np.concatenate([-0.5 * p1, 0.5 * p2, ea.ravel()[q0]]))
        left, e = join(by_row, col * d, col * d + d)  # L_a L_b: L_a[row, m] L_b[m, x]
        terms = [((lb[e] * d + row[left]) * d + lc[e], w[left] * lv[e])]
        left, e = join(by_col, row * d, row * d + d)  # -L_b L_a: L_b[x, m] L_a[m, col]
        terms.append(((lb[e] * d + lr[e]) * d + col[left], -w[left] * lv[e]))
        lo = (d + sq % r) * dim
        left, e = join(by_ij, lo, lo + d)  # S_m: m_q C[S_q, X_x, X_c]
        terms.append(((sq[left] // r * d + k[e]) * d + j[e], coef[left] * v[e]))
        terms.append(((d * d + row) * d + col, -w))
        keys, vals = (np.concatenate(x) for x in zip(*terms))
        worst = max(worst, float(np.abs(sum_by(keys, vals)[1]).max()))
    return worst


def random_element(rng, n, k):
    """k random elements as the columns of a (dim, k) array, from one draw
    that gives each element in turn its M_n(H) coordinates and then its x-
    and y-parts, the hermitian parts of Gaussian matrices."""
    draw = rng.standard_normal((k, 3, n, n, 4))
    herm = (draw[:, 1:] + mat_dagger(draw[:, 1:])) * 0.5
    return element(herm[:, 0], draw[:, 0], herm[:, 1]).T
