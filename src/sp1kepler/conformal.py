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
of v e_k over the entries; every check reads them through index joins and
np.bincount, a block at a time.  With this C the Jacobi identity is
associativity of M_n(H); the Jordan algebra enters through closure_residual.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import jordan
from .quat import _BLOCK_BYTES, CONJ, QTAB, real_rep


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
    """Coordinates of X_x + S_s + Y_y, for hermitian x and y and any s in M_n(H)."""
    return np.concatenate([jordan.coords(x), np.ravel(s), jordan.coords(y)])


def s_matrix(u, v):
    """Matrix of S_uv in the orthonormal basis, via the structure tensor."""
    t = jordan.s_tensor(u.shape[0])
    return np.einsum("a,b,abij->ij", jordan.coords(u), jordan.coords(v), t)


def _sum_by(keys, vals):
    """The distinct keys in increasing order and the sum of the values of each."""
    keys, inv = np.unique(keys, return_inverse=True)
    return keys, np.bincount(inv, vals)


def _products(n, a, b):
    """Every product a_s b_t of two stacks of (n, n, 4) matrices, from their
    nonzero entries through QTAB: arrays s, t, the flat M_n(H) index of each
    product entry and its value, repeated (s, t, index) to be summed."""
    (ao, ar, ac, au), (bo, br, bc, bu) = np.nonzero(a), np.nonzero(b)
    x, y = np.nonzero(ac[:, None] == br[None, :])  # entry pairs meeting at the inner index
    val = a[ao[x], ar[x], ac[x], au[x]] * b[bo[y], br[y], bc[y], bu[y]]
    prod = QTAB[au[x], bu[y]] * val[:, None]
    pair, unit = np.nonzero(prod)
    x, y = x[pair], y[pair]
    return ao[x], bo[y], (ar[x] * n + bc[y]) * 4 + unit, prod[pair, unit]


@lru_cache(maxsize=8)
def structure_constants(n):
    """C as exact sparse COO arrays (i, j, k, v), sorted by (i, j, k), with
    [e_i, e_j] = sum of v e_k over the entries and no zero entry.

    Every rule is a product in M_n(H) from QTAB: the entries of e_a e_b for
    [X, Y]; the V-coordinates of m e_b and m^dag e_b, which are those of
    their hermitian parts, for [S, X] and [S, Y]; and the entries of m m'
    for [S, S].  Each product is entered together with its antisymmetric
    partner, so C + C^T = 0 exactly."""
    d, r = jordan.dim_v(n), str_dimension(n)
    dim = 2 * d + r
    herm, mb = jordan.orthonormal_basis(n), np.eye(r).reshape(r, n, n, 4)
    to_v = np.array([jordan.coords(m) for m in mb])  # at most one nonzero per row
    target = np.abs(to_v).argmax(axis=1)
    weight = to_v[np.arange(r), target]
    a, b, k, v = _products(n, herm, herm)
    parts = [(a, d + r + b, d + k, -2.0 * v)]  # [X_a, Y_b] = -2 S_{e_a e_b}
    # [S_m, X_b] = X_{m e_b} and [S_m, Y_b] = -Y_{m^dag e_b}
    for left, shift, sign in ((mb, 0, 1.0), (np.swapaxes(mb, 1, 2) * CONJ, d + r, -1.0)):
        m, b, k, v = _products(n, left, herm)
        parts.append((d + m, shift + b, shift + target[k], sign * v * weight[k]))
    m, m2, k, v = _products(n, mb, mb)
    parts.append((d + m, d + m2, d + k, 0.5 * v))  # [S_m, S_m'] = S_{[m, m']/2}
    i, j, k, v = (np.concatenate(x) for x in zip(*parts))
    keys, v = _sum_by(np.concatenate([(i * dim + j) * dim + k, (j * dim + i) * dim + k]),
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
    that np.take makes (one per block, whatever its size), and 16 (dim,)
    float64 rows with their array headers (the triple's coordinates and
    draws, the brackets and their sum)."""
    nnz, dim = len(structure_constants(n)[3]), co_dimension(n)
    return 32 * nnz + 16 * (8 * dim + 128)


def jacobi_random_max(n, rng, triples):
    """Max Jacobi residual over `triples` random triples, drawn a, b, c per
    triple by random_element and checked a block of triples at a time, so
    that a block's whole working set stays within _BLOCK_BYTES."""
    block = max(1, _BLOCK_BYTES // _triple_bytes(n))
    worst = 0.0
    for start in range(0, triples, block):
        abc = np.empty((3, co_dimension(n), min(block, triples - start)))
        for t in range(abc.shape[2]):
            for part in abc:
                part[:, t] = random_element(rng, n)
        worst = max(worst, float(_jacobi_norms(n, *abc).max()))
    return worst


def _join(view, f, lo, hi, dim):
    """Pairs (l, e) of a position l in f and an entry e of C whose key in
    the view lies in [f_l dim + lo, f_l dim + hi)."""
    perm, key = view
    start = np.searchsorted(key, f * dim + lo)
    cnt = np.searchsorted(key, f * dim + hi) - start
    left = np.repeat(np.arange(len(f)), cnt)
    return left, perm[np.arange(len(left)) + np.repeat(start - np.cumsum(cnt) + cnt, cnt)]


def _jacobi_block(c, views, dim, row, x0, x1):
    """Max |J(a, x, y)| over x0 <= x < x1 and every y, where row = (s, t, w)
    are the entries (a, s, t) of row a of C and their values, and

        J(a, x, y) = [a, [x, y]] - [[a, x], y] - [x, [a, y]]

    is the cyclic Jacobi sum when C is antisymmetric.  Each term joins row
    a with other entries of C on its summed index m; the terms are then
    summed per (x, y, p) key."""
    i, j, k, v = c
    by_ij, by_ki, by_ji = views
    s, t, w = row
    inner = (s >= x0) & (s < x1)
    keys, vals = [], []
    left, e = _join(by_ki, s, x0, x1, dim)  # [a, [x, y]]: C[x, y, m] C[a, m, p]
    keys.append(((i[e] - x0) * dim + j[e]) * dim + t[left])
    vals.append(w[left] * v[e])
    left, e = _join(by_ij, t[inner], 0, dim, dim)  # [[a, x], y]: C[a, x, m] C[m, y, p]
    keys.append(((s[inner][left] - x0) * dim + j[e]) * dim + k[e])
    vals.append(-w[inner][left] * v[e])
    left, e = _join(by_ji, t, x0, x1, dim)  # [x, [a, y]]: C[a, y, m] C[x, m, p]
    keys.append(((i[e] - x0) * dim + s[left]) * dim + k[e])
    vals.append(-w[left] * v[e])
    del left, e
    keys = np.concatenate(keys)
    vals = np.concatenate(vals)
    return float(np.abs(_sum_by(keys, vals)[1]).max(initial=0.0))


def jacobi_tensor_residual(n):
    """Max Jacobi residual over ALL basis triples, via structure constants;
    by trilinearity it bounds the residual of every generator triple (each
    is a combination of basis elements with O(1) coefficients).  The sum is
    taken in derivation form from joins of the COO entries, row a of C with
    second indices in a range at a time, each block within _BLOCK_BYTES (a
    summed term holds at most 80 bytes: its key and value, the join's
    indices, and np.unique's copies) unless one index alone needs more.  As
    the derivation form is the cyclic sum only for an antisymmetric C, C + C^T
    is checked as well, and so is that C vanishes off the 3-grading (X, S and
    Y of degree 1, 0 and -1)."""
    c = structure_constants(n)
    i, j, k, v = c
    d, r = jordan.dim_v(n), str_dimension(n)
    dim = 2 * d + r
    grade = np.repeat([1, 0, -1], [d, r, d])
    worst = float(np.abs(v[grade[k] != grade[i] + grade[j]]).max(initial=0.0))
    _, sym = _sum_by(np.concatenate([(i * dim + j) * dim + k, (j * dim + i) * dim + k]),
                     np.concatenate([v, v]))
    worst = max(worst, float(np.abs(sym).max(initial=0.0)))
    views = []  # C's entries sorted by (i, j), (k, i) and (j, i): order and key
    for f, g in ((i, j), (k, i), (j, i)):
        order = np.argsort(f * dim + g, kind="stable")
        views.append((order, (f * dim + g)[order]))
    rows = np.searchsorted(views[0][1], np.arange(dim + 1) * dim)
    most = max(1, _BLOCK_BYTES // 80)
    for a in range(dim):
        e = views[0][0][rows[a] : rows[a + 1]]
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


def _s_action(n, s):
    """The action on V of the S-parts s, a (t, 4n^2) array, read off the
    [S, X] block of C: a (t, d, d) stack with [S_s, X_b] = sum_c out[., c, b] X_c."""
    i, j, k, v = structure_constants(n)
    d, r = jordan.dim_v(n), str_dimension(n)
    sel = (i >= d) & (i < d + r) & (j < d) & (k < d)
    w = s[:, i[sel] - d] * v[sel]
    keys = (np.arange(len(s))[:, None] * d + k[sel]) * d + j[sel]
    # float64 also when nothing is selected: bincount then counts in int64
    out = np.bincount(keys.ravel(), w.ravel(), len(s) * d * d).astype(float, copy=False)
    return out.reshape(len(s), d, d)


def closure_residual(n):
    """The Jordan side of str, for every basis pair: S_{e_a} = L_{e_a} and
    [L_a, L_b] = S_{[e_a, e_b]}/2, with S_m read off C and the Jordan
    multiplication L_u = jordan.L_operator(u) from real_rep traces, a route
    independent of C.  For n >= 2 the e_a and [e_a, e_b] span M_n(H), so
    this ties every S_m to the Jordan algebra: str(H_n(H)) = S(M_n(H)).
    The entries of [e_a, e_b] are read off R_a R_b - R_b R_a, R = real_rep,
    at the real unit: R(m)[4i + c, 4j] is component c of m_ij.

    Beside ls, the one fixed stack of the L_{e_a}, built one L_operator at
    a time (each takes three real_rep stacks of the basis, 0.9 MB at
    n = 6), b runs in chunks within _BLOCK_BYTES.  _s_action selects C's
    [S, X] entries (three boolean masks over C, four rows over the sx
    selected) and takes, per b, three rows over them (weights, keys and a
    temporary); beside them each b holds at most three (d, d) arrays
    ([L_a, L_b], a product or the S-action, a difference) and real_rep of
    e_b with the entries of [e_a, e_b] (24 n^2 floats)."""
    basis = jordan.orthonormal_basis(n)
    d = len(basis)
    ls = np.empty((d, d, d))
    for a, e in enumerate(basis):
        ls[a] = jordan.L_operator(e)
    i, j, k, _ = structure_constants(n)
    sx = np.count_nonzero((i >= d) & (i < d + str_dimension(n)) & (j < d) & (k < d))
    step = max(1, (_BLOCK_BYTES - 3 * len(i) - 32 * sx) // (24 * (d * d + sx + 8 * n * n)))
    worst = 0.0
    for lo in range(0, d, step):
        lb = ls[lo : lo + step]
        c = len(lb)
        worst = max(worst, float(np.abs(_s_action(n, basis[lo : lo + c].reshape(c, -1)) - lb).max()))
        rb = real_rep(basis[lo : lo + c])
        for a in range(d):
            ra = real_rep(basis[a])
            comm = ra @ rb[:, :, 0::4] - rb @ ra[:, 0::4]  # (c, 4n, n)
            half = 0.5 * comm.reshape(c, n, 4, n).transpose(0, 1, 3, 2).reshape(c, -1)
            lhs = ls[a] @ lb
            lhs -= lb @ ls[a]
            lhs -= _s_action(n, half)
            worst = max(worst, float(np.abs(lhs, out=lhs).max()))
            del comm, half, lhs  # freed before the next pair of factors
    return worst


def random_element(rng, n):
    """A random element: M_n(H) coordinates first, then the x- and y-parts."""
    s = rng.standard_normal(str_dimension(n))
    return element(jordan.random_herm(rng, n), s, jordan.random_herm(rng, n))
