"""The quadratic observable family realizing so*(4n) on the phase space.

For hermitian u, v the family is

    X_u = <W, uW>/4,    Y_v = <Z, vZ>,    S_uv = <W, (u.v) Z>/2,

with L_u = S_eu and L_{u,v} = (S_uv - S_vu)/2.  The antisymmetrized pair
family is the angular momentum: it is what the summed quadratic
identities close on (the symmetrized combination already contradicts the
primary relation at v = e) and what the Kepler flow conserves.  All are
quadratic forms z^T A z / 2 on the flat phase point z, each given by its
symmetric (8n, 8n) matrix A, so every bracket relation is checked as an
exact matrix identity: the bracket of A and B is the symmetric part of
A J B - B J A (poisson.bracket_exact), which the relation sweep
evaluates on the nonzero entries of B (poisson.family_bracket), as each
generator's matrix has at most 8 nonzeros.  The two sweeps alone import
poisson, when they run, so the leaf, pullback and flow commands never
compile it.

S_uv depends on (u, v) only through the matrix product m = u.v, and
m -> S_m := <W, mZ>/2 is linear in m over all of M_n(H).  The relation
sweeps therefore run over a basis of M_n(H) (4n^2 elements); by
bilinearity this covers every basis pair/quadruple of hermitian
arguments exactly, at a small fraction of the cost.

At sample points, basis_images reads e_a Z off Z through jordan.basis_gather,
the package's one encoding of the basis action.
"""

from . import jordan
from .quat import (
    _BLOCK_BYTES,
    CONJ,
    QTAB,
    UNITS,
    check_memory,
    dagger_product,
    entries,
    im,
    mat_mul,
    mul,
    norms,
    real_rep,
)

import numpy as np  # after the package's modules, so they compile before it loads


def _embed(r, row, col):
    """The (..., 8n, 8n) matrix with r in block (row, col); block 0 is Z, 1 is W."""
    m = r.shape[-1]
    a = np.zeros(r.shape[:-2] + (2 * m, 2 * m))
    a[..., row * m : (row + 1) * m, col * m : (col + 1) * m] = r
    return a


def _coupling(b):
    """The matrix of f(Z, W) = w'^T B q' for a real (4n, 4n) B or a stack."""
    return _embed(b, 1, 0) + _embed(np.swapaxes(b, -1, -2), 0, 1)


def x_quad(r):
    """The matrix of X_u = <W, uW>/4, from r = real_rep(u) (or a stack)."""
    return _embed(0.5 * r, 1, 1)


def y_quad(r):
    """The matrix of Y_v = <Z, vZ>, from r = real_rep(v) (or a stack)."""
    return _embed(2.0 * r, 0, 0)


def s_quad(r):
    """The matrix of S_m = <W, mZ>/2, from r = real_rep(m) (or a stack)."""
    return _coupling(0.5 * r)


def s_pair_observable(u, v):
    """The matrix of S_uv for hermitian u, v, built from the matrix product u.v."""
    return s_quad(real_rep(mat_mul(u, v)))


def xi_observables(n):
    """The matrices of the sphere coordinate functions xi^a = <i_a, W^dag Z>/2.

    Uses <i_a, W^dag Z> = <W i_a, Z>, i.e. a right-multiplication coupling.
    The orientation is fixed so that {xi^1, xi^2} = xi^3 cyclically.
    """
    obs = []
    for unit in UNITS[1:]:
        # row k is flat(e_k i_a): the transpose of the map flat(W) -> flat(W i_a)
        right_t = mul(np.eye(4 * n).reshape(4 * n, n, 4), unit).reshape(4 * n, 4 * n)
        obs.append(_coupling(0.5 * right_t))
    return obs


def sample_point(n, rng, k):
    """k seeded Gaussian phase points (Z, W) away from Z = 0, as (k, n, 4)
    stacks zs, ws: the normals are read point by point as Z, then W, and a
    Z with |Z| <= 0.3 is skipped, the normals after it read as the next Z,
    so the stacks equal k draws of one point, normal for normal."""
    m, out, have = 4 * n, np.empty((2, k, n, 4)), 0
    buf = rng.standard_normal(2 * m * k)
    while True:
        pts = buf.reshape(-1, 2, n, 4)
        size = norms(pts[:, 0], 2)
        i = len(pts) if size.min() > 0.3 else np.flatnonzero(size <= 0.3)[0]
        out[:, have : have + i] = pts[:i].swapaxes(0, 1)
        have += i
        if have == k:
            return out[0], out[1]
        buf = np.concatenate([buf[(2 * i + 1) * m :], rng.standard_normal(m)])


def sample_leaf(n, mu, rng, k):
    """k seeded random phase points on the leaf |Im(W^dag Z)| = 2 mu, as
    (k, n, 4) stacks zs, ws: those of sample_point, each W shifted in place
    by Z alpha, alpha imaginary, as Im((W + Z alpha)^dag Z) = Im(W^dag Z) -
    alpha |Z|^2.  |Z|^2 is squared by pow, as a float's ** squares it, so
    each point is bit for bit the one-point draw."""
    if n < 1 or mu < 0:
        raise ValueError("a leaf needs n >= 1 and mu >= 0")
    zs, ws = sample_point(n, rng, k)
    nu = im(dagger_product(ws, zs))
    size = norms(nu, 1)
    target = nu * (2.0 * mu / np.maximum(size, 1e-12))[:, None]
    if size.min() <= 1e-12:  # tie-break: direction i
        target[size <= 1e-12] = [0.0, 2.0 * mu, 0.0, 0.0]
    alpha = (nu - target) / np.float_power(norms(zs, 2), 2)[:, None]
    ws += mul(zs, alpha[:, None])
    return zs, ws


# ---------------------------------------------------------------------------
# batched scalar evaluation of the family and the quadratic identities
# ---------------------------------------------------------------------------



def _point_bytes(n):
    """Float64 bytes one point adds to a block's working set, d = n(2n - 1).

    Counts the point's 8n coordinates (sample_point's stack, which
    sample_leaf shifts in place), the three (d,) rows X, Y and L, the two
    (d, 4n) stacks az and bw of family_values and two (d, d) stacks: the
    Gram g beside az and bw, g beside its antisymmetric part, and Lpair
    beside a drift temporary of DriftFold all fit in that sum.
    """
    d = n * (2 * n - 1)
    return 8 * (8 * n + 3 * d + 8 * n * d + 2 * d * d)


def block_points(n):
    """Points per block, so that the whole working set of a block, from
    family_values through the leaf residuals or the drift fold, stays
    within _BLOCK_BYTES, but at n = 1, where the per-point scalars that
    _point_bytes leaves out triple it at most, and from n = 9, where a
    DriftFold's first-sample rows (16 d^2 bytes) or one point pass it.
    MemoryError if one point passes physical memory."""
    check_memory(_point_bytes(n), "one point's working set at n = %d" % n)
    return max(1, _BLOCK_BYTES // _point_bytes(n))


def basis_images(n, f):
    """flat(e_a Z) over the basis, a (..., d, 4n) stack, for flat points f
    (..., 4n): jordan.basis_gather, C-ordered by np.take (the transposed
    layout of f[..., idx] would change the order of the sums that read it)."""
    idx, val = jordan.basis_gather(n)
    out = np.take(f, idx, axis=-1)
    out *= val
    return out


def family_values(n, zs, ws):
    """Scalar values of the family on stacked points.

    zs, ws: arrays (N, n, 4).  Returns a dict of arrays keyed by family.
    """
    nn = zs.shape[0]
    zf = zs.reshape(nn, -1)
    wf = ws.reshape(nn, -1)
    az, bw = basis_images(n, zf), basis_images(n, wf)  # flat(e_d Z), flat(e_d W)
    y = np.einsum("Nx,Ndx->Nd", zf, az)
    x = 0.25 * np.einsum("Nx,Ndx->Nd", wf, bw)
    lv = 0.5 * np.einsum("Nx,Ndx->Nd", wf, az)
    g = np.einsum("Nax,Nbx->Nab", bw, az)
    del az, bw  # freed before the antisymmetric part doubles the (N, d, d) stacks
    lpair = g - np.transpose(g, (0, 2, 1))
    del g
    lpair *= 0.25
    y_e = np.einsum("Nx,Nx->N", zf, zf)
    x_e = 0.25 * np.einsum("Nx,Nx->N", wf, wf)
    l_e = 0.5 * np.einsum("Nx,Nx->N", wf, zf)
    wz = np.einsum("Nip,Niq,pqc->Nc", ws * CONJ, zs, QTAB)
    mu = 0.5 * np.linalg.norm(wz[:, 1:], axis=1)
    return {
        "X": x,
        "Y": y,
        "L": lv,
        "Lpair": lpair,
        "X_e": x_e,
        "Y_e": y_e,
        "L_e": l_e,
        "mu": mu,
        "rho": -wz[:, 1:],
    }


def kepler_scalars(x, y, x_e, y_e):
    """The Kepler energy H and LRL vector A from family values.

    x, y: (N, d) values of X and Y over the basis; x_e, y_e: (N,) values
    of X_e and Y_e.  Returns H = X_e/(2 Y_e) - 1/Y_e of shape (N,) and
    A_u = (X_u - Y_u X_e/Y_e)/2 + Y_u/Y_e of shape (N, d).
    """
    h = 0.5 * x_e / y_e - 1.0 / y_e
    a = 0.5 * (x - y * (x_e / y_e)[:, None]) + y / y_e[:, None]
    return h, a


def _rel(lhs, rhs):
    den = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return np.abs(lhs - rhs) / den


def primary_quadratic_residuals(n, v):
    """Residual of (2/n) sum_a L_a^2 = L_e^2 + X_e Y_e - mu^2, per point,
    from the family values v of family_values."""
    lhs = (2.0 / n) * np.einsum("Nd,Nd->N", v["L"], v["L"])
    rhs = v["L_e"] ** 2 + v["X_e"] * v["Y_e"] - v["mu"] ** 2
    return _rel(lhs, rhs)


def secondary_quadratic_residuals(n, v):
    """Residuals of the six summed quadratic relations, per point, from the
    family values v of family_values.

    Returns an array of shape (6, N); relations with a free hermitian
    argument are checked against every basis element and maximized.
    """
    x, y, lv, lp = v["X"], v["Y"], v["L"], v["Lpair"]
    x_e, y_e, l_e, mu = v["X_e"], v["Y_e"], v["L_e"], v["mu"]
    out = []
    # (i) sum X_a L_a = n X_e L_e and sum Y_a L_a = n Y_e L_e
    r1 = _rel(np.einsum("Nd,Nd->N", x, lv), n * x_e * l_e)
    r2 = _rel(np.einsum("Nd,Nd->N", y, lv), n * y_e * l_e)
    out.append(np.maximum(r1, r2))
    # (ii) (4/n) sum_a L_{a,b} L_a = -X_b Y_e + X_e Y_b, all b
    lhs = (4.0 / n) * np.einsum("Nab,Na->Nb", lp, lv)
    rhs = -x * y_e[:, None] + y * x_e[:, None]
    out.append(_rel(lhs, rhs).max(axis=1))
    # (iii) sum X_a^2 = n X_e^2 and sum Y_a^2 = n Y_e^2
    r1 = _rel(np.einsum("Nd,Nd->N", x, x), n * x_e**2)
    r2 = _rel(np.einsum("Nd,Nd->N", y, y), n * y_e**2)
    out.append(np.maximum(r1, r2))
    # (iv) (2/n) sum_a L_{a,b} X_a = -X_b L_e + L_b X_e and the Y twin
    lhs = (2.0 / n) * np.einsum("Nab,Na->Nb", lp, x)
    rhs = -x * l_e[:, None] + lv * x_e[:, None]
    r1 = _rel(lhs, rhs).max(axis=1)
    lhs = (2.0 / n) * np.einsum("Nab,Na->Nb", lp, y)
    rhs = y * l_e[:, None] - lv * y_e[:, None]
    r2 = _rel(lhs, rhs).max(axis=1)
    out.append(np.maximum(r1, r2))
    # (v) sum X_a Y_a = n (L_e^2 + mu^2)
    out.append(_rel(np.einsum("Nd,Nd->N", x, y), n * (l_e**2 + mu**2)))
    # (vi) (4/n^3) sum_{a,b} L_{a,b}^2 = 2(n-1)/n (X_e Y_e - L_e^2 + mu^2)
    lhs = (4.0 / n**3) * np.einsum("Nab,Nab->N", lp, lp)
    rhs = 2.0 * (n - 1.0) / n * (x_e * y_e - l_e**2 + mu**2)
    out.append(_rel(lhs, rhs))
    return np.array(out)


def energy_formula_residuals(n, v):
    """Residual of the energy / angular-momentum / LRL relation, per point,
    from the family values v of family_values:

        -2H (L^2 - n^2 (n-1) mu^2 / 2) = n (n-1) (n - 1 - A^2) / 2,

    with L^2 = (1/2) sum_{a,b} L_{a,b}^2 over the antisymmetrized pair
    family and A^2 = -1 + sum_a A_a^2.
    """
    h, a_vec = kepler_scalars(v["X"], v["Y"], v["X_e"], v["Y_e"])
    a_sq = -1.0 + np.einsum("Nd,Nd->N", a_vec, a_vec)
    l_sq = 0.5 * np.einsum("Nab,Nab->N", v["Lpair"], v["Lpair"])
    lhs = -2.0 * h * (l_sq - n**2 * (n - 1) * v["mu"] ** 2 / 2.0)
    rhs = n * (n - 1) / 2.0 * (n - 1 - a_sq)
    return _rel(lhs, rhs)


def leaf_residual_maxima(n, mu, rng, samples):
    """Max over `samples` seeded leaf points of each quadratic-identity residual.

    Points are drawn in order and checked block_points(n) at a time; each
    residual is per point and a maximum folds exactly, so memory does not
    grow with `samples` and the result is the same for any block size of
    two or more points.  A one-point block agrees with them only to
    rounding once d^2 exceeds numpy's buffer (8192 elements by default; n
    >= 7): numpy then sums the d^2 terms of secondary (vi) and of the
    energy relation of a lone point a buffer at a time.
    """
    step = block_points(n)
    worst = np.full(8, -np.inf)
    for lo in range(0, samples, step):
        v = family_values(n, *sample_leaf(n, mu, rng, min(step, samples - lo)))
        block = np.vstack([primary_quadratic_residuals(n, v),
                           secondary_quadratic_residuals(n, v),
                           energy_formula_residuals(n, v)])
        worst = np.maximum(worst, block.max(axis=1))
        del v, block  # freed before the next block is computed
    names = ["primary"] + ["secondary_" + r for r in ("i", "ii", "iii", "iv", "v", "vi")]
    return dict(zip(names + ["energy"], worst.tolist()))


# ---------------------------------------------------------------------------
# exact relation verification
# ---------------------------------------------------------------------------


def verify_so_star_relations(n):
    """Check the six bracket relation families as exact quadratic identities.

    Binary families run over all orthonormal-basis pairs.  Families with an
    S argument run over a basis of M_n(H) in the product slot, which covers
    all hermitian basis pairs/quadruples exactly by bilinearity of
    (u, v) -> S_{u.v}.  Every matrix here is sparse: R = real_rep of a
    basis element has at most 8 nonzeros, and so has each builder matrix.
    A family's columns are given by nonzero entries (f, row, col, value),
    built one element at a time: those of their x_quad, y_quad or s_quad
    matrices, and those of their R where the generator has it (X in WW, Y
    in ZZ, S in WZ and, transposed, in ZW).  Each row is the full builder
    matrix A of one element, and poisson.family_bracket gives the terms of
    its bracket with every column.  The predicted brackets do not go
    through the builders: they follow the definitions, WW block R_u / 2
    for X_u, ZZ block 2 R_v for Y_v and WZ block R_m / 2 for S_m, through
    R(uv) = R(u) R(v) and R(u^dag) = R(u)^T, each as L R' + R' L^T for R'
    a column's R in place, which is symmetric, and L from the row's R
    (poisson.family_product).  Both sides are summed by key and compared
    column by column (poisson.family_residual).  Returns the max residual
    of each family, keyed by family.
    """
    from . import poisson

    herm, m = jordan.orthonormal_basis(n), 4 * n
    zero = np.zeros((2 * m, 2 * m))

    def reps(kind):
        """R of each basis element of a kind, one at a time; E_ij q for S,
        flat index (i n + j) 4 + q."""
        if kind == "S":
            return (real_rep(np.eye(1, m * n, q).reshape(n, n, 4)) for q in range(m * n))
        return map(real_rep, herm)

    # each kind's builder, and its R where its generator has it
    kinds = {"X": (x_quad, lambda r: _embed(r, 1, 1)), "Y": (y_quad, lambda r: _embed(r, 0, 0)),
             "S": (s_quad, _coupling)}
    cols = {kind: [entries(map(f, reps(kind))) for f in fs] for kind, fs in kinds.items()}
    # the predicted bracket with a column, L R' + R' L^T for R' its R in
    # place, as the matrix L from the row's R
    sweeps = (
        ("XX_zero", "X", "X", lambda a: zero),
        ("YY_zero", "Y", "Y", lambda a: zero),
        # {X_u, Y_v} = -2 S_uv
        ("XY_is_minus_2S", "X", "Y", lambda a: _embed(-a, 1, 0)),
        # {S_m, X_z} = X_{(mz + z m^dag)/2}
        ("SX_triple", "S", "X", lambda a: _embed(0.25 * a, 1, 1)),
        # {S_m, Y_z} = -Y_{(m^dag z + z m)/2}
        ("SY_triple", "S", "Y", lambda a: _embed(-a.T, 0, 0)),
        # {S_m, S_m'} = S_{[m, m']/2}
        ("SS_structure", "S", "S", lambda a: _embed(0.25 * a, 1, 1) - _embed(0.25 * a.T, 0, 0)),
    )
    out = {}
    for name, row, col, predicted in sweeps:
        fam, placed = cols[col]
        out[name] = max(poisson.family_residual(poisson.family_bracket(kinds[row][0](r), fam),
                                                poisson.family_product(predicted(r), placed), 2 * m)
                        for r in reps(row))
    return out


def verify_ss_quadruples(n, rng):
    """Direct spot check of {S_uv, S_zw} = S_{uvz}w - S_z{vuw} on 100 seeded
    random basis quadruples, their 400 indices drawn by one call
    (corroborates the bilinearity reduction)."""
    from . import poisson

    basis = jordan.orthonormal_basis(n)
    worst = 0.0
    for row in rng.integers(0, len(basis), 400).reshape(100, 4):
        u, v, z, w = basis[row]
        lhs = poisson.bracket_exact(s_pair_observable(u, v), s_pair_observable(z, w))
        rhs = s_pair_observable(jordan.triple_product(u, v, z), w) - s_pair_observable(
            z, jordan.triple_product(v, u, w)
        )
        worst = max(worst, poisson.quad_residual(lhs, rhs))
    return worst
