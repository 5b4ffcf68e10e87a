"""The quadratic observable family realizing so*(4n) on the phase space.

For hermitian u, v the family is

    X_u = <W, uW>/4,    Y_v = <Z, vZ>,    S_uv = <W, (u.v) Z>/2,

with L_u = S_eu and L_{u,v} = (S_uv - S_vu)/2.  The antisymmetrized pair
family is the angular momentum: it is what the summed quadratic
identities close on (the symmetrized combination already contradicts the
primary relation at v = e) and what the Kepler flow conserves.  All are
affine-quadratic
in the flattened coordinates, so every bracket relation is checked as an
exact matrix identity through the poisson module.

S_uv depends on (u, v) only through the matrix product m = u.v, and
m -> S_m := <W, mZ>/2 is linear in m over all of M_n(H).  The relation
sweeps therefore run over a basis of M_n(H) (4n^2 elements); by
bilinearity this covers every basis pair/quadruple of hermitian
arguments exactly, at a small fraction of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import jordan
from .quat import (
    CONJ,
    QTAB,
    UNITS,
    dagger_product,
    im,
    mat_mul,
    mul,
    norm,
    real_rep,
)
from .poisson import PhasePoint, QuadObservable, bracket_exact, quad_bracket, quad_residual


def _embed(r, row, col):
    """The (..., 8n, 8n) matrix with r in block (row, col); block 0 is Z, 1 is W."""
    m = r.shape[-1]
    a = np.zeros(r.shape[:-2] + (2 * m, 2 * m))
    a[..., row * m : (row + 1) * m, col * m : (col + 1) * m] = r
    return a


def _coupling(b):
    """Quadratic part of f(Z, W) = w'^T B q' for a real (4n, 4n) B or a stack."""
    return _embed(b, 1, 0) + _embed(np.swapaxes(b, -1, -2), 0, 1)


def x_quad(r):
    """Quadratic part of X_u = <W, uW>/4, from r = real_rep(u) (or a stack)."""
    return _embed(0.5 * r, 1, 1)


def y_quad(r):
    """Quadratic part of Y_v = <Z, vZ>, from r = real_rep(v) (or a stack)."""
    return _embed(2.0 * r, 0, 0)


def s_quad(r):
    """Quadratic part of S_m = <W, mZ>/2, from r = real_rep(m) (or a stack)."""
    return _coupling(0.5 * r)


def x_observable(u):
    """X_u = <W, uW>/4 for hermitian u."""
    return QuadObservable(x_quad(real_rep(u)))


def y_observable(v):
    """Y_v = <Z, vZ> for hermitian v."""
    return QuadObservable(y_quad(real_rep(v)))


def s_observable(m):
    """S_m = <W, mZ>/2 for an arbitrary quaternionic matrix m."""
    return QuadObservable(s_quad(real_rep(m)))


def s_pair_observable(u, v):
    """S_uv for hermitian u, v, built from the matrix product u.v."""
    return s_observable(mat_mul(u, v))


def l_observable(u):
    """L_u = S_eu = <W, uZ>/2."""
    return s_observable(u)


def l_pair_observable(u, v):
    """L_{u,v} = (S_uv - S_vu)/2, i.e. S of half the commutator."""
    return s_observable((mat_mul(u, v) - mat_mul(v, u)) * 0.5)


def xi_observables(n):
    """The sphere coordinate functions xi^a = <i_a, W^dag Z>/2 as quadratics.

    Uses <i_a, W^dag Z> = <W i_a, Z>, i.e. a right-multiplication coupling.
    The orientation is fixed so that {xi^1, xi^2} = xi^3 cyclically.
    """
    obs = []
    for unit in UNITS[1:]:
        # row k is flat(e_k i_a): the transpose of the map flat(W) -> flat(W i_a)
        right_t = mul(np.eye(4 * n).reshape(4 * n, n, 4), unit).reshape(4 * n, 4 * n)
        obs.append(QuadObservable(_coupling(0.5 * right_t)))
    return obs


@lru_cache(maxsize=8)
def matrix_basis(n):
    """A real basis of M_n(H), E_ab * q over entries and quaternion units,
    as a read-only (4n^2, n, n, 4) stack."""
    out = np.eye(4 * n * n).reshape(4 * n * n, n, n, 4)
    out.setflags(write=False)
    return out


def moment_rho(p):
    """The Sp(1) moment map rho(Z, W) = -Im(W^dag Z)."""
    return -im(dagger_product(p.W, p.Z))


def moment_psi(p, xi):
    """psi(Z, W, xi) = Im(W^dag Z) + 2 xi for imaginary xi."""
    if abs(xi[0]) > 1e-12 * max(1.0, norm(xi)):
        raise ValueError("xi must be an imaginary quaternion")
    return im(dagger_product(p.W, p.Z)) + 2 * xi


def mu_of(p):
    """The magnetic charge of the leaf through p: |Im(W^dag Z)| / 2."""
    return 0.5 * norm(im(dagger_product(p.W, p.Z)))


@dataclass(frozen=True)
class LeafSpec:
    """A symplectic leaf: order n and magnetic charge mu >= 0."""

    n: int
    mu: float

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("mu must be >= 0")
        if self.n < 1:
            raise ValueError("n must be >= 1")


def sample_leaf(spec, rng):
    """A seeded random phase point on the leaf |Im(W^dag Z)| = 2 mu.

    Draws Gaussian (Z, W), then shifts W by Z alpha with imaginary alpha
    chosen so the moment lands on the target.  Uses the identity
    Im((W + Z alpha)^dag Z) = Im(W^dag Z) - alpha |Z|^2.
    """
    n, mu = spec.n, spec.mu
    while True:
        z = rng.standard_normal((n, 4))
        if norm(z) > 0.3:
            break
    w = rng.standard_normal((n, 4))
    nu = im(dagger_product(w, z))
    if norm(nu) > 1e-12:
        target = nu * (2.0 * mu / norm(nu))
    else:
        target = np.array([0.0, 2.0 * mu, 0.0, 0.0])  # tie-break: direction i
    alpha = (nu - target) / (norm(z) ** 2)
    return PhasePoint(z, w + mul(z, alpha))


# ---------------------------------------------------------------------------
# batched scalar evaluation of the family and the quadratic identities
# ---------------------------------------------------------------------------


def _stack_points(points):
    zs = np.array([p.Z for p in points])
    ws = np.array([p.W for p in points])
    return zs, ws


def family_values(n, zs, ws):
    """Scalar values of the family on stacked points.

    zs, ws: arrays (N, n, 4).  Returns a dict of arrays keyed by family.
    """
    rep = real_rep(jordan.orthonormal_basis(n).stack)  # (d, 4n, 4n)
    nn = zs.shape[0]
    zf = zs.reshape(nn, -1)
    wf = ws.reshape(nn, -1)
    az = np.einsum("dxy,Ny->Ndx", rep, zf)  # flat(e_d Z)
    bw = np.einsum("dxy,Ny->Ndx", rep, wf)
    del rep  # freed before the (N, d, d) Gram below sets the peak
    y = np.einsum("Nx,Ndx->Nd", zf, az)
    x = 0.25 * np.einsum("Nx,Ndx->Nd", wf, bw)
    lv = 0.5 * np.einsum("Nx,Ndx->Nd", wf, az)
    g = np.einsum("Nax,Nbx->Nab", bw, az)
    lpair = 0.25 * (g - np.transpose(g, (0, 2, 1)))
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


def primary_quadratic_residuals(n, zs, ws, vals=None):
    """Residual of (2/n) sum_a L_a^2 = L_e^2 + X_e Y_e - mu^2, per point."""
    v = vals or family_values(n, zs, ws)
    lhs = (2.0 / n) * np.einsum("Nd,Nd->N", v["L"], v["L"])
    rhs = v["L_e"] ** 2 + v["X_e"] * v["Y_e"] - v["mu"] ** 2
    return _rel(lhs, rhs)


def secondary_quadratic_residuals(n, zs, ws, vals=None):
    """Residuals of the six summed quadratic relations, per point.

    Returns an array of shape (6, N); relations with a free hermitian
    argument are checked against every basis element and maximized.
    """
    v = vals or family_values(n, zs, ws)
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


def energy_formula_residuals(n, zs, ws, vals=None):
    """Residual of the energy / angular-momentum / LRL relation, per point:

        -2H (L^2 - n^2 (n-1) mu^2 / 2) = n (n-1) (n - 1 - A^2) / 2,

    with L^2 = (1/2) sum_{a,b} L_{a,b}^2 over the antisymmetrized pair
    family and A^2 = -1 + sum_a A_a^2.
    """
    v = vals or family_values(n, zs, ws)
    h, a_vec = kepler_scalars(v["X"], v["Y"], v["X_e"], v["Y_e"])
    a_sq = -1.0 + np.einsum("Nd,Nd->N", a_vec, a_vec)
    l_sq = 0.5 * np.einsum("Nab,Nab->N", v["Lpair"], v["Lpair"])
    lhs = -2.0 * h * (l_sq - n**2 * (n - 1) * v["mu"] ** 2 / 2.0)
    rhs = n * (n - 1) / 2.0 * (n - 1 - a_sq)
    return _rel(lhs, rhs)


# ---------------------------------------------------------------------------
# exact relation verification
# ---------------------------------------------------------------------------


def _relation_residual(rows, cols, predicted):
    """Max relative distance of the brackets {rows[i], cols[j]} from their
    predicted quadratic parts, over all i, j.

    rows, cols: stacks of quadratic parts; predicted(i) gives the stack of
    predicted brackets of row i with every column.  One stacked bracket per
    row keeps the peak at one (len(cols), 8n, 8n) array.
    """
    worst = 0.0
    for i, a in enumerate(rows):
        lhs = quad_bracket(a, cols)
        rhs = predicted(i)
        num = np.linalg.norm(lhs - rhs, axis=(-2, -1))
        den = np.maximum(
            1.0,
            np.maximum(np.linalg.norm(lhs, axis=(-2, -1)), np.linalg.norm(rhs, axis=(-2, -1))),
        )
        worst = max(worst, float((num / den).max()))
    return worst


def verify_so_star_relations(n, tol=1e-12):
    """Check the six bracket relation families as exact quadratic identities.

    Binary families run over all orthonormal-basis pairs.  Families with an
    S argument run over a basis of M_n(H) in the product slot, which covers
    all hermitian basis pairs/quadruples exactly by bilinearity of
    (u, v) -> S_{u.v}.  Predicted brackets are assembled from real_rep
    blocks through R(uv) = R(u) R(v) and R(u^dag) = R(u)^T.  Returns a
    report dict with per-family max residuals.
    """
    rb = real_rep(jordan.orthonormal_basis(n).stack)  # (d, 4n, 4n)
    rm = real_rep(matrix_basis(n))  # (4n^2, 4n, 4n)
    xs, ys, ss = x_quad(rb), y_quad(rb), s_quad(rm)
    zero = np.zeros_like(xs)
    res = {
        "XX_zero": _relation_residual(xs, xs, lambda i: zero),
        "YY_zero": _relation_residual(ys, ys, lambda i: zero),
        # {X_u, Y_v} = -2 S_uv
        "XY_is_minus_2S": _relation_residual(xs, ys, lambda i: -2.0 * s_quad(rb[i] @ rb)),
        # {S_m, X_z} = X_{(mz + z m^dag)/2}
        "SX_triple": _relation_residual(
            ss, xs, lambda i: x_quad((rm[i] @ rb + rb @ rm[i].T) * 0.5)
        ),
        # {S_m, Y_z} = -Y_{(m^dag z + z m)/2}
        "SY_triple": _relation_residual(
            ss, ys, lambda i: -y_quad((rm[i].T @ rb + rb @ rm[i]) * 0.5)
        ),
        # {S_m, S_m'} = S_{[m, m']}/2
        "SS_structure": _relation_residual(
            ss, ss, lambda i: s_quad(rm[i] @ rm - rm @ rm[i]) * 0.5
        ),
    }
    report = {
        "n": n,
        "tol": tol,
        "residuals": res,
        "max_residual": max(res.values()),
        "passed": all(v < tol for v in res.values()),
    }
    return report


def verify_ss_quadruples(n, rng, count=200, tol=1e-12):
    """Direct spot check of {S_uv, S_zw} = S_{uvz}w - S_z{vuw} on seeded
    random basis quadruples (corroborates the bilinearity reduction)."""
    basis = jordan.orthonormal_basis(n)
    d = basis.dim
    worst = 0.0
    for _ in range(count):
        a, b, c, e = rng.integers(0, d, size=4)
        u, v, z, w = basis[a], basis[b], basis[c], basis[e]
        lhs = bracket_exact(s_pair_observable(u, v), s_pair_observable(z, w))
        rhs = s_pair_observable(jordan.triple_product(u, v, z), w) - s_pair_observable(
            z, jordan.triple_product(v, u, w)
        )
        worst = max(worst, quad_residual(lhs, rhs))
    return worst
