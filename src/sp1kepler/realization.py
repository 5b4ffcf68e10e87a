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
    mat_dagger,
    mat_mul,
    mul,
    norm,
    real_rep,
    unit_matrix,
)
from .poisson import PhasePoint, QuadObservable, bracket_exact, quad_residual


def _coupling_observable(n, b_matrix):
    """The observable f(Z, W) = w'^T B q' as a QuadObservable."""
    m = 4 * n
    a = np.zeros((2 * m, 2 * m))
    a[:m, m:] = b_matrix.T
    a[m:, :m] = b_matrix
    return QuadObservable(a, n=n)


def x_observable(u):
    """X_u = <W, uW>/4 for hermitian u."""
    n = u.shape[0]
    m = 4 * n
    a = np.zeros((2 * m, 2 * m))
    a[m:, m:] = 0.5 * real_rep(u)
    return QuadObservable(a, n=n)


def y_observable(v):
    """Y_v = <Z, vZ> for hermitian v."""
    n = v.shape[0]
    m = 4 * n
    a = np.zeros((2 * m, 2 * m))
    a[:m, :m] = 2.0 * real_rep(v)
    return QuadObservable(a, n=n)


def s_observable(m):
    """S_m = <W, mZ>/2 for an arbitrary quaternionic matrix m."""
    return _coupling_observable(m.shape[0], 0.5 * real_rep(m))


def s_pair_observable(u, v):
    """S_uv for hermitian u, v, built from the matrix product u.v."""
    return s_observable(mat_mul(u, v))


def l_observable(u):
    """L_u = S_eu = <W, uZ>/2."""
    return s_observable(u)


def _rright_block(q):
    """4x4 real matrix of right multiplication z -> z*q on one quaternion."""
    return np.einsum("r,prc->cp", np.asarray(q, float), QTAB)


def xi_observables(n):
    """The sphere coordinate functions xi^a = <i_a, W^dag Z>/2 as quadratics.

    Uses <i_a, W^dag Z> = <W i_a, Z>, i.e. a right-multiplication coupling.
    The orientation is fixed so that {xi^1, xi^2} = xi^3 cyclically.
    """
    obs = []
    for unit in UNITS[1:]:
        blk = _rright_block(unit)
        b = np.kron(np.eye(n), blk)  # flat(W * i_a) = b @ flat(W)
        obs.append(_coupling_observable(n, 0.5 * b.T))
    return obs


@lru_cache(maxsize=8)
def matrix_basis(n):
    """A real basis of M_n(H): E_ab * q over entries and quaternion units."""
    out = []
    for a in range(n):
        for b in range(n):
            for q in UNITS:
                out.append(unit_matrix(n, a, b, q))
    return out


class RealizationFamily:
    """Indexed observable families over the orthonormal Jordan basis."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("order must be >= 1")
        self.n = n
        self.basis = jordan.orthonormal_basis(n)
        self.e = jordan.identity(n)
        self.x_obs = [x_observable(u) for u in self.basis]
        self.y_obs = [y_observable(u) for u in self.basis]
        self.l_obs = [l_observable(u) for u in self.basis]
        self.x_e = x_observable(self.e)
        self.y_e = y_observable(self.e)
        self.l_e = l_observable(self.e)
        self.xi = xi_observables(n)

    def s_obs(self, alpha, beta):
        """S_{e_alpha e_beta} as a QuadObservable."""
        return s_pair_observable(self.basis[alpha], self.basis[beta])

    def l_pair_obs(self, alpha, beta):
        """L_{e_alpha, e_beta} = (S_ab - S_ba)/2, i.e. S of half the commutator."""
        u = self.basis[alpha]
        v = self.basis[beta]
        return s_observable((mat_mul(u, v) - mat_mul(v, u)) * 0.5)


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
    basis = jordan.orthonormal_basis(n)
    e = basis.stack  # (d, n, n, 4)
    nn = zs.shape[0]
    d = basis.dim
    az = np.einsum("dijp,Njq,pqc->Ndic", e, zs, QTAB).reshape(nn, d, -1)
    bw = np.einsum("dijp,Njq,pqc->Ndic", e, ws, QTAB).reshape(nn, d, -1)
    zf = zs.reshape(nn, -1)
    wf = ws.reshape(nn, -1)
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


def primary_quadratic_residual(p):
    """Single-point form of the primary quadratic relation residual."""
    zs, ws = _stack_points([p])
    return float(primary_quadratic_residuals(p.n, zs, ws)[0])


def secondary_quadratic_residual(p):
    """Single-point residuals of relations (i)-(vi); returns six floats."""
    zs, ws = _stack_points([p])
    return secondary_quadratic_residuals(p.n, zs, ws)[:, 0].tolist()


def energy_formula_residual(p):
    """Single-point residual of the energy formula."""
    zs, ws = _stack_points([p])
    return float(energy_formula_residuals(p.n, zs, ws)[0])


# ---------------------------------------------------------------------------
# exact relation verification
# ---------------------------------------------------------------------------


def verify_so_star_relations(n, tol=1e-12):
    """Check the six bracket relation families as exact quadratic identities.

    Binary families run over all orthonormal-basis pairs.  Families with an
    S argument run over a basis of M_n(H) in the product slot, which covers
    all hermitian basis pairs/quadruples exactly by bilinearity of
    (u, v) -> S_{u.v}.  Returns a report dict with per-family max residuals.
    """
    basis = jordan.orthonormal_basis(n)
    fam = RealizationFamily(n)
    mb = matrix_basis(n)
    m_obs = [s_observable(m) for m in mb]
    res = {}

    r = 0.0
    for i, f in enumerate(fam.x_obs):
        for g in fam.x_obs[i:]:
            r = max(r, bracket_exact(f, g).norm() / max(1.0, f.norm() * g.norm()))
    res["XX_zero"] = r

    r = 0.0
    for i, f in enumerate(fam.y_obs):
        for g in fam.y_obs[i:]:
            r = max(r, bracket_exact(f, g).norm() / max(1.0, f.norm() * g.norm()))
    res["YY_zero"] = r

    r = 0.0
    for a, f in enumerate(fam.x_obs):
        for b, g in enumerate(fam.y_obs):
            rhs = fam.s_obs(a, b).scale(-2.0)
            r = max(r, quad_residual(bracket_exact(f, g), rhs))
    res["XY_is_minus_2S"] = r

    r = 0.0
    for m, f in zip(mb, m_obs):
        for z in basis:
            # {S_m, X_z} = X_{(mz + z m^dag)/2}
            h = (mat_mul(m, z) + mat_mul(z, mat_dagger(m))) * 0.5
            r = max(r, quad_residual(bracket_exact(f, x_observable(z)), x_observable(h)))
    res["SX_triple"] = r

    r = 0.0
    for m, f in zip(mb, m_obs):
        md = mat_dagger(m)
        for z in basis:
            h = (mat_mul(md, z) + mat_mul(z, m)) * 0.5
            r = max(
                r,
                quad_residual(
                    bracket_exact(f, y_observable(z)), y_observable(h).scale(-1.0)
                ),
            )
    res["SY_triple"] = r

    r = 0.0
    for i, (m1, f) in enumerate(zip(mb, m_obs)):
        for m2, g in zip(mb[i:], m_obs[i:]):
            comm = mat_mul(m1, m2) - mat_mul(m2, m1)
            rhs = s_observable(comm).scale(0.5)
            r = max(r, quad_residual(bracket_exact(f, g), rhs))
    res["SS_structure"] = r

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
