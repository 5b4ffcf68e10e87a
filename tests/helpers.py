"""Helpers used only by the tests: single-point formulas for the moment
maps and the magnetic charge, batched evaluation of a quadratic
observable, the right Sp(1) action on a phase point, the cone-side LRL
component, the block byte budgets that give blocks of k points or of k
Jacobi triples, the generators X_u, Y_v and S_uv of the conformal algebra
with the action of S_m on V by quaternion arithmetic, and the
quaternion-arithmetic oracle for jordan.s_tensor."""

import numpy as np

from sp1kepler import conformal, jordan, realization, sternberg
from sp1kepler.poisson import PhasePoint
from sp1kepler.quat import (
    QTAB,
    RE_SIGNS,
    dagger_product,
    im,
    mat_apply,
    mat_dagger,
    mat_mul,
    mul,
    norm,
    vec_inner,
)


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


def evaluate_batch(f, zs):
    """A QuadObservable f at stacked flat coordinates of shape (N, 8n)."""
    zs = np.asarray(zs, dtype=float)
    return 0.5 * np.einsum("ni,ij,nj->n", zs, f.A, zs) + zs @ f.b + f.c


def transformed(p, g):
    """The point (Z g, W g) for a unit quaternion g."""
    return PhasePoint(mul(p.Z, g), mul(p.W, g))


def block_bytes(k, n):
    """A realization._BLOCK_BYTES for which block_points(n) is k."""
    return k * realization._point_bytes(n)


def triple_block_bytes(k, n):
    """A conformal._BLOCK_BYTES for which conformal.jacobi_random_max
    checks k triples per block."""
    return k * conformal._triple_bytes(n)


def x_element(u):
    """The generator X_u of the conformal algebra."""
    return conformal.element(u, np.zeros(conformal.str_dimension(u.shape[0])), np.zeros_like(u))


def y_element(v):
    """The generator Y_v of the conformal algebra."""
    return conformal.element(np.zeros_like(v), np.zeros(conformal.str_dimension(v.shape[0])), v)


def s_element(u, v):
    """The generator S_uv = S_m, m = uv, whose S-coordinates are the entries of m."""
    return conformal.element(np.zeros_like(u), mat_mul(u, v), np.zeros_like(u))


def s_operator(m, sign=1.0):
    """The (d, d) matrix of z -> (mz + sign z m^dag)/2 on V in the orthonormal
    basis, by quaternion arithmetic; sign 1 is the action of S_m."""
    cols = [jordan.coords((mat_mul(m, e) + sign * mat_mul(e, mat_dagger(m))) * 0.5)
            for e in jordan.orthonormal_basis(m.shape[0])]
    return np.array(cols).T


def lrl_downstairs(z, w, mu, u):
    """The LRL component A_u = (X_u - Y_u X_e / Y_e)/2 + Y_u / Y_e.

    Y-values come from the cone point, X_e from the cone-side formula,
    X_u through the upstairs pair (Z, W): not an independent route.
    """
    x, r = sternberg.cone_point(z), norm(z) ** 2
    y_u = jordan.inner(x, u)
    x_e = sternberg.sternberg_x_e(x, sternberg.pi_from_W(z, w), r, mu)
    x_u = 0.25 * vec_inner(w, mat_apply(u, w))
    _, a = realization.kepler_scalars(
        np.array([[x_u]]), np.array([[y_u]]), np.array([x_e]), np.array([r])
    )
    return float(a[0, 0])


def s_tensor_oracle(n):
    """jordan.s_tensor by quaternion arithmetic alone (QTAB einsums, no
    real_rep): {e_a e_b e_c} for all triples, projected onto the basis."""
    e = jordan.orthonormal_basis(n)  # (d, n, n, 4)
    # pairwise matrix products P[a, b] = e_a e_b
    p = np.einsum("aikp,bkjq,pqc->abijc", e, e, QTAB)
    # T1[a, b, c] = (e_a e_b) e_c,  T2[a, b, c] = e_c (e_b e_a)
    t1 = np.einsum("abikp,ckjq,pqr->abcijr", p, e, QTAB)
    t2 = np.einsum("cikp,bakjq,pqr->abcijr", e, p, QTAB)
    triple = 0.5 * (t1 + t2)
    # coeff[a, b, c, d] = <e_d | {e_a e_b e_c}>; T[a, b] has rows d, columns c
    coeff = np.einsum("abcijp,djip,p->abcd", triple, e, RE_SIGNS) / n
    return np.transpose(coeff, (0, 1, 3, 2))
