"""The cone-side geometry: rank-one cone, horizontal lifts, momenta pi.

The punctured quaternionic space fibers over the rank-one cone through
Z -> n Z Z^dag, with unit quaternions acting on the right as the fiber
group.  The connection splits velocities into vertical and horizontal
parts; the horizontal lift of a tangent vector xdot at x = n Z Z^dag is

    Zdot = (xdot Z - (Re tr xdot / 2) Z) / (n |Z|^2),

characterized by n(Zdot Z^dag + Z Zdot^dag) = xdot and Im(Z^dag Zdot) = 0
(the tests keep the lift itself, in tests/helpers.py).  The momentum pi
lives in the tangent space of the cone and is pinned by its pairings
<pi|xdot> against tangent vectors; the key identity <pi | u o x> =
<W, uZ>/2 connects it to the upstairs family.  A cone point x and its
momentum pi are plain hermitian (n, n, 4) arrays, passed with the radius
r = |Z|^2; pi_from_W checks every pi it builds to be tangent.
"""

from __future__ import annotations

import numpy as np

from . import jordan, realization
from .poisson import DOMAIN_EPS
from .quat import dagger_product, im, mat_apply, mul, norm, outer, real_rep, vec_inner

_TANGENT_TOL = 1e-10


def cone_point(z):
    """The cone point x = n Z Z^dag for Z != 0; its radius Re tr(x)/n is |Z|^2."""
    if norm(z) <= DOMAIN_EPS:
        raise ValueError("cone point requires Z != 0")
    return outer(z, z) * float(z.shape[0])


def _tangent_from_image(z, y):
    """The tangent element t at n Z Z^dag with t Z = y, for y with Im(Z^dag y) = 0.

    t = n(a Z^dag + Z a^dag) with a = y/(n|Z|^2) - Z <y, Z>/(2n|Z|^4).  A
    tangent t is fixed by t Z, since <t | n(v Z^dag + Z v^dag)> = 2<tZ, v>.
    """
    n = z.shape[0]
    r = norm(z) ** 2
    a = y / (n * r) - z * (vec_inner(y, z) / (2.0 * n * r * r))
    return jordan.herm_from_vector_pair(a, z)


def _tangent_project(z, u):
    """Orthogonal projection of hermitian u onto the tangent space at n Z Z^dag:
    the tangent t with t Z = u Z."""
    return _tangent_from_image(z, mat_apply(u, z))


def tangent_basis(z):
    """Orthonormal basis of the cone tangent space at n Z Z^dag; 4n-3 elements.

    The left singular vectors, with singular value 1, of the tangent
    projector written in the orthonormal Jordan basis.
    """
    if norm(z) <= DOMAIN_EPS:
        raise ValueError("tangent basis requires Z != 0")
    n = z.shape[0]
    basis = jordan.orthonormal_basis(n)
    proj = np.array([jordan.coords(_tangent_project(z, e)) for e in basis]).T
    u, s, _ = np.linalg.svd(proj)
    return [jordan.from_coords(c, n) for c in u[:, s > 0.5].T]


def _check_tangent(z, pi):
    """Raise ValueError unless pi is tangent to the cone at n Z Z^dag."""
    proj = _tangent_project(z, pi)
    if norm(proj - pi) > _TANGENT_TOL * max(1.0, norm(pi)):
        raise ValueError("pi is not tangent to the cone")


def pi_from_W(z, w):
    """The momentum pi at n Z Z^dag induced by the upstairs pair (Z, W).

    pi is the unique tangent element whose pairing with every tangent
    vector t equals <W, tZ - (Re tr t / 2) Z> / (n |Z|^2).  For
    t = n(v Z^dag + Z v^dag) the pairing is <hor W, v> with the horizontal
    part hor W = W + Z Im(W^dag Z)/|Z|^2, and <pi | t> = 2<pi Z, v>, so pi
    is the tangent element with pi Z = hor(W)/2.  The result is checked
    to be tangent.
    """
    if norm(z) <= DOMAIN_EPS:
        raise ValueError("pi requires Z != 0")
    hor = w + mul(z, im(dagger_product(w, z))) * (1.0 / norm(z) ** 2)
    pi = _tangent_from_image(z, 0.5 * hor)
    _check_tangent(z, pi)
    return pi


def sternberg_x_e(x, pi, r, mu):
    """The cone-side X_e = <x | pi o pi> + mu^2 / r at radius r = <e | x>."""
    pi2 = jordan.jordan_product(pi, pi)
    return jordan.inner(x, pi2) + mu * mu / r


def pullback_check(z, w):
    """Residuals of the two pullback identities at (Z, W).

    residual 1: max_u |<x|u> - <Z, uZ>| over the orthonormal basis;
    residual 2: |cone-side X_e - |W|^2/4| with mu = |Im(W^dag Z)|/2.
    """
    pi = pi_from_W(z, w)
    x = cone_point(z)
    lhs = jordan.coords(x)
    zf = z.reshape(-1)
    rhs = real_rep(jordan.orthonormal_basis(z.shape[0])) @ zf @ zf
    r1 = float(realization._rel(lhs, rhs).max())
    mu = 0.5 * norm(im(dagger_product(w, z)))
    lhs = sternberg_x_e(x, pi, norm(z) ** 2, mu)
    rhs = 0.25 * norm(w) ** 2
    r2 = float(realization._rel(lhs, rhs))
    return r1, r2


def hamiltonian_downstairs(x, pi, r, mu):
    """H = <x|pi^2>/(2r) + mu^2/(2r^2) - 1/r on the cone side."""
    if r <= 0:
        raise ValueError("cone radius must be positive")
    pi2 = jordan.jordan_product(pi, pi)
    return 0.5 * jordan.inner(x, pi2) / r + 0.5 * mu * mu / (r * r) - 1.0 / r
