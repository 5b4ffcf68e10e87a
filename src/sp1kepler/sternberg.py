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
<W, uZ>/2 connects it to the upstairs family.  Points come as stacks
(k, n, 4) of Z and of W, and a cone point x and its momentum pi as
hermitian (k, n, n, 4) stacks, passed with the radii r = |Z|^2; every
function takes a stack whole, and a check raises if any point fails it:
pi_from_W checks every pi it builds to be tangent.
"""

from __future__ import annotations

import numpy as np

from . import jordan, realization
from .poisson import DOMAIN_EPS
from .quat import dagger_product, im, mat_apply, mul, norms, outer

_TANGENT_TOL = 1e-10


def _check_z(z, what):
    """Raise ValueError if any point of the stack z has |Z| <= DOMAIN_EPS."""
    if np.any(norms(z, 2) <= DOMAIN_EPS):
        raise ValueError("%s requires Z != 0" % what)


def cone_point(z):
    """The cone point x = n Z Z^dag for Z != 0; its radius Re tr(x)/n is |Z|^2."""
    _check_z(z, "cone point")
    return outer(z, z) * float(z.shape[-2])


def _tangent_from_image(z, y):
    """The tangent element t at n Z Z^dag with t Z = y, for y with Im(Z^dag y) = 0.

    t = n(a Z^dag + Z a^dag) with a = y/(n|Z|^2) - Z <y, Z>/(2n|Z|^4).  A
    tangent t is fixed by t Z, since <t | n(v Z^dag + Z v^dag)> = 2<tZ, v>.
    """
    n = z.shape[-2]
    r = np.einsum("...ip,...ip->...", z, z)[..., None, None]
    yz = np.einsum("...ip,...ip->...", y, z)[..., None, None]
    return jordan.herm_from_vector_pair(y / (n * r) - z * (yz / (2.0 * n * r * r)), z)


def _tangent_project(z, u):
    """Orthogonal projection of hermitian u onto the tangent space at n Z Z^dag:
    the tangent t with t Z = u Z."""
    return _tangent_from_image(z, mat_apply(u, z))


def tangent_basis(z):
    """Orthonormal basis of the cone tangent space at n Z Z^dag; 4n-3 elements.

    The left singular vectors, with singular value 1, of the tangent
    projector written in the orthonormal Jordan basis.
    """
    _check_z(z, "tangent basis")
    n = z.shape[0]
    proj = jordan.coords(_tangent_project(z, jordan.orthonormal_basis(n))).T
    u, s, _ = np.linalg.svd(proj)
    return [jordan.from_coords(c, n) for c in u[:, s > 0.5].T]


def _check_tangent(z, pi):
    """Raise ValueError unless pi is tangent to the cone at every point n Z Z^dag."""
    err = norms(_tangent_project(z, pi) - pi, 3)
    if np.any(err > _TANGENT_TOL * np.maximum(1.0, norms(pi, 3))):
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
    _check_z(z, "pi")
    nu = im(dagger_product(w, z))[..., None, :]
    hor = w + mul(z, nu) * (1.0 / norms(z, 2) ** 2)[..., None, None]
    pi = _tangent_from_image(z, 0.5 * hor)
    _check_tangent(z, pi)
    return pi


def sternberg_x_e(x, pi, r, mu):
    """The cone-side X_e = <x | pi o pi> + mu^2 / r at radius r = <e | x>."""
    pi2 = jordan.jordan_product(pi, pi)
    return jordan.inner(x, pi2) + mu * mu / r


def pullback_check(z, w):
    """Residuals of the two pullback identities at each point (Z, W) of the
    stacks z, w, as arrays over the stack.

    residual 1: max_u |<x|u> - <Z, uZ>| over the orthonormal basis, uZ read
    off jordan.basis_gather by realization.basis_images, as the leaf check;
    residual 2: |cone-side X_e - |W|^2/4| with mu = |Im(W^dag Z)|/2.
    """
    x, zf = cone_point(z), z.reshape(z.shape[:-2] + (-1,))
    uz = realization.basis_images(z.shape[-2], zf)  # the leaf check's flat(e_a Z)
    r1 = realization._rel(jordan.coords(x), np.einsum("...x,...ax->...a", zf, uz)).max(axis=-1)
    del uz  # freed before the stacks of pi are built
    pi, mu = pi_from_W(z, w), 0.5 * norms(im(dagger_product(w, z)), 1)
    r2 = realization._rel(sternberg_x_e(x, pi, norms(z, 2) ** 2, mu), 0.25 * norms(w, 2) ** 2)
    return r1, r2


def hamiltonian_downstairs(x, pi, r, mu):
    """H = <x|pi^2>/(2r) + mu^2/(2r^2) - 1/r on the cone side."""
    if np.any(r <= 0):
        raise ValueError("cone radius must be positive")
    pi2 = jordan.jordan_product(pi, pi)
    return 0.5 * jordan.inner(x, pi2) / r + 0.5 * mu * mu / (r * r) - 1.0 / r
