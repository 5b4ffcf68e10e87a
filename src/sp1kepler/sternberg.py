"""The cone-side geometry: rank-one cone, horizontal lifts, (x, pi) data.

The punctured quaternionic space fibers over the rank-one cone through
Z -> n Z Z^dag, with unit quaternions acting on the right as the fiber
group.  The connection splits velocities into vertical and horizontal
parts; the horizontal lift of a tangent vector xdot at x = n Z Z^dag is

    Zdot = (xdot Z - (Re tr xdot / 2) Z) / (n |Z|^2),

characterized by n(Zdot Z^dag + Z Zdot^dag) = xdot and Im(Z^dag Zdot) = 0.
The momentum pi lives in the tangent space of the cone and is pinned by
its pairings <pi|xdot> against tangent vectors; the key identity
<pi | u o x> = <W, uZ>/2 connects it to the upstairs family.
"""

from __future__ import annotations

import numpy as np

from . import jordan, realization
from .poisson import DOMAIN_EPS
from .quat import dagger_product, im, mat_apply, mul, norm, outer, real_rep, trace_re, vec_inner

_TANGENT_TOL = 1e-10


class ConePoint:
    """A rank-one cone point x = n Z Z^dag with r = Re tr(x)/n = |Z|^2."""

    __slots__ = ("x", "r", "n")

    def __init__(self, x, r):
        self.x = x
        self.r = float(r)
        self.n = x.shape[0]

    def __repr__(self):
        return "ConePoint(n=%d, r=%.6g)" % (self.n, self.r)


def cone_point(z):
    """The cone point n Z Z^dag for Z != 0."""
    if norm(z) <= DOMAIN_EPS:
        raise ValueError("cone point requires Z != 0")
    x = outer(z, z) * float(z.shape[0])
    return ConePoint(x, norm(z) ** 2)


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
    basis = jordan.orthonormal_basis(z.shape[0])
    proj = np.array([basis.coords(_tangent_project(z, e)) for e in basis]).T
    u, s, _ = np.linalg.svd(proj)
    return [basis.from_coords(c) for c in u[:, s > 0.5].T]


def horizontal_lift(z, xdot):
    """The horizontal lift Zdot of a tangent vector xdot at n Z Z^dag."""
    if norm(z) <= DOMAIN_EPS:
        raise ValueError("horizontal lift requires Z != 0")
    proj = _tangent_project(z, xdot)
    if norm(proj - xdot) > 1e-8 * max(1.0, norm(xdot)):
        raise ValueError("xdot is not tangent to the cone at this point")
    xdot = proj
    scale = 1.0 / (z.shape[0] * norm(z) ** 2)
    lead = mat_apply(xdot, z)
    shift = z * (0.5 * trace_re(xdot))
    return (lead - shift) * scale


class CotangentData:
    """A cone point with its tangent-space momentum pi.

    Built from an upstairs pair (Z, W), which is retained: the downstairs
    X_u for u != e is evaluated through the upstairs identification.  Given
    Z, pi is checked to be tangent.
    """

    __slots__ = ("x", "pi", "z", "w")

    def __init__(self, x, pi, z=None, w=None):
        if z is not None:
            proj = _tangent_project(z, pi)
            if norm(proj - pi) > _TANGENT_TOL * max(1.0, norm(pi)):
                raise ValueError("pi is not tangent to the cone")
        self.x = x
        self.pi = pi
        self.z = z
        self.w = w

    def __repr__(self):
        return "CotangentData(n=%d, r=%.6g)" % (self.x.n, self.x.r)


def pi_from_W(z, w):
    """The momentum pi at n Z Z^dag induced by the upstairs pair (Z, W).

    pi is the unique tangent element whose pairing with every tangent
    vector t equals <W, tZ - (Re tr t / 2) Z> / (n |Z|^2).  For
    t = n(v Z^dag + Z v^dag) the pairing is <hor W, v> with the horizontal
    part hor W = W + Z Im(W^dag Z)/|Z|^2, and <pi | t> = 2<pi Z, v>, so pi
    is the tangent element with pi Z = hor(W)/2.
    """
    if norm(z) <= DOMAIN_EPS:
        raise ValueError("pi requires Z != 0")
    hor = w + mul(z, im(dagger_product(w, z))) * (1.0 / norm(z) ** 2)
    return CotangentData(cone_point(z), _tangent_from_image(z, 0.5 * hor), z, w)


def sternberg_x_e(d, mu):
    """The cone-side X_e = <x | pi o pi> + mu^2 / <e | x>."""
    pi2 = jordan.jordan_product(d.pi, d.pi)
    return jordan.inner(d.x.x, pi2) + mu * mu / d.x.r


def pullback_check(z, w):
    """Residuals of the two pullback identities at (Z, W).

    residual 1: max_u |<x|u> - <Z, uZ>| over the orthonormal basis;
    residual 2: |cone-side X_e - |W|^2/4| with mu = |Im(W^dag Z)|/2.
    """
    d = pi_from_W(z, w)
    basis = jordan.orthonormal_basis(z.shape[0])
    lhs = basis.coords(d.x.x)
    zf = z.reshape(-1)
    rhs = real_rep(basis.stack) @ zf @ zf
    r1 = float(realization._rel(lhs, rhs).max())
    mu = 0.5 * norm(im(dagger_product(w, z)))
    lhs = sternberg_x_e(d, mu)
    rhs = 0.25 * norm(w) ** 2
    r2 = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return r1, r2


def hamiltonian_downstairs(d, mu):
    """H = <x|pi^2>/(2r) + mu^2/(2r^2) - 1/r on the cone side."""
    r = d.x.r
    if r <= 0:
        raise ValueError("cone radius must be positive")
    pi2 = jordan.jordan_product(d.pi, d.pi)
    return 0.5 * jordan.inner(d.x.x, pi2) / r + 0.5 * mu * mu / (r * r) - 1.0 / r


def lrl_downstairs(d, mu, u):
    """The LRL component A_u = (X_u - Y_u X_e / Y_e)/2 + Y_u / Y_e.

    Y-values come from the cone point, X_e from the cone-side formula,
    X_u through the retained upstairs pair.
    """
    r = d.x.r
    if r <= 0:
        raise ValueError("cone radius must be positive")
    y_u = jordan.inner(d.x.x, u)
    x_e = sternberg_x_e(d, mu)
    if d.w is None:
        raise ValueError("X_u needs the upstairs pair; build via pi_from_W")
    x_u = 0.25 * vec_inner(d.w, mat_apply(u, d.w))
    _, a = realization.kepler_scalars(
        np.array([[x_u]]), np.array([[y_u]]), np.array([x_e]), np.array([r])
    )
    return float(a[0, 0])
