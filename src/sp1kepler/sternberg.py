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
from .quat import dagger_product, im, mat_apply, norm, outer, trace_re, vec_inner

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


def _spanning_tangents(z):
    """The spanning set n(v Z^dag + Z v^dag) over coordinate directions v."""
    n = z.shape[0]
    out = []
    for idx in range(4 * n):
        v = np.zeros(4 * n)
        v[idx] = 1.0
        out.append(jordan.herm_from_vector_pair(v.reshape(n, 4), z))
    return out

def tangent_basis(z):
    """Orthonormal basis of the cone tangent space at n Z Z^dag; 4n-3 elements.

    Gram-Schmidt over the coordinate spanning set, dropping directions whose
    residual norm falls below tolerance (the three fiber directions).
    """
    if norm(z) <= DOMAIN_EPS:
        raise ValueError("tangent basis requires Z != 0")
    basis = []
    for cand in _spanning_tangents(z):
        v = cand
        for b in basis:
            v = v - b * jordan.inner(b, v)
        nrm = np.sqrt(max(jordan.inner(v, v), 0.0))
        if nrm > _TANGENT_TOL * max(1.0, norm(cand)):
            basis.append(v * (1.0 / nrm))
    return basis


def _tangent_project(z, u, basis=None):
    basis = basis if basis is not None else tangent_basis(z)
    coeff = np.array([jordan.inner(b, u) for b in basis])
    proj = np.zeros(u.shape)
    for c, b in zip(coeff, basis):
        proj = proj + b * c
    return proj, coeff


def horizontal_lift(z, xdot):
    """The horizontal lift Zdot of a tangent vector xdot at n Z Z^dag."""
    if norm(z) <= DOMAIN_EPS:
        raise ValueError("horizontal lift requires Z != 0")
    proj, _ = _tangent_project(z, xdot)
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
    Z, pi is checked to be tangent, against ``basis`` when the caller
    already holds the tangent basis at Z.
    """

    __slots__ = ("x", "pi", "z", "w")

    def __init__(self, x, pi, z=None, w=None, basis=None):
        if z is not None:
            proj, _ = _tangent_project(z, pi, basis)
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
    vector t equals <W, tZ - (Re tr t / 2) Z> / (n |Z|^2); assembled in an
    orthonormal tangent basis, so the linear system is diagonal.
    """
    if norm(z) <= DOMAIN_EPS:
        raise ValueError("pi requires Z != 0")
    basis = tangent_basis(z)
    scale = 1.0 / (z.shape[0] * norm(z) ** 2)
    pi = np.zeros((z.shape[0], z.shape[0], 4))
    for t in basis:
        lifted = mat_apply(t, z) - z * (0.5 * trace_re(t))
        pairing = scale * vec_inner(w, lifted)
        pi = pi + t * pairing
    return CotangentData(cone_point(z), pi, z, w, basis)


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
    r1 = 0.0
    for u in basis:
        lhs = jordan.inner(d.x.x, u)
        rhs = vec_inner(z, mat_apply(u, z))
        r1 = max(r1, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
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
