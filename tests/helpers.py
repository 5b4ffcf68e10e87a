"""Helpers used only by the tests: single-point formulas for the moment
maps and the magnetic charge, batched evaluation of a quadratic
observable, and the right Sp(1) action on a phase point."""

import numpy as np

from sp1kepler.poisson import PhasePoint
from sp1kepler.quat import dagger_product, im, mul, norm


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
