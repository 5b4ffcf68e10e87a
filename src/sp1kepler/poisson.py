"""Canonical Poisson structure on the punctured quaternionic phase space.

A phase point (Z, W) in H^n_* x H^n is a flat array of R^{8n}: the Z
coordinates, then the W coordinates, each quaternion expanded (w, x, y, z).
The bracket sign convention is {q_i, p_j} = delta_ij with positions from Z
and momenta from W, which makes {<U, Z>, <V, W>} = <U, V> hold exactly.

A quadratic observable f(z) = z^T A z / 2 is its symmetric (8n, 8n)
matrix A.  Quadratic observables are closed under the bracket
(bracket_exact), so every algebra relation downstream is checked as an
exact matrix identity.  Where one side is a family of sparse matrices,
such as the generators of so*(4n), they are given by their nonzero
entries (f, row, col, value) (quat.entries), and family_bracket returns
the terms of every bracket, joined on the shared index by quat.join, for
family_residual to sum by key on the groups of quat.group: the join and
the sum sort keys by one stable argsort (quat.view).
"""

from functools import lru_cache

import numpy as np

from .quat import group, join


@lru_cache(maxsize=16)
def poisson_j(n):
    """The constant Poisson tensor J with {z_a, z_b} = J_ab."""
    m = 4 * n
    j = np.zeros((2 * m, 2 * m))
    j[:m, m:] = np.eye(m)
    j[m:, :m] = -np.eye(m)
    j.setflags(write=False)
    return j


def family_product(d, fam):
    """The terms of d B_f + B_f d^T for every matrix B_f of an entry family
    fam = (f, row, col, value), the nonzero entries of the B_f, each B_f
    symmetric, with d dense: each entry B_f[k, c] joined, by quat.join on
    the nonzeros of d in column order, with every nonzero d[r, k], as the
    term (f, r, c, d[r, k] B_f[k, c]) of d B_f, then the same terms
    transposed, those of B_f d^T = (d B_f)^T.  Unsummed, and in the form
    of fam (quat.entries)."""
    f, row, col, val = fam
    k, r = np.nonzero(d.T)
    e, i = join((None, k), row, row + 1)
    f, r, c, v = f[e], r[i], col[e], d[r, k][i] * val[e]
    return np.concatenate([f, f]), np.concatenate([r, c]), np.concatenate([c, r]), np.concatenate([v, v])


def family_bracket(a, fam):
    """The terms of a J B_f - B_f J a, the bracket of bracket_exact before
    its symmetric part is taken, for one symmetric (8n, 8n) a and every B_f
    of an entry family: those of (a J) B_f + B_f (a J)^T, as J^T = -J
    (see family_product)."""
    return family_product(a @ poisson_j(a.shape[0] // 8), fam)


def bracket_exact(a, b):
    """The bracket of the quadratic observables with symmetric (8n, 8n)
    matrices a and b, as its symmetric matrix: the symmetric part of
    a J b - b J a."""
    j = poisson_j(a.shape[0] // 8)
    m = a @ j @ b - b @ j @ a
    return 0.5 * (m + m.T)


def quad_residual(a, b):
    """Relative Frobenius distance between two quadratic observables."""
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a), np.linalg.norm(b))


def family_residual(lhs, rhs, width):
    """quad_residual for each f: max over f of |L_f - P_f| / max(1, |L_f|,
    |P_f|), with L_f and P_f the (width, width) sums by (f, row, col) of
    the terms lhs and rhs, as family_product gives them, grouped by key
    (quat.group); each side is summed on its own, and the squares per f,
    by np.bincount."""
    f, r, c, v = (np.concatenate(x) for x in zip(lhs, rhs))
    keys, inv = group((f * width + r) * width + c)
    cut = len(lhs[3])
    left, right = np.bincount(inv[:cut], v[:cut], len(keys)), np.bincount(inv[cut:], v[cut:], len(keys))
    col = keys // (width * width)

    def sq(x):
        return np.bincount(col, x * x)

    size = np.maximum(sq(left), sq(right))
    return float((np.sqrt(sq(left - right)) / np.maximum(1.0, np.sqrt(size))).max(initial=0.0))
