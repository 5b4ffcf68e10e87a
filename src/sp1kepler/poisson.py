"""Canonical Poisson structure on the punctured quaternionic phase space.

A phase point (Z, W) in H^n_* x H^n is a flat array of R^{8n}: the Z
coordinates, then the W coordinates, each quaternion expanded (w, x, y, z).
The bracket sign convention is {q_i, p_j} = delta_ij with positions from Z
and momenta from W, which makes {<U, Z>, <V, W>} = <U, V> hold exactly.

A quadratic observable f(z) = z^T A z / 2 is its symmetric (8n, 8n)
matrix A.  Quadratic observables are closed under the bracket
(bracket_exact), so every algebra relation downstream is checked as an
exact matrix identity.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

DOMAIN_EPS = 1e-9


@lru_cache(maxsize=16)
def poisson_j(n):
    """The constant Poisson tensor J with {z_a, z_b} = J_ab."""
    m = 4 * n
    j = np.zeros((2 * m, 2 * m))
    j[:m, m:] = np.eye(m)
    j[m:, :m] = -np.eye(m)
    j.setflags(write=False)
    return j


def block_bracket(a, b):
    """A J B - B J A, the bracket of bracket_exact before its symmetric part
    is taken, on matrices given by their (4n, 4n) blocks: dicts
    {(r, s): block or stack of blocks}, 0 for Z and 1 for W, a missing key
    for a zero block.  J is the signed block permutation (J B)_0s = B_1s,
    (J B)_1s = -B_0s, so

        [A, B]_rs = A_r0 B_1s - A_r1 B_0s - B_r0 A_1s + B_r1 A_0s,

    and a product with a zero block is skipped."""
    out = {}
    for r in (0, 1):
        for s in (0, 1):
            for sign, p, q in ((1, a.get((r, 0)), b.get((1, s))), (-1, a.get((r, 1)), b.get((0, s))),
                               (-1, b.get((r, 0)), a.get((1, s))), (1, b.get((r, 1)), a.get((0, s)))):
                if p is None or q is None:
                    continue
                t = p @ q
                if (r, s) not in out:
                    out[r, s] = np.negative(t, out=t) if sign < 0 else t
                elif sign < 0:
                    out[r, s] -= t
                else:
                    out[r, s] += t
    return out


def block_relation_max(rows, cols, predicted, width, budget):
    """Max over all pairs i, j of |{rows_i, cols_j} - P| / max(1, |{.,.}|, |P|),
    Frobenius norms over all four blocks, with P the predicted bracket.

    rows, cols: triples (count, data, blocks), where data(c) is a (len(c),
    width, width) stack of data of the elements in the slice c and
    blocks(x) their quadratic parts as blocks (see block_bracket), stacks of
    the same shape, from their data x; predicted(a, b) gives the blocks of
    P from the data a of one row and the data b of a chunk of columns.
    Nothing is held for the whole sweep: it runs one row by a chunk of k
    columns at a time, each chunk of columns built once and its rows one
    by one.  In (width, width) float64
    arrays, a tile holds the data and the blocks of each column (2), of the
    row the same and a transposed copy of the data that predicted may take
    (3), and per pair the prediction beside the bracket: two blocks and one
    product while the bracket is formed (4; the prediction is formed first,
    in at most 3), then each difference formed in its bracket block (3),
    with one numpy iterator buffer while the blocks differ in layout;
    beside them a few float64 norms per pair, with their array headers.
    That is all the so*(4n) relations need; k is the largest that keeps it
    within budget bytes.  A batch of rows would only shorten sweeps that
    already fit a few tiles, and take up to the whole budget to do it.
    """
    def sq(x):
        return np.einsum("...ij,...ij->...", x, x)

    def sq_diff(x, p, shape):
        """sq(x - p), the difference formed in x if x is a whole bracket block."""
        return sq(np.subtract(x, p, out=x if np.shape(x) == shape else None))

    def tile_bytes(k):
        block = 8 * width * width
        return block * (2 * k + 3) + 3 * block * k + max(block * k, 8 * np.getbufsize()) + 128 * k

    (n_rows, row_data, row_blocks), (n_cols, col_data, col_blocks) = rows, cols
    k = max([1] + [j for j in range(1, n_cols + 1) if tile_bytes(j) <= budget])
    # glibc's malloc hands free memory at the top of its heap back to the
    # system once there is more than twice the largest chunk it has mapped
    # and freed (128 KiB at first), and every tile frees its arrays: one
    # mapped and freed chunk of half the budget keeps each tile from faulting
    # its pages in anew (at n = 6, 137,000 minor faults and twice the time)
    np.empty(budget // 16)
    worst = 0.0
    for lo in range(0, n_cols, k):
        b_data = col_data(slice(lo, min(lo + k, n_cols)))
        b = col_blocks(b_data)
        for i in range(n_rows):
            a_data = row_data(slice(i, i + 1))
            a = row_blocks(a_data)
            rhs = predicted(a_data[0], b_data)
            lhs = block_bracket({key: x[0] for key, x in a.items()}, b)
            del a_data, a
            size = np.maximum(sum(sq(x) for x in lhs.values()), sum(sq(x) for x in rhs.values()))
            num = sum(sq_diff(lhs.get(key, 0.0), rhs.get(key, 0.0), b_data.shape)
                      for key in lhs.keys() | rhs.keys())
            worst = max(worst, float(np.max(np.sqrt(num) / np.maximum(1.0, np.sqrt(size)))))
            del lhs, rhs  # freed before the next row is built
        del b_data, b
    return worst


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
