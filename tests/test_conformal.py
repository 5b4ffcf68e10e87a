import tracemalloc

import numpy as np
import pytest
from helpers import (
    S_operator,
    closure_residual_dense,
    products_dense,
    s_action,
    s_element,
    s_operator,
    s_tensor_oracle,
    triple_block_bytes,
    x_element,
    y_element,
)

from sp1kepler import conformal, jordan
from sp1kepler.quat import SeededRng, mat_dagger, mat_mul

rng = np.random.default_rng(31)


def _parts(n, c):
    """The hermitian x-part, the M_n(H) s-part (n, n, 4) and the y-part of c."""
    d = jordan.dim_v(n)
    return (jordan.from_coords(c[:d], n), c[d:-d].reshape(n, n, 4),
            jordan.from_coords(c[-d:], n))



@pytest.mark.parametrize("n", [1, 2, 3])
def test_products_equal_the_dense_join(n):
    """_products through quat.join gives the arrays of the dense equality
    join, bit for bit and in its order, on every stack it is called with."""
    r = conformal.str_dimension(n)
    herm, mb = jordan.orthonormal_basis(n), np.eye(r).reshape(r, n, n, 4)
    stacks = [(herm, herm), (mb, herm), (mat_dagger(mb), herm), (mb, mb)]
    stacks += [p for e in herm for p in ((e[None], herm), (herm, e[None]))]
    for a, b in stacks:
        got, want = conformal._products(n, a, b), products_dense(n, a, b)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and np.array_equal(x, y)

def _dense(n, c=None):
    """C as a dense (dim, dim, dim) array, duplicates summed."""
    i, j, k, v = conformal.structure_constants(n) if c is None else c
    dim = conformal.co_dimension(n)
    out = np.zeros((dim, dim, dim))
    np.add.at(out, (i, j, k), v)
    return out


def _grades(n):
    d, r = jordan.dim_v(n), conformal.str_dimension(n)
    return slice(0, d), slice(d, d + r), slice(d + r, 2 * d + r)


def _select(n, c, gi, gj, gk):
    """Mask of the COO entries of c in the block (gi, gj, gk) of grade slices."""
    i, j, k, _ = c
    return ((i >= gi.start) & (i < gi.stop) & (j >= gj.start) & (j < gj.stop)
            & (k >= gk.start) & (k < gk.stop))


def _patched(monkeypatch, c):
    """Hand the checks c in the form structure_constants documents:
    duplicates summed, sorted by (i, j, k), zeros dropped."""
    i, j, k, v = c
    dim = 1 + max(i.max(), j.max(), k.max())
    keys, inv = np.unique((i * dim + j) * dim + k, return_inverse=True)
    v = np.bincount(inv, v)
    keys, v = keys[v != 0.0], v[v != 0.0]
    form = (keys // (dim * dim), keys // dim % dim, keys % dim, v)
    monkeypatch.setattr(conformal, "structure_constants", lambda m: form)


def test_dimensions():
    assert conformal.co_dimension(2) == 28
    assert conformal.co_dimension(3) == 66
    assert conformal.str_dimension(2) == 16
    assert conformal.str_dimension(3) == 36


def test_n1_dimensions():
    # at n = 1 the S-part is M_1(H) = H, and co = sl(2, R) + su(2) = so*(4)
    assert conformal.str_dimension(1) == 4
    assert conformal.co_dimension(1) == 6


@pytest.mark.parametrize("n", range(1, 5))
def test_dimension_is_that_of_so_star(n):
    dim = conformal.co_dimension(n)
    assert dim == 2 * n * (4 * n - 1)
    assert max(index.max() for index in conformal.structure_constants(n)[:3]) == dim - 1


@pytest.mark.parametrize("n", range(1, 5))
def test_structure_constants_are_exactly_antisymmetric(n):
    c = _dense(n)
    assert np.array_equal(c, -np.swapaxes(c, 0, 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_structure_constants_are_in_their_documented_form(n):
    # strictly increasing (i, j, k) keys, no zero value, and every entry's
    # transpose present with exactly the negated value: the checks read C
    # in this form without sorting or symmetrizing it again
    i, j, k, v = conformal.structure_constants(n)
    dim = conformal.co_dimension(n)
    keys, tkeys = (i * dim + j) * dim + k, (j * dim + i) * dim + k
    assert np.all(np.diff(keys) > 0) and np.all(v != 0.0)
    at = np.searchsorted(keys, tkeys)
    assert np.all(at < len(keys))
    assert np.array_equal(keys[at], tkeys)
    assert np.array_equal(v[at], -v)


def test_structure_constants_are_sparse():
    assert len(conformal.structure_constants(2)[3]) == 504
    assert len(conformal.structure_constants(4)[3]) == 6000
    i, j, k, v = conformal.structure_constants(3)
    keys = (i * 66 + j) * 66 + k
    assert np.all(np.diff(keys) > 0) and np.all(v != 0.0)


@pytest.mark.parametrize("n", range(1, 5))
def test_s_action_rank(n):
    # S is injective on M_n(H) for n >= 2; at n = 1 only the real unit acts
    # on V = R, since the su(2) = Im H inside so*(4) acts trivially
    r = conformal.str_dimension(n)
    action = s_action(n, np.eye(r)).reshape(r, -1)
    assert np.linalg.matrix_rank(action) == (r if n >= 2 else 1)


def test_s_action_matches_quaternion_arithmetic():
    # C's [S, X] block against (mz + zm^dag)/2 computed entry by entry
    n = 2
    m = rng.standard_normal((n, n, 4))
    action = s_action(n, m.reshape(1, -1))[0]
    assert np.abs(action - s_operator(m)).max() < 1e-13


def test_str_span_is_an_orthonormal_basis_of_the_operator_span():
    for n in (2, 3, 4):
        d = jordan.dim_v(n)
        span = conformal.str_span(n).reshape(-1, d * d)
        assert len(span) == 4 * n * n
        assert np.abs(span @ span.T - np.eye(len(span))).max() < 1e-13
        # the same subspace as the right singular vectors of the reshaped
        # quaternion-arithmetic structure tensor
        _, sv, vt = np.linalg.svd(s_tensor_oracle(n).reshape(d * d, d * d))
        ref = vt[: int((sv > 1e-9 * sv[0]).sum())]
        assert np.linalg.norm(span.T @ span - ref.T @ ref, 2) < 1e-13


def test_bracket_examples():
    e = jordan.identity(2)
    # [S_ee, X_e] = X_{eee} = X_e
    br = conformal.co_bracket(2, s_element(e, e), x_element(e))
    assert np.linalg.norm(br - x_element(e)) < 1e-12
    # [X_e, Y_e] = -2 S_ee = -2 L_e (the identity operator on V), checked
    # against Jordan multiplication rather than the structure constants
    br = conformal.co_bracket(2, x_element(e), y_element(e))
    x, s, y = _parts(2, br)
    assert np.abs(s_operator(s) + 2 * jordan.L_operator(e)).max() < 1e-12
    assert jordan.inner(x, x) < 1e-24
    assert jordan.inner(y, y) < 1e-24


def test_xx_yy_vanish():
    u, v = jordan.random_herm(rng, 2), jordan.random_herm(rng, 2)
    xx = conformal.co_bracket(2, x_element(u), x_element(v))
    yy = conformal.co_bracket(2, y_element(u), y_element(v))
    assert np.linalg.norm(xx) < 1e-12
    assert np.linalg.norm(yy) < 1e-12


def test_s_y_rule_matches_triple_product():
    # [S_uv, Y_w] = -Y_{vuw}
    u, v, w = (jordan.random_herm(rng, 2) for _ in range(3))
    br = conformal.co_bracket(2, s_element(u, v), y_element(w))
    x, s, y = _parts(2, br)
    expected = jordan.triple_product(v, u, w) * -1.0
    assert np.linalg.norm(y - expected) < 1e-10
    assert np.linalg.norm(x) < 1e-10 and np.linalg.norm(s) < 1e-10


def test_s_x_rule_matches_triple_product():
    u, v, z = (jordan.random_herm(rng, 2) for _ in range(3))
    br = conformal.co_bracket(2, s_element(u, v), x_element(z))
    x, s, y = _parts(2, br)
    expected = jordan.triple_product(u, v, z)
    assert np.linalg.norm(x - expected) < 1e-10
    assert np.linalg.norm(s) < 1e-10 and np.linalg.norm(y) < 1e-10


def test_antisymmetry_and_bilinearity():
    a, b, c = conformal.random_element(rng, 2, 3).T
    assert np.linalg.norm(conformal.co_bracket(2, a, b) + conformal.co_bracket(2, b, a)) < 1e-11
    lhs = conformal.co_bracket(2, a + b, c)
    rhs = conformal.co_bracket(2, a, c) + conformal.co_bracket(2, b, c)
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_jacobi_random():
    for n in (1, 2, 3):
        worst = 0.0
        for _ in range(60):
            a, b, c = conformal.random_element(rng, n, 3).T
            worst = max(worst, conformal.jacobi_residual(n, a, b, c))
        assert worst < 1e-10


def test_jacobi_degenerate():
    a, c = conformal.random_element(rng, 2, 2).T
    assert conformal.jacobi_residual(2, a, a, c) < 1e-11


def test_jacobi_all_basis_triples():
    for n in (1, 2, 3):
        assert conformal.jacobi_tensor_residual(n) < 1e-10


@pytest.mark.parametrize("budget", [None, 80 * 40])
def test_jacobi_tensor_matches_the_dense_sum(monkeypatch, budget):
    # the blocked COO sum against the dense cyclic Jacobiator of every basis
    # triple, on a C with the [S, S] block negated so that it is far from
    # zero, with whole rows and with rows split into many blocks
    n = 2
    i, j, k, v = c = conformal.structure_constants(n)
    _, gs, _ = _grades(n)
    bad = (i, j, k, np.where(_select(n, c, gs, gs, gs), -v, v))
    dense = _dense(n, bad)
    cyc = (np.einsum("bcd,ade->abce", dense, dense) + np.einsum("cad,bde->abce", dense, dense)
           + np.einsum("abd,cde->abce", dense, dense))
    _patched(monkeypatch, bad)
    if budget is not None:
        monkeypatch.setattr(conformal, "_BLOCK_BYTES", budget)
    worst = np.abs(cyc).max()
    assert worst > 0.1
    assert abs(conformal.jacobi_tensor_residual(n) - worst) < 1e-13 * worst


def test_closure():
    for n in (1, 2, 3):
        assert conformal.closure_residual(n) < 1e-10


@pytest.mark.parametrize("n", range(1, 6))
def test_closure_matches_the_dense_check(n):
    # the sparse joins against the dense (d, d, d) L stack and bincount
    # S-action; n = 5 may differ in the last bit with another BLAS
    sparse, dense = conformal.closure_residual(n), closure_residual_dense(n)
    if n <= 4:
        assert sparse == dense
    else:
        assert abs(sparse - dense) <= 1e-15


def test_closure_detects_a_wrong_jordan_product(monkeypatch):
    # with every L_u scaled by 1.5, S_{e_a} = L_{e_a} and [L_a, L_b] =
    # S_{[e_a, e_b]/2} both fail
    true_l = jordan.L_operator
    monkeypatch.setattr(jordan, "L_operator", lambda u: 1.5 * true_l(u))
    assert conformal.closure_residual(2) > 1e-10


def test_closure_detects_a_wrong_sign_in_the_basis_gather(monkeypatch):
    # L_operator reads the basis action off jordan.basis_gather, the gather
    # that family_values and pullback_check read too; a sign flipped in any
    # one of its entries fails the closure check against C
    idx, val = jordan.basis_gather(2)
    for a, x in np.argwhere(val):
        bad = val.copy()
        bad[a, x] = -bad[a, x]
        monkeypatch.setattr(jordan, "basis_gather", lambda n, bad=bad: (idx, bad))
        assert conformal.closure_residual(2) > 1e-10


@pytest.mark.parametrize("n", range(2, 7))
def test_closure_stays_within_its_budget(n):
    """closure_residual peaks within _BLOCK_BYTES beside 8 d^3 bytes, the
    size of a (d, d, d) stack of the L_{e_a}, which it does not build."""
    conformal.closure_residual(n)  # warm the cached basis and constants
    d = jordan.dim_v(n)
    tracemalloc.start()
    try:
        conformal.closure_residual(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= conformal._BLOCK_BYTES + 8 * d**3


def test_closure_stays_within_its_budget_at_n8():
    """At n = 8 (d = 120) closure_residual peaks within _BLOCK_BYTES beside
    one L_operator call, which is where it builds each L_{e_b}."""
    n = 8
    conformal.closure_residual(n)  # warm the cached basis and constants
    e = jordan.orthonormal_basis(n)[-1]
    tracemalloc.start()
    try:
        jordan.L_operator(e)
        l_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        conformal.closure_residual(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= conformal._BLOCK_BYTES + l_peak


def test_span_invariant_rejects_outsiders():
    d = jordan.dim_v(2)
    s = rng.standard_normal((d, d))
    # a generic matrix is far from the 16-dimensional span inside 36 dims
    assert conformal.span_residual(2, s) > 1e-3


def test_bracket_lands_in_span():
    # the component rules, applied to the parts of two random elements,
    # give an s-part whose action on V is inside the span and agree with the
    # bracket from the structure constants
    a, b = conformal.random_element(rng, 2, 2).T
    (xa, ma, ya), (xb, mb, yb) = _parts(2, a), _parts(2, b)
    x_new = jordan.from_coords(s_operator(ma) @ jordan.coords(xb)
                               - s_operator(mb) @ jordan.coords(xa), 2)
    y_new = jordan.from_coords(-(s_operator(mat_dagger(ma)) @ jordan.coords(yb))
                               + s_operator(mat_dagger(mb)) @ jordan.coords(ya), 2)
    m_new = ((mat_mul(ma, mb) - mat_mul(mb, ma)) * 0.5 - 2.0 * mat_mul(xa, yb)
             + 2.0 * mat_mul(xb, ya))
    assert conformal.span_residual(2, s_operator(m_new)) < 1e-10
    x, m, y = _parts(2, conformal.co_bracket(2, a, b))
    assert np.linalg.norm(x - x_new) < 1e-10
    assert np.abs(m - m_new).max() < 1e-10
    assert np.linalg.norm(y - y_new) < 1e-10


def test_s_s_rule_matches_structure_operators():
    # [S_uv, S_zw] = S_{{uvz}w} - S_{z{vuw}}, with the right-hand side built
    # by S_operator from triple products, not from the structure
    # constants
    u, v, z, w = (jordan.random_herm(rng, 2) for _ in range(4))
    br = conformal.co_bracket(2, s_element(u, v), s_element(z, w))
    x, s, y = _parts(2, br)
    expected = (S_operator(jordan.triple_product(u, v, z), w)
                - S_operator(z, jordan.triple_product(v, u, w)))
    assert np.abs(s_operator(s) - expected).max() < 1e-10
    assert np.linalg.norm(x) < 1e-10 and np.linalg.norm(y) < 1e-10


def test_jacobi_detects_a_wrong_sign(monkeypatch):
    # negating the [S, Y] or the [S, X] block (with its antisymmetric
    # partner) breaks the Jacobi identity; the [X, Y] block is left out,
    # since negating it is the automorphism Y -> -Y
    n = 2
    i, j, k, v = conformal.structure_constants(n)
    gx, gs, gy = _grades(n)
    c = (i, j, k, v)
    for g in (gy, gx):
        flip = _select(n, c, gs, g, g) | _select(n, c, g, gs, g)
        _patched(monkeypatch, (i, j, k, np.where(flip, -v, v)))
        assert conformal.jacobi_tensor_residual(n) > 1e-10


def test_jacobi_detects_a_wrong_sign_in_the_s_s_block(monkeypatch):
    # [S_m, S_m'] = -S_{[m, m']/2} is still antisymmetric and graded, but S
    # then no longer acts on V as a representation
    n = 2
    i, j, k, v = c = conformal.structure_constants(n)
    _, gs, _ = _grades(n)
    _patched(monkeypatch, (i, j, k, np.where(_select(n, c, gs, gs, gs), -v, v)))
    assert conformal.jacobi_tensor_residual(n) > 1e-10


def test_jacobi_detects_an_asymmetric_bracket(monkeypatch):
    # [X_0, Y_0] moved by 1e-3 along S_1, which C does not have, without its
    # partner [Y_0, X_0]; the derivation form of the Jacobi sum relies on
    # antisymmetry and alone need not see it
    n = 2
    i, j, k, v = conformal.structure_constants(n)
    d, r = jordan.dim_v(n), conformal.str_dimension(n)
    assert not np.any((i == 0) & (j == d + r) & (k == d + 1))
    _patched(monkeypatch, (np.append(i, 0), np.append(j, d + r), np.append(k, d + 1),
                           np.append(v, 1e-3)))
    # of the size of the defect: the lone entry is checked against its
    # missing transpose, not against a neighbouring key of C
    assert 1e-3 <= conformal.jacobi_tensor_residual(n) < 2e-3


def test_jacobi_detects_an_off_grade_bracket(monkeypatch):
    # [X_0, X_1] = S_0, antisymmetric but in a block the 3-grading forces
    # to zero
    n = 2
    i, j, k, v = conformal.structure_constants(n)
    d = jordan.dim_v(n)
    _patched(monkeypatch, (np.append(i, [0, 1]), np.append(j, [1, 0]), np.append(k, [d, d]),
                           np.append(v, [1.0, -1.0])))
    assert conformal.jacobi_tensor_residual(n) >= 1.0


def test_closure_detects_a_wrong_action(monkeypatch):
    # the [S, X] block rebuilt from S_m(z) = (mz - zm^dag)/2: its V-part
    # vanishes, so S_{e_a} no longer equals L_{e_a}
    n = 2
    d, r = jordan.dim_v(n), conformal.str_dimension(n)
    c = conformal.structure_constants(n)
    gx, gs, _ = _grades(n)
    keep = ~(_select(n, c, gs, gx, gx) | _select(n, c, gx, gs, gx))
    basis = np.eye(r).reshape(r, n, n, 4)
    wrong = np.array([s_operator(m, sign=-1.0) for m in basis])  # [m, c, b]
    m, cc, b = np.nonzero(wrong)
    val = wrong[m, cc, b]
    _patched(monkeypatch, (np.concatenate([c[0][keep], d + m, b]),
                           np.concatenate([c[1][keep], b, d + m]),
                           np.concatenate([c[2][keep], cc, cc]),
                           np.concatenate([c[3][keep], val, -val])))
    assert conformal.closure_residual(n) > 1e-10


def test_s_action_without_s_x_entries_is_float(monkeypatch):
    # with the [S, X] block of C emptied nothing is selected, and the action
    # is float64 zeros, not bincount's int64 ones
    n = 2
    d, r = jordan.dim_v(n), conformal.str_dimension(n)
    c = conformal.structure_constants(n)
    gx, gs, _ = _grades(n)
    keep = ~(_select(n, c, gs, gx, gx) | _select(n, c, gx, gs, gx))
    _patched(monkeypatch, tuple(x[keep] for x in c))
    out = s_action(n, np.eye(r)[:3])
    assert out.dtype == np.float64
    assert out.shape == (3, d, d)
    assert not out.any()


def test_random_jacobi_max_does_not_depend_on_the_block(monkeypatch):
    n, triples = 2, 40
    results, states = [], []
    for k in (1, 7, None):
        if k is not None:
            monkeypatch.setattr(conformal, "_BLOCK_BYTES", triple_block_bytes(k, n))
        r = np.random.default_rng(5)
        results.append(conformal.jacobi_random_max(n, r, triples))
        states.append(r.bit_generator.state)
    r = np.random.default_rng(5)
    single = max(conformal.jacobi_residual(n, *conformal.random_element(r, n, 3).T)
                 for _ in range(triples))
    assert results[0] > 0.0
    for value in results[1:] + [single]:
        assert abs(value - results[0]) <= 1e-15 * results[0]
    assert states[0] == states[1] == states[2] == r.bit_generator.state


@pytest.mark.parametrize("n", range(2, 5))
def test_random_jacobi_block_stays_near_its_budget(n):
    """One full block of random triples peaks within _BLOCK_BYTES, with a
    numpy Generator and with SeededRng, whose Box-Muller temporaries the
    draw includes: the budget counts the triples' coordinates, their one
    draw and the bincount buffers of their brackets."""
    triples = max(1, conformal._BLOCK_BYTES // triple_block_bytes(1, n))
    for make_rng in (np.random.default_rng, SeededRng):
        conformal.jacobi_random_max(n, make_rng(5), 1)  # warm the cached constants
        tracemalloc.start()
        try:
            conformal.jacobi_random_max(n, make_rng(6), triples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0 * conformal._BLOCK_BYTES
