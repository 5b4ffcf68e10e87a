import tracemalloc

import numpy as np
import pytest
from helpers import s_tensor_oracle, triple_block_bytes

from sp1kepler import conformal, jordan

rng = np.random.default_rng(31)


def _parts(n, c):
    """The hermitian x-part, the (d, d) operator s-part and the y-part of c."""
    d = jordan.dim_v(n)
    s = np.einsum("r,rij->ij", c[d:-d], conformal.str_span(n))
    return jordan.from_coords(c[:d], n), s, jordan.from_coords(c[-d:], n)


def test_dimensions():
    assert conformal.co_dimension(2) == 28
    assert conformal.co_dimension(3) == 66
    assert conformal.str_dimension(2) == 16
    assert conformal.str_dimension(3) == 36


def test_n1_dimensions():
    # at n = 1 the structure operators span only the identity on V = R
    assert conformal.str_dimension(1) == 1
    assert conformal.co_dimension(1) == 3


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
    br = conformal.co_bracket(2, conformal.s_element(e, e), conformal.x_element(e))
    assert np.linalg.norm(br - conformal.x_element(e)) < 1e-12
    # [X_e, Y_e] = -2 S_ee = -2 L_e (the identity operator on V), checked
    # against Jordan multiplication rather than the structure tensor
    br = conformal.co_bracket(2, conformal.x_element(e), conformal.y_element(e))
    x, s, y = _parts(2, br)
    assert np.abs(s + 2 * jordan.L_operator(e)).max() < 1e-12
    assert jordan.inner(x, x) < 1e-24
    assert jordan.inner(y, y) < 1e-24


def test_xx_yy_vanish():
    u, v = jordan.random_herm(rng, 2), jordan.random_herm(rng, 2)
    xx = conformal.co_bracket(2, conformal.x_element(u), conformal.x_element(v))
    yy = conformal.co_bracket(2, conformal.y_element(u), conformal.y_element(v))
    assert np.linalg.norm(xx) < 1e-12
    assert np.linalg.norm(yy) < 1e-12


def test_s_y_rule_matches_triple_product():
    # [S_uv, Y_w] = -Y_{vuw} via the transpose rule
    u, v, w = (jordan.random_herm(rng, 2) for _ in range(3))
    br = conformal.co_bracket(2, conformal.s_element(u, v), conformal.y_element(w))
    x, s, y = _parts(2, br)
    expected = jordan.triple_product(v, u, w) * -1.0
    assert np.linalg.norm(y - expected) < 1e-10
    assert np.linalg.norm(x) < 1e-10 and np.linalg.norm(s) < 1e-10


def test_s_x_rule_matches_triple_product():
    u, v, z = (jordan.random_herm(rng, 2) for _ in range(3))
    br = conformal.co_bracket(2, conformal.s_element(u, v), conformal.x_element(z))
    x, s, y = _parts(2, br)
    expected = jordan.triple_product(u, v, z)
    assert np.linalg.norm(x - expected) < 1e-10
    assert np.linalg.norm(s) < 1e-10 and np.linalg.norm(y) < 1e-10


def test_antisymmetry_and_bilinearity():
    a = conformal.random_element(rng, 2)
    b = conformal.random_element(rng, 2)
    assert np.linalg.norm(conformal.co_bracket(2, a, b) + conformal.co_bracket(2, b, a)) < 1e-11
    c = conformal.random_element(rng, 2)
    lhs = conformal.co_bracket(2, a + b, c)
    rhs = conformal.co_bracket(2, a, c) + conformal.co_bracket(2, b, c)
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_jacobi_random():
    for n in (2, 3):
        worst = 0.0
        for _ in range(60):
            a, b, c = (conformal.random_element(rng, n) for _ in range(3))
            worst = max(worst, conformal.jacobi_residual(n, a, b, c))
        assert worst < 1e-10


def test_jacobi_degenerate():
    a = conformal.random_element(rng, 2)
    c = conformal.random_element(rng, 2)
    assert conformal.jacobi_residual(2, a, a, c) < 1e-11


def test_jacobi_all_basis_triples():
    for n in (2, 3):
        assert conformal.jacobi_tensor_residual(n) < 1e-10


def test_closure():
    assert conformal.closure_residual(2) < 1e-10


def test_span_invariant_rejects_outsiders():
    d = jordan.dim_v(2)
    s = rng.standard_normal((d, d))
    # a generic matrix is far from the 16-dimensional span inside 36 dims
    assert conformal.span_residual(2, s) > 1e-3


def test_bracket_lands_in_span():
    # the component rules, applied to the parts of two random elements,
    # give an s-part inside the span and agree with the tensor bracket
    a = conformal.random_element(rng, 2)
    b = conformal.random_element(rng, 2)
    (xa, sa, ya), (xb, sb, yb) = _parts(2, a), _parts(2, b)
    x_new = jordan.from_coords(sa @ jordan.coords(xb) - sb @ jordan.coords(xa), 2)
    y_new = jordan.from_coords(-(sa.T @ jordan.coords(yb)) + sb.T @ jordan.coords(ya), 2)
    s_new = (sa @ sb - sb @ sa - 2.0 * conformal.s_matrix(xa, yb)
             + 2.0 * conformal.s_matrix(xb, ya))
    assert conformal.span_residual(2, s_new) < 1e-10
    x, s, y = _parts(2, conformal.co_bracket(2, a, b))
    assert np.linalg.norm(x - x_new) < 1e-10
    assert np.abs(s - s_new).max() < 1e-10
    assert np.linalg.norm(y - y_new) < 1e-10


def test_s_s_rule_matches_structure_operators():
    # [S_uv, S_zw] = S_{{uvz}w} - S_{z{vuw}}, with the right-hand side built
    # by jordan.S_operator from triple products, not from the structure tensor
    u, v, z, w = (jordan.random_herm(rng, 2) for _ in range(4))
    br = conformal.co_bracket(2, conformal.s_element(u, v), conformal.s_element(z, w))
    x, s, y = _parts(2, br)
    expected = (jordan.S_operator(jordan.triple_product(u, v, z), w)
                - jordan.S_operator(z, jordan.triple_product(v, u, w)))
    assert np.abs(s - expected).max() < 1e-10
    assert np.linalg.norm(x) < 1e-10 and np.linalg.norm(y) < 1e-10


def test_jacobi_detects_a_wrong_sign(monkeypatch):
    # negating the [S, Y] or the [S, X] block (with its antisymmetric
    # partner) breaks the Jacobi identity; the [X, Y] block is left out,
    # since negating it is the automorphism Y -> -Y
    n = 2
    good = conformal.structure_constants(n)
    d, r = jordan.dim_v(n), conformal.str_dimension(n)
    s = slice(d, d + r)
    for v in (slice(d + r, None), slice(0, d)):
        bad = good.copy()
        bad[s, v, v] *= -1.0
        bad[v, s, v] *= -1.0
        monkeypatch.setattr(conformal, "structure_constants", lambda m, bad=bad: bad)
        assert conformal.jacobi_tensor_residual(n) > 1e-10


def test_jacobi_detects_an_asymmetric_bracket(monkeypatch):
    # [X_0, Y_0] moved by 1e-3 along S_0 without its partner [Y_0, X_0]; the
    # graded sum evaluates one ordering per block type, relies on
    # antisymmetry and alone reports only about 7e-4 here
    n = 2
    bad = conformal.structure_constants(n).copy()
    d, r = jordan.dim_v(n), conformal.str_dimension(n)
    bad[0, d + r, d] += 1e-3
    monkeypatch.setattr(conformal, "structure_constants", lambda m: bad)
    assert conformal.jacobi_tensor_residual(n) >= 1e-3


def test_jacobi_detects_an_off_grade_bracket(monkeypatch):
    # [X_0, X_1] = S_0, antisymmetric but in a block the 3-grading forces
    # to zero; the graded sum never reads it
    n = 2
    bad = conformal.structure_constants(n).copy()
    d = jordan.dim_v(n)
    bad[0, 1, d], bad[1, 0, d] = 1.0, -1.0
    monkeypatch.setattr(conformal, "structure_constants", lambda m: bad)
    assert conformal.jacobi_tensor_residual(n) >= 1.0


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
    single = max(conformal.jacobi_residual(n, *(conformal.random_element(r, n) for _ in range(3)))
                 for _ in range(triples))
    assert results[0] > 0.0
    for value in results[1:] + [single]:
        assert abs(value - results[0]) <= 1e-15 * results[0]
    assert states[0] == states[1] == states[2] == r.bit_generator.state


@pytest.mark.parametrize("n", range(2, 5))
def test_random_jacobi_block_stays_near_its_budget(n):
    """One full block of random triples peaks within 1.1 x _BLOCK_BYTES:
    the budget counts the (3k, dim, dim) ad stack alone, and the triples'
    own coordinates beside it add 1-6% at n = 2-4."""
    triples = max(1, conformal._BLOCK_BYTES // triple_block_bytes(1, n))
    conformal.jacobi_random_max(n, np.random.default_rng(5), 1)  # warm the cached tensors
    tracemalloc.start()
    try:
        conformal.jacobi_random_max(n, np.random.default_rng(6), triples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * conformal._BLOCK_BYTES
