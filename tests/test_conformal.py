import numpy as np
import pytest

from sp1kepler import conformal, jordan

rng = np.random.default_rng(31)


def test_dimensions():
    assert conformal.co_dimension(2) == 28
    assert conformal.co_dimension(3) == 66
    assert conformal.str_dimension(2) == 16
    assert conformal.str_dimension(3) == 36


def test_bracket_examples():
    e = jordan.identity(2)
    # [S_ee, X_e] = X_{eee} = X_e
    br = conformal.co_bracket(conformal.s_element(e, e), conformal.x_element(e))
    assert (br - conformal.x_element(e)).norm() < 1e-12
    # [X_e, Y_e] = -2 S_ee = -2 L_e (the identity operator on V)
    br = conformal.co_bracket(conformal.x_element(e), conformal.y_element(e))
    assert np.abs(br.s + 2 * jordan.L_operator(e)).max() < 1e-12
    assert jordan.inner(br.x, br.x) < 1e-24
    assert jordan.inner(br.y, br.y) < 1e-24


def test_xx_yy_vanish():
    u, v = jordan.random_herm(rng, 2), jordan.random_herm(rng, 2)
    assert conformal.co_bracket(conformal.x_element(u), conformal.x_element(v)).norm() < 1e-12
    assert conformal.co_bracket(conformal.y_element(u), conformal.y_element(v)).norm() < 1e-12


def test_s_y_rule_matches_triple_product():
    # [S_uv, Y_w] = -Y_{vuw} via the transpose rule
    u, v, w = (jordan.random_herm(rng, 2) for _ in range(3))
    br = conformal.co_bracket(conformal.s_element(u, v), conformal.y_element(w))
    expected = jordan.triple_product(v, u, w) * -1.0
    assert np.linalg.norm(br.y - expected) < 1e-10


def test_s_x_rule_matches_triple_product():
    u, v, z = (jordan.random_herm(rng, 2) for _ in range(3))
    br = conformal.co_bracket(conformal.s_element(u, v), conformal.x_element(z))
    expected = jordan.triple_product(u, v, z)
    assert np.linalg.norm(br.x - expected) < 1e-10


def test_antisymmetry_and_bilinearity():
    a = conformal.random_element(rng, 2)
    b = conformal.random_element(rng, 2)
    assert (conformal.co_bracket(a, b) + conformal.co_bracket(b, a)).norm() < 1e-11
    c = conformal.random_element(rng, 2)
    lhs = conformal.co_bracket(a + b, c)
    rhs = conformal.co_bracket(a, c) + conformal.co_bracket(b, c)
    assert (lhs - rhs).norm() < 1e-10


def test_jacobi_random():
    for n in (2, 3):
        worst = 0.0
        for _ in range(60):
            a, b, c = (conformal.random_element(rng, n) for _ in range(3))
            worst = max(worst, conformal.jacobi_residual(a, b, c))
        assert worst < 1e-10


def test_jacobi_degenerate():
    a = conformal.random_element(rng, 2)
    c = conformal.random_element(rng, 2)
    assert conformal.jacobi_residual(a, a, c) < 1e-11


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
    with pytest.raises(ValueError):
        conformal.ConformalElement(
            jordan.random_herm(rng, 2), s, jordan.random_herm(rng, 2)
        )


def test_bracket_lands_in_span():
    a = conformal.random_element(rng, 2)
    b = conformal.random_element(rng, 2)
    br = conformal.co_bracket(a, b)
    assert conformal.span_residual(2, br.s) < 1e-10
