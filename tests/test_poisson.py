import numpy as np
import pytest
from helpers import (
    bracket_numeric,
    conj,
    evaluate_batch,
    quad_value,
    random_phase_point,
    random_quad_observable,
    random_qvector,
    random_unit_quaternion,
    transformed,
    vec_inner,
)

from sp1kepler import dynamics, sternberg
from sp1kepler.poisson import (
    bracket_exact,
    family_bracket,
    poisson_j,
    quad_residual,
)
from sp1kepler.quat import entries

rng = np.random.default_rng(4242)


def test_phase_point_domain_guard():
    # the flat state carries no guard of its own: the functions undefined
    # at Z = 0 refuse it
    n = 2
    z = np.zeros((n, 4))
    with pytest.raises(ValueError):
        dynamics.hamiltonian_upstairs(np.concatenate((z, random_qvector(rng, n)), axis=None))
    with pytest.raises(ValueError):
        sternberg.cone_point(z)


def test_basic_bracket_relation():
    # {<U, Z>^2/2, <V, W>^2/2} = <U, V> <U, Z> <V, W> for constant U, V:
    # with u = (U, 0) and v = (0, V) the matrices are u u^T and v v^T, and
    # the bracket's is <U, V> (u v^T + v u^T); its sign pins {Z, W} = +1
    n = 2
    for _ in range(20):
        u = np.concatenate((random_qvector(rng, n), np.zeros((n, 4))), axis=None)
        v = np.concatenate((np.zeros((n, 4)), random_qvector(rng, n)), axis=None)
        br = bracket_exact(np.outer(u, u), np.outer(v, v))
        expected = vec_inner(u[: 4 * n], v[4 * n :]) * (np.outer(u, v) + np.outer(v, u))
        assert quad_residual(br, expected) < 1e-13


def test_bracket_antisymmetry_and_leibniz_on_linear():
    n = 2
    f = random_quad_observable(rng, n)
    g = random_quad_observable(rng, n)
    anti = bracket_exact(f, g) + bracket_exact(g, f)
    assert np.linalg.norm(anti) < 1e-10


def test_jacobi_for_quadratics():
    n = 2
    f, g, h = (random_quad_observable(rng, n) for _ in range(3))
    total = (
        bracket_exact(f, bracket_exact(g, h))
        + bracket_exact(g, bracket_exact(h, f))
        + bracket_exact(h, bracket_exact(f, g))
    )
    size = np.linalg.norm(f) * np.linalg.norm(g) * np.linalg.norm(h)
    assert np.linalg.norm(total) < 1e-9 * max(1.0, size)


def test_numeric_oracle_agreement():
    n = 2
    worst = 0.0
    for _ in range(50):
        f = random_quad_observable(rng, n)
        g = random_quad_observable(rng, n)
        p = random_phase_point(rng, n)
        exact = quad_value(bracket_exact(f, g), p)
        numeric = bracket_numeric(f, g, p, h=1e-5)
        worst = max(worst, abs(exact - numeric) / max(1.0, abs(exact)))
    assert worst < 1e-6


def test_numeric_oracle_on_callable():
    n = 2
    p = random_phase_point(rng, n)

    def f(z):
        return float(np.sin(z[0]) + z[3] ** 2)

    def g(z):
        return float(z[8 * n // 2] * z[0])

    # compare against the gradient formula evaluated with tiny analytic steps
    val = bracket_numeric(f, g, p, h=1e-5)
    j = poisson_j(n)
    gf = np.zeros_like(p)
    gf[0] = np.cos(p[0])
    gf[3] = 2 * p[3]
    gg = np.zeros_like(p)
    gg[8 * n // 2] = p[0]
    gg[0] = p[8 * n // 2]
    assert abs(val - float(gf @ j @ gg)) < 1e-8


def test_quad_residual_zero_and_scale():
    f = random_quad_observable(rng, 2)
    assert quad_residual(f, f) == 0.0
    g = f * (1.0 + 1e-13)
    assert quad_residual(f, g) < 1e-12


def test_evaluate_batch_matches_pointwise():
    f = random_quad_observable(rng, 2)
    pts = np.array([random_phase_point(rng, 2) for _ in range(10)])
    batch = evaluate_batch(f, pts)
    single = np.array([quad_value(f, p) for p in pts])
    assert np.allclose(batch, single, atol=1e-12)


def test_gauge_transform_preserves_bracket_values():
    # the right Sp(1) action is canonical: bracket values match at moved points
    n = 2
    g_unit = random_unit_quaternion(rng)
    f = random_quad_observable(rng, n)
    g = random_quad_observable(rng, n)
    p = random_phase_point(rng, n)
    p2 = np.concatenate(transformed(*p.reshape(2, n, 4), g_unit), axis=None)
    # evaluate the same geometric statement numerically: the bracket of the
    # transported observables at the transported point equals the original
    def transport(obs):
        def fn(flat):
            back = transformed(*flat.reshape(2, n, 4), conj(g_unit))
            return quad_value(obs, np.concatenate(back, axis=None))

        return fn

    lhs = bracket_numeric(transport(f), transport(g), p2, h=1e-5)
    rhs = quad_value(bracket_exact(f, g), p)
    assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(rhs))


@pytest.mark.parametrize("n", range(1, 4))
def test_family_bracket_sums_to_bracket_exact(n):
    # a random symmetric A against sparse symmetric B_f, one of them zero:
    # the terms summed by (f, row, col) are the exact bracket of each pair
    w = 8 * n
    gen = np.random.default_rng(n)
    a = random_quad_observable(gen, n)
    bs = np.zeros((4, w, w))
    for b in bs[:3]:
        r, c = gen.integers(0, w, size=(2, 5))
        b[r, c] = gen.standard_normal(5)
        b += b.T
    f, r, c, v = family_bracket(a, entries(bs))
    got = np.bincount((f * w + r) * w + c, v, bs.size).reshape(bs.shape)
    for b, g in zip(bs, got):
        assert np.abs(g - bracket_exact(a, b)).max() <= 1e-13 * max(1.0, np.abs(g).max())
    assert not got[3].any()
