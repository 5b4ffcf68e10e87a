import numpy as np
import pytest
from helpers import (
    bracket_numeric,
    evaluate_batch,
    random_phase_point,
    random_quad_observable,
    random_qvector,
    random_unit_quaternion,
    transformed,
)

from sp1kepler.poisson import (
    PhasePoint,
    QuadObservable,
    bracket_exact,
    poisson_j,
    quad_residual,
)
from sp1kepler.quat import conj, vec_inner

rng = np.random.default_rng(4242)


def test_phase_point_round_trip():
    p = random_phase_point(rng, 3)
    q = PhasePoint.unflatten(p.flatten(), 3)
    assert np.allclose(p.flatten(), q.flatten())


def test_phase_point_domain_guard():
    z = np.zeros((2, 4))
    with pytest.raises(ValueError):
        PhasePoint(z, random_qvector(rng, 2))
    with pytest.raises(ValueError):
        PhasePoint(random_qvector(rng, 2), random_qvector(rng, 3))


def test_basic_bracket_relation():
    # {<U, Z>, <V, W>} = <U, V> for constant U, V
    n = 2
    for _ in range(20):
        u = random_qvector(rng, n)
        v = random_qvector(rng, n)
        f = QuadObservable(
            np.zeros((8 * n, 8 * n)), np.concatenate([u.reshape(-1), np.zeros(4 * n)])
        )
        g = QuadObservable(
            np.zeros((8 * n, 8 * n)), np.concatenate([np.zeros(4 * n), v.reshape(-1)])
        )
        br = bracket_exact(f, g)
        assert np.linalg.norm(br.A) == 0.0
        assert np.linalg.norm(br.b) == 0.0
        assert abs(br.c - vec_inner(u, v)) < 1e-13


def test_bracket_antisymmetry_and_leibniz_on_linear():
    n = 2
    f = random_quad_observable(rng, n)
    g = random_quad_observable(rng, n)
    anti = bracket_exact(f, g) + bracket_exact(g, f)
    assert anti.norm() < 1e-10


def test_jacobi_for_quadratics():
    n = 2
    f, g, h = (random_quad_observable(rng, n) for _ in range(3))
    total = (
        bracket_exact(f, bracket_exact(g, h))
        + bracket_exact(g, bracket_exact(h, f))
        + bracket_exact(h, bracket_exact(f, g))
    )
    assert total.norm() < 1e-9 * max(1.0, f.norm() * g.norm() * h.norm())


def test_numeric_oracle_agreement():
    n = 2
    worst = 0.0
    for _ in range(50):
        f = random_quad_observable(rng, n)
        g = random_quad_observable(rng, n)
        p = random_phase_point(rng, n)
        exact = bracket_exact(f, g).evaluate(p)
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
    zf = p.flatten()
    gf = np.zeros_like(zf)
    gf[0] = np.cos(zf[0])
    gf[3] = 2 * zf[3]
    gg = np.zeros_like(zf)
    gg[8 * n // 2] = zf[0]
    gg[0] = zf[8 * n // 2]
    assert abs(val - float(gf @ j @ gg)) < 1e-8


def test_quad_residual_zero_and_scale():
    f = random_quad_observable(rng, 2)
    assert quad_residual(f, f) == 0.0
    g = f.scale(1.0 + 1e-13)
    assert quad_residual(f, g) < 1e-12


def test_evaluate_batch_matches_pointwise():
    f = random_quad_observable(rng, 2)
    pts = np.array([random_phase_point(rng, 2).flatten() for _ in range(10)])
    batch = evaluate_batch(f, pts)
    single = np.array([f.evaluate(p) for p in pts])
    assert np.allclose(batch, single, atol=1e-12)


def test_gauge_transform_preserves_bracket_values():
    # the right Sp(1) action is canonical: bracket values match at moved points
    n = 2
    g_unit = random_unit_quaternion(rng)
    f = random_quad_observable(rng, n)
    g = random_quad_observable(rng, n)
    p = random_phase_point(rng, n)
    p2 = transformed(p, g_unit)
    # evaluate the same geometric statement numerically: the bracket of the
    # transported observables at the transported point equals the original
    def transport(obs):
        def fn(flat):
            q = PhasePoint.unflatten(flat, n)
            back = transformed(q, conj(g_unit))
            return obs.evaluate(back)

        return fn

    lhs = bracket_numeric(transport(f), transport(g), p2, h=1e-5)
    rhs = bracket_exact(f, g).evaluate(p)
    assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(rhs))
