import numpy as np
import pytest

from sp1kepler import jordan, realization
from sp1kepler.poisson import PhasePoint, bracket_exact, quad_residual
from sp1kepler.quat import UNITS, dagger_product, im, norm, random_unit_quaternion

rng = np.random.default_rng(99)


def test_exact_relation_families_small():
    rep = realization.verify_so_star_relations(2, tol=1e-12)
    assert rep["passed"], rep
    assert rep["max_residual"] < 1e-12


def test_relation_sweep_detects_a_wrong_bracket(monkeypatch):
    # a bracket off by a fixed symmetric matrix must fail every family
    n = 2
    real = realization.quad_bracket
    shift = np.eye(8 * n) + np.ones((8 * n, 8 * n))

    def wrong(a, b):
        return real(a, b) + shift

    monkeypatch.setattr(realization, "quad_bracket", wrong)
    rep = realization.verify_so_star_relations(n, tol=1e-12)
    assert len(rep["residuals"]) == 6
    for name, r in rep["residuals"].items():
        assert r > rep["tol"], name
    assert not rep["passed"]


def test_ss_quadruple_spot_check():
    assert realization.verify_ss_quadruples(2, np.random.default_rng(1), count=50) < 1e-12


def test_l_is_s_e_u():
    basis = jordan.orthonormal_basis(2)
    e = jordan.identity(2)
    for u in basis:
        lhs = realization.l_observable(u)
        rhs = realization.s_pair_observable(e, u)
        assert quad_residual(lhs, rhs) < 1e-13


def test_sphere_relations_cyclic():
    # {xi^1, xi^2} = xi^3 and cyclic permutations, exactly
    for n in (2, 3):
        xi = realization.xi_observables(n)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            assert quad_residual(bracket_exact(xi[a], xi[b]), xi[c]) < 1e-12


def test_xi_norm_is_mu():
    p = realization.sample_leaf(realization.LeafSpec(2, 1.3), rng)
    xi = realization.xi_observables(2)
    vals = np.array([o.evaluate(p) for o in xi])
    assert abs(np.linalg.norm(vals) - realization.mu_of(p)) < 1e-12


def test_moment_maps():
    p = realization.sample_leaf(realization.LeafSpec(2, 0.8), rng)
    rho = realization.moment_rho(p)
    assert rho[0] == 0.0
    assert abs(0.5 * norm(rho) - realization.mu_of(p)) < 1e-13
    # psi vanishes at xi = rho/2
    psi = realization.moment_psi(p, rho * 0.5)
    assert norm(psi) < 1e-12
    # psi is only defined for imaginary xi
    with pytest.raises(ValueError):
        realization.moment_psi(p, UNITS[0])


def test_leaf_sampling_hits_target():
    for mu in (0.0, 0.5, 2.0):
        for _ in range(10):
            p = realization.sample_leaf(realization.LeafSpec(3, mu), rng)
            assert abs(realization.mu_of(p) - mu) < 1e-10


def test_leaf_sampling_mu_zero_real_pairing():
    p = realization.sample_leaf(realization.LeafSpec(2, 0.0), rng)
    assert norm(im(dagger_product(p.W, p.Z))) < 1e-10


def test_family_values_match_observables():
    n = 2
    basis = jordan.orthonormal_basis(n)
    e = jordan.identity(n)
    p = realization.sample_leaf(realization.LeafSpec(n, 1.0), rng)
    zs, ws = realization._stack_points([p])
    v = realization.family_values(n, zs, ws)
    for a, u in enumerate(basis):
        assert abs(realization.x_observable(u).evaluate(p) - v["X"][0, a]) < 1e-12
        assert abs(realization.y_observable(u).evaluate(p) - v["Y"][0, a]) < 1e-12
        assert abs(realization.l_observable(u).evaluate(p) - v["L"][0, a]) < 1e-12
        for b, w in enumerate(basis):
            lab = realization.l_pair_observable(u, w)
            assert abs(lab.evaluate(p) - v["Lpair"][0, a, b]) < 1e-12
    assert abs(realization.x_observable(e).evaluate(p) - v["X_e"][0]) < 1e-12
    assert abs(realization.y_observable(e).evaluate(p) - v["Y_e"][0]) < 1e-12


def test_l_pair_antisymmetric():
    basis = jordan.orthonormal_basis(2)
    for _ in range(5):
        a, b = rng.integers(0, basis.dim, size=2)
        s = realization.l_pair_observable(basis[a], basis[b]) + realization.l_pair_observable(
            basis[b], basis[a]
        )
        assert s.norm() < 1e-13


def test_primary_quadratic_relation():
    for n in (2, 3):
        pts = [realization.sample_leaf(realization.LeafSpec(n, m), rng)
               for m in (0.0, 1.0) for _ in range(25)]
        zs, ws = realization._stack_points(pts)
        assert realization.primary_quadratic_residuals(n, zs, ws).max() < 1e-12


def test_secondary_and_energy_relations():
    for n in (2, 3):
        pts = [realization.sample_leaf(realization.LeafSpec(n, m), rng)
               for m in (0.0, 0.5, 3.0) for _ in range(20)]
        zs, ws = realization._stack_points(pts)
        v = realization.family_values(n, zs, ws)
        sec = realization.secondary_quadratic_residuals(n, zs, ws, v)
        assert sec.max() < 1e-12, sec.max(axis=1)
        assert realization.energy_formula_residuals(n, zs, ws, v).max() < 1e-12


def test_hand_point():
    # Z = (1, 0), W = (2k, 0) at n = 2: H = -1/2 and relation (v) gives 2 = 2
    z = np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]])
    w = np.array([[0.0, 0, 0, 2], [0, 0, 0, 0]])
    p = PhasePoint(z, w)
    zs, ws = realization._stack_points([p])
    v = realization.family_values(2, zs, ws)
    x_e, y_e, l_e, mu = (float(v[k][0]) for k in ("X_e", "Y_e", "L_e", "mu"))
    h = 0.5 * x_e / y_e - 1.0 / y_e
    assert abs(h + 0.5) < 1e-14
    assert abs(mu - 1.0) < 1e-14
    lhs = float(np.einsum("d,d->", v["X"][0], v["Y"][0]))
    rhs = 2.0 * (l_e**2 + mu**2)
    assert abs(lhs - 2.0) < 1e-13
    assert abs(rhs - 2.0) < 1e-13


def test_fiber_invariance_of_family():
    # all family values are Sp(1)-invariant
    n = 2
    p = realization.sample_leaf(realization.LeafSpec(n, 1.0), rng)
    g = random_unit_quaternion(rng)
    q = p.transformed(g)
    v1 = realization.family_values(n, *realization._stack_points([p]))
    v2 = realization.family_values(n, *realization._stack_points([q]))
    for key in ("X", "Y", "L", "Lpair", "X_e", "Y_e", "L_e", "mu"):
        assert np.abs(np.asarray(v1[key]) - np.asarray(v2[key])).max() < 1e-12


def test_leaf_spec_validation():
    with pytest.raises(ValueError):
        realization.LeafSpec(2, -1.0)
    with pytest.raises(ValueError):
        realization.LeafSpec(0, 1.0)
