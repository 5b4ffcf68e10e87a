import tracemalloc

import numpy as np
import pytest
from helpers import block_bytes, moment_psi, moment_rho, mu_of, random_unit_quaternion, transformed

from sp1kepler import jordan, poisson, realization
from sp1kepler.poisson import PhasePoint, bracket_exact, quad_residual
from sp1kepler.quat import UNITS, dagger_product, im, norm

rng = np.random.default_rng(99)


def test_exact_relation_families_small():
    res = realization.verify_so_star_relations(2)
    assert max(res.values()) < 1e-12, res


def test_relation_sweep_detects_a_wrong_bracket(monkeypatch):
    # a bracket off by a fixed symmetric matrix, in all four (4n, 4n)
    # blocks, must fail every family
    n = 2
    m = 4 * n
    real = poisson.block_bracket
    shift = np.eye(8 * n) + np.ones((8 * n, 8 * n))

    def wrong(a, b):
        out = real(a, b)
        return {(r, s): out.get((r, s), 0.0) + shift[r * m : (r + 1) * m, s * m : (s + 1) * m]
                for r in (0, 1) for s in (0, 1)}

    monkeypatch.setattr(poisson, "block_bracket", wrong)
    res = realization.verify_so_star_relations(n)
    assert len(res) == 6
    for name, r in res.items():
        assert r > 1e-12, name


def test_relation_sweep_detects_a_wrong_y_factor(monkeypatch):
    # the predicted brackets do not go through y_quad, so Y_v = -<Z, vZ>
    # breaks the two families that pair Y with another generator
    n = 2
    monkeypatch.setattr(realization, "y_quad", lambda r: realization._embed(-2.0 * r, 0, 0))
    res = realization.verify_so_star_relations(n)
    assert res["XY_is_minus_2S"] > 1e-12
    assert res["SY_triple"] > 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_relation_sweep_stays_within_its_budget(n):
    """verify_so_star_relations peaks within _BLOCK_BYTES beside its fixed
    (4n, 4n) stacks: real_rep of the two bases, and the X, Y and S blocks."""
    realization.verify_so_star_relations(n)  # warm the cached bases
    d, m = jordan.dim_v(n), 4 * n
    fixed = 8 * m * m * (3 * d + 2 * 4 * n * n)
    tracemalloc.start()
    try:
        realization.verify_so_star_relations(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= realization._BLOCK_BYTES + fixed


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
    assert abs(np.linalg.norm(vals) - mu_of(p)) < 1e-12


def test_moment_maps():
    p = realization.sample_leaf(realization.LeafSpec(2, 0.8), rng)
    rho = moment_rho(p)
    assert rho[0] == 0.0
    assert abs(0.5 * norm(rho) - mu_of(p)) < 1e-13
    # psi vanishes at xi = rho/2
    psi = moment_psi(p, rho * 0.5)
    assert norm(psi) < 1e-12
    # psi is only defined for imaginary xi
    with pytest.raises(ValueError):
        moment_psi(p, UNITS[0])


def test_leaf_sampling_hits_target():
    for mu in (0.0, 0.5, 2.0):
        for _ in range(10):
            p = realization.sample_leaf(realization.LeafSpec(3, mu), rng)
            assert abs(mu_of(p) - mu) < 1e-10


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
        a, b = rng.integers(0, len(basis), size=2)
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
    q = transformed(p, g)
    v1 = realization.family_values(n, *realization._stack_points([p]))
    v2 = realization.family_values(n, *realization._stack_points([q]))
    for key in ("X", "Y", "L", "Lpair", "X_e", "Y_e", "L_e", "mu"):
        assert np.abs(np.asarray(v1[key]) - np.asarray(v2[key])).max() < 1e-12


def test_leaf_spec_validation():
    with pytest.raises(ValueError):
        realization.LeafSpec(2, -1.0)
    with pytest.raises(ValueError):
        realization.LeafSpec(0, 1.0)


def test_leaf_residual_maxima_exact_across_blocks(monkeypatch):
    """Blocked folds equal one whole-stack pass, bit for bit."""
    n = 3
    monkeypatch.setattr(realization, "_BLOCK_BYTES", block_bytes(7, n))
    assert realization.block_points(n) == 7  # 51 samples: 7 blocks of 7 and a tail of 2
    spec = realization.LeafSpec(n, 1.0)
    used = np.random.default_rng(5)
    got = realization.leaf_residual_maxima(spec, used, 51)

    gen = np.random.default_rng(5)
    zs, ws = realization._stack_points([realization.sample_leaf(spec, gen) for _ in range(51)])
    v = realization.family_values(n, zs, ws)
    sec = realization.secondary_quadratic_residuals(n, zs, ws, v).max(axis=1)
    expected = {"primary": float(realization.primary_quadratic_residuals(n, zs, ws, v).max())}
    expected.update(
        ("secondary_" + r, float(x)) for r, x in zip(("i", "ii", "iii", "iv", "v", "vi"), sec)
    )
    expected["energy"] = float(realization.energy_formula_residuals(n, zs, ws, v).max())
    assert got == expected
    assert max(got.values()) > 0.0
    assert used.random() == gen.random()  # the same draws, in the same order


def _maxima_peak(spec, samples):
    tracemalloc.start()
    try:
        realization.leaf_residual_maxima(spec, np.random.default_rng(3), samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_leaf_residual_maxima_memory_does_not_grow(monkeypatch):
    n, block = 3, 1000
    monkeypatch.setattr(realization, "_BLOCK_BYTES", block_bytes(block, n))
    spec = realization.LeafSpec(n, 1.0)
    realization.leaf_residual_maxima(spec, np.random.default_rng(3), 1)  # warm the cached basis
    assert _maxima_peak(spec, 4 * block) <= 1.5 * _maxima_peak(spec, block)


def test_block_bytes_round_trip(monkeypatch):
    for n in range(2, 7):
        for k in range(1, 65):
            monkeypatch.setattr(realization, "_BLOCK_BYTES", block_bytes(k, n))
            assert realization.block_points(n) == k


@pytest.mark.parametrize("n", range(2, 7))
def test_leaf_block_stays_within_its_budget(n):
    """One full leaf block, from its sample points through family_values
    to the residuals, peaks within _BLOCK_BYTES."""
    spec = realization.LeafSpec(n, 1.0)
    realization.leaf_residual_maxima(spec, np.random.default_rng(3), 1)  # warm the cached basis
    assert _maxima_peak(spec, realization.block_points(n)) <= realization._BLOCK_BYTES
