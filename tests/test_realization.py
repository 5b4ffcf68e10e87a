import tracemalloc

import numpy as np
import pytest
from helpers import (
    block_bytes,
    l_observable,
    l_pair_observable,
    leaf_point,
    leaf_state,
    modules_loaded_by,
    moment_psi,
    moment_rho,
    mu_of,
    norm,
    quad_value,
    random_unit_quaternion,
    relation_sweep_oracle,
    sample_leaf_oracle,
    sample_point_oracle,
    transformed,
    x_observable,
    y_observable,
)

from sp1kepler import conformal, jordan, poisson, realization
from sp1kepler.poisson import bracket_exact, poisson_j, quad_residual
from sp1kepler.quat import UNITS, SeededRng, dagger_product, im, real_rep

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
    """verify_so_star_relations peaks within _BLOCK_BYTES: it holds no
    stack of the bases, only the tile it builds and the builder blocks."""
    realization.verify_so_star_relations(n)  # warm the cached basis
    tracemalloc.start()
    try:
        realization.verify_so_star_relations(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= realization._BLOCK_BYTES


@pytest.mark.parametrize("n", range(1, 5))
def test_relation_sweep_equals_the_stack_sweep(n):
    assert realization.verify_so_star_relations(n) == relation_sweep_oracle(n)


@pytest.mark.parametrize("n", range(1, 4))
def test_relation_sweep_equals_the_stack_sweep_on_a_wrong_bracket(monkeypatch, n):
    # the bracket off by a fixed symmetric matrix, as above: the tiled and
    # the stacked sweeps see the same nonzero residuals, each pair's in the
    # same arithmetic
    m = 4 * n
    real = poisson.block_bracket
    shift = np.eye(8 * n) + np.ones((8 * n, 8 * n))

    def wrong(a, b):
        out = real(a, b)
        return {(r, s): out.get((r, s), 0.0) + shift[r * m : (r + 1) * m, s * m : (s + 1) * m]
                for r in (0, 1) for s in (0, 1)}

    monkeypatch.setattr(poisson, "block_bracket", wrong)
    got = realization.verify_so_star_relations(n)
    assert got == relation_sweep_oracle(n)
    assert min(got.values()) >= 1.0


def test_ss_quadruple_spot_check():
    assert realization.verify_ss_quadruples(2, np.random.default_rng(1)) < 1e-12


def _realized_basis(n):
    """Q_i, the matrix of the quadratic realizing basis element i of co:
    X_{e_a}, S_{E_ij q}, Y_{e_a} in conformal's order, as a (dim, 8n, 8n) stack."""
    herm = real_rep(jordan.orthonormal_basis(n))
    units = real_rep(np.eye(4 * n * n).reshape(-1, n, n, 4))
    return np.concatenate([realization.x_quad(herm), realization.s_quad(units),
                           realization.y_quad(herm)])


def _homomorphism_residuals(n, c):
    """Max over basis pairs (i, j) of |{Q_i, Q_j} - sum_k C_ijk Q_k| / max(1, |{Q_i, Q_j}|),
    Frobenius norms, per grade pair ("XY" for i an X and j a Y, and so on),
    for structure constants c = (i, j, k, v) in COO form."""
    q = _realized_basis(n)
    dim = len(q)
    d = jordan.dim_v(n)
    grade = np.repeat(np.array(list("XSY")), [d, dim - 2 * d, d])
    j_mat = poisson_j(n)
    worst = {}
    for a in range(dim):
        m = q[a] @ j_mat @ q - q @ j_mat @ q[a]
        lhs = 0.5 * (m + np.swapaxes(m, 1, 2))
        row = np.zeros((dim, dim))
        sel = c[0] == a
        row[c[1][sel], c[2][sel]] = c[3][sel]
        rhs = np.tensordot(row, q, axes=(1, 0))
        res = np.linalg.norm(lhs - rhs, axis=(1, 2)) / np.maximum(1.0, np.linalg.norm(lhs, axis=(1, 2)))
        for b in range(dim):
            key = grade[a] + grade[b]
            worst[key] = max(worst.get(key, 0.0), float(res[b]))
    return worst


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_realization_is_a_faithful_lie_homomorphism(n):
    """The quadratics Q_i realizing co's basis bracket by C: {Q_i, Q_j} =
    sum_k C_ijk Q_k with C from conformal.structure_constants (quaternion
    products) and the bracket from real_rep matrices, two independent
    routes; and the Q_i are linearly independent, rank 2n(4n - 1)."""
    worst = _homomorphism_residuals(n, conformal.structure_constants(n))
    assert {"XY", "SX", "SY", "SS"} <= worst.keys()
    assert max(worst.values()) < 1e-14, worst
    q = _realized_basis(n)
    assert np.linalg.matrix_rank(q.reshape(len(q), -1)) == 2 * n * (4 * n - 1)


def test_lie_homomorphism_detects_a_wrong_sx_block():
    """Negating C's [S, X] entries, in both index orders, breaks the SX block."""
    n = 2
    i, j, k, v = conformal.structure_constants(n)
    d = jordan.dim_v(n)
    is_s, is_x = (lambda x: (x >= d) & (x < d + 4 * n * n)), (lambda x: x < d)
    flip = (is_s(i) & is_x(j)) | (is_x(i) & is_s(j))
    worst = _homomorphism_residuals(n, (i, j, k, np.where(flip, -v, v)))
    assert worst["SX"] > 1e-12
    assert worst["XY"] < 1e-14 and worst["SS"] < 1e-14


class _StreamRng:
    """A stub rng serving the normals of a fixed stream in order, whatever
    the draw sizes, as SeededRng does."""

    def __init__(self, normals):
        self.normals, self.drawn = np.concatenate(normals, axis=None), 0

    def standard_normal(self, size):
        count = int(np.prod(size))
        assert self.drawn + count <= len(self.normals), "stream exhausted"
        self.drawn += count
        return self.normals[self.drawn - count : self.drawn].reshape(size)


@pytest.mark.parametrize("module, unloaded", [
    ("realization", {"conformal"}),
    ("conformal", {"realization", "poisson"}),
])
def test_the_algebra_and_its_realization_import_nothing_from_each_other(module, unloaded):
    """The abstract algebra and its Poisson realization are independent
    routes to the same brackets: neither loads the other."""
    proc, loaded = modules_loaded_by("import sp1kepler.%s\n" % module)
    assert proc.returncode == 0, proc.stderr
    assert "sp1kepler." + module in loaded
    assert loaded & {"sp1kepler." + m for m in unloaded} == set()


def test_sample_point_is_two_normal_draws():
    """Z, then W, point by point: with every |Z| > 0.3 the stacks are the
    normals in order."""
    zs, ws = realization.sample_point(3, SeededRng(5), 4)
    ref = SeededRng(5).standard_normal((4, 2, 3, 4))
    assert np.all([norm(z) > 0.3 for z in ref[:, 0]])
    assert np.array_equal(zs, ref[:, 0]) and np.array_equal(ws, ref[:, 1])


def test_sample_point_redraws_a_short_z():
    """A Z with |Z| <= 0.3, at the bound included, is skipped and the next
    normals are read as Z: a block of five points equals five draws of one
    point, and uses up its normals exactly, wherever short Zs fall."""
    n, k = 2, 5
    good = [np.full((n, 4), 0.5 + 0.01 * i) for i in range(k)]
    w_ref = [np.arange(8.0).reshape(n, 4) + 10 * i for i in range(k)]
    for value in (0.1, 0.3):
        short = np.zeros((n, 4))
        short[1, 2] = value
        assert norm(short) <= 0.3
        # short Zs before the first, a middle and the last point, two in a
        # row, and several in one block
        for shorts in ({0: 1}, {2: 1}, {4: 1}, {1: 2}, {0: 1, 3: 2, 4: 1}):
            stream = []
            for i in range(k):
                stream += [short] * shorts.get(i, 0) + [good[i], w_ref[i]]
            rng = _StreamRng(stream)
            zs, ws = realization.sample_point(n, rng, k)
            assert np.array_equal(zs, good) and np.array_equal(ws, w_ref)
            assert rng.drawn == len(rng.normals)
            oracle = _StreamRng(stream)
            ref = [sample_point_oracle(n, oracle) for _ in range(k)]
            assert np.array_equal(zs, [p[0] for p in ref]) and oracle.drawn == rng.drawn


@pytest.mark.parametrize("seed", [7, 4242])
@pytest.mark.parametrize("n, mu", [(2, 0.0), (3, 0.7), (5, 1.0), (8, 0.7)])
def test_sample_leaf_equals_the_per_point_oracle(seed, n, mu):
    """The stacks equal k one-point draws, shifted point by point, bit for
    bit, and use up the same normals."""
    used, ref = SeededRng(seed), SeededRng(seed)
    zs, ws = realization.sample_leaf(n, mu, used, 400)
    points = [sample_leaf_oracle(n, mu, ref) for _ in range(400)]
    assert np.array_equal(zs, [p[0] for p in points])
    assert np.array_equal(ws, [p[1] for p in points])
    assert used.standard_normal() == ref.standard_normal()


def test_sample_leaf_ties_nu_zero_to_direction_i():
    """With Im(W^dag Z) = 0 the moment is set along i, as the oracle sets it."""
    z = np.zeros((2, 4))
    z[0, 0] = 1.0
    stream = [z, np.zeros((2, 4))]
    zs, ws = realization.sample_leaf(2, 0.5, _StreamRng(stream), 1)
    assert np.array_equal(ws, [sample_leaf_oracle(2, 0.5, _StreamRng(stream))[1]])
    assert np.array_equal(moment_rho(zs[0], ws[0]), [0.0, -1.0, 0.0, 0.0])


def test_l_is_s_e_u():
    basis = jordan.orthonormal_basis(2)
    e = jordan.identity(2)
    for u in basis:
        lhs = l_observable(u)
        rhs = realization.s_pair_observable(e, u)
        assert quad_residual(lhs, rhs) < 1e-13


def test_sphere_relations_cyclic():
    # {xi^1, xi^2} = xi^3 and cyclic permutations, exactly
    for n in (2, 3):
        xi = realization.xi_observables(n)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            assert quad_residual(bracket_exact(xi[a], xi[b]), xi[c]) < 1e-12


def test_xi_norm_is_mu():
    z, w = leaf_point(2, 1.3, rng)
    xi = realization.xi_observables(2)
    vals = np.array([quad_value(o, np.concatenate((z, w), axis=None)) for o in xi])
    assert abs(np.linalg.norm(vals) - mu_of(z, w)) < 1e-12


def test_moment_maps():
    z, w = leaf_point(2, 0.8, rng)
    rho = moment_rho(z, w)
    assert rho[0] == 0.0
    assert abs(0.5 * norm(rho) - mu_of(z, w)) < 1e-13
    # psi vanishes at xi = rho/2
    psi = moment_psi(z, w, rho * 0.5)
    assert norm(psi) < 1e-12
    # psi is only defined for imaginary xi
    with pytest.raises(ValueError):
        moment_psi(z, w, UNITS[0])


def test_leaf_sampling_hits_target():
    for mu in (0.0, 0.5, 2.0):
        for _ in range(10):
            z, w = leaf_point(3, mu, rng)
            assert abs(mu_of(z, w) - mu) < 1e-10


def test_leaf_sampling_mu_zero_real_pairing():
    z, w = leaf_point(2, 0.0, rng)
    assert norm(im(dagger_product(w, z))) < 1e-10


def test_family_values_match_observables():
    n = 2
    basis = jordan.orthonormal_basis(n)
    e = jordan.identity(n)
    p = leaf_state(n, 1.0, rng)
    v = realization.family_values(n, *p.reshape(2, 1, n, 4))
    for a, u in enumerate(basis):
        assert abs(quad_value(x_observable(u), p) - v["X"][0, a]) < 1e-12
        assert abs(quad_value(y_observable(u), p) - v["Y"][0, a]) < 1e-12
        assert abs(quad_value(l_observable(u), p) - v["L"][0, a]) < 1e-12
        for b, w in enumerate(basis):
            lab = l_pair_observable(u, w)
            assert abs(quad_value(lab, p) - v["Lpair"][0, a, b]) < 1e-12
    assert abs(quad_value(x_observable(e), p) - v["X_e"][0]) < 1e-12
    assert abs(quad_value(y_observable(e), p) - v["Y_e"][0]) < 1e-12


def test_l_pair_antisymmetric():
    basis = jordan.orthonormal_basis(2)
    for _ in range(5):
        a, b = rng.integers(0, len(basis), size=2)
        s = l_pair_observable(basis[a], basis[b]) + l_pair_observable(
            basis[b], basis[a]
        )
        assert np.linalg.norm(s) < 1e-13


def test_primary_quadratic_relation():
    for n in (2, 3):
        pts = [realization.sample_leaf(n, m, rng, 25) for m in (0.0, 1.0)]
        v = realization.family_values(n, *map(np.concatenate, zip(*pts)))
        assert realization.primary_quadratic_residuals(n, v).max() < 1e-12


def test_secondary_and_energy_relations():
    for n in (2, 3):
        pts = [realization.sample_leaf(n, m, rng, 20) for m in (0.0, 0.5, 3.0)]
        v = realization.family_values(n, *map(np.concatenate, zip(*pts)))
        sec = realization.secondary_quadratic_residuals(n, v)
        assert sec.max() < 1e-12, sec.max(axis=1)
        assert realization.energy_formula_residuals(n, v).max() < 1e-12


def test_hand_point():
    # Z = (1, 0), W = (2k, 0) at n = 2: H = -1/2 and relation (v) gives 2 = 2
    z = np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]])
    w = np.array([[0.0, 0, 0, 2], [0, 0, 0, 0]])
    v = realization.family_values(2, z[None], w[None])
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
    p = realization.sample_leaf(n, 1.0, rng, 1)
    g = random_unit_quaternion(rng)
    q = transformed(*p, g)
    v1 = realization.family_values(n, *p)
    v2 = realization.family_values(n, *q)
    for key in ("X", "Y", "L", "Lpair", "X_e", "Y_e", "L_e", "mu"):
        assert np.abs(np.asarray(v1[key]) - np.asarray(v2[key])).max() < 1e-12


def test_sample_leaf_validation():
    with pytest.raises(ValueError):
        realization.sample_leaf(2, -1.0, rng, 1)
    with pytest.raises(ValueError):
        realization.sample_leaf(0, 1.0, rng, 1)


def test_leaf_residual_maxima_exact_across_blocks(monkeypatch):
    """Blocked folds equal one whole-stack pass over the per-point oracle's
    points, bit for bit."""
    n = 3
    monkeypatch.setattr(realization, "_BLOCK_BYTES", block_bytes(7, n))
    assert realization.block_points(n) == 7  # 51 samples: 7 blocks of 7 and a tail of 2
    used = np.random.default_rng(5)
    got = realization.leaf_residual_maxima(n, 1.0, used, 51)

    gen = np.random.default_rng(5)
    zs, ws = map(np.array, zip(*[sample_leaf_oracle(n, 1.0, gen) for _ in range(51)]))
    v = realization.family_values(n, zs, ws)
    sec = realization.secondary_quadratic_residuals(n, v).max(axis=1)
    expected = {"primary": float(realization.primary_quadratic_residuals(n, v).max())}
    expected.update(
        ("secondary_" + r, float(x)) for r, x in zip(("i", "ii", "iii", "iv", "v", "vi"), sec)
    )
    expected["energy"] = float(realization.energy_formula_residuals(n, v).max())
    assert got == expected
    assert max(got.values()) > 0.0
    assert used.random() == gen.random()  # the same draws, in the same order


def _maxima_peak(n, samples):
    tracemalloc.start()
    try:
        realization.leaf_residual_maxima(n, 1.0, np.random.default_rng(3), samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_leaf_residual_maxima_memory_does_not_grow(monkeypatch):
    n, block = 3, 1000
    monkeypatch.setattr(realization, "_BLOCK_BYTES", block_bytes(block, n))
    realization.leaf_residual_maxima(n, 1.0, np.random.default_rng(3), 1)  # warm the cached basis
    assert _maxima_peak(n, 4 * block) <= 1.5 * _maxima_peak(n, block)


def test_block_bytes_round_trip(monkeypatch):
    for n in range(2, 7):
        for k in range(1, 65):
            monkeypatch.setattr(realization, "_BLOCK_BYTES", block_bytes(k, n))
            assert realization.block_points(n) == k


@pytest.mark.parametrize("n", range(2, 7))
def test_leaf_block_stays_within_its_budget(n):
    """One full leaf block, from its sample points through family_values
    to the residuals, peaks within _BLOCK_BYTES."""
    realization.leaf_residual_maxima(n, 1.0, np.random.default_rng(3), 1)  # warm the cached basis
    assert _maxima_peak(n, realization.block_points(n)) <= realization._BLOCK_BYTES
