import numpy as np
from helpers import S_operator, norm, random_qvector, s_tensor_oracle, vec_inner

from sp1kepler import jordan, quat
from sp1kepler.quat import RE_SIGNS, mat_apply
from sp1kepler.jordan import (
    L_operator,
    coords,
    dim_v,
    from_coords,
    herm_from_vector_pair,
    identity,
    inner,
    jordan_product,
    orthonormal_basis,
    random_herm,
    s_tensor,
    triple_product,
)

rng = np.random.default_rng(77)


def test_inner_normalization():
    for n in (1, 2, 3, 4):
        e = identity(n)
        assert abs(inner(e, e) - 1.0) < 1e-14


def test_basis_orthonormal():
    for n in (2, 3, 4):
        basis = orthonormal_basis(n)
        assert len(basis) == dim_v(n) == n * (2 * n - 1)
        g = np.einsum("aijp,bjip,p->ab", basis, basis, RE_SIGNS) / n
        assert np.abs(g - np.eye(len(basis))).max() < 1e-13


def test_coords_round_trip():
    u = random_herm(rng, 3)
    v = from_coords(coords(u), 3)
    assert norm(u - v) < 1e-12
    # Parseval
    assert abs(inner(u, u) - np.dot(coords(u), coords(u))) < 1e-12


def test_jordan_product_commutative_and_e_unit():
    u = random_herm(rng, 3)
    v = random_herm(rng, 3)
    assert norm(jordan_product(u, v) - jordan_product(v, u)) < 1e-12
    assert norm(jordan_product(identity(3), u) - u) < 1e-13


def test_jordan_identity():
    # (u^2 o v) o u = u^2 o (v o u)
    for _ in range(20):
        u = random_herm(rng, 2)
        v = random_herm(rng, 2)
        u2 = jordan_product(u, u)
        lhs = jordan_product(jordan_product(u2, v), u)
        rhs = jordan_product(u2, jordan_product(v, u))
        assert norm(lhs - rhs) < 1e-10


def test_inner_associativity():
    # <u o v | w> = <u | v o w>: the trace form is associative
    u, v, w = (random_herm(rng, 3) for _ in range(3))
    lhs = inner(jordan_product(u, v), w)
    rhs = inner(u, jordan_product(v, w))
    assert abs(lhs - rhs) < 1e-11


def test_triple_product_vs_operators():
    u, v, w = (random_herm(rng, 2) for _ in range(3))
    # S_uv = [L_u, L_v] + L_{u o v}
    lu, lv = L_operator(u), L_operator(v)
    s = lu @ lv - lv @ lu + L_operator(jordan_product(u, v))
    assert np.abs(s - S_operator(u, v)).max() < 1e-11
    # S_uv(w) = {uvw}
    assert np.allclose(s @ coords(w), coords(triple_product(u, v, w)), atol=1e-11)


def test_s_operator_transpose():
    # S_uv^T = S_vu in the orthonormal basis
    u, v = random_herm(rng, 3), random_herm(rng, 3)
    assert np.abs(S_operator(u, v).T - S_operator(v, u)).max() < 1e-11


def test_structure_commutator():
    # [S_uv, S_zw] = S_{{uvz}w} - S_{z{vuw}}
    u, v, z, w = (random_herm(rng, 2) for _ in range(4))
    suv, szw = S_operator(u, v), S_operator(z, w)
    lhs = suv @ szw - szw @ suv
    rhs = S_operator(triple_product(u, v, z), w) - S_operator(
        z, triple_product(v, u, w)
    )
    assert np.abs(lhs - rhs).max() < 1e-10


def test_s_tensor_matches_operator():
    for n in (2, 3):
        basis = orthonormal_basis(n)
        t = s_tensor(n)
        for _ in range(5):
            a, b = rng.integers(0, len(basis), size=2)
            direct = S_operator(basis[a], basis[b])
            assert np.abs(t[a, b] - direct).max() < 1e-12


def test_l_operator_reads_the_basis_reps_from_a_cache(monkeypatch):
    """After its first call, L_operator takes real_rep of u alone: the basis
    stack is cached, read-only and equal to real_rep of the basis."""
    u = identity(3)
    first = L_operator(u)
    shapes = []
    monkeypatch.setattr(jordan, "real_rep", lambda m: shapes.append(m.shape) or quat.real_rep(m))
    assert np.array_equal(L_operator(u), first)
    assert shapes == [(3, 3, 4)]
    reps = jordan._basis_reps(3)
    assert not reps.flags.writeable
    assert np.array_equal(reps, quat.real_rep(orthonormal_basis(3)))


def test_s_tensor_matches_quaternion_oracle():
    # the real_rep trace formula against {e_a e_b e_c} in quaternion
    # arithmetic, so that a real_rep fault cannot cancel between the
    # conformal algebra and the realization
    for n in (1, 2, 3):
        assert np.abs(s_tensor(n) - s_tensor_oracle(n)).max() < 1e-14


def test_cone_inner_identity():
    # <n Z Z^dag | u> = <Z, uZ>
    n = 3
    z = random_qvector(rng, n)
    x = herm_from_vector_pair(z, z) * 0.5
    u = random_herm(rng, n)
    lhs = inner(x, u)
    rhs = vec_inner(z, mat_apply(u, z))
    assert abs(lhs - rhs) < 1e-11


def test_inner_coords_and_tangent_pairs_take_stack_axes():
    k, n = 5, 3
    us, vs = (np.array([random_herm(rng, n) for _ in range(k)]) for _ in range(2))
    zs, ws = (rng.standard_normal((k, n, 4)) for _ in range(2))
    assert np.allclose(inner(us, vs), [inner(u, v) for u, v in zip(us, vs)], rtol=0, atol=1e-14)
    assert np.allclose(coords(us), [coords(u) for u in us], rtol=0, atol=1e-14)
    assert np.allclose(herm_from_vector_pair(zs, ws),
                       [herm_from_vector_pair(z, w) for z, w in zip(zs, ws)], rtol=0, atol=1e-14)
