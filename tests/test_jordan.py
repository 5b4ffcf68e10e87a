import numpy as np
import pytest
from helpers import (
    S_operator,
    l_operator_definition,
    l_operator_dense,
    norm,
    orthonormal_basis_oracle,
    random_qvector,
    s_tensor_oracle,
    vec_inner,
)

from sp1kepler import jordan, quat
from sp1kepler.quat import CONJ, mat_apply
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
        g = np.einsum("aijp,bjip,p->ab", basis, basis, CONJ) / n
        assert np.abs(g - np.eye(len(basis))).max() < 1e-13


@pytest.mark.parametrize("n", range(1, 13))
def test_basis_equals_the_list_and_loop_oracle(n):
    got, want = orthonormal_basis(n), orthonormal_basis_oracle(n)
    assert got.dtype == want.dtype and not got.flags.writeable
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


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


@pytest.mark.parametrize("n", range(1, 7))
def test_l_operator_matches_its_definition_and_the_dense_traces(n):
    """The gather form of L_operator against the dense real_rep traces it
    replaced, bit for bit on the basis at n <= 4 (what closure_residual
    reads), and against the definition; seeded random hermitian u too."""
    basis = orthonormal_basis(n)
    us = list(basis) + [random_herm(np.random.default_rng(n), n) for _ in range(3)]
    for k, u in enumerate(us):
        got, dense = L_operator(u), l_operator_dense(u)
        if n <= 4 and k < len(basis):
            assert np.array_equal(got, dense)
        else:
            assert np.abs(got - dense).max() <= 1e-15
        assert np.abs(got - l_operator_definition(u)).max() <= 1e-15


def test_l_operator_reads_the_basis_gather_from_a_cache(monkeypatch):
    """After its first call, L_operator takes real_rep of u alone: the basis
    gather is cached, read-only and a scatter of the entries of the basis
    real_reps, each row of which has at most one nonzero."""
    u = identity(3)
    first = L_operator(u)
    shapes = []
    monkeypatch.setattr(jordan, "real_rep", lambda m: shapes.append(m.shape) or quat.real_rep(m))
    assert np.array_equal(L_operator(u), first)
    assert shapes == [(3, 3, 4)]
    idx, val = jordan.basis_gather(3)
    assert not idx.flags.writeable and not val.flags.writeable
    reps = quat.real_rep(orthonormal_basis(3))
    a, row, col, v = quat.entries(reps)
    want_idx, want_val = np.zeros(idx.shape, np.intp), np.zeros(val.shape)
    want_idx[a, row], want_val[a, row] = col, v
    assert np.array_equal(idx, want_idx) and np.array_equal(val, want_val)
    dense = np.zeros(reps.shape)
    np.put_along_axis(dense, idx[..., None], val[..., None], axis=-1)
    assert np.array_equal(dense, reps)


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
