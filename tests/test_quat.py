import math
import random

import numpy as np
import pytest
from helpers import (
    conj,
    norm,
    random_qmatrix,
    random_qvector,
    random_unit_quaternion,
    unit_matrix,
    vec_inner,
)

from sp1kepler.jordan import identity
from sp1kepler.quat import (
    UNITS,
    SeededRng,
    dagger_product,
    group,
    im,
    join,
    mat_apply,
    mat_dagger,
    mat_mul,
    mul,
    norms,
    outer,
    real_rep,
    sum_by,
    trace_re,
    view,
)

rng = np.random.default_rng(20240817)
ONE, I, J, K = UNITS


def _close(a, b, tol=1e-12):
    return bool(np.allclose(a, b, atol=tol, rtol=tol))


def test_unit_table():
    assert _close(mul(I, J), K)
    assert _close(mul(J, K), I)
    assert _close(mul(K, I), J)
    assert _close(mul(I, I), -ONE)
    assert _close(mul(J, J), -ONE)
    assert _close(mul(K, K), -ONE)
    # anti-commutativity of distinct imaginary units
    assert _close(mul(J, I), -K)


def test_conjugation_and_norm():
    for _ in range(50):
        q = rng.standard_normal(4)
        p = rng.standard_normal(4)
        # conj is an anti-homomorphism
        assert _close(conj(mul(q, p)), mul(conj(p), conj(q)))
        # conj(q) q = |q|^2
        prod = mul(conj(q), q)
        assert abs(prod[0] - norm(q) ** 2) < 1e-12
        assert np.linalg.norm(prod[1:]) < 1e-12
        # Re/Im split
        assert _close(im(q) + q[0] * ONE, q)


def test_associativity():
    for _ in range(30):
        a, b, c = (rng.standard_normal(4) for _ in range(3))
        assert _close(mul(mul(a, b), c), mul(a, mul(b, c)), tol=1e-10)


def test_vector_right_action():
    z = random_qvector(rng, 3)
    g = random_unit_quaternion(rng)
    h = random_unit_quaternion(rng)
    # (Z g) h = Z (g h): right module axiom
    lhs = mul(mul(z, g), h)
    rhs = mul(z, mul(g, h))
    assert np.allclose(lhs, rhs, atol=1e-12)
    # right action preserves the norm for unit quaternions
    assert abs(norm(mul(z, g)) - norm(z)) < 1e-12


def test_dagger_product():
    z = random_qvector(rng, 4)
    w = random_qvector(rng, 4)
    q = dagger_product(w, z)
    # real part is the flat inner product
    assert abs(q[0] - vec_inner(w, z)) < 1e-12
    # conjugate symmetry
    assert _close(dagger_product(z, w), conj(q))
    # equivariance: (Wg)^dag (Zg) = conj(g) (W^dag Z) g
    g = random_unit_quaternion(rng)
    lhs = dagger_product(mul(w, g), mul(z, g))
    assert _close(lhs, mul(mul(conj(g), q), g))


def test_matrix_algebra():
    a = random_qmatrix(rng, 3)
    b = random_qmatrix(rng, 3)
    z = random_qvector(rng, 3)
    # (ab)Z = a(bZ)
    lhs = mat_apply(mat_mul(a, b), z)
    rhs = mat_apply(a, mat_apply(b, z))
    assert np.allclose(lhs, rhs, atol=1e-10)
    # dagger reverses products
    d = mat_dagger(mat_mul(a, b)) - mat_mul(mat_dagger(b), mat_dagger(a))
    assert norm(d) < 1e-10
    # Re tr(ab) = Re tr(ba)
    assert abs(trace_re(mat_mul(a, b)) - trace_re(mat_mul(b, a))) < 1e-10


def test_outer_product():
    z = random_qvector(rng, 3)
    w = random_qvector(rng, 3)
    m = outer(z, w)
    # (Z W^dag)^dag = W Z^dag
    assert norm(mat_dagger(m) - outer(w, z)) < 1e-12
    # Re tr(Z W^dag) = <W, Z>
    assert abs(trace_re(m) - vec_inner(w, z)) < 1e-12


def test_real_rep():
    for n in (1, 2, 3):
        m = random_qmatrix(rng, n)
        r = real_rep(m)
        for _ in range(5):
            z = random_qvector(rng, n)
            assert np.allclose(r @ z.reshape(-1), mat_apply(m, z).reshape(-1), atol=1e-12)
        # representation property
        m2 = random_qmatrix(rng, n)
        assert np.allclose(real_rep(mat_mul(m, m2)), r @ real_rep(m2), atol=1e-10)
        # the conjugate transpose is represented by the transpose
        assert np.array_equal(real_rep(mat_dagger(m)), r.T)
        # a stack maps to the stack of representations
        stack = np.array([m, m2, mat_mul(m, m2)])
        reps = real_rep(stack)
        assert reps.shape == (3, 4 * n, 4 * n)
        for got, one in zip(reps, stack):
            assert np.array_equal(got, real_rep(one))
        assert real_rep(stack.reshape(3, 1, n, n, 4)).shape == (3, 1, 4 * n, 4 * n)


def test_unit_matrix_and_identity():
    e = identity(2)
    z = random_qvector(rng, 2)
    assert np.allclose(mat_apply(e, z), z)
    u = unit_matrix(2, 0, 1, J)
    assert _close(u[0, 1], J)
    assert norm(u[1, 0]) == 0.0


@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_seeded_uniforms_are_those_of_random(seed):
    ref = random.Random(seed)
    assert SeededRng(seed)._uniforms(3000).tolist() == [ref.random() for _ in range(3000)]


def test_seeded_normals_are_pinned():
    # a change in getrandbits or in the Box-Muller pairing moves these by far
    # more than the last-bit differences of libm between platforms
    first = [0.5161661633565218, 0.7184721151690002, 1.3031666217102853,
             0.6377679767768651, -0.8234106660654669, 0.9258659681903841]
    assert np.allclose(SeededRng(7).standard_normal(6), first, rtol=1e-14, atol=0)
    # Box-Muller on (1 - u1, u2) of Random(7), cosine then sine
    ref = random.Random(7)
    bm = []
    for _ in range(3):
        u1, u2 = ref.random(), ref.random()
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        bm += [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
    assert np.allclose(bm, first, rtol=1e-14, atol=0)


def test_seeded_draw_types_and_ranges():
    rng = SeededRng(3)
    assert rng.standard_normal(2).shape == (2,)
    assert rng.standard_normal((2, 3, 4)).shape == (2, 3, 4)
    assert rng.standard_normal(6).shape == (6,)
    with pytest.raises(ValueError, match="odd"):
        rng.standard_normal(5)
    k = rng.integers(2, 9, size=5000)
    assert k.shape == (5000,) and k.min() == 2 and k.max() == 8


def test_seeded_draws_in_any_even_split_read_one_stream():
    """Draws of even counts, one pair at a time, in odd shapes or in one
    call, give the same normals and leave the Twister in the same state."""
    a, b = SeededRng(11), SeededRng(11)
    drawn = [a.standard_normal(2) for _ in range(509)]
    drawn += [a.standard_normal((3, 2, 7)).ravel(), a.standard_normal(3 * 1024 + 2)]
    drawn = np.concatenate(drawn)
    assert np.array_equal(drawn, b.standard_normal(len(drawn)))
    assert a._random.getstate() == b._random.getstate()


def test_products_take_stack_axes():
    """A stack (k, ...) of operands gives each element's product, to
    rounding, and a length mismatch is refused on stacks too."""
    k, n = 6, 3
    zs, ws = (rng.standard_normal((k, n, 4)) for _ in range(2))
    us, vs = (rng.standard_normal((k, n, n, 4)) for _ in range(2))
    for fn, a, b in ((dagger_product, ws, zs), (mat_apply, us, zs), (mat_mul, us, vs),
                     (outer, zs, ws)):
        assert _close(fn(a, b), [fn(x, y) for x, y in zip(a, b)], 1e-14), fn.__name__
    # leading axes broadcast: every matrix of a stack on every point of another
    assert _close(mat_apply(us, zs[:, None]), [[mat_apply(u, z) for u in us] for z in zs], 1e-14)
    with pytest.raises(ValueError):
        outer(zs, ws[:, :2])


def test_norms_equal_norm_bit_for_bit():
    for shape, axes in (((50, 3, 4), 2), ((50, 4), 1), ((7, 2, 2, 2, 4), 3), ((3, 4), 2)):
        x = rng.standard_normal(shape)
        lead = x.reshape((-1,) + shape[len(shape) - axes:])
        assert np.array_equal(np.ravel(norms(x, axes)), [norm(e) for e in lead])


def _join_oracle(keys, lo, hi):
    """Every pair (l, e) with keys[e] in [lo[l], hi[l]), by l, then by the
    stable sorted order of the keys."""
    order = sorted(range(len(keys)), key=lambda e: keys[e])
    return [(l, e) for l in range(len(lo)) for e in order if lo[l] <= keys[e] < hi[l]]


@pytest.mark.parametrize("size", [0, 1, 40])
def test_join_matches_a_brute_force_oracle(size):
    gen = np.random.default_rng(size)
    keys = 2 * gen.integers(0, 10, size)  # even, with repeats
    # lo in any order; hi == lo, ranges between two keys ([3, 4)), past
    # every key and before every key match none
    lo = np.concatenate([gen.integers(-2, 22, 30), [3, 4, 25, -5]])
    hi = np.concatenate([lo[:30] + gen.integers(0, 4, 30), [4, 4, 30, -1]])
    assert (hi == lo).any()
    for by, ks in (((None, np.sort(keys)), np.sort(keys)), (view(keys), keys)):
        left, e = join(by, lo, hi)
        assert list(zip(left.tolist(), e.tolist())) == _join_oracle(ks.tolist(), lo, hi)


@pytest.mark.parametrize("size, spread", [(0, 10), (1, 10), (40, 10), (7, 1)])
def test_group_and_sum_by_match_np_unique(size, spread):
    """group gives np.unique's keys and inverse, and sum_by sums each key's
    values in input order, as np.bincount over np.unique's inverse does;
    spread 1 makes every key the same."""
    gen = np.random.default_rng(size)
    keys = 2 * gen.integers(0, spread, size)  # even, with repeats
    vals = gen.standard_normal(size)
    ref_keys, ref_inv = np.unique(keys, return_inverse=True)
    got_keys, got_inv = group(keys)
    assert np.array_equal(got_keys, ref_keys) and np.array_equal(got_inv, ref_inv)
    assert np.array_equal(got_keys[got_inv], keys)
    got_keys, sums = sum_by(keys, vals)
    assert np.array_equal(got_keys, ref_keys)
    assert np.array_equal(sums, np.bincount(ref_inv, vals, len(ref_keys)))


def test_sum_by_adds_in_input_order():
    """1e16 + 1.0 rounds to 1e16, so the three values sum to 0.0 only in the
    order given; a sort that moved -1e16 forward would give 1.0."""
    keys = np.array([5, 3, 5, 3, 5])
    got_keys, sums = sum_by(keys, np.array([1e16, 2.0, 1.0, 4.0, -1e16]))
    assert got_keys.tolist() == [3, 5] and sums.tolist() == [6.0, 0.0]
    assert group(keys)[1].tolist() == [1, 0, 1, 0, 1]
