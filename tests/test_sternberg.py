import tracemalloc

import numpy as np
import pytest
from helpers import (
    horizontal_lift,
    lrl_downstairs,
    norm,
    pullback_check_oracle,
    random_qvector,
    random_unit_quaternion,
    unit_matrix,
    vec_inner,
)

from sp1kepler import jordan, realization, sternberg
from sp1kepler.poisson import DOMAIN_EPS
from sp1kepler.quat import (
    SeededRng,
    dagger_product,
    im,
    mat_apply,
    mul,
)

rng = np.random.default_rng(55)


def _pair(n):
    z = random_qvector(rng, n)
    while norm(z) < 0.3:
        z = random_qvector(rng, n)
    return z, random_qvector(rng, n)


def test_cone_point_basics():
    z = np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]])
    x = sternberg.cone_point(z)
    # n Z Z^dag = 2 E_11 here
    expected = unit_matrix(2, 0, 0) * 2.0
    assert norm(x - expected) < 1e-14
    # its radius Re tr(x)/n is |Z|^2
    assert abs(jordan.inner(x, jordan.identity(2)) - 1.0) < 1e-14


def test_cone_point_fiber_invariance():
    z, _ = _pair(3)
    g = random_unit_quaternion(rng)
    a = sternberg.cone_point(z)
    b = sternberg.cone_point(mul(z, g))
    assert norm(a - b) < 1e-12
    assert abs(jordan.inner(a, jordan.identity(3)) - norm(z) ** 2) < 1e-12


def test_tangent_basis():
    for n in (2, 3):
        z, _ = _pair(n)
        basis = sternberg.tangent_basis(z)
        assert len(basis) == 4 * n - 3
        gram = np.array([[jordan.inner(a, b) for b in basis] for a in basis])
        assert np.abs(gram - np.eye(len(basis))).max() < 1e-12


def test_horizontal_lift_round_trip():
    n = 2
    z, _ = _pair(n)
    v = random_qvector(rng, n)
    xdot = jordan.herm_from_vector_pair(v, z)
    zdot = horizontal_lift(z, xdot)
    # defining condition 1: n(Zdot Z^dag + Z Zdot^dag) = xdot
    recon = jordan.herm_from_vector_pair(zdot, z)
    assert norm(recon - xdot) < 1e-10 * max(1.0, norm(xdot))
    # defining condition 2: Im(Z^dag Zdot) = 0
    assert norm(im(dagger_product(z, zdot))) < 1e-12


def test_horizontal_lift_radial_and_zero():
    z, _ = _pair(2)
    x = sternberg.cone_point(z)
    zdot = horizontal_lift(z, x)
    assert np.allclose(zdot, z * 0.5, atol=1e-12)
    zero = x * 0.0
    assert norm(horizontal_lift(z, zero)) < 1e-14


def test_horizontal_lift_rejects_non_tangent():
    z, _ = _pair(2)
    with pytest.raises(ValueError):
        horizontal_lift(z, jordan.random_herm(rng, 2))


def test_pi_key_identity():
    # <pi | u o x> = <W, uZ>/2 for every hermitian u
    for n in (2, 3):
        z, w = _pair(n)
        pi, x = sternberg.pi_from_W(z, w), sternberg.cone_point(z)
        for u in jordan.orthonormal_basis(n):
            lhs = jordan.inner(pi, jordan.jordan_product(u, x))
            rhs = 0.5 * vec_inner(w, mat_apply(u, z))
            assert abs(lhs - rhs) < 1e-10


def test_pi_zero_for_w_zero():
    z, _ = _pair(2)
    pi = sternberg.pi_from_W(z, np.zeros((2, 4)))
    assert norm(pi) < 1e-14
    r1, r2 = sternberg.pullback_check(z, np.zeros((2, 4)))
    assert r1 < 1e-12 and r2 < 1e-12


def test_pullback_identities():
    for n in (2, 3, 4):
        zs, ws = map(np.array, zip(*[_pair(n) for _ in range(25)]))
        r1, r2 = sternberg.pullback_check(zs, ws)
        assert r1.shape == r2.shape == (25,)
        assert r1.max() < 1e-10
        assert r2.max() < 1e-10
        # a stack gives each point what the point alone gives, to rounding
        for z, w, a, b in zip(zs, ws, r1, r2):
            assert np.allclose(sternberg.pullback_check(z, w), (a, b), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", range(1, 9))
def test_pullback_equals_the_quaternion_oracle(n):
    # the signed gather gives <Z, e_a Z> bit for bit as the QTAB route, on a
    # block of the size verify-pullback checks and on single points
    zs, ws = realization.sample_point(n, SeededRng(n), realization.block_points(n))
    for got, want in zip(sternberg.pullback_check(zs, ws), pullback_check_oracle(zs, ws)):
        assert np.array_equal(got, want)
    for z, w in zip(zs[:3], ws[:3]):
        assert sternberg.pullback_check(z, w) == pullback_check_oracle(z, w)


def test_pullback_fiber_invariance():
    z, w = _pair(2)
    g = random_unit_quaternion(rng)
    a = sternberg.pullback_check(z, w)
    b = sternberg.pullback_check(mul(z, g), mul(w, g))
    assert abs(a[0] - b[0]) < 1e-12
    assert abs(a[1] - b[1]) < 1e-12


def test_downstairs_hamiltonian_matches_upstairs():
    z, w = _pair(2)
    x, pi = sternberg.cone_point(z), sternberg.pi_from_W(z, w)
    mu = 0.5 * norm(im(dagger_product(w, z)))
    h_down = sternberg.hamiltonian_downstairs(x, pi, norm(z) ** 2, mu)
    x_e = 0.25 * norm(w) ** 2
    y_e = norm(z) ** 2
    h_up = 0.5 * x_e / y_e - 1.0 / y_e
    assert abs(h_down - h_up) < 1e-12


def test_hand_point_h_and_lrl():
    z = np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]])
    w = np.array([[0.0, 0, 0, 2], [0, 0, 0, 0]])
    x, pi, r = sternberg.cone_point(z), sternberg.pi_from_W(z, w), norm(z) ** 2
    mu = 0.5 * norm(im(dagger_product(w, z)))
    assert abs(mu - 1.0) < 1e-14
    assert abs(sternberg.hamiltonian_downstairs(x, pi, r, mu) + 0.5) < 1e-13
    assert abs(sternberg.sternberg_x_e(x, pi, r, mu) - 0.25 * norm(w) ** 2) < 1e-13
    # A_e = 1 always
    assert abs(lrl_downstairs(z, w, mu, jordan.identity(2)) - 1.0) < 1e-12


def test_lrl_matches_upstairs_formula():
    z, w = _pair(2)
    mu = 0.5 * norm(im(dagger_product(w, z)))
    x_e = 0.25 * norm(w) ** 2
    y_e = norm(z) ** 2
    for u in jordan.orthonormal_basis(2):
        x_u = 0.25 * vec_inner(w, mat_apply(u, w))
        y_u = vec_inner(z, mat_apply(u, z))
        upstairs = 0.5 * (x_u - y_u * x_e / y_e) + y_u / y_e
        assert abs(lrl_downstairs(z, w, mu, u) - upstairs) < 1e-11


def test_pullback_builds_no_tangent_basis(monkeypatch):
    # pi and the tangency check use the closed-form projection
    calls = []
    real = sternberg.tangent_basis

    def counted(z):
        calls.append(1)
        return real(z)

    monkeypatch.setattr(sternberg, "tangent_basis", counted)
    z, w = _pair(3)
    r1, r2 = sternberg.pullback_check(z, w)
    assert len(calls) == 0
    assert r1 < 1e-10 and r2 < 1e-10


def test_cotangent_rejects_non_tangent_pi():
    z, _ = _pair(2)
    with pytest.raises(ValueError):
        sternberg._check_tangent(z, jordan.random_herm(rng, 2))


@pytest.mark.parametrize("build", [sternberg.pi_from_W, sternberg.pullback_check])
def test_tangency_guard_fires_on_a_built_pi(monkeypatch, build):
    # the first _tangent_from_image call builds pi; a non-tangent part added
    # there must be caught by the guard, which projects through later calls
    z, w = _pair(2)
    extra = jordan.random_herm(rng, 2)
    assert norm(sternberg._tangent_project(z, extra) - extra) > 1e-3
    real, calls = sternberg._tangent_from_image, []

    def skewed(z, y):
        calls.append(1)
        return real(z, y) + (extra if len(calls) == 1 else 0.0)

    monkeypatch.setattr(sternberg, "_tangent_from_image", skewed)
    with pytest.raises(ValueError, match="not tangent"):
        build(z, w)


def test_closed_form_projection_matches_tangent_basis():
    for n in (2, 3, 4):
        z, _ = _pair(n)
        basis = sternberg.tangent_basis(z)
        # independent reference: least squares on the spanning tangents
        # n(v Z^dag + Z v^dag) over the coordinate directions v
        span = np.array(
            [jordan.coords(jordan.herm_from_vector_pair(v.reshape(n, 4), z))
             for v in np.eye(4 * n)]
        ).T
        for _ in range(5):
            u = jordan.random_herm(rng, n)
            via_basis = sum(b * jordan.inner(b, u) for b in basis)
            assert norm(sternberg._tangent_project(z, u) - via_basis) < 1e-12
            coeff = np.linalg.lstsq(span, jordan.coords(u), rcond=None)[0]
            assert norm(jordan.from_coords(span @ coeff, n) - via_basis) < 1e-12


def _stack(n, k, seed=11):
    return realization.sample_point(n, SeededRng(seed), k)


@pytest.mark.parametrize("build", [sternberg.pi_from_W, sternberg.pullback_check])
def test_tangency_guard_judges_every_point_of_a_stack(monkeypatch, build):
    # a non-tangent part added to the pi of one point of 50 must be caught
    zs, ws = _stack(2, 50)
    build(zs, ws)  # the unskewed stack passes
    extra = np.zeros((50, 2, 2, 4))
    extra[31] = jordan.random_herm(rng, 2)
    assert norm(sternberg._tangent_project(zs[31], extra[31]) - extra[31]) > 1e-3
    real, calls = sternberg._tangent_from_image, []

    def skewed(z, y):
        calls.append(1)
        return real(z, y) + (extra if len(calls) == 1 else 0.0)

    monkeypatch.setattr(sternberg, "_tangent_from_image", skewed)
    with pytest.raises(ValueError, match="not tangent"):
        build(zs, ws)


@pytest.mark.parametrize("build", [sternberg.cone_point,
                                   lambda z: sternberg.pi_from_W(z, np.ones_like(z))],
                         ids=["cone_point", "pi_from_W"])
def test_a_short_z_in_a_stack_is_refused(build):
    # one point of 50 with |Z| <= DOMAIN_EPS
    zs, _ = _stack(2, 50)
    build(zs)
    zs[17] *= 0.5 * DOMAIN_EPS / norm(zs[17])
    with pytest.raises(ValueError, match="Z != 0"):
        build(zs)


@pytest.mark.parametrize("n", range(2, 9))
def test_pullback_block_stays_within_its_budget(n):
    """One verify-pullback block, from its sample points through
    pullback_check, peaks within _BLOCK_BYTES."""
    gen = SeededRng(3)
    sternberg.pullback_check(*realization.sample_point(n, gen, 1))  # warm the cached basis
    tracemalloc.start()
    try:
        sternberg.pullback_check(*realization.sample_point(n, gen, realization.block_points(n)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= realization._BLOCK_BYTES


def test_pullback_block_at_n1_is_an_exception_to_its_budget():
    """At n = 1 a verify-pullback block of 3,120 points passes
    _BLOCK_BYTES, within the 3 times of it that block_points states
    (about 1.4 MB): the model does not count the per-point scalars."""
    gen = SeededRng(3)
    sternberg.pullback_check(*realization.sample_point(1, gen, 1))  # warm the cached basis
    tracemalloc.start()
    try:
        sternberg.pullback_check(*realization.sample_point(1, gen, realization.block_points(1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert realization._BLOCK_BYTES < peak <= 3 * realization._BLOCK_BYTES
