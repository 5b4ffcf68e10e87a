"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is either an exact identity checked through the
exact quadratic bracket engine, a residual bound on seeded random
sweeps, or a hand-computable number; nothing is tuned to observed
output.
"""

import time

import numpy as np
import pytest
from helpers import (
    bracket_numeric,
    hamiltonian_gradient,
    l_pair_observable,
    leaf_state,
    norm,
    quad_value,
    random_phase_point,
    random_quad_observable,
    random_qvector,
    time_reversed,
    x_observable,
    y_observable,
)

from sp1kepler import conformal, dynamics, jordan, realization, sternberg
from sp1kepler.poisson import bracket_exact, quad_residual

GRID_N = (2, 3, 4, 5)
GRID_MU = (0.0, 0.5, 1.0, 3.0)
GRID_SAMPLES = 1000


def _report(num, passed, detail):
    print("criterion %d: %s (%s)" % (num, "PASS" if passed else "FAIL", detail))
    assert passed, detail


@pytest.fixture(scope="module")
def leaf_grid():
    """1000 seeded leaf points for each (n, mu) cell, stacked per cell."""
    rng = np.random.default_rng(20240901)
    grid = {}
    for n in GRID_N:
        for mu in GRID_MU:
            grid[(n, mu)] = realization.sample_leaf(n, mu, rng, GRID_SAMPLES)
    return grid


def test_criterion_1_algebra_closure_and_jacobi():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst_random = 0.0
    for n in (2, 3):
        for _ in range(1000):
            a, b, c = conformal.random_element(rng, n, 3).T
            worst_random = max(worst_random, conformal.jacobi_residual(n, a, b, c))
    # all generator triples, via the structure-constants tensor over a full
    # basis (covers every generator triple exactly by trilinearity) plus an
    # explicit sweep over mixed generator triples at n = 2
    worst_gen = max(conformal.jacobi_tensor_residual(2), conformal.jacobi_tensor_residual(3))
    dims_ok = conformal.co_dimension(2) == 28 and conformal.co_dimension(3) == 66
    elapsed = time.time() - t0
    passed = worst_random < 1e-10 and worst_gen < 1e-10 and dims_ok and elapsed < 30
    _report(1, passed,
            "jacobi random %.2e, generators %.2e, dims %s, %.1fs"
            % (worst_random, worst_gen, dims_ok, elapsed))


def test_criterion_2_exact_realization_relations():
    t0 = time.time()
    worst = 0.0
    for n in (2, 3, 4, 5):
        worst = max(worst, max(realization.verify_so_star_relations(n).values()))
    elapsed = time.time() - t0
    passed = worst < 1e-12 and elapsed < 120
    _report(2, passed, "max residual %.2e over n=2..5, %.1fs" % (worst, elapsed))


def test_criterion_3_sphere_relations():
    worst = 0.0
    for n in (2, 3):
        xi = realization.xi_observables(n)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            worst = max(worst, quad_residual(bracket_exact(xi[a], xi[b]), xi[c]))
    passed = worst < 1e-12
    _report(3, passed, "max residual %.2e" % worst)


def test_criterion_4_primary_quadratic(leaf_grid):
    worst = 0.0
    for (n, mu), (zs, ws) in leaf_grid.items():
        vals = realization.family_values(n, zs, ws)
        worst = max(worst, float(realization.primary_quadratic_residuals(n, vals).max()))
    passed = worst < 1e-10
    _report(4, passed, "max residual %.2e over the (n, mu) grid" % worst)


def test_criterion_5_secondary_and_energy(leaf_grid):
    worst = 0.0
    for (n, mu), (zs, ws) in leaf_grid.items():
        vals = realization.family_values(n, zs, ws)
        worst = max(worst, float(realization.secondary_quadratic_residuals(n, vals).max()))
        worst = max(worst, float(realization.energy_formula_residuals(n, vals).max()))
    # hand-checkable point: Z = (1,0), W = (2k,0), n = 2
    z = np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]])
    w = np.array([[0.0, 0, 0, 2], [0, 0, 0, 0]])
    h = dynamics.hamiltonian_upstairs(np.concatenate((z, w), axis=None))
    v = realization.family_values(2, z[None], w[None])
    lhs_v = float(np.dot(v["X"][0], v["Y"][0]))
    rhs_v = 2.0 * (float(v["L_e"][0]) ** 2 + float(v["mu"][0]) ** 2)
    hand_ok = abs(h + 0.5) < 1e-12 and abs(lhs_v - 2.0) < 1e-12 and abs(rhs_v - 2.0) < 1e-12
    passed = worst < 1e-9 and hand_ok
    _report(5, passed, "max residual %.2e, hand point H=%.3f, (v) %g=%g"
            % (worst, h, lhs_v, rhs_v))


def test_criterion_6_pullback_identities():
    rng = np.random.default_rng(6)
    worst = 0.0
    for n in (2, 3, 4):
        points = []
        for _ in range(1000):
            z = random_qvector(rng, n)
            while norm(z) < 0.3:
                z = random_qvector(rng, n)
            points.append((z, random_qvector(rng, n)))
        r1, r2 = sternberg.pullback_check(*(np.array(p) for p in zip(*points)))
        worst = max(worst, r1.max(), r2.max())
    passed = worst < 1e-9
    _report(6, passed, "max residual %.2e over 1000 points, n=2..4" % worst)


def test_criterion_7_oracle_agreement():
    rng = np.random.default_rng(7)
    n = 2
    worst_bracket = 0.0
    for _ in range(500):
        f = random_quad_observable(rng, n)
        g = random_quad_observable(rng, n)
        p = random_phase_point(rng, n)
        exact = quad_value(bracket_exact(f, g), p)
        numeric = bracket_numeric(f, g, p, h=1e-5)
        worst_bracket = max(worst_bracket, abs(exact - numeric) / max(1.0, abs(exact)))
    worst_grad = 0.0
    for _ in range(50):
        flat = leaf_state(n, 1.0, rng)
        grad = np.concatenate(hamiltonian_gradient(flat))
        for i in range(flat.size):
            step = np.zeros_like(flat)
            step[i] = 1e-5
            fd = (dynamics.hamiltonian_upstairs(flat + step)
                  - dynamics.hamiltonian_upstairs(flat - step)) / 2e-5
            worst_grad = max(worst_grad, abs(fd - grad[i]))
    passed = worst_bracket < 1e-6 and worst_grad < 1e-6
    _report(7, passed, "bracket %.2e, gradient %.2e" % (worst_bracket, worst_grad))


def test_criterion_8_dynamics():
    t0 = time.time()
    rng = np.random.default_rng(8)
    p0 = leaf_state(2, 1.0, rng)
    while dynamics.hamiltonian_upstairs(p0) >= -0.1:
        p0 = leaf_state(2, 1.0, rng)
    tr = dynamics.integrate(p0, 1e-4, 10.0, "rk4")
    rep = dynamics.conserved_report(tr)
    drifts = {k: v for k, v in rep.items() if k.startswith("drift_")}
    worst_drift = max(drifts.values())
    energy_resid = rep["max_energy_residual"]
    # time reversal
    back = dynamics.integrate(time_reversed(tr.states[-1]), 1e-4, 10.0, "rk4")
    rev = np.abs(time_reversed(back.states[-1]) - p0).max()
    elapsed = time.time() - t0
    passed = worst_drift < 1e-8 and energy_resid < 1e-8 and rev < 1e-8 and elapsed < 60
    _report(8, passed, "H=%.4f drift %.2e, energy relation %.2e, reversal %.2e, %.1fs"
            % (rep["H"], worst_drift, energy_resid, rev, elapsed))


def test_criterion_9_conservation_brackets():
    rng = np.random.default_rng(9)
    worst = 0.0
    for n in (2, 3):
        basis = jordan.orthonormal_basis(n)
        d = len(basis)
        e = jordan.identity(n)

        def a_fn(alpha):
            xo = x_observable(basis[alpha])
            yo = y_observable(basis[alpha])
            xe, ye = x_observable(e), y_observable(e)

            def fn(flat):
                y_e = quad_value(ye, flat)
                x_e = quad_value(xe, flat)
                return 0.5 * (quad_value(xo, flat) - quad_value(yo, flat) * x_e / y_e) \
                    + quad_value(yo, flat) / y_e

            return fn

        for _ in range(100):
            p = leaf_state(n, 1.0, rng)
            a, b = rng.integers(0, d, size=2)
            lab = l_pair_observable(basis[a], basis[b])
            val = bracket_numeric(dynamics.hamiltonian_upstairs, lab, p, h=1e-5)
            worst = max(worst, abs(val))
            alpha = int(rng.integers(0, d))
            val = bracket_numeric(dynamics.hamiltonian_upstairs, a_fn(alpha), p, h=1e-5)
            worst = max(worst, abs(val))
    passed = worst < 1e-6
    _report(9, passed, "max |{H, conserved}| %.2e" % worst)
