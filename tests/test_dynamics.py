import numpy as np
import pytest

from sp1kepler import dynamics, realization
from sp1kepler.poisson import PhasePoint
from sp1kepler.quat import norm

rng = np.random.default_rng(2024)


def _hand_point():
    z = np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]])
    w = np.array([[0.0, 0, 0, 2], [0, 0, 0, 0]])
    return PhasePoint(z, w)


def test_hamiltonian_values():
    assert abs(dynamics.hamiltonian_upstairs(_hand_point()) + 0.5) < 1e-14
    z = np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]])
    p = PhasePoint(z, np.zeros((2, 4)))
    assert abs(dynamics.hamiltonian_upstairs(p) + 1.0) < 1e-14


def test_hamiltonian_scaling():
    p = realization.sample_leaf(realization.LeafSpec(2, 1.0), rng)
    lam = 1.7
    q = PhasePoint(p.Z * lam, p.W)
    wsq = norm(p.W) ** 2
    zsq = norm(p.Z) ** 2
    expected = wsq / (8 * lam**2 * zsq) - 1.0 / (lam**2 * zsq)
    assert abs(dynamics.hamiltonian_upstairs(q) - expected) < 1e-12


def test_gradient_matches_finite_differences():
    worst = 0.0
    for _ in range(100):
        p = realization.sample_leaf(realization.LeafSpec(2, 1.0), rng)
        flat = p.flatten()
        dz, dw = dynamics.hamiltonian_gradient(p)
        grad = np.concatenate([dz, dw])
        h = 1e-5
        for i in range(flat.size):
            step = np.zeros_like(flat)
            step[i] = h
            fd = (
                dynamics.hamiltonian_upstairs(flat + step)
                - dynamics.hamiltonian_upstairs(flat - step)
            ) / (2 * h)
            worst = max(worst, abs(fd - grad[i]))
    assert worst < 1e-6


def test_gradient_hand_point():
    dz, dw = dynamics.hamiltonian_gradient(_hand_point())
    expected = np.zeros(8)
    expected[3] = 0.5  # k/2 in the first slot
    assert np.allclose(dw, expected, atol=1e-14)


def test_integrate_validation():
    p = _hand_point()
    with pytest.raises(ValueError):
        dynamics.integrate(p, -1e-4, 1.0)
    with pytest.raises(ValueError):
        dynamics.integrate(p, 1e-4, 1.0, method="leapfrog")


def test_zero_t_end_single_sample():
    tr = dynamics.integrate(_hand_point(), 1e-4, 0.0)
    assert len(tr) == 1
    assert np.allclose(tr.states[0], _hand_point().flatten())


def test_bound_orbit_stays_bounded():
    tr = dynamics.integrate(_hand_point(), 1e-3, 50.0)
    radii = np.linalg.norm(tr.states[:, :8], axis=1)
    assert radii.max() < 10.0
    assert radii.min() > 0.1


def test_time_reversal():
    p0 = realization.sample_leaf(realization.LeafSpec(2, 1.0), np.random.default_rng(7))
    while dynamics.hamiltonian_upstairs(p0) > -0.1:
        p0 = realization.sample_leaf(
            realization.LeafSpec(2, 1.0), np.random.default_rng(8)
        )
    tr = dynamics.integrate(p0, 1e-4, 1.0, "rk4")
    end = tr.point(len(tr) - 1)
    back = dynamics.integrate(PhasePoint(end.Z, -end.W), 1e-4, 1.0, "rk4")
    final = back.point(len(back) - 1)
    err = max(np.abs(final.Z - p0.Z).max(), np.abs(final.W + p0.W).max())
    assert err < 1e-8


def test_conserved_report_drifts():
    p0 = _bound_start(np.random.default_rng(7))
    tr = dynamics.integrate(p0, 1e-3, 10.0, "rk4")
    rep = dynamics.conserved_report(tr)
    for key in ("drift_H", "drift_rho", "drift_mu", "drift_L_pairs", "drift_A"):
        assert rep[key] < 1e-8, (key, rep[key])
    assert rep["max_energy_residual"] < 1e-10


def _bound_start(gen):
    spec = realization.LeafSpec(2, 1.0)
    while True:
        p = realization.sample_leaf(spec, gen)
        if dynamics.hamiltonian_upstairs(p) <= -0.1:
            return p


def test_midpoint_no_secular_energy_drift():
    p0 = _bound_start(np.random.default_rng(3))
    mid = dynamics.integrate(p0, 1e-2, 100.0, "midpoint")
    long = dynamics.integrate(p0, 1e-2, 300.0, "midpoint")
    d_mid = dynamics.conserved_report(mid)["drift_H"]
    d_long = dynamics.conserved_report(long)["drift_H"]
    # bounded, not secular: tripling the horizon leaves the envelope flat
    assert d_long < 2.0 * max(d_mid, 1e-12)
    assert d_long < 1e-6


def test_near_collision_abort_with_partial():
    z = np.zeros((2, 4))
    z[0, 0] = 5e-9
    w = np.zeros((2, 4))
    w[0, 0] = -1.0
    p = PhasePoint(z, w)
    with pytest.raises(dynamics.NearCollisionError) as exc:
        dynamics.integrate(p, 1e-4, 1.0)
    partial = exc.value.partial
    assert len(partial) >= 1
    assert np.allclose(partial.states[0], p.flatten())


def test_csv_export(tmp_path):
    tr = dynamics.integrate(_hand_point(), 1e-3, 0.01)
    path = tmp_path / "traj.csv"
    tr.to_csv(str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("t,Z_0w,Z_0x,Z_0y,Z_0z,Z_1w")
    assert lines[0].endswith("W_1z")
    assert len(lines) == len(tr) + 1
    # round-trip the first state at full precision
    vals = np.array([float(v) for v in lines[1].split(",")])
    assert np.allclose(vals[1:], tr.states[0], rtol=0, atol=0)
