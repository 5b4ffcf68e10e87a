import io
import tracemalloc

import numpy as np
import pytest
from helpers import (
    block_bytes,
    hamiltonian_gradient,
    leaf_point,
    leaf_state,
    norm,
    random_qvector,
    time_reversed,
)

from sp1kepler import dynamics, jordan, quat, realization

rng = np.random.default_rng(2024)


def _hand_point():
    """Z = (1, 0), W = (2k, 0) at n = 2, as a flat state."""
    y = np.zeros(16)
    y[0], y[8 + 3] = 1.0, 2.0
    return y


def test_flat_state_layout():
    # flat states are entry-major, (w, x, y, z) per entry, Z then W, and
    # that is how the drift fold splits them
    n = 3
    z, w = random_qvector(rng, n), random_qvector(rng, n)
    flat = np.concatenate((z, w), axis=None)
    assert flat[4 * 2 + 3] == z[2, 3] and flat[12 + 4 * 1 + 2] == w[1, 2]
    series, residual = dynamics._chunk_series(n, flat[None])
    v = realization.family_values(n, z[None], w[None])
    assert np.array_equal(series["drift_rho"], v["rho"])
    assert np.array_equal(series["drift_L_pairs"], v["Lpair"])
    assert np.array_equal(residual, realization.energy_formula_residuals(n, v))


def test_hamiltonian_values():
    assert abs(dynamics.hamiltonian_upstairs(_hand_point()) + 0.5) < 1e-14
    y = _hand_point()
    y[8:] = 0.0
    assert abs(dynamics.hamiltonian_upstairs(y) + 1.0) < 1e-14


def test_hamiltonian_scaling():
    z, w = leaf_point(2, 1.0, rng)
    lam = 1.7
    q = np.concatenate((z * lam, w), axis=None)
    wsq = norm(w) ** 2
    zsq = norm(z) ** 2
    expected = wsq / (8 * lam**2 * zsq) - 1.0 / (lam**2 * zsq)
    assert abs(dynamics.hamiltonian_upstairs(q) - expected) < 1e-12


def test_gradient_matches_finite_differences():
    worst = 0.0
    for _ in range(100):
        flat = leaf_state(2, 1.0, rng)
        dz, dw = hamiltonian_gradient(flat)
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
    dz, dw = hamiltonian_gradient(_hand_point())
    expected = np.zeros(8)
    expected[3] = 0.5  # k/2 in the first slot
    assert np.allclose(dw, expected, atol=1e-14)


def test_integrate_validation():
    p = _hand_point()
    with pytest.raises(ValueError):
        dynamics.integrate(p, -1e-4, 1.0)
    with pytest.raises(ValueError):
        dynamics.integrate(p, 1e-4, 1.0, method="leapfrog")


def test_sample_count_refuses_a_non_finite_step_count():
    # both values finite, their quotient not: no int of it, no flow
    assert dynamics.sample_count(1e-3, 1.0) == 1001
    with pytest.raises(ValueError, match="not a finite number of steps"):
        dynamics.sample_count(1e-300, 1e10)
    with pytest.raises(ValueError, match="not a finite number of steps"):
        dynamics.flow_blocks(_hand_point(), 5e-324, 1.0)


def test_integrate_refuses_a_trajectory_beyond_physical_memory():
    # 1e11 samples: refused before the arrays are allocated
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match="100000000001 samples"):
            dynamics.integrate(_hand_point(), 1e-4, 1e7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("build, need, what", [
    (lambda: jordan.orthonormal_basis.__wrapped__(3), 32 * 15 * 3 * 3, r"the basis of H_3\(H\)"),
    (lambda: realization.block_points(3), realization._point_bytes(3),
     "one point's working set at n = 3"),
    (lambda: dynamics.integrate(np.eye(1, 24).ravel(), 1e-3, 0.1), 101 * 25 * 8,
     "a trajectory of 101 samples"),
])
def test_one_physical_memory_probe_bounds_each_large_allocation(monkeypatch, build, need, what):
    # at n = 3 the basis, one point's block working set and a trajectory all
    # read quat.physical_bytes: refused one byte short, built at the bound
    monkeypatch.setattr(quat, "physical_bytes", lambda: need - 1)
    with pytest.raises(MemoryError, match=what + " needs 0.0 GiB; physical memory is 0.0 GiB"):
        build()
    monkeypatch.setattr(quat, "physical_bytes", lambda: need)
    build()


def test_zero_t_end_single_sample():
    tr = dynamics.integrate(_hand_point(), 1e-4, 0.0)
    assert len(tr) == 1
    assert np.allclose(tr.states[0], _hand_point())


def test_bound_orbit_stays_bounded():
    tr = dynamics.integrate(_hand_point(), 1e-3, 50.0)
    radii = np.linalg.norm(tr.states[:, :8], axis=1)
    assert radii.max() < 10.0
    assert radii.min() > 0.1


def test_time_reversal():
    p0 = leaf_state(2, 1.0, np.random.default_rng(7))
    while dynamics.hamiltonian_upstairs(p0) > -0.1:
        p0 = leaf_state(2, 1.0, np.random.default_rng(8))
    tr = dynamics.integrate(p0, 1e-4, 1.0, "rk4")
    back = dynamics.integrate(time_reversed(tr.states[-1]), 1e-4, 1.0, "rk4")
    err = np.abs(time_reversed(back.states[-1]) - p0).max()
    assert err < 1e-8


def test_conserved_report_drifts():
    p0 = _bound_start(np.random.default_rng(7))
    tr = dynamics.integrate(p0, 1e-3, 10.0, "rk4")
    rep = dynamics.conserved_report(tr)
    for key in ("drift_H", "drift_rho", "drift_mu", "drift_L_pairs", "drift_A"):
        assert rep[key] < 1e-8, (key, rep[key])
    assert rep["max_energy_residual"] < 1e-10


def _bound_start(gen):
    while True:
        p = leaf_state(2, 1.0, gen)
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
    p = np.zeros(16)
    p[0], p[8] = 5e-9, -1.0  # Z_0 = 5e-9, W_0 = -1
    with pytest.raises(dynamics.NearCollisionError) as exc:
        dynamics.integrate(p, 1e-4, 1.0)
    partial = exc.value.partial
    assert len(partial) >= 1
    assert np.allclose(partial.states[0], p)


def _csv_reference(tr):
    """The CSV body below the header: one np.savetxt of the whole trajectory."""
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack([tr.times, tr.states]), fmt="%.17g", delimiter=",")
    return buf.getvalue()


def test_csv_export(tmp_path, monkeypatch):
    # 11 samples: one full block of 7, one partial
    monkeypatch.setattr(realization, "_BLOCK_BYTES", block_bytes(7, 2))
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
    header, body = path.read_text().split("\n", 1)
    assert body == _csv_reference(tr)
    # an aborted run exports its accepted samples the same way
    with pytest.raises(dynamics.ConvergenceError) as exc:
        dynamics.integrate(_hand_point(), 1.0, 60.0, "midpoint")
    partial = exc.value.partial
    assert len(partial) == 2
    part_path = tmp_path / "partial.csv"
    partial.to_csv(str(part_path))
    part_header, part_body = part_path.read_text().split("\n", 1)
    assert part_header == header
    assert part_body == _csv_reference(partial)


def test_conserved_report_exact_across_chunks(monkeypatch):
    """Chunked folds equal one whole-array pass, bit for bit."""
    tr = dynamics.integrate(_bound_start(np.random.default_rng(11)), 1e-2, 0.5)
    assert len(tr) == 51  # 7 blocks of 7 and a tail of 2
    monkeypatch.setattr(realization, "_BLOCK_BYTES", block_bytes(7, 2))
    rep = dynamics.conserved_report(tr)

    n = tr.n
    zs = tr.states[:, : 4 * n].reshape(-1, n, 4)
    ws = tr.states[:, 4 * n :].reshape(-1, n, 4)
    v = realization.family_values(n, zs, ws)
    h, a = realization.kepler_scalars(v["X"], v["Y"], v["X_e"], v["Y_e"])

    def drift(series):
        flat = series.reshape(series.shape[0], -1)
        den = np.maximum(1.0, np.abs(flat[0]))
        return float(np.max(np.abs(flat - flat[0]) / den))

    expected = {
        "H": float(h[0]),
        "mu": float(v["mu"][0]),
        "drift_H": drift(h),
        "drift_rho": drift(v["rho"]),
        "drift_mu": drift(v["mu"]),
        "drift_L_pairs": drift(v["Lpair"]),
        "drift_A": drift(a),
        "drift_L_squared": drift(0.5 * np.einsum("Nab,Nab->N", v["Lpair"], v["Lpair"])),
        "drift_A_squared": drift(-1.0 + np.einsum("Nd,Nd->N", a, a)),
        "max_energy_residual": float(
            np.max(realization.energy_formula_residuals(n, v))
        ),
    }
    assert rep == expected
    assert rep["drift_H"] > 0.0


def _report_peak(tr):
    tracemalloc.start()
    try:
        dynamics.conserved_report(tr)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_conserved_report_memory_does_not_grow(monkeypatch):
    chunk = 1000
    monkeypatch.setattr(realization, "_BLOCK_BYTES", block_bytes(chunk, 2))
    tr = dynamics.integrate(_hand_point(), 1e-3, (4 * chunk - 1) * 1e-3)
    assert len(tr) == 4 * chunk
    one = dynamics.Trajectory(tr.times[:chunk], tr.states[:chunk], tr.n)
    dynamics.conserved_report(one)  # warm the cached basis outside the measurement
    assert _report_peak(tr) <= 1.5 * _report_peak(one)


def test_conserved_report_blocks_are_bounded_in_bytes():
    # at n = 3 the byte budget of a block gives blocks of 74 samples
    n = 3
    block = realization.block_points(n)
    assert block == 74
    p0 = leaf_state(n, 1.0, np.random.default_rng(13))
    tr = dynamics.integrate(p0, 1e-4, (4 * block - 1) * 1e-4)
    assert len(tr) == 4 * block
    one = dynamics.Trajectory(tr.times[:block], tr.states[:block], n)
    dynamics.conserved_report(one)  # warm the cached basis outside the measurement
    assert _report_peak(tr) <= 1.5 * _report_peak(one)


def _first_add_peak(n):
    """Peak of the first DriftFold.add of a full block, whose fold keeps the
    first sample's rows x0 and den."""
    gen = np.random.default_rng(17)
    states = np.array([leaf_state(n, 1.0, gen) for _ in range(realization.block_points(n))])
    dynamics.DriftFold(n).add(states[:1])  # warm the cached basis outside the measurement
    fold = dynamics.DriftFold(n)
    tracemalloc.start()
    try:
        fold.add(states)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", range(2, 9))
def test_drift_fold_block_stays_within_its_budget(n):
    """One DriftFold.add of a full block, family_values included, peaks
    within _BLOCK_BYTES."""
    assert _first_add_peak(n) <= realization._BLOCK_BYTES


@pytest.mark.parametrize("n, over", [(1, 2 * realization._BLOCK_BYTES), (9, 16 * 153**2)])
def test_drift_fold_block_exceptions_to_its_budget(n, over):
    """The two exceptions block_points states for the fold: at n = 1 the
    per-point scalars the model leaves out (about 0.6 MB), and at n = 9,
    where a block is one point, the fold's x0 and den rows, 16 d^2 bytes
    (d = 153) for the L pairs, beside it (about 0.76 MB)."""
    assert realization._BLOCK_BYTES < _first_add_peak(n) <= realization._BLOCK_BYTES + over
