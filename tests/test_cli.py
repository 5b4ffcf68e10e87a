import json
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from sp1kepler.cli import main


def _run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_verify_algebra_pass(tmp_path):
    out = tmp_path / "r.json"
    res = _run(["verify-algebra", "--n", "2", "--seed", "7", "--triples", "50",
                "--output", str(out)])
    assert res.exit_code == 0
    rep = _load(out)
    assert rep["schema"] == "1"
    assert rep["dim"] == 28
    assert rep["passed"] is True


def test_verify_algebra_n1_passes(tmp_path):
    out = tmp_path / "r.json"
    res = _run(["verify-algebra", "--n", "1", "--triples", "20", "--output", str(out)])
    assert res.exit_code == 0
    assert _load(out)["passed"] is True


def test_verify_algebra_n0_usage_error():
    res = _run(["verify-algebra", "--n", "0"])
    assert res.exit_code == 2


def test_verify_realization(tmp_path):
    out = tmp_path / "r.json"
    res = _run(["verify-realization", "--n", "2", "--output", str(out)])
    assert res.exit_code == 0
    rep = _load(out)
    assert all(v < 1e-12 for v in rep["residuals"].values())


def test_verify_realization_bad_tol():
    res = _run(["verify-realization", "--tol", "abc"])
    assert res.exit_code == 2


@pytest.mark.parametrize("args", [
    ["simulate", "--t-end", "inf"],
    ["simulate", "--t-end", "nan"],
    ["simulate", "--dt", "nan"],
    ["simulate", "--mu", "nan"],
    ["verify-quadratic", "--mu", "nan"],
    ["verify-quadratic", "--mu", "inf"],
    ["verify-algebra", "--tol", "nan"],
])
def test_non_finite_float_is_usage_error(tmp_path, args):
    res = _run(args + ["--output", str(tmp_path / "out")])
    assert res.exit_code == 2
    assert "is not a finite number" in res.output
    assert list(tmp_path.iterdir()) == []


def test_verify_quadratic(tmp_path):
    out = tmp_path / "r.json"
    res = _run(["verify-quadratic", "--n", "2", "--mu", "1", "--samples", "100",
                "--seed", "7", "--output", str(out)])
    assert res.exit_code == 0
    rep = _load(out)
    names = set(rep["residuals"])
    assert names == {"primary", "secondary_i", "secondary_ii", "secondary_iii",
                     "secondary_iv", "secondary_v", "secondary_vi", "energy"}


def test_verify_quadratic_mu_zero(tmp_path):
    out = tmp_path / "r.json"
    res = _run(["verify-quadratic", "--mu", "0", "--samples", "50", "--output", str(out)])
    assert res.exit_code == 0


def test_verify_pullback(tmp_path):
    out = tmp_path / "r.json"
    res = _run(["verify-pullback", "--n", "2", "--samples", "50", "--output", str(out)])
    assert res.exit_code == 0
    assert _load(out)["passed"] is True


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify-quadratic", "--n", "2", "--samples", "50", "--seed", "11"]
    assert _run(args + ["--output", str(a)]).exit_code == 0
    assert _run(args + ["--output", str(b)]).exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_short_run(tmp_path):
    base = tmp_path / "traj"
    res = _run(["simulate", "--n", "2", "--mu", "1", "--seed", "7", "--dt", "1e-3",
                "--t-end", "1", "--output", str(base)])
    assert res.exit_code == 0
    rep = _load(str(base) + ".json")
    assert rep["passed"] is True
    assert rep["conserved"]["drift_H"] < 1e-8
    csv_lines = (tmp_path / "traj.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 1002


def test_simulate_t_end_zero(tmp_path):
    base = tmp_path / "traj"
    res = _run(["simulate", "--t-end", "0", "--dt", "1e-3", "--output", str(base)])
    assert res.exit_code == 0
    csv_lines = (tmp_path / "traj.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 2  # header + single sample


def test_simulate_infall_exits_3(tmp_path):
    base = tmp_path / "infall"
    res = _run(["simulate", "--initial", "infall", "--output", str(base)])
    assert res.exit_code == 3
    rep = _load(str(base) + ".json")
    assert rep["passed"] is False
    assert "near-collision" in rep["aborted"]


def test_simulate_bound_start_failure_exits_3(tmp_path):
    base = tmp_path / "heavy"
    res = _run(["simulate", "--mu", "40", "--t-end", "0.01", "--output", str(base)])
    assert res.exit_code == 3
    assert "failed to sample a bound start" in res.output


def test_simulate_midpoint_nonconvergence_exits_3(tmp_path):
    base = tmp_path / "coarse"
    res = _run(["simulate", "--method", "midpoint", "--dt", "3", "--t-end", "20", "--mu", "0",
                "--output", str(base)])
    assert res.exit_code == 3
    rep = _load(str(base) + ".json")
    assert rep["passed"] is False
    assert "no-convergence" in rep["aborted"]
    csv_lines = (tmp_path / "coarse.csv").read_text().strip().split("\n")
    assert len(csv_lines) >= 2  # header + at least the initial sample


def test_simulate_oversized_run_exits_3(tmp_path):
    # 1e11 samples: refused before any trajectory array is allocated
    base = tmp_path / "huge"
    tracemalloc.start()
    try:
        res = _run(["simulate", "--t-end", "1e7", "--output", str(base)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 3
    assert "100000000001 samples" in res.output
    assert peak < 16 * 2**20
    assert not (tmp_path / "huge.csv").exists()
