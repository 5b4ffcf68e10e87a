import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from helpers import block_bytes

import sp1kepler
from sp1kepler import dynamics, realization
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
    assert rep["schema"] == "2"
    assert rep["dim"] == 28
    assert rep["passed"] is True


def test_verify_algebra_n1_passes(tmp_path):
    out = tmp_path / "r.json"
    res = _run(["verify-algebra", "--n", "1", "--triples", "20", "--output", str(out)])
    assert res.exit_code == 0
    rep = _load(out)
    assert rep["passed"] is True
    assert rep["dim"] == rep["dim_expected"] == 6


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


@pytest.mark.parametrize("args", [
    ["verify-algebra", "--n", "1", "--triples", "1"],
    ["verify-realization", "--n", "1"],
    ["verify-quadratic", "--samples", "1"],
    ["verify-pullback", "--samples", "1"],
    ["simulate", "--t-end", "0"],
])
def test_output_in_missing_directory_is_usage_error(tmp_path, args):
    res = CliRunner().invoke(main, args + ["--output", str(tmp_path / "nodir" / "r")])
    assert res.exit_code == 2, res.output
    assert "does not exist" in res.output
    assert list(tmp_path.iterdir()) == []


# the body of the installed console script, with the modules that no command
# may load reported at interpreter exit
_GUARDED_ENTRY = (
    "import atexit, sys\n"
    "atexit.register(lambda: print('loaded:', [m for m in ('numpy.random', '_hashlib')"
    " if m in sys.modules], file=sys.stderr))\n"
    "from sp1kepler.cli import main\n"
    "sys.exit(main())\n"
)


@pytest.mark.parametrize("args, code", [
    (["verify-algebra", "--n", "2", "--triples", "5"], 0),
    (["verify-realization", "--n", "1"], 0),
    (["verify-quadratic", "--samples", "5"], 0),
    (["verify-pullback", "--samples", "5"], 0),
    (["simulate", "--dt", "1e-3", "--t-end", "0.01"], 0),
    (["simulate", "--initial", "infall"], 3),
])
def test_commands_load_neither_numpy_random_nor_hashlib(tmp_path, args, code):
    """Seeded draws come from the standard library's Mersenne Twister, so a
    command's process never imports numpy.random or, through it, OpenSSL."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sp1kepler.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _GUARDED_ENTRY] + args
                          + ["--output", str(tmp_path / "out")], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.splitlines()[-1] == "loaded: []"


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


@pytest.mark.parametrize("n", [2, 3])
def test_verify_pullback_is_block_independent(tmp_path, monkeypatch, n):
    """One point a block, seven (51 samples: seven blocks and a tail of two)
    and the default block give the same maxima, bit for bit."""
    out = tmp_path / "r.json"
    reports = []
    for budget in (block_bytes(1, n), block_bytes(7, n), realization._BLOCK_BYTES):
        monkeypatch.setattr(realization, "_BLOCK_BYTES", budget)
        res = _run(["verify-pullback", "--n", str(n), "--samples", "51", "--output", str(out)])
        assert res.exit_code == 0
        reports.append(_load(out)["residuals"])
    assert reports[0] == reports[1] == reports[2]
    assert max(reports[0].values()) > 0.0


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
    # Z_0 = 5e-9 and W_0 = -1 in the flat state, Z entries then W entries
    start = [0.0] * 16
    start[0], start[8] = 5e-9, -1.0
    assert rep["initial_state"] == start


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


@pytest.mark.parametrize("chunk, args, rows", [
    # 51 samples: seven full blocks and a tail of two
    (7, ["--dt", "1e-2", "--t-end", "0.5"], 51),
    # six accepted samples, the midpoint step fails at the start of a block
    (3, ["--method", "midpoint", "--dt", "2", "--t-end", "40", "--mu", "0"], 6),
    # the same abort inside a block: one full block and two accepted rows
    (4, ["--method", "midpoint", "--dt", "2", "--t-end", "40", "--mu", "0"], 6),
    # the near-collision guard stops the first step
    (7, ["--initial", "infall"], 1),
])
def test_simulate_stream_equals_whole_trajectory(tmp_path, monkeypatch, chunk, args, rows):
    """The streamed run writes and reports what integrate -> to_csv ->
    conserved_report gives on the whole trajectory, bit for bit."""
    monkeypatch.setattr(realization, "_BLOCK_BYTES", block_bytes(chunk, 2))
    base = tmp_path / "run"
    res = _run(["simulate"] + args + ["--output", str(base)])
    rep = _load(str(base) + ".json")
    cfg = rep["config"]
    p0 = np.array(rep["initial_state"])
    ref = tmp_path / "ref.csv"
    try:
        tr = dynamics.integrate(p0, cfg["dt"], cfg["t_end"], cfg["method"])
    except dynamics.IntegrationAbort as err:
        tr = err.partial
        assert res.exit_code == 3
        assert rep["aborted"] == "%s: %s" % (err.kind, err)
    else:
        assert res.exit_code == 0
        assert rep["conserved"] == dynamics.conserved_report(tr)
    assert len(tr) == rows
    tr.to_csv(str(ref))
    streamed = (tmp_path / "run.csv").read_text()
    assert streamed == ref.read_text()
    # one header, then every accepted row in order, as one savetxt of the whole
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack([tr.times, tr.states]), fmt="%.17g", delimiter=",")
    assert streamed.split("\n", 1)[1] == buf.getvalue()


def _simulate_peak(base, samples):
    args = ["simulate", "--dt", "1e-3", "--t-end", repr((samples - 1) * 1e-3),
            "--output", str(base)]
    tracemalloc.start()
    try:
        res = _run(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0
    assert len((base.parent / (base.name + ".csv")).read_text().splitlines()) == samples + 1
    return peak


def test_simulate_memory_does_not_grow_with_t_end(tmp_path, monkeypatch):
    # A block's working set, which _BLOCK_BYTES bounds, is about nine
    # times the memory of its samples at n = 2, so a run that held its
    # whole trajectory would pass a 1.5x bound at 4 blocks (1.34x
    # measured); at 16 blocks it reads 2.7x.
    chunk = 250
    monkeypatch.setattr(realization, "_BLOCK_BYTES", block_bytes(chunk, 2))
    base = tmp_path / "run"
    _simulate_peak(base, chunk)  # warm the cached basis outside the measurement
    assert _simulate_peak(base, 16 * chunk) <= 1.5 * _simulate_peak(base, chunk)
