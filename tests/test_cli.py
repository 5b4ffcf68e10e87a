import errno
import io
import json
import re
import sys
import tracemalloc

import numpy as np
import pytest
from helpers import block_bytes, bound_start_oracle, modules_loaded_by
from helpers import run_cli as _run

import sp1kepler
from sp1kepler import cli, conformal, dynamics, realization
from sp1kepler.quat import SeededRng


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_verify_algebra_pass(tmp_path):
    out = tmp_path / "r.json"
    res = _run(["verify-algebra", "--n", "2", "--seed", "7", "--triples", "50",
                "--output", str(out)])
    assert res.exit_code == 0
    rep = _load(out)
    assert rep["schema"] == "3"
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


def test_algebra_commands_sort_keys_by_one_kernel(tmp_path, monkeypatch):
    """Every sparse sum of verify-algebra and verify-realization groups its
    keys by quat.group, on the stable sort of quat.view: np.unique, with its
    own sort, is never called."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", refuse)
    conformal.structure_constants.cache_clear()  # so that C is built under the patch
    for args in (["verify-algebra", "--n", "2", "--triples", "5"], ["verify-realization", "--n", "2"]):
        res = _run(args + ["--output", str(tmp_path / "r.json")])
        assert res.exit_code == 0, res.output


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
    res = _run(args + ["--output", str(tmp_path / "nodir" / "r")])
    assert res.exit_code == 2, res.output
    assert "does not exist" in res.output
    assert list(tmp_path.iterdir()) == []


# the body of the installed console script
_ENTRY = "import sys\nfrom sp1kepler.cli import main\nsys.exit(main())\n"

# numpy and every layer of the package, none of which loads before a command body runs
_NO_LAYER = {"numpy"} | {"sp1kepler." + m for m in sp1kepler.__all__}

# the layers that each command leaves unloaded: it imports only what it runs
_UNLOADED = {
    "verify-algebra": {"realization", "poisson", "dynamics", "sternberg"},
    "verify-realization": {"conformal", "dynamics", "sternberg"},
    "verify-quadratic": {"conformal", "dynamics", "sternberg"},
    "verify-pullback": {"conformal", "dynamics"},
    "simulate": {"conformal", "sternberg"},
}


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
    command's process never imports numpy.random or, through it, OpenSSL.
    Nor does it load a layer it does not run."""
    proc, loaded = modules_loaded_by(_ENTRY, *args, "--output", str(tmp_path / "out"))
    assert proc.returncode == code, proc.stderr
    unloaded = {"sp1kepler." + m for m in _UNLOADED[args[0]]}
    assert loaded & ({"numpy.random", "_hashlib"} | unloaded) == set()


def test_importing_the_cli_loads_no_layer():
    proc, loaded = modules_loaded_by("import sp1kepler.cli\n")
    assert proc.returncode == 0, proc.stderr
    assert "sp1kepler.cli" in loaded
    assert loaded & _NO_LAYER == set()


@pytest.mark.parametrize("args, code", [
    (["--help"], 0),
    (["verify-quadratic", "--help"], 0),
    (["verify-algebra", "--n", "0"], 2),
    (["verify-pullback", "--output", "{tmp}/nodir/r.json"], 2),
    ([], 2),
    (["simulate", "--t", "1"], 2),
])
def test_help_and_usage_errors_load_no_layer(tmp_path, args, code):
    """Everything the argument parser decides before a command body runs
    needs the standard library alone."""
    proc, loaded = modules_loaded_by(_ENTRY, *(a.format(tmp=tmp_path) for a in args))
    assert proc.returncode == code, proc.stderr
    assert loaded & _NO_LAYER == set()


@pytest.mark.parametrize("code, args, exit_code", [
    ("import sp1kepler.cli\n", [], 0),
    (_ENTRY, ["--help"], 0),
    (_ENTRY, ["verify-algebra", "--n", "0"], 2),
], ids=["import", "help", "usage-error"])
def test_the_cli_alone_loads_only_the_standard_library(code, args, exit_code):
    """Importing the CLI, its help and its usage errors load no module that
    a bare interpreter does not, outside the standard library and sp1kepler."""
    bare = modules_loaded_by("")[1]
    proc, loaded = modules_loaded_by(code, *args)
    assert proc.returncode == exit_code, proc.stderr
    tops = {m.split(".")[0] for m in loaded - bare}
    assert tops - set(sys.stdlib_module_names) == {"sp1kepler"}


# every option of each command with its default; the verify commands also take --output
_DEFAULTS = {
    "verify-algebra": {"--n": 2, "--triples": 1000, "--seed": 7, "--tol": 1e-10},
    "verify-realization": {"--n": 2, "--seed": 7, "--tol": 1e-12},
    "verify-quadratic": {"--n": 2, "--mu": 1.0, "--samples": 1000, "--seed": 7, "--tol": 1e-9},
    "verify-pullback": {"--n": 2, "--samples": 1000, "--seed": 7, "--tol": 1e-9},
    "simulate": {"--n": 2, "--mu": 1.0, "--dt": 1e-4, "--t-end": 10.0, "--method": "rk4",
                 "--initial": "bound", "--seed": 7, "--tol": 1e-8, "--output": "trajectory"},
}


@pytest.mark.parametrize("command", sorted(_DEFAULTS))
def test_command_help_lists_each_option_with_its_default(command):
    res = _run([command, "--help"])
    assert res.exit_code == 0
    defaults = _DEFAULTS[command]
    flags = set(re.findall(r"^ +(--[\w-]+)", res.output, re.M))
    assert flags == set(defaults) | {"--output"}
    text = " ".join(res.output.split())
    for flag, default in defaults.items():
        assert re.search(r"%s \S+ [^[]*\[default: %s[;\]]" % (flag, re.escape(str(default))),
                         text), flag


@pytest.mark.parametrize("args", [
    ["simulate", "--t", "1"],
    ["verify-algebra", "--tri", "5"],
    ["verify-quadratic", "--sam", "5"],
])
def test_abbreviated_option_is_usage_error(tmp_path, args):
    res = _run(args + ["--output", str(tmp_path / "r")])
    assert res.exit_code == 2
    assert list(tmp_path.iterdir()) == []


def test_output_that_is_a_directory_is_usage_error(tmp_path):
    res = _run(["verify-realization", "--n", "1", "--output", str(tmp_path)])
    assert res.exit_code == 2
    assert "is a directory" in res.output
    assert list(tmp_path.iterdir()) == []
    # simulate writes <base>.csv and <base>.json: either one a directory is
    # refused at parsing, before the run
    for name in ("run.csv", "run.json"):
        (tmp_path / name).mkdir()
        res = _run(["simulate", "--t-end", "0.01", "--output", str(tmp_path / "run")])
        assert res.exit_code == 2
        assert "%r is a directory" % str(tmp_path / name) in res.output
        assert list(tmp_path.rglob("*")) == [tmp_path / name]
        (tmp_path / name).rmdir()


def test_an_option_takes_a_value_that_starts_with_a_dash(tmp_path):
    # --tol -1e-9 is a threshold, not a flag: every residual is above it
    out = tmp_path / "r.json"
    res = _run(["verify-realization", "--n", "1", "--tol", "-1e-9", "--output", str(out)])
    assert res.exit_code == 1
    assert _load(out)["config"]["tol"] == -1e-9


@pytest.mark.parametrize("exit_with, code, says", [
    (None, 0, ""),
    (5, 5, ""),
    (cli._RuntimeAbort("no start"), 3, "Error: no start"),
    (MemoryError("too big"), 3, "Error: too big"),
    (MemoryError(), 3, "Error: out of memory"),
])
def test_main_runs_the_rebound_callback(monkeypatch, exit_with, code, says):
    """main looks each command up in main.commands when it runs and calls
    its callback, so a callback rebound there (as perfbench/tracer.py
    rebinds it) runs; main always ends in SystemExit, with exit 0 if the
    callback returns and 3 if it raises _RuntimeAbort or MemoryError."""
    calls = []

    def stub(**options):
        calls.append(options)
        if isinstance(exit_with, Exception):
            raise exit_with
        if exit_with is not None:
            sys.exit(exit_with)

    monkeypatch.setattr(cli.main.commands["verify-realization"], "callback", stub)
    res = _run(["verify-realization", "--n", "3"])
    assert res.exit_code == code
    assert says in res.output
    assert calls == [{"n": 3, "seed": 7, "tol": 1e-12, "output": None}]


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
    assert "in 10,000 draws at n = 2, mu = 40" in res.output


def test_simulate_bound_start_fails_from_n5(tmp_path):
    # |Z|^2 and |W|^2 of the Gaussian draw grow as 4n, while H <= -0.1
    # needs |W|^2 <= 8 - 0.8 |Z|^2: no bound start, no file
    res = _run(["simulate", "--n", "5", "--t-end", "0.001", "--output", str(tmp_path / "n5")])
    assert res.exit_code == 3
    assert "failed to sample a bound start" in res.output
    assert "n = 5, mu = 1" in res.output
    assert list(tmp_path.iterdir()) == []


def _bound_starts_agree(n, mu, seed):
    """cli._bound_start and the per-point loop at one seed: the same flat
    state bit for bit, the signs of zeros included, or the same message."""
    try:
        ref = bound_start_oracle(n, mu, SeededRng(seed))
    except cli._RuntimeAbort as err:
        with pytest.raises(cli._RuntimeAbort) as got:
            cli._bound_start(n, mu, SeededRng(seed))
        assert str(got.value) == str(err)
    else:
        y = cli._bound_start(n, mu, SeededRng(seed))
        assert np.array_equal(y, ref) and np.array_equal(np.signbit(y), np.signbit(ref))


@pytest.mark.parametrize("points", [None, 1, 7])
def test_bound_start_equals_the_per_point_oracle(monkeypatch, points):
    """Leaf stacks of block_points(n) points, at the default budget and in
    blocks of one and of seven points, give the first one-point draw with
    H <= -0.1.  Every start at n = 1-3 is found; n = 4 is left out, as 53
    of its 120 starts at these mu and seeds fail only after 10,000
    one-point draws of the oracle each (over a minute together)."""
    for n in range(1, 4):
        if points:
            monkeypatch.setattr(realization, "_BLOCK_BYTES", block_bytes(points, n))
        for mu in (0.0, 0.7, 1.0):
            for seed in range(1, 41):
                _bound_starts_agree(n, mu, seed)


@pytest.mark.parametrize("n, mu, seed", [(5, 1.0, 1), (2, 40.0, 7)])
def test_failed_bound_start_gives_the_oracle_message(n, mu, seed):
    _bound_starts_agree(n, mu, seed)


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


@pytest.mark.parametrize("command", ["verify-algebra", "verify-realization", "verify-quadratic",
                                     "verify-pullback", "simulate"])
def test_oversize_n_exits_3(tmp_path, command):
    # refused by the physical-memory probe before the basis or a block is
    # allocated (for simulate, by block_points in the bound start): one
    # line, no traceback, no report
    res = _run([command, "--n", "100000", "--output", str(tmp_path / "r.json")])
    assert res.exit_code == 3
    assert res.output.startswith("Error: ") and res.output.count("\n") == 1
    assert "physical memory is" in res.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, left", [
    (["verify-algebra", "--n", "1", "--triples", "5", "--output", "r.json"], []),
    (["simulate", "--t-end", "0.01", "--output", "r"], ["r.csv"]),
])
def test_failed_report_write_exits_3_and_leaves_no_temporary_file(tmp_path, monkeypatch,
                                                                  args, left):
    def refuse(src, dst):
        raise IsADirectoryError(21, "Is a directory", dst)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.os, "replace", refuse)
    res = _run(args)
    assert res.exit_code == 3
    assert res.output.startswith("Error: cannot write r") and res.output.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == left


def _dangling_csv(tmp_path, monkeypatch):
    # a link into a missing directory passes the --output check
    (tmp_path / "r.csv").symlink_to(tmp_path / "nowhere" / "x")


def _full_disk_at_second_block(tmp_path, monkeypatch):
    write, calls = dynamics.write_csv_block, []

    def second_block_fails(fh, times, states):
        calls.append(len(times))
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        write(fh, times, states)

    monkeypatch.setattr(dynamics, "write_csv_block", second_block_fails)


@pytest.mark.parametrize("fault", [_dangling_csv, _full_disk_at_second_block])
def test_simulate_csv_write_failure_exits_3(tmp_path, monkeypatch, fault):
    # 1,001 samples, four blocks at n = 2: one Error line, no traceback, no report
    monkeypatch.chdir(tmp_path)
    fault(tmp_path, monkeypatch)
    res = _run(["simulate", "--t-end", "0.1", "--output", "r"])
    assert res.exit_code == 3
    assert res.output.startswith("Error: cannot write r.csv: ") and res.output.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


def test_simulate_non_finite_step_count_exits_3(tmp_path):
    # each value is finite, but t_end / dt overflows to inf: refused with a
    # one-line error before any file is opened
    res = _run(["simulate", "--dt", "1e-300", "--t-end", "1e10", "--output", str(tmp_path / "r")])
    assert res.exit_code == 3
    assert res.output == "Error: t_end / dt = 1e+10 / 1e-300 is not a finite number of steps\n"
    assert list(tmp_path.iterdir()) == []


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
