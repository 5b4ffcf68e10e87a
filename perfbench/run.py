#!/usr/bin/env python3
"""The sp1kepler benchmark: fixed CLI workloads, timed end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload algebra --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --self-check

Each workload is a fixed mix of ``sp1kepler`` commands.  The benchmark runs
them as a user would, one fresh interpreter per command, one command at a
time (a closed loop of one client), and repeats the mix while another
pass still fits in ``--seconds``.  Every command gets ``--seed``; the
program receives nothing but the generated command lines.  Every report
is checked (see ``check``); a command that fails a check is counted in
``failed``, never dropped.

``--trace 0`` reports the end-to-end metrics; per-command times are the
median over passes.  ``--trace 1`` alternates untraced passes with passes
run under ``tracer.py`` and reports the per-layer metrics of LAYER_METRICS
plus the tracing overhead.  The last line of stdout is one JSON object;
the lines before it list every metric with its unit and sample count.
Per-run records and the spans go to ``perfbench/out/``.  Children run with
BLAS_THREADS BLAS threads and write their files into a temporary directory
under ``perfbench/out/`` that is removed at the end.  ``--self-check`` runs
tiny sizes plus one command that fails on purpose, and checks that every
metric of BENCHMARK.json is emitted with its unit and that the failure is
counted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 7
DEFAULT_SECONDS = 40
BLAS_THREADS = 1
COMMAND_TIMEOUT_S = 150.0

# the body of the installed ``sp1kepler`` console script
ENTRY = "import sys; from sp1kepler.cli import main; sys.exit(main())"
SETUP_PROBE = (
    "import time; t0 = time.perf_counter(); import sp1kepler.cli; "
    "t1 = time.perf_counter(); import sp1kepler; print(repr(t1 - t0)); print(sp1kepler.__file__)"
)
ENV_PROBE = """
import json, platform, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = "%s %s" % (blas.get("name"), blas.get("version"))
except Exception as exc:  # older numpy has no dict form
    blas = "unknown (%s)" % exc
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas}))
"""


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload, without ``--seed`` and ``--output``."""

    key: str | None  # the per-subcommand end-to-end metric it adds to
    argv: tuple
    expect: str = "report"  # report | trajectory | abort


def _quadratic_grid(samples):
    return [
        Command("verify_quadratic_s",
                ("verify-quadratic", "--samples", str(samples), "--n", str(n), "--mu", str(mu)))
        for n in (2, 3, 4, 5)
        for mu in (0, 1)
    ]


WORKLOADS = {
    "algebra": [
        Command("verify_algebra_s", ("verify-algebra", "--n", "2")),
        Command("verify_algebra_s", ("verify-algebra", "--n", "3")),
        Command("verify_realization_s", ("verify-realization", "--n", "2")),
        Command("verify_realization_s", ("verify-realization", "--n", "5")),
    ],
    "leaf": _quadratic_grid(1000) + [
        Command("verify_pullback_s", ("verify-pullback", "--n", "2")),
        Command("verify_pullback_s", ("verify-pullback", "--n", "4")),
    ],
    "flow": [
        Command("simulate_rk4_s", ("simulate",), "trajectory"),
        Command("simulate_midpoint_s", ("simulate", "--method", "midpoint", "--t-end", "2"),
                "trajectory"),
        Command(None, ("simulate", "--initial", "infall"), "abort"),
    ],
}

# tiny sizes, and one command that must fail (tol 0)
SELF_CHECK_FAILING = Command("verify_quadratic_s",
                             ("verify-quadratic", "--n", "2", "--samples", "20", "--tol", "0"))
SELF_CHECK_MIX = [
    Command("verify_algebra_s", ("verify-algebra", "--n", "2", "--triples", "5")),
    Command("verify_realization_s", ("verify-realization", "--n", "2")),
    Command("verify_quadratic_s", ("verify-quadratic", "--n", "2", "--samples", "20")),
    Command("verify_pullback_s", ("verify-pullback", "--n", "2", "--samples", "20")),
    Command("simulate_rk4_s", ("simulate", "--t-end", "0.01"), "trajectory"),
    Command("simulate_midpoint_s", ("simulate", "--method", "midpoint", "--t-end", "0.01"),
            "trajectory"),
    Command(None, ("simulate", "--initial", "infall"), "abort"),
    SELF_CHECK_FAILING,
]

# End-to-end metrics printed on the last line (BENCHMARK.json end_to_end).
# wall_s and the per-subcommand times are printed in the table only: on a
# shared 2-core host their run-to-run spread exceeds any bound the gate
# allows (see README.md), and the per-subcommand ones apply to one
# workload each.  failed_frac is table-only because it is 0 when all is well.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB"}
SUBCOMMAND_METRICS = ("verify_algebra_s", "verify_realization_s", "verify_quadratic_s",
                      "verify_pullback_s", "simulate_rk4_s", "simulate_midpoint_s")
SUBCOMMANDS = ("verify-algebra", "verify-realization", "verify-quadratic", "verify-pullback",
               "simulate")


# ---------------------------------------------------------------------------
# running one command
# ---------------------------------------------------------------------------


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "HAMILTON_SP1_THREADS", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _expected_header(n):
    cols = ["t"]
    cols += ["Z_%d%s" % (i, c) for i in range(n) for c in "wxyz"]
    cols += ["W_%d%s" % (i, c) for i in range(n) for c in "wxyz"]
    return ",".join(cols)


def _csv_rows(path, n, problems):
    """Data rows of a trajectory CSV after checking its header, or None."""
    try:
        with open(path, "rb") as fh:
            header = fh.readline().decode().rstrip("\n")
            rows = 0
            for block in iter(lambda: fh.read(1 << 20), b""):
                rows += block.count(b"\n")
    except OSError as exc:
        problems.append("no CSV: %s" % exc)
        return None
    if header != _expected_header(n):
        problems.append("unexpected CSV header %r" % header[:80])
    return rows


def _load_report(text, problems):
    try:
        report = json.loads(text)
    except ValueError as exc:
        problems.append("report is not JSON: %s" % exc)
        return None
    if not isinstance(report, dict):
        problems.append("report is not a JSON object")
        return None
    return report


def check(cmd, seed, code, stdout, base):
    """Problems with one command's outcome; an empty list is a pass.

    Reports are checked by content, not by bytes: exit code, ``passed``,
    the echoed seed, every residual below the ``tol`` in ``config``, the
    algebra dimension, and the CSV shape of a simulation.
    """
    problems = []
    want = 3 if cmd.expect == "abort" else 0
    if code != want:
        problems.append("exit %s, expected %d" % (code, want))
    if cmd.expect == "report":
        text = stdout
    else:
        try:
            text = Path(base + ".json").read_text()
        except OSError as exc:
            problems.append("no report: %s" % exc)
            return problems
    report = _load_report(text, problems)
    if report is None:
        return problems
    config = report.get("config") or {}
    if config.get("seed") != seed:
        problems.append("report seed %r, expected %d" % (config.get("seed"), seed))
    if cmd.expect == "abort":
        if "aborted" not in report:
            problems.append("no 'aborted' key")
        if report.get("passed") is not False:
            problems.append("aborted run does not report passed: false")
        rows = _csv_rows(base + ".csv", config.get("n", 0), problems)
        if rows is not None and rows < 1:
            problems.append("partial CSV has no rows")
        return problems
    if report.get("passed") is not True:
        problems.append("passed is not true")
    if cmd.expect == "report":
        residuals = report.get("residuals") or {}
    else:
        conserved = report.get("conserved") or {}
        residuals = {k: v for k, v in conserved.items()
                     if k.startswith("drift_") or k == "max_energy_residual"}
    tol = config.get("tol")
    if not residuals or not isinstance(tol, (int, float)):
        problems.append("no residuals or no tol in the report")
    else:
        # a NaN residual fails this comparison too
        over = sorted(k for k, v in residuals.items()
                      if not (isinstance(v, (int, float)) and v < tol))
        if over:
            problems.append("residuals not below tol %g: %s" % (tol, ", ".join(over)))
    if cmd.argv[0] == "verify-algebra" and report.get("dim") != report.get("dim_expected"):
        problems.append("dim %r != dim_expected %r" % (report.get("dim"),
                                                       report.get("dim_expected")))
    if cmd.expect == "trajectory":
        steps = int(round(config["t_end"] / config["dt"]))
        rows = _csv_rows(base + ".csv", config["n"], problems)
        if rows is not None and rows != steps + 1:
            problems.append("CSV has %d rows, expected %d" % (rows, steps + 1))
    return problems


def run_command(cmd, seed, tmp, spans=None, run_id=""):
    """Run one command in a fresh interpreter; return its timing and check."""
    base = os.path.join(tmp, "run")
    argv = list(cmd.argv) + ["--seed", str(seed)]
    if cmd.argv[0] == "simulate":
        argv += ["--output", base]
    if spans is None:
        prog = [sys.executable, "-c", ENTRY]
    else:
        prog = [sys.executable, str(HERE / "tracer.py"), "--spans", spans, "--run-id", run_id, "--"]
    out_path, err_path = os.path.join(tmp, "stdout"), os.path.join(tmp, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(prog + argv, stdout=out, stderr=err, env=child_env(), cwd=tmp)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = Path(out_path).read_text(errors="replace")
    problems = check(cmd, seed, code, stdout, base)
    if problems:
        tail = Path(err_path).read_text(errors="replace").strip().splitlines()[-3:]
        problems += ["stderr: %s" % line for line in tail]
    for suffix in (".csv", ".json"):
        if os.path.exists(base + suffix):
            os.remove(base + suffix)
    return {
        "argv": argv,
        "key": cmd.key,
        "traced": spans is not None,
        "elapsed_s": elapsed,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": code,
        "problems": problems,
    }


def _probe(code, tmp):
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=tmp,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError("probe failed: %s" % proc.stderr.strip()[-500:])
    return proc.stdout


def import_time(tmp):
    """Seconds a fresh interpreter takes to ``import sp1kepler.cli``."""
    seconds, path = _probe(SETUP_PROBE, tmp).split()
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError("sp1kepler was imported from %s, not from %s" % (path, SRC))
    return float(seconds)


def environment(tmp):
    env = json.loads(_probe(ENV_PROBE, tmp))
    env.update(nproc=os.cpu_count(), blas_threads=BLAS_THREADS, platform=platform.platform(),
               commit=_git_commit())
    return env


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# ---------------------------------------------------------------------------
# passes and metrics
# ---------------------------------------------------------------------------


def run_passes(mix, seed, seconds, tmp, traced, setup=None):
    """Repeat the mix (untraced, then traced if asked) while a round still fits.

    With a ``setup`` list, one import time is appended to it before each
    untraced command, so set-up is sampled across the whole run.
    """
    start = time.perf_counter()
    passes = []
    while True:
        t0 = time.perf_counter()
        for trace in ((False, True) if traced else (False,)):
            records, docs = [], []
            for i, cmd in enumerate(mix):
                spans = os.path.join(tmp, "spans.json") if trace else None
                if setup is not None and not trace:
                    setup.append(import_time(tmp))
                run_id = "%d.%d" % (len(passes), i)
                records.append(run_command(cmd, seed, tmp, spans, run_id))
                if trace:
                    with open(spans) as fh:
                        docs.append(json.load(fh))
                    os.remove(spans)
            passes.append({"traced": trace, "commands": records, "spans": docs})
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return passes


def _per_command_medians(passes):
    columns = zip(*(p["commands"] for p in passes))
    return [statistics.median(r["elapsed_s"] for r in col) for col in columns]


def end_to_end(mix, passes, setup_times):
    """All end-to-end metrics (name -> (value, unit)) from the untraced passes."""
    plain = [p for p in passes if not p["traced"]]
    med = _per_command_medians(plain)
    records = [r for p in passes for r in p["commands"]]
    failed = sum(1 for r in records if r["problems"])
    table = {
        "wall_s": (sum(med), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for p in plain for r in p["commands"]), "MB"),
        "failed_frac": (failed / len(records), "ratio"),
    }
    if setup_times:
        table["setup_s"] = (statistics.median(setup_times), "s")
    for key in SUBCOMMAND_METRICS:
        if any(cmd.key == key for cmd in mix):
            table[key] = (sum(m for cmd, m in zip(mix, med) if cmd.key == key), "s")
    return table


class TraceView:
    """Counts and spans of one traced pass, summed over its commands."""

    def __init__(self, docs):
        self.spans = [s for d in docs for s in d["spans"]]
        self.peaks = {}
        self.stats = {}
        for d in docs:
            for name, mb in d["peaks_mb"].items():
                self.peaks[name] = max(self.peaks.get(name, 0.0), mb)
            for name, st in d["stats"].items():
                acc = self.stats.setdefault(name, [0, 0.0, 0.0])
                acc[0] += st["calls"]
                acc[1] += st["total_s"]
                acc[2] += st["self_s"]

    def _sum(self, target, i):
        # a bare layer name ("quat") sums all of its functions
        return sum(v[i] for k, v in self.stats.items()
                   if k == target or ("." not in target and k.startswith(target + ".")))

    def calls(self, target):
        return self._sum(target, 0)

    def total(self, *targets):
        return sum(self._sum(t, 1) for t in targets)

    def self_s(self, target):
        return self._sum(target, 2)

    def field_sum(self, name, field):
        return sum(s.get(field, 0) for s in self.spans if s["name"] == name)

    def peak(self, name):
        return self.peaks.get(name, 0.0)

    def accept_ratio(self):
        """Accepted bound starts per leaf sample drawn inside ``_bound_start``."""
        starts = {(s["run"], s["id"]) for s in self.spans if s["name"] == "cli.bound_start"}
        accepted = sum(1 for s in self.spans if s["name"] == "cli.bound_start" and s["ok"])
        draws = sum(1 for s in self.spans if s["name"] == "realization.sample_leaf"
                    and (s["run"], s["parent"]) in starts)
        return accepted / draws if draws else 0.0


# name, unit, value from a TraceView; a layer a workload does not reach
# reports 0
LAYER_METRICS = [
    ("quat.calls", "count", lambda t: t.calls("quat")),
    ("quat.self_s", "s", lambda t: t.self_s("quat")),
    ("jordan.s_tensor.s", "s", lambda t: t.total("jordan.s_tensor")),
    ("jordan.s_tensor.peak_mb", "MB", lambda t: t.peak("jordan.s_tensor")),
    ("jordan.calls", "count", lambda t: t.calls("jordan")),
    ("jordan.self_s", "s", lambda t: t.self_s("jordan")),
    ("conformal.str_span.s", "s", lambda t: t.total("conformal.str_span")),
    ("conformal.structure_constants.s", "s",
     lambda t: t.total("conformal.structure_constants")),
    ("conformal.jacobi_tensor_residual.s", "s",
     lambda t: t.total("conformal.jacobi_tensor_residual")),
    ("conformal.jacobi_tensor_residual.peak_mb", "MB",
     lambda t: t.peak("conformal.jacobi_tensor_residual")),
    ("conformal.closure_residual.s", "s", lambda t: t.total("conformal.closure_residual")),
    ("conformal.jacobi_residual.calls", "count",
     lambda t: t.calls("conformal.jacobi_residual")),
    ("conformal.jacobi_residual.s", "s", lambda t: t.total("conformal.jacobi_residual")),
    ("conformal.co_bracket.calls", "count", lambda t: t.calls("conformal.co_bracket")),
    ("poisson.bracket_exact.calls", "count", lambda t: t.calls("poisson.bracket_exact")),
    ("poisson.bracket_exact.self_s", "s", lambda t: t.self_s("poisson.bracket_exact")),
    ("poisson.quad_residual.calls", "count", lambda t: t.calls("poisson.quad_residual")),
    ("poisson.self_s", "s", lambda t: t.self_s("poisson")),
    ("realization.verify_so_star_relations.s", "s",
     lambda t: t.total("realization.verify_so_star_relations")),
    ("realization.verify_so_star_relations.self_s", "s",
     lambda t: t.self_s("realization.verify_so_star_relations")),
    ("realization.verify_ss_quadruples.s", "s",
     lambda t: t.total("realization.verify_ss_quadruples")),
    ("realization.sample_leaf.calls", "count",
     lambda t: t.calls("realization.sample_leaf")),
    ("realization.sample_leaf.s", "s", lambda t: t.total("realization.sample_leaf")),
    ("realization.family_values.calls", "count",
     lambda t: t.calls("realization.family_values")),
    ("realization.family_values.points", "count",
     lambda t: t.field_sum("realization.family_values", "points")),
    ("realization.family_values.s", "s", lambda t: t.total("realization.family_values")),
    ("realization.residuals.s", "s",
     lambda t: t.total("realization.primary_quadratic_residuals",
                       "realization.secondary_quadratic_residuals",
                       "realization.energy_formula_residuals")),
    ("sternberg.pullback_check.calls", "count",
     lambda t: t.calls("sternberg.pullback_check")),
    ("sternberg.pullback_check.self_s", "s",
     lambda t: t.self_s("sternberg.pullback_check")),
    ("sternberg.tangent_basis.calls", "count",
     lambda t: t.calls("sternberg.tangent_basis")),
    ("sternberg.tangent_basis.s", "s", lambda t: t.total("sternberg.tangent_basis")),
    ("dynamics.integrate.s", "s", lambda t: t.total("dynamics.integrate")),
    ("dynamics.integrate.steps", "count",
     lambda t: t.field_sum("dynamics.integrate", "steps")),
    ("dynamics.conserved_report.s", "s", lambda t: t.total("dynamics.conserved_report")),
    ("dynamics.conserved_report.peak_mb", "MB",
     lambda t: t.peak("dynamics.conserved_report")),
    ("dynamics.to_csv.s", "s", lambda t: t.total("dynamics.to_csv")),
    ("dynamics.to_csv.mb", "MB", lambda t: t.field_sum("dynamics.to_csv", "mb")),
] + [
    ("cli.%s.s" % sub, "s", lambda t, sub=sub: t.total("cli.%s" % sub))
    for sub in SUBCOMMANDS
] + [
    ("cli.self_s", "s", lambda t: t.self_s("cli")),
    ("cli.bound_start.accept_ratio", "ratio", lambda t: t.accept_ratio()),
]


def per_layer(passes):
    """Per-layer metrics, each the median over traced passes, plus the overhead."""
    traced = [p for p in passes if p["traced"]]
    views = [TraceView(p["spans"]) for p in traced]
    table = {name: (statistics.median(fn(v) for v in views), unit)
             for name, unit, fn in LAYER_METRICS}
    plain = sum(_per_command_medians([p for p in passes if not p["traced"]]))
    table["trace_overhead_frac"] = (sum(_per_command_medians(traced)) / plain - 1.0, "ratio")
    return table


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


@contextmanager
def workdir():
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _print_table(table, samples):
    for name in sorted(table):
        value, unit = table[name]
        print("%-45s %14.6g %-6s (%s)" % (name, value, unit, samples))


def measure(workload, seed, seconds, trace):
    mix = WORKLOADS[workload]
    with workdir() as tmp:
        env = environment(tmp)
        import_time(tmp)  # warm-up: fills the page and bytecode caches
        setup = []
        passes = run_passes(mix, seed, seconds, tmp, traced=trace, setup=None if trace else setup)
    records = [r for p in passes for r in p["commands"]]
    failed = [r for r in records if r["problems"]]
    for r in failed:
        print("FAILED %s: %s" % (" ".join(r["argv"]), "; ".join(r["problems"])), file=sys.stderr)
    table = end_to_end(mix, passes, setup)
    n_plain = sum(1 for p in passes if not p["traced"])
    print("workload %s, seed %d, %d untraced pass(es); times are per-command medians"
          % (workload, seed, n_plain))
    _print_table(table, "%d pass(es); setup_s over %d imports" % (n_plain, len(setup)))
    if trace:
        layers = per_layer(passes)
        _print_table(layers, "median of %d traced passes" % (len(passes) - n_plain))
        metrics = layers
        spans_path = OUT / ("spans-%s-seed%d.json" % (workload, seed))
        spans_path.write_text(json.dumps([d for p in passes for d in p["spans"]]))
    else:
        metrics = {k: table[k] for k in END_TO_END}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "setup_s_samples": setup,
        "passes": [{"traced": p["traced"], "commands": p["commands"]} for p in passes],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / ("result-%s-seed%d-trace%d.json" % (workload, seed, trace))).write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


def self_check(seed):
    """Tiny sizes: every metric is emitted with its unit, and a failure counts."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with workdir() as tmp:
        setup = []
        passes = run_passes(SELF_CHECK_MIX, seed, 0, tmp, traced=True, setup=setup)
    table = end_to_end(SELF_CHECK_MIX, passes, setup)
    layers = per_layer(passes)
    problems = []
    wanted = [(m["name"], m["unit"], table) for m in spec["end_to_end"]]
    wanted += [(name, "s", table) for name in ("wall_s",) + SUBCOMMAND_METRICS]
    wanted += [("failed_frac", "ratio", table)]
    wanted += [(m["name"], m["unit"], layers) for m in spec["per_layer"]]
    for name, unit, got in wanted:
        if name not in got:
            problems.append("metric %s not emitted" % name)
        elif got[name][1] != unit:
            problems.append("metric %s has unit %s, BENCHMARK.json says %s"
                            % (name, got[name][1], unit))
    extra = set(layers) - {m["name"] for m in spec["per_layer"]}
    if extra:
        problems.append("per-layer metrics missing from BENCHMARK.json: %s" % sorted(extra))
    records = [r for p in passes for r in p["commands"]]
    failed = [r for r in records if r["problems"]]
    deliberate = [r for r in records if r["argv"][:len(SELF_CHECK_FAILING.argv)]
                  == list(SELF_CHECK_FAILING.argv)]
    if failed != deliberate or not failed:
        problems.append("expected exactly the tol-0 commands to fail, got: %s"
                        % ["%s: %s" % (" ".join(r["argv"]), r["problems"]) for r in failed])
    if not table["failed_frac"][0] > 0:
        problems.append("failed_frac is %r despite a failing command" % table["failed_frac"][0])
    for p in problems:
        print("self-check: %s" % p, file=sys.stderr)
    print("self-check %s: %d commands, %d failed on purpose, %d metrics checked"
          % ("failed" if problems else "passed", len(records), len(failed), len(wanted)))
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="Start another pass only while it is expected to end within this.")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "sp1kepler" / "cli.py").is_file():
        print("run.py: no sp1kepler sources at %s" % SRC, file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    return measure(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
