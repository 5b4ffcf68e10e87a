"""Run one sp1kepler CLI command with its layers timed.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/tracer.py --spans OUT.json --run-id ID -- verify-algebra --n 2

The tracer rebinds the public functions of every layer in each module
namespace that holds them (``realization.bracket_exact`` as well as
``poisson.bracket_exact``), so nested calls nest as they do in the
program.  Functions in SPANNED record one span per call (name, start, end,
parent span, run id); the hot functions in AGGREGATED only add to a count
and a total, so that tracing a leaf called a million times stays cheap.
Every wrapped call, spanned or not, keeps its self time: its duration less
the time of the wrapped calls made inside it.  ``peak_mb`` comes from
tracemalloc, which runs only while a function that asks for it is open.
Spans and counts stay in memory and are written to ``--spans`` at exit.
The command's exit code is passed through.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc

from sp1kepler import cli, conformal, dynamics, jordan, poisson, quat, realization, sternberg

MODULES = (quat, jordan, conformal, poisson, realization, sternberg, dynamics, cli)
_MB = float(2**20)


def _points(args, kwargs, result, error):
    zs = args[1] if len(args) > 1 else kwargs["zs"]
    return {"points": int(zs.shape[0])}


def _steps(args, kwargs, result, error):
    tr = result if error is None else getattr(error, "partial", None)
    return {"steps": max(len(tr) - 1, 0) if tr is not None else 0}


def _csv_mb(args, kwargs, result, error):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"mb": os.path.getsize(path) / _MB if os.path.exists(path) else 0.0}


# Few-call functions: one span per call.
# (owner, attribute, name, records a tracemalloc peak, extra span fields)
SPANNED = [
    (conformal, "structure_constants", "conformal.structure_constants", False, None),
    (conformal, "jacobi_tensor_residual", "conformal.jacobi_tensor_residual", True, None),
    (conformal, "closure_residual", "conformal.closure_residual", False, None),
    (realization, "verify_so_star_relations", "realization.verify_so_star_relations", False, None),
    (realization, "verify_ss_quadruples", "realization.verify_ss_quadruples", False, None),
    (realization, "sample_leaf", "realization.sample_leaf", False, None),
    (realization, "family_values", "realization.family_values", False, _points),
    (dynamics, "integrate", "dynamics.integrate", False, _steps),
    (dynamics, "conserved_report", "dynamics.conserved_report", True, None),
    (dynamics.Trajectory, "to_csv", "dynamics.to_csv", False, _csv_mb),
    (cli, "_bound_start", "cli.bound_start", False, None),
]

# Hot functions: a count, a total and a self time, no spans.  s_tensor and
# str_span are cached but looked up on every co_bracket / span_residual;
# s_tensor keeps its largest tracemalloc peak, which its one miss sets.
AGGREGATED = [
    (quat, ["mat_mul", "mat_apply", "mat_dagger", "dagger_product", "outer", "trace_re",
            "real_rep"]),
    (jordan, ["inner", "jordan_product", "triple_product", "orthonormal_basis", "identity",
              "random_herm", "s_tensor"]),
    (conformal, ["str_span", "co_bracket", "jacobi_residual", "span_residual", "s_matrix",
                 "random_element"]),
    (poisson, ["bracket_exact", "quad_residual"]),
    (realization, ["primary_quadratic_residuals", "secondary_quadratic_residuals",
                   "energy_formula_residuals"]),
    (sternberg, ["pullback_check", "tangent_basis", "pi_from_W"]),
]
AGGREGATED_PEAK = {"jordan.s_tensor"}


class Tracer:
    """In-memory spans and per-function counts for one command."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.peaks = {}  # name -> largest peak_mb over its calls
        self._frames = []  # child time of each open wrapped call
        self._open_spans = []
        self._peaks = []  # [base bytes, peak floor bytes] per open peak frame

    def _peak_enter(self):
        if self._peaks:
            top = self._peaks[-1]
            top[1] = max(top[1], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        else:
            tracemalloc.start()
        self._peaks.append([tracemalloc.get_traced_memory()[0], 0])

    def _peak_exit(self):
        peak = tracemalloc.get_traced_memory()[1]
        base, floor = self._peaks.pop()
        if not self._peaks:
            tracemalloc.stop()
        return (max(peak, floor) - base) / _MB

    def aggregated(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames = self._frames
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                frames.pop()
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if frames:
                    frames[-1][0] += dur

        return wrapper

    def peaked(self, name, fn):
        """``fn`` with the largest tracemalloc peak of its calls kept."""
        self.peaks.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            self._peak_enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks[name] = max(self.peaks[name], self._peak_exit())

        return wrapper

    def spanned(self, name, fn, peak=False, extra=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames = self._frames
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = {
                "run": self.run_id,
                "id": len(self.spans),
                "parent": self._open_spans[-1] if self._open_spans else None,
                "name": name,
            }
            self.spans.append(rec)
            self._open_spans.append(rec["id"])
            frame = [0.0]
            frames.append(frame)
            if peak:
                self._peak_enter()
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:  # recorded, then re-raised
                error = exc
                raise
            finally:
                t1 = clock()
                dur = t1 - t0
                if peak:
                    rec["peak_mb"] = self._peak_exit()
                    self.peaks[name] = max(self.peaks.get(name, 0.0), rec["peak_mb"])
                frames.pop()
                self._open_spans.pop()
                rec.update(start=t0, end=t1, self=dur - frame[0], ok=error is None)
                if extra is not None:
                    rec.update(extra(args, kwargs, result, error))
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if frames:
                    frames[-1][0] += dur

        return wrapper

    def install(self):
        """Rebind every traced function wherever a module holds it."""
        for owner, attr, name, peak, extra in SPANNED:
            self._rebind(owner, attr, self.spanned(name, getattr(owner, attr), peak, extra))
        for module, attrs in AGGREGATED:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr in attrs:
                name = "%s.%s" % (layer, attr)
                wrapper = self.aggregated(name, getattr(module, attr))
                if name in AGGREGATED_PEAK:
                    wrapper = self.peaked(name, wrapper)
                self._rebind(module, attr, wrapper)
        for sub, command in cli.main.commands.items():
            command.callback = self.spanned("cli.%s" % sub, command.callback)

    @staticmethod
    def _rebind(owner, attr, wrapper):
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper)
        for module in MODULES:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def dump(self, path, argv, code):
        doc = {
            "run": self.run_id,
            "argv": argv,
            "exit": code,
            "spans": self.spans,
            "stats": {
                k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in self.stats.items()
            },
            "peaks_mb": self.peaks,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True, help="Write spans and counts here at exit.")
    ap.add_argument("--run-id", required=True)
    ap.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the sp1kepler arguments")
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = Tracer(args.run_id)
    tracer.install()
    code = 1  # an exception escaping the CLI exits 1
    try:
        cli.main(args=argv, prog_name="sp1kepler")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.dump(args.spans, argv, code)
    sys.exit(code)


if __name__ == "__main__":
    main()
