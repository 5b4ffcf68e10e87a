"""Command-line verification and simulation driver.

Subcommands expose the verification suites (algebra, realization,
quadratic identities, pullback) and the Kepler flow simulation.  Reports
are JSON with a versioned schema and no volatile fields, so identical
configurations produce byte-identical output; wall-clock timings go to
stderr.  Exit codes: 0 pass, 1 verification failure, 2 usage error, 3
runtime abort, a MemoryError and a failed report write included.  This
module loads the standard library alone, and argparse parses the
options: each command imports its own layers, the largest first, then
numpy, and calls them through the module.  So --help and usage errors
load no layer, and where no bytecode is cached the largest layer
compiles before numpy loads, which then reuses the compiler's memory (a
0.3-0.6 MB lower peak than numpy first).  main runs each command through
main.commands[name].callback and always ends in SystemExit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
import types

SCHEMA = "3"


class _RuntimeAbort(Exception):
    """A run that cannot proceed; main prints "Error: <message>" and exits 3."""


def _emit(report, output):
    """Write the JSON report to stdout, or to output through a temporary file
    beside it, which a failed write removes before it aborts the run."""
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if not output:
        sys.stdout.write(text)
        return
    tmp = "%s.tmp.%d" % (output, os.getpid())
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, output)
    except OSError as err:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise _RuntimeAbort("cannot write %s: %s" % (output, err)) from None


def _finish(command, config, residuals, output, t0, **extra):
    """Emit the report of a verify command, with the keys of extra beside the
    common ones, and exit: 0 when every residual is below config["tol"], else 1."""
    passed = all(v < config["tol"] for v in residuals.values())
    _emit(dict(extra, schema=SCHEMA, command=command, config=config,
               residuals=residuals, passed=passed), output)
    print("runtime: %.2f s" % (time.time() - t0), file=sys.stderr)
    sys.exit(0 if passed else 1)


def _number(kind, lo=None, above=False):
    """The type of an int or float option at least lo (above lo if above is
    set); a value it refuses, a float nan or inf included, exits 2."""
    name = "integer" if kind is int else "float"
    bound = "" if lo is None else "x%s%s" % (">" if above else ">=", lo)

    def convert(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError("%r is not a valid %s." % (text, name)) from None
        if lo is not None and (value <= lo if above else value < lo):
            raise argparse.ArgumentTypeError("%s is not in the range %s." % (value, bound))
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError("%s is not a finite number." % value)
        return value

    convert.metavar, convert.bound = name.upper(), bound
    return convert


def _output(*suffixes):
    """The type of --output, a path and the paths path + suffix: one that is a
    directory, or a missing directory, exits 2 before any work."""
    def convert(path):
        for name in (path,) + tuple(path + s for s in suffixes):
            if os.path.isdir(name):
                raise argparse.ArgumentTypeError("file %r is a directory." % name)
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise argparse.ArgumentTypeError("directory %r does not exist" % os.path.dirname(path))
        return path

    convert.metavar = "BASE" if suffixes else "FILE"
    return convert


def main(args=None, prog_name=None):
    """Verification and simulation for the quaternionic Kepler hierarchy."""
    args = sys.argv[1:] if args is None else list(args)
    options = vars(_parser(prog_name).parse_args(_joined(args)))
    # called through main.commands, so a callback rebound there runs
    try:
        main.commands[options.pop("command")].callback(**options)
    except (_RuntimeAbort, MemoryError) as err:
        print("Error: %s" % (str(err) or "out of memory"), file=sys.stderr)
        sys.exit(3)
    sys.exit(0)


main.commands = {}


def _command(name, *options):
    """Register a function as the subcommand name; each option is a row
    (flag, type, default, help), its type a converter or a tuple of choices.
    The help is kept apart from callback, which a tracer may rebind."""
    def register(f):
        main.commands[name] = types.SimpleNamespace(callback=f, help=f.__doc__, options=options)
        return f
    return register


def _parser(prog):
    parser = argparse.ArgumentParser(prog=prog, description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, command in main.commands.items():
        sub = commands.add_parser(name, help=command.help, description=command.help,
                                  allow_abbrev=False)
        for flag, kind, default, text in command.options:
            notes = "; ".join(filter(None, [default is not None and "default: %(default)s",
                                            getattr(kind, "bound", "")]))
            kw = {"choices": kind} if isinstance(kind, tuple) else {"type": kind,
                                                                   "metavar": kind.metavar}
            sub.add_argument(flag, default=default,
                             help=("%s [%s]" % (text, notes) if notes else text).lstrip(), **kw)
    return parser


def _joined(args):
    """args with each option flag joined to the word after it by "=": an
    option takes the next word as its value even where it starts with "-"
    (such as --tol -1e-9), which argparse would otherwise read as a flag."""
    flags = {row[0] for command in main.commands.values() for row in command.options}
    out = []
    for word in args:
        if out and out[-1] in flags:
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def _common(tol):
    """The options that end every verify command, with its pass threshold."""
    return (("--seed", _number(int, 0), 7, ""),
            ("--tol", _number(float), tol, "Pass threshold."),
            ("--output", _output(), None, "Write the JSON report here instead of stdout."))


@_command("verify-algebra",
          ("--n", _number(int, 1), 2, ""),
          ("--triples", _number(int, 1), 1000, "Number of seeded random Jacobi triples."),
          *_common(1e-10))
def verify_algebra(n, triples, seed, tol, output):
    """Closure and Jacobi checks for the conformal algebra, with its dimension."""
    from . import conformal, quat
    t0 = time.time()
    checks = {
        "jacobi_random_max": conformal.jacobi_random_max(n, quat.SeededRng(seed), triples),
        "jacobi_generators_max": conformal.jacobi_tensor_residual(n),
        "closure_max": conformal.closure_residual(n),
    }
    config = {"n": n, "seed": seed, "tol": tol, "triples": triples}
    _finish("verify-algebra", config, checks, output, t0, dim=conformal.co_dimension(n),
            dim_expected=2 * n * (4 * n - 1))


@_command("verify-realization", ("--n", _number(int, 1), 2, ""), *_common(1e-12))
def verify_realization(n, seed, tol, output):
    """The six bracket relation families as exact quadratic identities."""
    from . import realization, quat
    t0 = time.time()
    residuals = realization.verify_so_star_relations(n)
    residuals["SS_quadruple_spot"] = realization.verify_ss_quadruples(n, quat.SeededRng(seed))
    _finish("verify-realization", {"n": n, "seed": seed, "tol": tol}, residuals, output, t0)


@_command("verify-quadratic",
          ("--n", _number(int, 2), 2, ""),
          ("--mu", _number(float, 0), 1.0, ""),
          ("--samples", _number(int, 1), 1000, ""),
          *_common(1e-9))
def verify_quadratic(n, mu, samples, seed, tol, output):
    """Primary, secondary, and energy identities on sampled leaf points."""
    from . import realization, quat
    t0 = time.time()
    residuals = realization.leaf_residual_maxima(n, mu, quat.SeededRng(seed), samples)
    config = {"n": n, "mu": mu, "samples": samples, "seed": seed, "tol": tol}
    _finish("verify-quadratic", config, residuals, output, t0)


@_command("verify-pullback",
          ("--n", _number(int, 2), 2, ""),
          ("--samples", _number(int, 1), 1000, ""),
          *_common(1e-9))
def verify_pullback(n, samples, seed, tol, output):
    """Cone-side pullback identities on seeded random points, a block at a time."""
    from . import realization, sternberg, quat
    import numpy as np
    t0 = time.time()
    # blocks of the leaf check's size, on purpose: sized by their own working
    # set (near 1 KB a point for the draw and pullback_check at n = 2), they
    # would grow from 324 to about 500 points, and the peak RSS with them
    rng, step, worst = quat.SeededRng(seed), realization.block_points(n), np.zeros(2)
    for lo in range(0, samples, step):
        block = sternberg.pullback_check(*realization.sample_point(n, rng, min(step, samples - lo)))
        worst = np.maximum(worst, np.max(block, axis=1))
    residuals = {"moment_pullback": float(worst[0]), "kinetic_pullback": float(worst[1])}
    _finish("verify-pullback", {"n": n, "samples": samples, "seed": seed, "tol": tol},
            residuals, output, t0)


def _bound_start(n, mu, rng):
    """A seeded leaf point with H <= -0.1 (rejection sampling), as its flat
    state: leaf stacks of block_points(n) points, which equal as many
    one-point draws normal for normal, are drawn one call a block and
    their points tested in order."""
    from . import dynamics, realization
    import numpy as np
    draws, step = 10000, realization.block_points(n)
    for lo in range(0, draws, step):
        for z, w in zip(*realization.sample_leaf(n, mu, rng, min(step, draws - lo))):
            y = np.concatenate((z, w), axis=None)
            if dynamics.hamiltonian_upstairs(y) <= -0.1:
                return y
    raise _RuntimeAbort(f"failed to sample a bound start: no leaf point with H <= -0.1"
                        f" in {draws:,} draws at n = {n}, mu = {mu:g}")


def _infall_start(n):
    """A radially infalling start just outside the domain floor, as its flat
    state: Z_0 = 5e-9, W_0 = -1."""
    import numpy as np
    y = np.zeros(8 * n)
    y[0], y[4 * n] = 5e-9, -1.0
    return y


@_command("simulate",
          ("--n", _number(int, 2), 2, ""),
          ("--mu", _number(float, 0), 1.0, ""),
          ("--dt", _number(float, 0, above=True), 1e-4, ""),
          ("--t-end", _number(float, 0), 10.0, ""),
          ("--method", ("rk4", "midpoint"), "rk4", ""),
          ("--initial", ("bound", "infall"), "bound",
           "bound: seeded H<0 leaf point; infall: aimed at Z=0."),
          ("--seed", _number(int, 0), 7, ""),
          ("--tol", _number(float), 1e-8, ""),
          ("--output", _output(".csv", ".json"), "trajectory", "Writes <base>.csv and <base>.json."))
def simulate(n, mu, dt, t_end, method, initial, seed, tol, output):
    """Integrate the Kepler flow and report conserved-quantity drifts."""
    from . import realization, dynamics, quat  # realization too: the largest first
    t0 = time.time()
    p0 = _bound_start(n, mu, quat.SeededRng(seed)) if initial == "bound" else _infall_start(n)
    config = {
        "n": n, "mu": mu, "dt": dt, "t_end": t_end, "method": method,
        "initial": initial, "seed": seed, "tol": tol,
    }
    base = {"schema": SCHEMA, "command": "simulate", "config": config,
            "initial_state": p0.tolist()}
    # refused before the CSV is opened: each of the 8n + 1 values of a row
    # takes at least one character and one separator
    try:
        samples = dynamics.sample_count(dt, t_end)
    except ValueError as err:
        raise _RuntimeAbort(err) from None
    need = samples * 2 * (8 * n + 1)
    free = shutil.disk_usage(os.path.dirname(os.path.abspath(output))).free
    if need > free:
        raise _RuntimeAbort("a trajectory CSV of %d samples needs at least %.1f GiB; %.1f GiB free"
                            % (samples, need / 2**30, free / 2**30))
    fold = dynamics.DriftFold(n)
    try:
        with open(output + ".csv", "w") as fh:
            dynamics.write_csv_header(fh, n)
            for times, states in dynamics.flow_blocks(p0, dt, t_end, method):
                dynamics.write_csv_block(fh, times, states)
                fold.add(states)
    except dynamics.IntegrationAbort as err:
        _emit(dict(base, aborted="%s: %s" % (err.kind, err), passed=False), output + ".json")
        print("aborted: %s" % err, file=sys.stderr)
        sys.exit(3)
    except OSError as err:  # the CSV could not be opened, written or closed
        raise _RuntimeAbort("cannot write %s.csv: %s" % (output, err)) from None
    rep = fold.report()
    drift_keys = [k for k in rep if k.startswith("drift_")]
    passed = all(rep[k] < tol for k in drift_keys) and rep["max_energy_residual"] < tol
    _emit(dict(base, conserved=rep, passed=passed), output + ".json")
    print("runtime: %.2f s" % (time.time() - t0), file=sys.stderr)
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
