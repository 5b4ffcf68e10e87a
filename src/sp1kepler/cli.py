"""Command-line verification and simulation driver.

Subcommands expose the verification suites (algebra, realization,
quadratic identities, pullback) and the Kepler flow simulation.  Reports
are JSON with a versioned schema and no volatile fields, so identical
configurations produce byte-identical output; wall-clock timings go to
stderr.  Exit codes: 0 pass, 1 verification failure, 2 usage error,
3 runtime abort.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import time

import click
import numpy as np

from . import conformal, dynamics, jordan, realization, sternberg
from .quat import SeededRng

SCHEMA = "2"


class _RuntimeAbort(click.ClickException):
    """A run that cannot proceed; exits 3."""

    exit_code = 3


def _atomic_write(path, text):
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit(report, output):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if output:
        _atomic_write(output, text)
    else:
        click.echo(text, nl=False)


def _finish(config, residuals, output, t0, **extra):
    """Emit a verify report, with the keys of extra beside the common ones,
    and exit: 0 when every residual is below config["tol"], else 1."""
    passed = all(v < config["tol"] for v in residuals.values())
    command = click.get_current_context().command.name
    _emit(dict(extra, schema=SCHEMA, command=command, config=config,
               residuals=residuals, passed=passed), output)
    click.echo("runtime: %.2f s" % (time.time() - t0), err=True)
    sys.exit(0 if passed else 1)


def _output_dir(ctx, param, value):
    """Refuse, at parsing (exit 2), an output path whose directory is missing."""
    if value is not None and not os.path.isdir(os.path.dirname(os.path.abspath(value))):
        raise click.BadParameter("directory %r does not exist" % os.path.dirname(value))
    return value


class _FiniteFloat(click.FloatRange):
    """A float option, bounded or not, that also refuses nan and inf (exit 2)."""

    def __init__(self, **bounds):
        super().__init__(**bounds)
        if not bounds:
            self.name = click.FLOAT.name

    def _describe_range(self):
        return super()._describe_range() if self.min is not None or self.max is not None else ""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail("%r is not a finite number." % rv, param, ctx)
        return rv


@click.group()
def main():
    """Verification and simulation for the quaternionic Kepler hierarchy."""


_common = [
    click.option("--seed", type=click.IntRange(min=0), default=7, show_default=True),
    click.option("--tol", type=_FiniteFloat(), default=None, help="Pass threshold."),
    click.option("--output", type=click.Path(dir_okay=False), default=None,
                 callback=_output_dir, help="Write the JSON report here instead of stdout."),
]


def _with(options):
    def deco(f):
        for opt in reversed(options):
            f = opt(f)
        return f
    return deco


@main.command("verify-algebra")
@click.option("--n", type=click.IntRange(min=1), default=2, show_default=True)
@click.option("--triples", type=click.IntRange(min=1), default=1000, show_default=True,
              help="Number of seeded random Jacobi triples.")
@_with(_common)
def verify_algebra(n, triples, seed, tol, output):
    """Closure and Jacobi checks for the conformal algebra, with its dimension."""
    t0 = time.time()
    tol = 1e-10 if tol is None else tol
    checks = {
        "jacobi_random_max": conformal.jacobi_random_max(n, SeededRng(seed), triples),
        "jacobi_generators_max": conformal.jacobi_tensor_residual(n),
        "closure_max": conformal.closure_residual(n),
    }
    config = {"n": n, "seed": seed, "tol": tol, "triples": triples}
    _finish(config, checks, output, t0, dim=conformal.co_dimension(n),
            dim_expected=2 * n * (4 * n - 1))


@main.command("verify-realization")
@click.option("--n", type=click.IntRange(min=1), default=2, show_default=True)
@_with(_common)
def verify_realization(n, seed, tol, output):
    """The six bracket relation families as exact quadratic identities."""
    t0 = time.time()
    tol = 1e-12 if tol is None else tol
    residuals = realization.verify_so_star_relations(n)
    residuals["SS_quadruple_spot"] = realization.verify_ss_quadruples(n, SeededRng(seed))
    _finish({"n": n, "seed": seed, "tol": tol}, residuals, output, t0)


@main.command("verify-quadratic")
@click.option("--n", type=click.IntRange(min=2), default=2, show_default=True)
@click.option("--mu", type=_FiniteFloat(min=0), default=1.0, show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=1000, show_default=True)
@_with(_common)
def verify_quadratic(n, mu, samples, seed, tol, output):
    """Primary, secondary, and energy identities on sampled leaf points."""
    t0 = time.time()
    tol = 1e-9 if tol is None else tol
    residuals = realization.leaf_residual_maxima(n, mu, SeededRng(seed), samples)
    config = {"n": n, "mu": mu, "samples": samples, "seed": seed, "tol": tol}
    _finish(config, residuals, output, t0)


@main.command("verify-pullback")
@click.option("--n", type=click.IntRange(min=2), default=2, show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=1000, show_default=True)
@_with(_common)
def verify_pullback(n, samples, seed, tol, output):
    """Cone-side pullback identities on seeded random points, a block at a time."""
    t0 = time.time()
    tol = 1e-9 if tol is None else tol
    rng, step, worst = SeededRng(seed), realization.block_points(n), np.zeros(2)
    for lo in range(0, samples, step):
        block = sternberg.pullback_check(*realization.sample_point(n, rng, min(step, samples - lo)))
        worst = np.maximum(worst, np.max(block, axis=1))
    residuals = {"moment_pullback": float(worst[0]), "kinetic_pullback": float(worst[1])}
    _finish({"n": n, "samples": samples, "seed": seed, "tol": tol}, residuals, output, t0)


def _bound_start(n, mu, rng):
    """A seeded leaf point with H <= -0.1 (rejection sampling), as its flat state."""
    for _ in range(10000):
        y = np.concatenate(realization.sample_leaf(n, mu, rng, 1), axis=None)
        if dynamics.hamiltonian_upstairs(y) <= -0.1:
            return y
    raise _RuntimeAbort("failed to sample a bound start")


def _infall_start(n):
    """A radially infalling start just outside the domain floor, as its flat
    state: Z_0 = 5e-9, W_0 = -1."""
    y = np.zeros(8 * n)
    y[0], y[4 * n] = 5e-9, -1.0
    return y


@main.command("simulate")
@click.option("--n", type=click.IntRange(min=2), default=2, show_default=True)
@click.option("--mu", type=_FiniteFloat(min=0), default=1.0, show_default=True)
@click.option("--dt", type=_FiniteFloat(min=0, min_open=True), default=1e-4, show_default=True)
@click.option("--t-end", type=_FiniteFloat(min=0), default=10.0, show_default=True)
@click.option("--method", type=click.Choice(["rk4", "midpoint"]), default="rk4", show_default=True)
@click.option("--initial", type=click.Choice(["bound", "infall"]), default="bound",
              show_default=True, help="bound: seeded H<0 leaf point; infall: aimed at Z=0.")
@click.option("--seed", type=click.IntRange(min=0), default=7, show_default=True)
@click.option("--tol", type=_FiniteFloat(), default=1e-8, show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default="trajectory",
              show_default=True, callback=_output_dir,
              help="Base path; writes <base>.csv and <base>.json.")
def simulate(n, mu, dt, t_end, method, initial, seed, tol, output):
    """Integrate the Kepler flow and report conserved-quantity drifts."""
    t0 = time.time()
    p0 = _bound_start(n, mu, SeededRng(seed)) if initial == "bound" else _infall_start(n)
    config = {
        "n": n, "mu": mu, "dt": dt, "t_end": t_end, "method": method,
        "initial": initial, "seed": seed, "tol": tol,
    }
    base = {"schema": SCHEMA, "command": "simulate", "config": config,
            "initial_state": p0.tolist()}
    # refused before the CSV is opened: each of the 8n + 1 values of a row
    # takes at least one character and one separator
    samples = dynamics.sample_count(dt, t_end)
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
        click.echo("aborted: %s" % err, err=True)
        sys.exit(3)
    rep = fold.report()
    drift_keys = [k for k in rep if k.startswith("drift_")]
    passed = all(rep[k] < tol for k in drift_keys) and rep["max_energy_residual"] < tol
    _emit(dict(base, conserved=rep, passed=passed), output + ".json")
    click.echo("runtime: %.2f s" % (time.time() - t0), err=True)
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
