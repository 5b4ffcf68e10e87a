"""Time evolution of the quaternionic Kepler system on the upstairs space.

The Hamiltonian H = |W|^2/(8|Z|^2) - 1/|Z|^2 generates the flow in the
canonical coordinates of the poisson module, on the flat (8n,) state of
Z entries then W entries; the cone-side dynamics is recovered through
the sternberg module when needed.  The integrators are
classical RK4 and implicit midpoint.  flow_blocks steps the flow and
yields it in blocks of realization.block_points(n) samples, sized so that
a block's whole working set, family_values and the drift fold included,
stays within realization._BLOCK_BYTES (512 KiB), the budget of the leaf
check, but at n = 1 and n >= 9 (see block_points); write_csv_block
exports a block, and DriftFold folds it into the
running drifts of every quantity the realization predicts to be constant
(H, the moment map, the angular momenta, the LRL components) and the
residual of the closed quadratic relation tying them.  The CLI drives
the three one block at a time, so a simulation holds one block whatever
its length; integrate, Trajectory.to_csv and conserved_report are the
same primitives over a whole trajectory held in memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import realization
from .poisson import DOMAIN_EPS
from .quat import check_memory

_COLLISION_RADIUS = 10.0 * DOMAIN_EPS


class IntegrationAbort(RuntimeError):
    """The integrator stopped before t_end.

    ``integrate`` attaches the accepted samples as ``partial``; each
    subclass names its cause in ``kind`` for reports.
    """


class NearCollisionError(IntegrationAbort):
    """Raised when the flow approaches Z = 0 beyond the guard radius."""

    kind = "near-collision"


class ConvergenceError(IntegrationAbort):
    """Raised when the implicit midpoint iteration does not converge."""

    kind = "no-convergence"


def hamiltonian_upstairs(y):
    """H = |W|^2 / (8 |Z|^2) - 1 / |Z|^2 at the flat state y."""
    m = len(y) // 2
    zsq = float(y[:m] @ y[:m])
    if zsq <= DOMAIN_EPS**2:
        raise ValueError("Hamiltonian undefined at Z = 0")
    wsq = float(y[m:] @ y[m:])
    return wsq / (8.0 * zsq) - 1.0 / zsq


def _rhs(flat, m):
    """Hamilton's equations: (Zdot, Wdot) = (dH/dW, -dH/dZ)."""
    zf, wf = flat[:m], flat[m:]
    zsq = zf @ zf
    if zsq <= _COLLISION_RADIUS**2:
        raise NearCollisionError("|Z| = %.3e below the collision guard" % np.sqrt(zsq))
    wsq = wf @ wf
    out = np.empty_like(flat)
    out[:m] = wf / (4.0 * zsq)
    out[m:] = (wsq / (4.0 * zsq * zsq) - 2.0 / (zsq * zsq)) * zf
    return out


@dataclass
class Trajectory:
    """Sampled flow: times (N,) and flat states (N, 8n)."""

    times: np.ndarray
    states: np.ndarray
    n: int

    def __len__(self):
        return self.times.size

    def blocks(self):
        """(times, states) views in the blocks that flow_blocks yields."""
        step = realization.block_points(self.n)
        for lo in range(0, len(self), step):
            yield self.times[lo : lo + step], self.states[lo : lo + step]

    def to_csv(self, path):
        """CSV export: header t,Z_0w,...,W_{n-1}z; 17 significant digits."""
        with open(path, "w") as fh:
            write_csv_header(fh, self.n)
            for times, states in self.blocks():
                write_csv_block(fh, times, states)


def write_csv_header(fh, n):
    comps = "wxyz"
    cols = ["t"]
    cols += ["Z_%d%s" % (i, c) for i in range(n) for c in comps]
    cols += ["W_%d%s" % (i, c) for i in range(n) for c in comps]
    fh.write(",".join(cols) + "\n")


def write_csv_block(fh, times, states):
    """One CSV row per sample, %.17g, so floats round-trip exactly."""
    np.savetxt(fh, np.column_stack([times, states]), fmt="%.17g", delimiter=",")


def _step_rk4(y, dt, m):
    k1 = _rhs(y, m)
    k2 = _rhs(y + 0.5 * dt * k1, m)
    k3 = _rhs(y + 0.5 * dt * k2, m)
    k4 = _rhs(y + dt * k3, m)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_midpoint(y, dt, m):
    k = _rhs(y, m)
    for _ in range(50):
        k_new = _rhs(y + 0.5 * dt * k, m)
        if np.max(np.abs(k_new - k)) < 1e-12:
            return y + dt * k_new
        k = k_new
    raise ConvergenceError("implicit midpoint failed to converge")


_STEPPERS = {"rk4": _step_rk4, "midpoint": _step_midpoint}


def sample_count(dt, t_end):
    """Samples of a run with step dt from t = 0 to t_end, both ends included."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    if not np.isfinite(t_end / dt):
        raise ValueError("t_end / dt = %g / %g is not a finite number of steps" % (t_end, dt))
    return int(round(t_end / dt)) + 1


def flow_blocks(y0, dt, t_end, method="rk4"):
    """Integrate Hamilton's equations from the flat state y0 up to t_end with
    fixed step dt, yielding (times, states) blocks of
    realization.block_points(n) samples.

    The arguments are checked on call.  A block is a fresh array, so a
    consumer may keep it.  When a step fails, the accepted samples of the
    unfinished block are yielded first and the IntegrationAbort is raised
    on the next request, so a consumer that handles every block has seen
    every accepted sample, from t = 0 on.
    """
    if method not in _STEPPERS:
        raise ValueError("unknown method %r" % (method,))
    return _flow(np.asarray(y0, dtype=float), len(y0) // 8, dt, sample_count(dt, t_end),
                 _STEPPERS[method])


def _flow(y, n, dt, total, stepper):
    m = 4 * n
    step = realization.block_points(n)
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        states = np.empty((hi - lo, 8 * n))
        for i in range(lo, hi):
            if i:
                try:
                    y = stepper(y, dt, m)
                except IntegrationAbort:
                    if i > lo:
                        yield np.arange(lo, i) * dt, states[: i - lo]
                    raise
            states[i - lo] = y
        yield np.arange(lo, hi) * dt, states


def integrate(y0, dt, t_end, method="rk4"):
    """The whole sampled flow of flow_blocks as one Trajectory.

    Raises MemoryError, before allocating, when the sampled trajectory
    would not fit in physical memory.  An IntegrationAbort carries the
    accepted samples from t = 0 as ``partial``.
    """
    blocks = flow_blocks(y0, dt, t_end, method)
    total = sample_count(dt, t_end)
    n = len(y0) // 8
    check_memory(total * (8 * n + 1) * 8, "a trajectory of %d samples" % total)
    times = np.empty(total)
    states = np.empty((total, 8 * n))
    done = 0
    try:
        for t, s in blocks:
            times[done : done + len(t)] = t
            states[done : done + len(t)] = s
            done += len(t)
    except IntegrationAbort as err:
        err.partial = Trajectory(times[:done].copy(), states[:done].copy(), n)
        raise
    return Trajectory(times, states, n)


def _chunk_series(n, s):
    """Predicted constants on a block of flat states, and the energy
    relation residual there."""
    m = 4 * n
    v = realization.family_values(n, s[:, :m].reshape(-1, n, 4), s[:, m:].reshape(-1, n, 4))
    h, a = realization.kepler_scalars(v["X"], v["Y"], v["X_e"], v["Y_e"])
    series = {
        "drift_H": h,
        "drift_rho": v["rho"],
        "drift_mu": v["mu"],
        "drift_L_pairs": v["Lpair"],
        "drift_A": a,
        "drift_L_squared": 0.5 * np.einsum("Nab,Nab->N", v["Lpair"], v["Lpair"]),
        "drift_A_squared": -1.0 + np.einsum("Nd,Nd->N", a, a),
    }
    return series, realization.energy_formula_residuals(n, v)


class DriftFold:
    """Running maxima behind conserved_report, fed one block of flat states
    at a time, so its memory is one block's working set, within
    realization._BLOCK_BYTES for a block of block_points(n) samples but at
    n = 1 and n >= 9 (see block_points), whatever the run length.

    The drift of a series x is max |x - x[0]| / max(1, |x[0]|) over
    samples and components, x[0] taken from the first block added.
    """

    def __init__(self, n):
        self.n = n
        self.x0 = self.den = self.drift = None
        self.worst = -np.inf

    def add(self, states):
        series, residual = _chunk_series(self.n, states)
        if self.x0 is None:
            # copied rows, so the first block is freed after its fold
            self.x0 = {k: x[0].ravel().copy() for k, x in series.items()}
            self.den = {k: np.maximum(1.0, np.abs(v)) for k, v in self.x0.items()}
            self.drift = dict.fromkeys(series, -np.inf)
        for k, x in series.items():
            # one temporary per series, updated in place
            t = x.reshape(x.shape[0], -1) - self.x0[k]
            np.abs(t, out=t)
            t /= self.den[k]
            self.drift[k] = np.maximum(self.drift[k], np.max(t))
        self.worst = np.maximum(self.worst, np.max(residual))

    def report(self):
        if self.x0 is None:
            raise ValueError("empty trajectory")
        rep = {"H": float(self.x0["drift_H"][0]), "mu": float(self.x0["drift_mu"][0])}
        rep.update((k, float(v)) for k, v in self.drift.items())
        rep["max_energy_residual"] = float(self.worst)
        return rep


def conserved_report(tr):
    """Max relative drifts of every predicted constant, plus the energy
    relation residual, along a trajectory: a DriftFold over its blocks,
    so memory beyond the trajectory is one block, bounded in bytes.
    """
    fold = DriftFold(tr.n)
    for _, states in tr.blocks():
        fold.add(states)
    return fold.report()
