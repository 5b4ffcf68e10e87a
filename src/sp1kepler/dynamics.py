"""Time evolution of the quaternionic Kepler system on the upstairs space.

The Hamiltonian H = |W|^2/(8|Z|^2) - 1/|Z|^2 generates the flow in the
canonical coordinates of the poisson module; the cone-side dynamics is
recovered through the sternberg module when needed.  The integrators are
classical RK4 and implicit midpoint; conserved_report monitors every
quantity the realization predicts to be constant (H, the moment map, the
angular momenta, the LRL components) together with the closed quadratic
relation tying them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import realization
from .poisson import DOMAIN_EPS, PhasePoint

_COLLISION_RADIUS = 10.0 * DOMAIN_EPS
_CHUNK = 4096


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


def hamiltonian_upstairs(p):
    """H = |W|^2 / (8 |Z|^2) - 1 / |Z|^2."""
    if isinstance(p, PhasePoint):
        z = p.flatten()
        n = p.n
    else:
        z = np.asarray(p, dtype=float)
        n = z.size // 8
    m = 4 * n
    zsq = float(z[:m] @ z[:m])
    if zsq <= DOMAIN_EPS**2:
        raise ValueError("Hamiltonian undefined at Z = 0")
    wsq = float(z[m:] @ z[m:])
    return wsq / (8.0 * zsq) - 1.0 / zsq


def hamiltonian_gradient(p):
    """Analytic gradient: dH/dW = W/(4|Z|^2), dH/dZ = (2 - |W|^2/4) Z / |Z|^4."""
    flat = p.flatten() if isinstance(p, PhasePoint) else np.asarray(p, dtype=float)
    n = flat.size // 8
    m = 4 * n
    zf, wf = flat[:m], flat[m:]
    zsq = float(zf @ zf)
    if zsq <= DOMAIN_EPS**2:
        raise ValueError("gradient undefined at Z = 0")
    wsq = float(wf @ wf)
    dz = (-wsq / (4.0 * zsq * zsq) + 2.0 / (zsq * zsq)) * zf
    dw = wf / (4.0 * zsq)
    return dz, dw


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
    """Sampled flow: times (N,), flat states (N, 8n), and run metadata."""

    times: np.ndarray
    states: np.ndarray
    n: int
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return self.times.size

    def point(self, i):
        return PhasePoint.unflatten(self.states[i], self.n)

    def to_csv(self, path):
        """CSV export: header t,Z_0w,...,W_{n-1}z; 17 significant digits.

        Rows are formatted _CHUNK at a time, so no full copy is made.
        """
        comps = "wxyz"
        cols = ["t"]
        cols += ["Z_%d%s" % (i, c) for i in range(self.n) for c in comps]
        cols += ["W_%d%s" % (i, c) for i in range(self.n) for c in comps]
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for lo in range(0, len(self), _CHUNK):
                hi = lo + _CHUNK
                block = np.column_stack([self.times[lo:hi], self.states[lo:hi]])
                np.savetxt(fh, block, fmt="%.17g", delimiter=",")


def _step_rk4(y, dt, m):
    k1 = _rhs(y, m)
    k2 = _rhs(y + 0.5 * dt * k1, m)
    k3 = _rhs(y + 0.5 * dt * k2, m)
    k4 = _rhs(y + dt * k3, m)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_midpoint(y, dt, m, tol=1e-12, max_iter=50):
    k = _rhs(y, m)
    for _ in range(max_iter):
        k_new = _rhs(y + 0.5 * dt * k, m)
        if np.max(np.abs(k_new - k)) < tol:
            return y + dt * k_new
        k = k_new
    raise ConvergenceError("implicit midpoint failed to converge")


def integrate(p0, dt, t_end, method="rk4"):
    """Integrate Hamilton's equations from p0 up to t_end with fixed step dt.

    Raises MemoryError, before allocating, when the sampled trajectory
    would not fit in physical memory.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    if method not in ("rk4", "midpoint"):
        raise ValueError("unknown method %r" % (method,))
    n = p0.n
    m = 4 * n
    steps = int(round(t_end / dt))
    need = (steps + 1) * (8 * n + 1) * 8
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise MemoryError(
            "a trajectory of %d samples needs %.1f GiB; physical memory is %.1f GiB"
            % (steps + 1, need / 2**30, have / 2**30)
        )
    times = np.arange(steps + 1) * dt
    states = np.empty((steps + 1, 8 * n))
    y = p0.flatten()
    states[0] = y
    stepper = _step_rk4 if method == "rk4" else _step_midpoint
    meta = {"method": method, "dt": dt, "t_end": t_end, "n": n}
    for i in range(1, steps + 1):
        try:
            y = stepper(y, dt, m)
        except IntegrationAbort as err:
            # attach the accepted samples so callers can dump partial output
            err.partial = Trajectory(times[:i].copy(), states[:i].copy(), n, meta)
            raise
        states[i] = y
    return Trajectory(times, states, n, meta)


def _chunk_series(n, s):
    """Predicted constants on a block of flat states, and the energy
    relation residual there."""
    m = 4 * n
    zs = s[:, :m].reshape(-1, n, 4)
    ws = s[:, m:].reshape(-1, n, 4)
    v = realization.family_values(n, zs, ws)
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
    return series, realization.energy_formula_residuals(n, zs, ws, v)


def conserved_report(tr):
    """Max relative drifts of every predicted constant, plus the energy
    relation residual, along a trajectory.

    The drift of a series x is max |x - x[0]| / max(1, |x[0]|) over
    samples and components.  One pass over blocks of min(_CHUNK,
    realization.block_points(n)) samples folds each into running maxima,
    so memory beyond the trajectory is one block, bounded in bytes.
    """
    if len(tr) == 0:
        raise ValueError("empty trajectory")
    worst = -np.inf
    step = min(_CHUNK, realization.block_points(tr.n))
    for lo in range(0, len(tr), step):
        series, residual = _chunk_series(tr.n, tr.states[lo : lo + step])
        if lo == 0:
            # copied rows, so the first block is freed after its fold
            x0 = {k: x[0].ravel().copy() for k, x in series.items()}
            den = {k: np.maximum(1.0, np.abs(v)) for k, v in x0.items()}
            drift = dict.fromkeys(series, -np.inf)
        for k, x in series.items():
            flat = x.reshape(x.shape[0], -1)
            drift[k] = np.maximum(drift[k], np.max(np.abs(flat - x0[k]) / den[k]))
        worst = np.maximum(worst, np.max(residual))
        del series, residual  # freed before the next block is computed
    rep = {"H": float(x0["drift_H"][0]), "mu": float(x0["drift_mu"][0])}
    rep.update((k, float(v)) for k, v in drift.items())
    rep["max_energy_residual"] = float(worst)
    return rep
