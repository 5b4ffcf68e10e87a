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

from dataclasses import dataclass, field

import numpy as np

from . import realization
from .poisson import DOMAIN_EPS, PhasePoint

_COLLISION_RADIUS = 10.0 * DOMAIN_EPS
_CHUNK = 20000


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
        """CSV export: header t,Z_0w,...,W_{n-1}z; 17 significant digits."""
        comps = "wxyz"
        cols = ["t"]
        cols += ["Z_%d%s" % (i, c) for i in range(self.n) for c in comps]
        cols += ["W_%d%s" % (i, c) for i in range(self.n) for c in comps]
        data = np.column_stack([self.times, self.states])
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            np.savetxt(fh, data, fmt="%.17g", delimiter=",")


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
    """Integrate Hamilton's equations from p0 up to t_end with fixed step dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    if method not in ("rk4", "midpoint"):
        raise ValueError("unknown method %r" % (method,))
    n = p0.n
    m = 4 * n
    steps = int(round(t_end / dt))
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


def _flow_values(tr):
    """Chunked realization values and derived scalars along a trajectory."""
    n = tr.n
    m = 4 * n
    rows = {
        "H": [], "rho": [], "mu": [], "Lpair": [], "A": [],
        "L2": [], "A2": [], "energy_residual": [],
    }
    for lo in range(0, len(tr), _CHUNK):
        s = tr.states[lo : lo + _CHUNK]
        zs = s[:, :m].reshape(-1, n, 4)
        ws = s[:, m:].reshape(-1, n, 4)
        v = realization.family_values(n, zs, ws)
        h, a = realization.kepler_scalars(v["X"], v["Y"], v["X_e"], v["Y_e"])
        rows["H"].append(h)
        rows["rho"].append(v["rho"])
        rows["mu"].append(v["mu"])
        rows["Lpair"].append(v["Lpair"])
        rows["A"].append(a)
        rows["L2"].append(0.5 * np.einsum("Nab,Nab->N", v["Lpair"], v["Lpair"]))
        rows["A2"].append(-1.0 + np.einsum("Nd,Nd->N", a, a))
        rows["energy_residual"].append(
            realization.energy_formula_residuals(n, zs, ws, v)
        )
    return {k: np.concatenate(vals) for k, vals in rows.items()}


def _drift(series):
    """Max relative drift of a (N,) or (N, ...) series vs its initial value."""
    arr = np.asarray(series)
    flat = arr.reshape(arr.shape[0], -1)
    den = np.maximum(1.0, np.abs(flat[0]))
    return float(np.max(np.abs(flat - flat[0]) / den))


def conserved_report(tr):
    """Max relative drifts of every predicted constant, plus the energy
    relation residual, along a trajectory."""
    if len(tr) == 0:
        raise ValueError("empty trajectory")
    v = _flow_values(tr)
    return {
        "H": float(v["H"][0]),
        "mu": float(v["mu"][0]),
        "drift_H": _drift(v["H"]),
        "drift_rho": _drift(v["rho"]),
        "drift_mu": _drift(v["mu"]),
        "drift_L_pairs": _drift(v["Lpair"]),
        "drift_A": _drift(v["A"]),
        "drift_L_squared": _drift(v["L2"]),
        "drift_A_squared": _drift(v["A2"]),
        "max_energy_residual": float(np.max(v["energy_residual"])),
    }
