"""Helpers used only by the tests: the norm and real inner product of one
quaternion array, the quaternion conjugate and the unit matrices E_ij q,
the list-and-loop reference for jordan.orthonormal_basis, the QTAB route
for <Z, e_a Z> and the pullback check on it (the reference for the signed
gather of sternberg.pullback_check), seeded random quaternion vectors and
matrices, unit quaternions, quadratic observables (symmetric (8n, 8n)
matrices) and flat phase points, the per-point samplers that are the reference for
realization.sample_point and sample_leaf on stacks, seeded leaf points as
(n, 4) pairs and flat states and their time reversal; single-point
formulas for the moment maps and the magnetic charge, evaluation of a quadratic observable at a point or a
stack of points, the right Sp(1) action on a phase point, the cone-side
LRL component, the block byte budgets that give blocks of k points or of
k Jacobi triples, the generators X_u, Y_v and
S_uv of the conformal algebra with the action of S_m on V by quaternion
arithmetic and read off C, the dense-join reference of conformal._products
(products_dense), the dense reference of the closure check, the
quaternion-arithmetic oracle for jordan.s_tensor and the
structure operator S_uv from triple products;
the observables X_u, Y_v, L_u and L_{u,v} one at a time, the dense
reference of realization.family_values (family_values_oracle), the
central-difference bracket, the horizontal lift, the analytic gradient of
the Kepler Hamiltonian, and the so*(4n) relation sweep over whole stacks
of dense (4n, 4n) Z and W blocks (block_bracket), the reference for the
sparse realization.verify_so_star_relations; the np.savetxt reference of
dynamics.write_csv_block; a fresh interpreter that reports the modules a
piece of code loaded, or the order in which their imports started, and an
in-process run of the CLI."""

import contextlib
import io
import os
import subprocess
import sys
import types

import numpy as np

import sp1kepler
from sp1kepler import cli, conformal, dynamics, jordan, realization, sternberg
from sp1kepler.poisson import poisson_j
from sp1kepler.quat import (
    CONJ,
    DOMAIN_EPS,
    QTAB,
    UNITS,
    dagger_product,
    im,
    mat_apply,
    mat_dagger,
    mat_mul,
    mul,
    norms,
    real_rep,
    trace_re,
)


def norm(q):
    """Euclidean norm of a quaternion, vector or matrix, as a float."""
    return float(np.linalg.norm(q))


def vec_inner(u, v):
    """Standard real inner product on H^n: <U, V> = Re(U^dag V)."""
    return float(np.dot(u.reshape(-1), v.reshape(-1)))


def conj(q):
    """Quaternion conjugate, componentwise on a (..., 4) array."""
    return q * CONJ


def unit_matrix(n, i, j, q=UNITS[0]):
    """E_ij * q: the n x n matrix with quaternion q in slot (i, j)."""
    out = np.zeros((n, n, 4))
    out[i, j] = q
    return out


def orthonormal_basis_oracle(n):
    """The reference for jordan.orthonormal_basis: the list of its d
    elements, each a sum of unit matrices scaled by sqrt(n) or sqrt(n/2),
    copied into one stack."""
    elements = [unit_matrix(n, a, a) * np.sqrt(n) for a in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            for q in UNITS:
                m = unit_matrix(n, a, b, q) + unit_matrix(n, b, a, conj(q))
                elements.append(m * np.sqrt(n / 2.0))
    return np.array(elements)


def basis_pairings_oracle(z):
    """<Z, e_a Z> over the orthonormal basis by quaternion arithmetic: e_a Z
    by a QTAB einsum over the dense basis, QTAB taken on the points first.
    The reference for the signed gather that sternberg.pullback_check reads."""
    uz = np.einsum("aijp,...jpc->...aic", jordan.orthonormal_basis(z.shape[-2]),
                   np.einsum("...jq,pqc->...jpc", z, QTAB))
    return np.einsum("...ic,...aic->...a", z, uz)


def pullback_check_oracle(z, w):
    """sternberg.pullback_check with <Z, e_a Z> from basis_pairings_oracle."""
    x = sternberg.cone_point(z)
    r1 = realization._rel(jordan.coords(x), basis_pairings_oracle(z)).max(axis=-1)
    pi, mu = sternberg.pi_from_W(z, w), 0.5 * norms(im(dagger_product(w, z)), 1)
    r2 = realization._rel(sternberg.sternberg_x_e(x, pi, norms(z, 2) ** 2, mu),
                          0.25 * norms(w, 2) ** 2)
    return r1, r2


def random_qvector(rng, n, scale=1.0):
    return rng.standard_normal((n, 4)) * scale


def random_qmatrix(rng, n, scale=1.0):
    return rng.standard_normal((n, n, 4)) * scale


def random_unit_quaternion(rng):
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    return v


def random_quad_observable(rng, n, scale=1.0):
    """A random quadratic observable: a symmetric (8n, 8n) matrix."""
    m = 8 * n
    a = rng.standard_normal((m, m)) * scale
    return a + a.T


def random_phase_point(rng, n, scale=1.0, min_z=0.3):
    """A random flat phase point (8n,) with |Z| > min_z."""
    while True:
        z = random_qvector(rng, n, scale)
        if norm(z) > min_z:
            break
    return np.concatenate((z, random_qvector(rng, n, scale)), axis=None)


def sample_point_oracle(n, rng):
    """One seeded Gaussian phase point (Z, W) of (n, 4) arrays, drawn point by
    point: Z is redrawn until |Z| > 0.3, then W is drawn.  The reference
    for realization.sample_point on stacks."""
    z = rng.standard_normal((n, 4))
    while norm(z) <= 0.3:
        z = rng.standard_normal((n, 4))
    return z, rng.standard_normal((n, 4))


def sample_leaf_oracle(n, mu, rng):
    """One seeded leaf point (Z, W) by per-point quaternion arithmetic: the
    point of sample_point_oracle with W shifted by Z alpha.  The reference
    for realization.sample_leaf on stacks."""
    z, w = sample_point_oracle(n, rng)
    nu = im(dagger_product(w, z))
    if norm(nu) > 1e-12:
        target = nu * (2.0 * mu / norm(nu))
    else:
        target = np.array([0.0, 2.0 * mu, 0.0, 0.0])
    alpha = (nu - target) / (norm(z) ** 2)
    return z, w + mul(z, alpha)


def bound_start_oracle(n, mu, rng):
    """The reference for cli._bound_start: its per-point loop, one
    realization.sample_leaf draw of one point a try."""
    draws = 10000
    for _ in range(draws):
        y = np.concatenate(realization.sample_leaf(n, mu, rng, 1), axis=None)
        if dynamics.hamiltonian_upstairs(y) <= -0.1:
            return y
    raise cli._RuntimeAbort(f"failed to sample a bound start: no leaf point with H <= -0.1"
                            f" in {draws:,} draws at n = {n}, mu = {mu:g}")


def leaf_point(n, mu, rng):
    """One realization.sample_leaf point (Z, W), as (n, 4) arrays."""
    zs, ws = realization.sample_leaf(n, mu, rng, 1)
    return zs[0], ws[0]


def leaf_state(n, mu, rng):
    """One realization.sample_leaf point as a flat state (8n,): Z entries,
    then W entries."""
    return np.concatenate(leaf_point(n, mu, rng), axis=None)


def time_reversed(y):
    """The flat state y with W negated."""
    return y * np.repeat([1.0, -1.0], y.size // 2)


def moment_rho(z, w):
    """The Sp(1) moment map rho(Z, W) = -Im(W^dag Z)."""
    return -im(dagger_product(w, z))


def moment_psi(z, w, xi):
    """psi(Z, W, xi) = Im(W^dag Z) + 2 xi for imaginary xi."""
    if abs(xi[0]) > 1e-12 * max(1.0, norm(xi)):
        raise ValueError("xi must be an imaginary quaternion")
    return im(dagger_product(w, z)) + 2 * xi


def mu_of(z, w):
    """The magnetic charge of the leaf through (Z, W): |Im(W^dag Z)| / 2."""
    return 0.5 * norm(im(dagger_product(w, z)))


def quad_value(a, y):
    """The quadratic observable y^T a y / 2 at a flat point y (8n,)."""
    return float(0.5 * y @ a @ y)


def evaluate_batch(a, ys):
    """The quadratic observable a at stacked flat points of shape (N, 8n)."""
    return 0.5 * np.einsum("ni,ij,nj->n", ys, a, ys)


def transformed(z, w, g):
    """The point (Z g, W g) for a unit quaternion g."""
    return mul(z, g), mul(w, g)


def _fresh_run(prelude, code, args):
    """Run prelude and code in a fresh interpreter, with this package's source
    on its path and args as its arguments; return the finished process and
    the module names on the last line of its stderr, which prelude prints at
    exit, space-separated: a prelude that imported json would hide the CLI's."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sp1kepler.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", prelude + code, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    return proc, proc.stderr.splitlines()[-1].split()


def modules_loaded_by(code, *args):
    """Run code in a fresh interpreter, with this package's source on its
    path and args as its arguments; return the finished process and the set
    of modules loaded when it exited."""
    guard = ("import atexit, sys\n"
             "atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))\n")
    proc, loaded = _fresh_run(guard, code, args)
    return proc, set(loaded)


def imports_started_by(code, *args):
    """Run code as modules_loaded_by does; return the finished process and
    the modules whose import started, in the order they started, as a
    sys.meta_path finder saw each first asked for.  sys.modules cannot give
    this order: importlib re-inserts a module when its load ends."""
    log = ("import atexit, sys\n"
           "class _Log:\n"
           "    started = []\n"
           "    def find_spec(self, name, path=None, target=None):\n"
           "        if name not in self.started:\n"
           "            self.started.append(name)\n"
           "sys.meta_path.insert(0, _Log())\n"
           "atexit.register(lambda: print(*_Log.started, file=sys.stderr))\n")
    return _fresh_run(log, code, args)


def csv_block_oracle(times, states):
    """The reference for dynamics.write_csv_block: np.savetxt of the block."""
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack([times, states]), fmt="%.17g", delimiter=",")
    return buf.getvalue()


def run_cli(args, prog_name=None):
    """Run cli.main on args in this process; return its exit_code and its
    stdout and stderr together as output.  main must end in SystemExit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            cli.main(args, prog_name)
        except SystemExit as exc:
            code = exc.code or 0
        else:
            raise AssertionError("cli.main returned instead of exiting")
    return types.SimpleNamespace(exit_code=code, output=buf.getvalue())


def block_bytes(k, n):
    """A realization._BLOCK_BYTES for which block_points(n) is k."""
    return k * realization._point_bytes(n)


def triple_block_bytes(k, n):
    """A conformal._BLOCK_BYTES for which conformal.jacobi_random_max
    checks k triples per block."""
    return k * conformal._triple_bytes(n)


def x_element(u):
    """The generator X_u of the conformal algebra."""
    return conformal.element(u, np.zeros(conformal.str_dimension(u.shape[0])), np.zeros_like(u))


def y_element(v):
    """The generator Y_v of the conformal algebra."""
    return conformal.element(np.zeros_like(v), np.zeros(conformal.str_dimension(v.shape[0])), v)


def s_element(u, v):
    """The generator S_uv = S_m, m = uv, whose S-coordinates are the entries of m."""
    return conformal.element(np.zeros_like(u), mat_mul(u, v), np.zeros_like(u))


def s_operator(m, sign=1.0):
    """The (d, d) matrix of z -> (mz + sign z m^dag)/2 on V in the orthonormal
    basis, by quaternion arithmetic; sign 1 is the action of S_m."""
    cols = [jordan.coords((mat_mul(m, e) + sign * mat_mul(e, mat_dagger(m))) * 0.5)
            for e in jordan.orthonormal_basis(m.shape[0])]
    return np.array(cols).T


def s_action(n, s):
    """The action on V of the S-parts s, a (t, 4n^2) array, read off the
    [S, X] block of C: a (t, d, d) stack with [S_s, X_b] = sum_c out[., c, b] X_c."""
    i, j, k, v = conformal.structure_constants(n)
    d, r = jordan.dim_v(n), conformal.str_dimension(n)
    sel = (i >= d) & (i < d + r) & (j < d) & (k < d)
    w = s[:, i[sel] - d] * v[sel]
    keys = (np.arange(len(s))[:, None] * d + k[sel]) * d + j[sel]
    # float64 also when nothing is selected: bincount then counts in int64
    out = np.bincount(keys.ravel(), w.ravel(), len(s) * d * d).astype(float, copy=False)
    return out.reshape(len(s), d, d)


def products_dense(n, a, b):
    """The reference for conformal._products: the same products, with every
    pair of nonzero entries of a and b compared at the inner index in one
    equality matrix."""
    (ao, ar, ac, au), (bo, br, bc, bu) = np.nonzero(a), np.nonzero(b)
    x, y = np.nonzero(ac[:, None] == br[None, :])
    val = a[ao[x], ar[x], ac[x], au[x]] * b[bo[y], br[y], bc[y], bu[y]]
    prod = QTAB[au[x], bu[y]] * val[:, None]
    pair, unit = np.nonzero(prod)
    x, y = x[pair], y[pair]
    return ao[x], bo[y], (ar[x] * n + bc[y]) * 4 + unit, prod[pair, unit]


def l_operator_definition(u):
    """L_u by its definition, the coordinates of u o e_c as column c, for
    every basis element e_c (einsum products: slow at large n)."""
    return jordan.coords(jordan.jordan_product(u, jordan.orthonormal_basis(u.shape[-2]))).T


def l_operator_dense(u):
    """L_u from the dense (d, 4n, 4n) stack R of the basis real_reps:
    <e_a | u o e_b> = tr((R_a R_u + R_u R_a) R_b) / (8n), as Frobenius
    products with the symmetric R_b."""
    n = u.shape[0]
    r = real_rep(jordan.orthonormal_basis(n))
    ru = real_rep(u)
    rr = r @ ru
    rr += ru @ r
    return rr.reshape(len(r), -1) @ r.reshape(len(r), -1).T / (8 * n)


def closure_residual_dense(n):
    """The dense reference for conformal.closure_residual: S_{e_a} = L_{e_a}
    and [L_a, L_b] = S_{[e_a, e_b]}/2 from the (d, d, d) stack of the L_{e_a},
    the S-action of s_action and the entries of [e_a, e_b] read off
    R_a R_b - R_b R_a, R = real_rep, at the real unit: R(m)[4i + c, 4j] is
    component c of m_ij; b runs in chunks."""
    basis = jordan.orthonormal_basis(n)
    d = len(basis)
    ls = np.empty((d, d, d))
    for a, e in enumerate(basis):
        ls[a] = jordan.L_operator(e)
    i, j, k, _ = conformal.structure_constants(n)
    sx = np.count_nonzero((i >= d) & (i < d + conformal.str_dimension(n)) & (j < d) & (k < d))
    step = max(1, (conformal._BLOCK_BYTES - 3 * len(i) - 32 * sx) // (24 * (d * d + sx + 8 * n * n)))
    worst = 0.0
    for lo in range(0, d, step):
        lb = ls[lo : lo + step]
        c = len(lb)
        worst = max(worst, float(np.abs(s_action(n, basis[lo : lo + c].reshape(c, -1)) - lb).max()))
        rb = real_rep(basis[lo : lo + c])
        for a in range(d):
            ra = real_rep(basis[a])
            comm = ra @ rb[:, :, 0::4] - rb @ ra[:, 0::4]  # (c, 4n, n)
            half = 0.5 * comm.reshape(c, n, 4, n).transpose(0, 1, 3, 2).reshape(c, -1)
            lhs = ls[a] @ lb
            lhs -= lb @ ls[a]
            lhs -= s_action(n, half)
            worst = max(worst, float(np.abs(lhs, out=lhs).max()))
            del comm, half, lhs  # freed before the next pair of factors
    return worst


def lrl_downstairs(z, w, mu, u):
    """The LRL component A_u = (X_u - Y_u X_e / Y_e)/2 + Y_u / Y_e.

    Y-values come from the cone point, X_e from the cone-side formula,
    X_u through the upstairs pair (Z, W): not an independent route.
    """
    x, r = sternberg.cone_point(z), norm(z) ** 2
    y_u = jordan.inner(x, u)
    x_e = sternberg.sternberg_x_e(x, sternberg.pi_from_W(z, w), r, mu)
    x_u = 0.25 * vec_inner(w, mat_apply(u, w))
    _, a = realization.kepler_scalars(
        np.array([[x_u]]), np.array([[y_u]]), np.array([x_e]), np.array([r])
    )
    return float(a[0, 0])


def S_operator(u, v):
    """Matrix of S_{uv} = [L_u, L_v] + L_{u o v}; S_{uv}(w) = {uvw}."""
    cols = [jordan.coords(jordan.triple_product(u, v, eb))
            for eb in jordan.orthonormal_basis(u.shape[0])]
    return np.array(cols).T


def s_tensor_oracle(n):
    """jordan.s_tensor by quaternion arithmetic alone (QTAB einsums, no
    real_rep): {e_a e_b e_c} for all triples, projected onto the basis."""
    e = jordan.orthonormal_basis(n)  # (d, n, n, 4)
    # pairwise matrix products P[a, b] = e_a e_b
    p = np.einsum("aikp,bkjq,pqc->abijc", e, e, QTAB)
    # T1[a, b, c] = (e_a e_b) e_c,  T2[a, b, c] = e_c (e_b e_a)
    t1 = np.einsum("abikp,ckjq,pqr->abcijr", p, e, QTAB)
    t2 = np.einsum("cikp,bakjq,pqr->abcijr", e, p, QTAB)
    triple = 0.5 * (t1 + t2)
    # coeff[a, b, c, d] = <e_d | {e_a e_b e_c}>; T[a, b] has rows d, columns c
    coeff = np.einsum("abcijp,djip,p->abcd", triple, e, CONJ) / n
    return np.transpose(coeff, (0, 1, 3, 2))


def x_observable(u):
    """X_u = <W, uW>/4 for hermitian u."""
    return realization.x_quad(real_rep(u))


def y_observable(v):
    """Y_v = <Z, vZ> for hermitian v."""
    return realization.y_quad(real_rep(v))


def l_observable(u):
    """L_u = S_eu = <W, uZ>/2."""
    return realization.s_quad(real_rep(u))


def l_pair_observable(u, v):
    """L_{u,v} = (S_uv - S_vu)/2, i.e. S of half the commutator."""
    return realization.s_quad(real_rep((mat_mul(u, v) - mat_mul(v, u)) * 0.5))


def family_values_oracle(n, zs, ws):
    """realization.family_values through the dense contraction of the
    (d, 4n, 4n) real_rep stack of the basis with the points, in place of
    its signed gather; every later sum is the same."""
    rep = real_rep(jordan.orthonormal_basis(n))
    nn = zs.shape[0]
    zf = zs.reshape(nn, -1)
    wf = ws.reshape(nn, -1)
    az = np.einsum("dxy,Ny->Ndx", rep, zf)  # flat(e_d Z)
    bw = np.einsum("dxy,Ny->Ndx", rep, wf)
    g = np.einsum("Nax,Nbx->Nab", bw, az)
    lpair = g - np.transpose(g, (0, 2, 1))
    lpair *= 0.25
    wz = np.einsum("Nip,Niq,pqc->Nc", ws * CONJ, zs, QTAB)
    return {
        "X": 0.25 * np.einsum("Nx,Ndx->Nd", wf, bw),
        "Y": np.einsum("Nx,Ndx->Nd", zf, az),
        "L": 0.5 * np.einsum("Nx,Ndx->Nd", wf, az),
        "Lpair": lpair,
        "X_e": 0.25 * np.einsum("Nx,Nx->N", wf, wf),
        "Y_e": np.einsum("Nx,Nx->N", zf, zf),
        "L_e": 0.5 * np.einsum("Nx,Nx->N", wf, zf),
        "mu": 0.5 * np.linalg.norm(wz[:, 1:], axis=1),
        "rho": -wz[:, 1:],
    }


def _eval_any(f, z):
    if isinstance(f, np.ndarray):
        return quad_value(f, z)
    return float(f(z))


def _fd_gradient(f, z, h):
    grad = np.empty_like(z)
    for i in range(z.size):
        zp = z.copy()
        zp[i] += h
        zm = z.copy()
        zm[i] -= h
        grad[i] = (_eval_any(f, zp) - _eval_any(f, zm)) / (2 * h)
    return grad


def bracket_numeric(f, g, p, h=1e-5):
    """Central-difference canonical bracket at a point, the independent
    oracle for the exact bracket; it handles non-quadratic observables.

    f, g may be quadratic observables (symmetric matrices) or callables on
    flat R^{8n} coordinates; p is a flat point.  Falls back to Richardson
    extrapolation (step h/2) when the two step sizes disagree noticeably.
    """
    if h <= 0 or h < 1e-12:
        raise ValueError("step underflow")
    z = np.asarray(p, dtype=float)
    j = poisson_j(z.size // 8)

    def value(step):
        gf = _fd_gradient(f, z, step)
        gg = _fd_gradient(g, z, step)
        return float(gf @ j @ gg)

    v1 = value(h)
    v2 = value(h / 2)
    if abs(v1 - v2) > 1e-6 * max(1.0, abs(v1)):
        # second-order scheme: Richardson combination cancels the h^2 term
        return (4 * v2 - v1) / 3
    return v2


def horizontal_lift(z, xdot):
    """The horizontal lift Zdot of a tangent vector xdot at n Z Z^dag."""
    if norm(z) <= DOMAIN_EPS:
        raise ValueError("horizontal lift requires Z != 0")
    proj = sternberg._tangent_project(z, xdot)
    if norm(proj - xdot) > 1e-8 * max(1.0, norm(xdot)):
        raise ValueError("xdot is not tangent to the cone at this point")
    xdot = proj
    scale = 1.0 / (z.shape[0] * norm(z) ** 2)
    lead = mat_apply(xdot, z)
    shift = z * (0.5 * trace_re(xdot))
    return (lead - shift) * scale


def hamiltonian_gradient(y):
    """Analytic gradient at the flat state y: dH/dW = W/(4|Z|^2),
    dH/dZ = (2 - |W|^2/4) Z / |Z|^4."""
    m = y.size // 2
    zf, wf = y[:m], y[m:]
    zsq = float(zf @ zf)
    if zsq <= DOMAIN_EPS**2:
        raise ValueError("gradient undefined at Z = 0")
    wsq = float(wf @ wf)
    dz = (-wsq / (4.0 * zsq * zsq) + 2.0 / (zsq * zsq)) * zf
    dw = wf / (4.0 * zsq)
    return dz, dw


def block_bracket(a, b):
    """A J B - B J A, the bracket of bracket_exact before its symmetric part
    is taken, on matrices given by their (4n, 4n) blocks: dicts
    {(r, s): block or stack of blocks}, 0 for Z and 1 for W, a missing key
    for a zero block.  J is the signed block permutation (J B)_0s = B_1s,
    (J B)_1s = -B_0s, so

        [A, B]_rs = A_r0 B_1s - A_r1 B_0s - B_r0 A_1s + B_r1 A_0s,

    and a product with a zero block is skipped."""
    out = {}
    for r in (0, 1):
        for s in (0, 1):
            for sign, p, q in ((1, a.get((r, 0)), b.get((1, s))), (-1, a.get((r, 1)), b.get((0, s))),
                               (-1, b.get((r, 0)), a.get((1, s))), (1, b.get((r, 1)), a.get((0, s)))):
                if p is None or q is None:
                    continue
                t = p @ q
                if (r, s) not in out:
                    out[r, s] = np.negative(t, out=t) if sign < 0 else t
                elif sign < 0:
                    out[r, s] -= t
                else:
                    out[r, s] += t
    return out


def _stack_relation_max(rows, cols, predicted, budget):
    """Max over all pairs i, j of |{rows_i, cols_j} - P| / max(1, |{.,.}|, |P|),
    Frobenius norms over all four blocks, with P the predicted bracket, on
    stacks held whole: rows, cols are dicts of block stacks (see
    block_bracket), predicted(i, c) the blocks of P for row i and the
    columns c, a slice; a chunk of columns per row at a time."""
    def sq(x):
        return np.einsum("...ij,...ij->...", x, x)

    first_rows, first_cols = (next(iter(f.values())) for f in (rows, cols))
    step = max(1, budget // (48 * first_cols.shape[-1] ** 2))
    worst = 0.0
    for i in range(len(first_rows)):
        for lo in range(0, len(first_cols), step):
            c = slice(lo, lo + step)
            lhs = block_bracket({key: x[i] for key, x in rows.items()},
                                {key: x[c] for key, x in cols.items()})
            rhs = predicted(i, c)
            num = sum(sq(lhs.get(key, 0.0) - rhs.get(key, 0.0)) for key in lhs.keys() | rhs.keys())
            size = np.maximum(sum(sq(x) for x in lhs.values()), sum(sq(x) for x in rhs.values()))
            worst = max(worst, float(np.max(np.sqrt(num) / np.maximum(1.0, np.sqrt(size)))))
    return worst


def relation_sweep_oracle(n):
    """realization.verify_so_star_relations over stacks held for the whole
    sweep: real_rep of both bases, and the X, Y and S blocks the builders
    give on them."""
    rb = real_rep(jordan.orthonormal_basis(n))  # (d, 4n, 4n)
    rm = real_rep(np.eye(4 * n * n).reshape(-1, n, n, 4))  # E_ij q: (4n^2, 4n, 4n)
    eye, z, w = np.eye(4 * n), slice(0, 4 * n), slice(4 * n, None)

    def s_blocks(wz):
        return {(1, 0): wz, (0, 1): np.swapaxes(wz, -1, -2)}

    x = {(1, 1): realization.x_quad(eye)[w, w] @ rb}
    y = {(0, 0): realization.y_quad(eye)[z, z] @ rb}
    s = s_blocks(realization.s_quad(eye)[w, z] @ rm)
    sweeps = (
        ("XX_zero", x, x, lambda i, c: {}),
        ("YY_zero", y, y, lambda i, c: {}),
        ("XY_is_minus_2S", x, y, lambda i, c: s_blocks(-(rb[i] @ rb[c]))),
        ("SX_triple", s, x, lambda i, c: {(1, 1): (rm[i] @ rb[c] + rb[c] @ rm[i].T) * 0.25}),
        ("SY_triple", s, y, lambda i, c: {(0, 0): -(rm[i].T @ rb[c] + rb[c] @ rm[i])}),
        ("SS_structure", s, s, lambda i, c: s_blocks((rm[i] @ rm[c] - rm[c] @ rm[i]) * 0.25)),
    )
    return {name: _stack_relation_max(*sweep, realization._BLOCK_BYTES) for name, *sweep in sweeps}
