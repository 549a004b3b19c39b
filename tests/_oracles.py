"""Independent reference implementations used only by the tests.

Everything here is written in the most direct form available: explicit
loops, exact rational arithmetic, truncated integrals, brute-force
enumeration.  None of it shares code with the package, so agreement is
evidence rather than tautology.
"""

import itertools
import types
from fractions import Fraction

import numpy as np
import scipy.integrate
import scipy.linalg


def currents_loops(delta_abs, E, G, B):
    """Axis currents by explicit double summation."""
    n = len(delta_abs)
    Id = np.zeros(n)
    Iq = np.zeros(n)
    for i in range(n):
        for j in range(n):
            dij = delta_abs[i] - delta_abs[j]
            Id[i] += E[j] * (G[i][j] * np.sin(dij) - B[i][j] * np.cos(dij))
            Iq[i] += E[j] * (B[i][j] * np.sin(dij) + G[i][j] * np.cos(dij))
    return Id, Iq


def power_loops(delta_abs, E, G, B):
    """Active and reactive power from the loop-summed currents."""
    Id, Iq = currents_loops(delta_abs, E, G, B)
    Pe = np.array([E[i] * Iq[i] for i in range(len(E))])
    Qe = np.array([E[i] * Id[i] for i in range(len(E))])
    return Pe, Qe


def derivatives_loops(x, u, D, H, omega0, Pm, Tdo, xd, xdp, delta0, E0, G, B):
    """Deviation dynamics composed one machine at a time."""
    n = len(delta0)
    x = np.asarray(x, dtype=float).reshape(n, 3)
    delta_abs = [delta0[i] + x[i, 0] for i in range(n)]
    E_abs = [E0[i] + x[i, 2] for i in range(n)]
    Id, Iq = currents_loops(delta_abs, E_abs, G, B)
    dx = np.zeros((n, 3))
    for i in range(n):
        Pe = E_abs[i] * Iq[i]
        Eq = E_abs[i] + (xd[i] - xdp[i]) * Id[i]
        dx[i, 0] = x[i, 1]
        dx[i, 1] = -(D[i] / (2.0 * H[i])) * x[i, 1] \
            + (omega0[i] / (2.0 * H[i])) * (Pm[i] - Pe)
        dx[i, 2] = (u[i] - Eq) / Tdo[i]
    return dx


def fd_jacobian(f, x0, h=1e-6):
    """Central finite differences of a vector map, column by column."""
    x0 = np.asarray(x0, dtype=float)
    f0 = np.asarray(f(x0), dtype=float).ravel()
    J = np.zeros((f0.size, x0.size))
    for j in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (np.asarray(f(xp)).ravel() - np.asarray(f(xm)).ravel()) \
            / (2.0 * h)
    return J


def gramian_trace_quad(A, C, tail_tol=1e-12):
    """trace of the observability Gramian by quadrature of its integral.

    Truncates at the first time where the propagator norm falls below
    ``tail_tol``; beyond that the integrand contributes less than the
    quadrature tolerance for the desk-scale systems used in tests.
    """
    A = np.asarray(A, dtype=float)
    C = np.atleast_2d(np.asarray(C, dtype=float))

    T = 1.0
    while np.linalg.norm(scipy.linalg.expm(A * T), 2) > tail_tol:
        T *= 2.0
        if T > 1e6:
            raise RuntimeError("propagator does not decay; A not Hurwitz?")

    def integrand(t):
        Phi = scipy.linalg.expm(A * t)
        M = C @ Phi
        return float(np.sum(M * M))

    val, _ = scipy.integrate.quad(integrand, 0.0, T, limit=400,
                                  epsabs=1e-12, epsrel=1e-10)
    return val


def rational_rank(M):
    """Exact rank of an integer matrix by fraction-arithmetic elimination."""
    rows = [[Fraction(int(v)) for v in row] for row in np.asarray(M)]
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, n_rows):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        pv = rows[row][col]
        for r in range(row + 1, n_rows):
            if rows[r][col] != 0:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[row])]
        row += 1
        rank += 1
        if row == n_rows:
            break
    return rank


def obsv_matrix_plain(A, C):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    blocks = [C]
    for _ in range(A.shape[0] - 1):
        blocks.append(blocks[-1] @ A)
    return np.vstack(blocks)


def svd_observable(A, C, tol=1e-9):
    O = obsv_matrix_plain(A, C)
    s = np.linalg.svd(O, compute_uv=False)
    if s[0] == 0.0:
        return False
    return int(np.sum(s > tol * s[0])) == A.shape[0]


def random_hurwitz(rng, n, spread=3.0, margin=0.2):
    """Random Hurwitz matrix via a similarity on shifted random eigenvalues."""
    A = rng.standard_normal((n, n)) * spread / np.sqrt(n)
    shift = float(np.max(np.linalg.eigvals(A).real))
    return A - (shift + margin) * np.eye(n)


def random_separated_cascade(rng, n1, n2):
    """Cascade blocks with real, distinct, well-separated eigenvalues.

    Eigenvalues sit on a jittered grid (pairwise distance at least 0.3,
    within and across blocks) and the blocks are dressed with random
    well-conditioned similarities.  Draws whose stacked observability
    matrix has a singular-value ratio inside the ambiguous band around the
    rank cutoff are rejected: for those the raw SVD rank verdict reflects
    row scaling rather than observability, so no test can sensibly be
    scored against it.
    """
    total = n1 + n2
    while True:
        base = -1.0 - 0.7 * np.arange(total)
        eigs = base + rng.uniform(-0.2, 0.2, total)
        perm = rng.permutation(total)
        e1, e2 = eigs[perm[:n1]], eigs[perm[n1:]]

        def dress(vals):
            k = len(vals)
            while True:
                V = rng.standard_normal((k, k))
                if np.linalg.cond(V) < 50.0:
                    break
            return V @ np.diag(vals) @ np.linalg.inv(V)

        A11 = dress(e1)
        A22 = dress(e2)
        A12 = rng.standard_normal((n1, n2))
        C1 = rng.standard_normal((1, n1))
        A = np.block([[A11, A12], [np.zeros((n2, n1)), A22]])
        C = np.hstack([C1, np.zeros((1, n2))])
        s = np.linalg.svd(obsv_matrix_plain(A, C), compute_uv=False)
        ratio = s[-1] / s[0] if s[0] > 0 else 0.0
        if not 1e-12 < ratio < 1e-6:
            return A11, A12, A22, C1


def brute_force_plan(lin, faulty_id, alpha, xi, tol=1e-9, j_max=np.inf):
    """Exhaustive reconfiguration search over every helper subset.

    Assembles each merged candidate directly from the linearization blocks,
    screens with a plain SVD rank test and an eigenvalue stability test,
    prices survivors with the Gramian-trace cost, and returns
    ``(ids, J)`` for the smallest cardinality holding any admissible
    candidate (minimum J, lexicographic helpers on ties), or ``None``.
    """
    n = lin.n
    healthy = [i for i in range(1, n + 1) if i != faulty_id]
    best = None
    for size in range(1, n):
        level = []
        for combo in itertools.combinations(healthy, size):
            ids = (faulty_id,) + combo
            k = len(ids)
            A = np.zeros((3 * k, 3 * k))
            Ch = np.zeros((k, 3 * k))
            for a, ia in enumerate(ids):
                A[3 * a:3 * a + 3, 3 * a:3 * a + 3] = lin.A[ia - 1]
                Ch[a, 3 * a:3 * a + 3] = lin.Csub[ia - 1, 0]
                for b, ib in enumerate(ids):
                    if ib != ia:
                        A[3 * a:3 * a + 3, 3 * b:3 * b + 3] = \
                            lin.Gint[ia - 1, ib - 1]
            Cf = Ch.copy()
            Cf[0, :] = 0.0
            if not svd_observable(A, Cf, tol):
                continue
            if np.max(np.linalg.eigvals(A).real) >= 0.0:
                continue
            Wo = scipy.linalg.solve_continuous_lyapunov(A.T, -(Cf.T @ Cf))
            Wc = scipy.linalg.solve_continuous_lyapunov(A, -_bbt(lin, ids))
            hf_sq = float(np.trace(Ch @ Wc @ Ch.T) - np.trace(Cf @ Wc @ Cf.T))
            J = alpha * (1.0 / float(np.trace(Wo))) ** 2 + xi * hf_sq
            if J <= j_max:
                level.append((J, combo, ids))
        if level:
            level.sort(key=lambda item: (item[0], item[1]))
            best = (level[0][2], level[0][0])
            break
    return best


def _bbt(lin, ids):
    k = len(ids)
    B = np.zeros((3 * k, k))
    for a, ia in enumerate(ids):
        B[3 * a:3 * a + 3, a] = lin.Bsub[ia - 1]
    return B @ B.T


def augment_loops(ids, lin, faulty_id, faulty_rows=None):
    """Merged candidate blocks copied one 3x3 block at a time.

    Returns a namespace with the fields of ``gridftc.reconfig.AugmentedSystem``
    (plus ``dim``), so it can stand in for the package's ``augment``.
    """
    ids = tuple(int(i) for i in ids)
    m = len(ids)
    p_rows = [lin.Csub[i - 1].shape[0] for i in ids]
    A = np.zeros((3 * m, 3 * m))
    B = np.zeros((3 * m, m))
    C_healthy = np.zeros((sum(p_rows), 3 * m))
    index_map = {}
    row0 = 0
    for a, ia in enumerate(ids):
        sl = slice(3 * a, 3 * (a + 1))
        index_map[ia] = sl
        A[sl, sl] = lin.A[ia - 1]
        B[sl, a] = lin.Bsub[ia - 1]
        C_healthy[row0:row0 + p_rows[a], sl] = lin.Csub[ia - 1]
        for b, ib in enumerate(ids):
            if b != a:
                A[sl, 3 * b:3 * (b + 1)] = lin.Gint[ia - 1, ib - 1]
        row0 += p_rows[a]
    C = C_healthy.copy()
    fpos = ids.index(faulty_id)
    frow0 = sum(p_rows[:fpos])
    for r in range(p_rows[fpos]) if faulty_rows is None else faulty_rows:
        C[frow0 + r, :] = 0.0
    return types.SimpleNamespace(ids=ids, A=A, B=B, C=C, C_healthy=C_healthy,
                                 index_map=index_map, faulty_id=faulty_id,
                                 dim=3 * m)


def structurally_observable_dfs(pattern):
    """Output reachability by depth-first search, one state at a time."""
    reached = np.any(pattern.C, axis=0)
    stack = list(np.flatnonzero(reached))
    while stack:
        k = stack.pop()
        for j in np.flatnonzero(pattern.A[k, :]):
            if not reached[j]:
                reached[j] = True
                stack.append(j)
    return bool(np.all(reached))


def numeric_observable_ix(aug, tol, cascade_observable, kalman_rank):
    """Cascade-or-Kalman choice with every sub-block gathered by ``np.ix_``
    before the coupling is inspected; the two tests are passed in."""
    healthy = [i for i in aug.ids if i != aug.faulty_id]
    if healthy:
        h_idx = np.concatenate([np.arange(aug.index_map[i].start,
                                          aug.index_map[i].stop)
                                for i in healthy])
        f_sl = aug.index_map[aug.faulty_id]
        f_idx = np.arange(f_sl.start, f_sl.stop)
        if not np.any(aug.A[np.ix_(f_idx, h_idx)]):
            C1 = aug.C[np.ix_(np.any(aug.C, axis=1), h_idx)]
            if C1.size == 0:
                return False
            ok, _ = cascade_observable(aug.A[np.ix_(h_idx, h_idx)],
                                       aug.A[np.ix_(h_idx, f_idx)],
                                       aug.A[np.ix_(f_idx, f_idx)], C1, tol)
            return ok
    return kalman_rank(aug.A, aug.C, tol)[1]


def chain_step_loops(z, y, g, uch, dt, L, L_max, l_value=None):
    """One RK4 step of one chain observer, then one Euler step of its gain.

    Row by row on Python floats, with ``y`` and the gains ``g`` frozen:
    ``z_k' = uch_k + g_k (y - z_1) + z_{k+1}`` (the last row has no
    ``z_{k+1}``), and ``L' = (y - z_1)^2 / l^2`` with ``l = L`` unless
    ``l_value`` is given, capped at ``L_max``.  Returns ``(z_next, L_next)``.
    """
    n = len(z)
    z = [float(v) for v in z]
    g = [float(v) for v in g]
    uch = [float(v) for v in uch]
    y = float(y)

    def rhs(v):
        out = []
        for k in range(n):
            d = uch[k] + g[k] * (y - v[0])
            if k + 1 < n:
                d = d + v[k + 1]
            out.append(d)
        return out

    k1 = rhs(z)
    k2 = rhs([z[k] + 0.5 * dt * k1[k] for k in range(n)])
    k3 = rhs([z[k] + 0.5 * dt * k2[k] for k in range(n)])
    k4 = rhs([z[k] + dt * k3[k] for k in range(n)])
    z_next = [z[k] + (dt / 6.0) * (k1[k] + 2.0 * (k2[k] + k3[k]) + k4[k])
              for k in range(n)]
    e1 = y - z[0]
    l = L if l_value is None else l_value
    L_next = min(L_max, L + dt * ((e1 * e1) / (l * l)))
    return z_next, L_next


def select_loops(faulty_id, lin, alpha, xi, obs, *, j_max, faulty_rows=None,
                 excluded_ids=(), tol=1e-9):
    """The reconfiguration search one candidate at a time, as a plan dict.

    Every helper subset is enumerated in ascending cardinality, each merged
    candidate is built by ``augment_loops`` and screened by the depth-first
    structural test, the ``np.ix_`` cascade-or-Kalman choice (Kalman by
    ``svd_observable``) and a 2-D ``obs.is_hurwitz``; survivors are priced
    with ``obs.obs_gramian``, ``obs.hf_norm_sq`` and ``obs.cost_J``
    (``obs`` is ``gridftc.observability``), whose arithmetic the screens do
    not touch.  The cheapest set at or under ``j_max`` at the first
    cardinality holding one wins, ties to the smaller id tuple.  Returns
    what ``ReconfigPlan.to_dict()`` returns for the same search.
    """
    p = lin.Csub.shape[1]
    rows = list(range(p)) if faulty_rows is None else list(faulty_rows)
    helpers = [i for i in range(1, lin.n + 1)
               if i != faulty_id and i not in excluded_ids]

    def kalman(A, C, tol):
        return None, svd_observable(A, C, tol)

    def report(aug):
        out = {"candidate": list(aug.ids), "observable": False,
               "stable": obs.is_hurwitz(aug.A), "trace_Wo": None, "rho": None,
               "hf_norm": None, "J": None}
        if not structurally_observable_dfs(types.SimpleNamespace(
                A=aug.A != 0, C=aug.C != 0)):
            return dict(out, reason="structurally unobservable")
        if not numeric_observable_ix(aug, tol, obs.cascade_observable, kalman):
            return dict(out, reason="numerically unobservable")
        if not out["stable"]:
            return dict(out, observable=True,
                        reason="merged state matrix is not Hurwitz")
        trace_Wo = float(np.trace(obs.obs_gramian(aug.A, aug.C)))
        hf = float(np.sqrt(max(obs.hf_norm_sq(aug.A, aug.B, aug.C_healthy,
                                              aug.C), 0.0)))
        return dict(out, observable=True, trace_Wo=trace_Wo,
                    rho=1.0 / trace_Wo, hf_norm=hf,
                    J=obs.cost_J(trace_Wo, hf, alpha, xi), reason="")

    reports = []
    for card in range(1, len(helpers) + 1):
        level = []
        for combo in itertools.combinations(helpers, card):
            rep = report(augment_loops((faulty_id,) + combo, lin, faulty_id,
                                       faulty_rows=faulty_rows))
            reports.append(rep)
            if rep["J"] is not None and rep["J"] <= j_max:
                level.append(rep)
        if level:
            best = min(level, key=lambda r: (r["J"], r["candidate"]))
            P = np.eye(p)
            P[rows, rows] = 0.0
            return {"mode": "augmentation", "faulty_id": faulty_id,
                    "P": P.tolist(), "augment_set": best["candidate"],
                    "J": best["J"], "candidates": reports}
    return {"mode": "unrecoverable", "faulty_id": faulty_id, "P": None,
            "augment_set": None, "J": None, "candidates": reports}
