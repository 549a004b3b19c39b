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
    structural test, ``svd_observable`` and a 2-D ``obs.is_hurwitz``;
    survivors are priced with ``obs.obs_gramian``, ``obs.hf_norm_sq`` and
    ``obs.cost_J`` (``obs`` is ``gridftc.observability``), whose arithmetic
    the screens do not touch.  A stable, observable set must also take a
    chain form from one measured output row, tried one row at a time and
    then their sum, or it is rejected before pricing.  The cheapest set at
    or under ``j_max`` at the first cardinality holding one wins, ties to
    the smaller id tuple.  Returns what ``ReconfigPlan.to_dict()`` returns
    for the same search.
    """
    from gridftc.observer import to_chain_form

    p = lin.Csub.shape[1]
    rows = list(range(p)) if faulty_rows is None else list(faulty_rows)
    helpers = [i for i in range(1, lin.n + 1)
               if i != faulty_id and i not in excluded_ids]

    def has_chain_form(aug):
        measured = [row for row in aug.C if np.any(row)]
        if len(measured) > 1:
            measured.append(np.sum(measured, axis=0))
        for row in measured:
            try:
                to_chain_form(obs.StateSpace(A=aug.A, B=aug.B, C=row), tol)
            except ValueError:
                continue
            return True
        return False

    def report(aug):
        out = {"candidate": list(aug.ids), "observable": False,
               "stable": obs.is_hurwitz(aug.A), "trace_Wo": None, "rho": None,
               "hf_norm": None, "J": None}
        if not structurally_observable_dfs(types.SimpleNamespace(
                A=aug.A != 0, C=aug.C != 0)):
            return dict(out, reason="structurally unobservable")
        if not svd_observable(aug.A, aug.C, tol):
            return dict(out, reason="numerically unobservable")
        if not out["stable"]:
            return dict(out, observable=True,
                        reason="merged state matrix is not Hurwitz")
        if not has_chain_form(aug):
            return dict(out, reason="no single-output chain form")
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


def _rhs_rows(x, u, k):
    """Plant deviation dynamics on an (n, 3) state, one machine per row."""
    E = k.E0 + x[:, 2]
    w = np.exp(1j * (k.delta0 + x[:, 0]))
    S = w.conj() * (k.Y @ (E * w))
    Id, Iq = -S.imag, S.real
    dx = np.empty_like(x)
    dx[:, 0] = x[:, 1]
    dx[:, 1] = k.drive - k.damp * x[:, 1] - k.gain * (E * Iq)
    dx[:, 2] = (u - E - k.dxd * Id) * k.inv_Tdo
    return dx


def _chain_rk4_rows(Z, y, g, uch, dt):
    """Chain-observer RK4 step with the chain axis last, one observer per
    row of a 2-D ``Z``."""
    def rhs(z):
        dz = uch + g * (y - z[..., 0])[..., None]
        dz[..., :-1] += z[..., 1:]
        return dz

    k1 = rhs(Z)
    k2 = rhs(Z + 0.5 * dt * k1)
    k3 = rhs(Z + 0.5 * dt * k2)
    k4 = rhs(Z + dt * k3)
    return Z + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _gain_rows(L, e1, dt, L_max, l_value):
    l = L if l_value is None else l_value
    return np.minimum(L_max, L + dt * ((e1 * e1) / (l * l)))


def _measure_rows(y_abs, active):
    y = np.array(y_abs, dtype=float)
    for f, held in active:
        i = f.subsystem - 1
        if f.kind == "gain":
            y[i] *= f.factor
        elif f.kind == "stuck":
            y[i] = held
        else:
            y[i] = 0.0
    return y


def run_scenario_loops(scn, seed=0):
    """The closed-loop run as one loop over every grid step.

    Every step re-scans the whole fault list for activations and diagnoses,
    applies the active faults one by one and advances an (n, 3) plant state
    and an (n, 3) bank of chain states (chain axis last).  The feedback
    gains are the scenario's, else zeros.  The set-up (linearization, chain
    transforms, plant constants) and the reconfiguration search come from
    the package; the step itself does not.  Returns a namespace with the
    dense logs ``t``, ``x``, ``xhat``, ``y_meas``, ``y_used`` and ``L``, the
    ``events`` as dicts, the ``plans`` as ``(t, plan dict)`` and
    ``unrecoverable``.
    """
    from gridftc.observability import StateSpace
    from gridftc.observer import shaping_coefficients, to_chain_form
    from gridftc.power_model import _rhs_constants
    from gridftc.reconfig import fault_output_map, rftc_select
    from gridftc.sim_engine import _grid_index

    plant = scn.plant
    n = plant.n
    dt = scn.dt
    n_steps = int(round(scn.horizon / dt))
    lin = plant.linearize()
    rhs_k = _rhs_constants(plant.generators, plant.op, plant.network)
    delta0 = plant.op.delta0
    u0 = plant.op.Ef0
    y_ref = delta0.copy()
    K = (np.zeros((n, 3)) if scn.controller.gains is None
         else np.asarray(scn.controller.gains, dtype=float))
    chains = [to_chain_form(StateSpace(lin.A[i], lin.Bsub[i].reshape(3, 1),
                                       lin.Csub[i])) for i in range(n)]
    Tn = np.stack([c.T for c in chains])
    Tn_inv = np.stack([c.T_inv for c in chains])
    ICn = np.stack([c.input_chain.ravel() for c in chains])
    coeffs = shaping_coefficients(3)
    powers = np.arange(1, 4, dtype=float)
    Z = np.einsum("nij,nj->ni", Tn,
                  np.full((n, 3), scn.observer.initial_offset))
    Lg = np.ones(n)
    nominal_active = np.ones(n, dtype=bool)
    L_max = scn.observer.L_max
    l_const = scn.observer.l_value if scn.observer.l_mode == "constant" \
        else None
    merged = None           # dict: spec, z, L, weights, coeffs, powers
    vs_gain = {}
    dead = set()
    x = np.zeros((n, 3))
    rng = np.random.default_rng(seed)
    rows = n_steps + 1
    out = types.SimpleNamespace(
        t=np.empty(rows), x=np.empty((rows, n, 3)),
        xhat=np.empty((rows, n, 3)), y_meas=np.empty((rows, n)),
        y_used=np.empty((rows, n)), L=np.empty((rows, n)), events=[],
        plans=[], unrecoverable=False)
    faults = [dict(ev=f, start=_grid_index(f.t_fault, dt),
                   fdi=_grid_index(f.t_fault + f.fdi_delay, dt),
                   applied=False, held=None, diagnosed=False)
              for f in scn.faults]
    prev_abs = y_ref.copy()

    def merged_estimates():
        return merged["spec"].chain.T_inv @ merged["z"]

    # the oracle steps on past a divergence verdict, into non-finite
    # states that the engine never reaches, so an overflow or an
    # invalid value is no error anywhere in its loop; the engine's
    # advance ignores them the same way, until its check reports them
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(rows):
            t = k * dt
            for fr in faults:
                if not fr["applied"] and k >= fr["start"]:
                    ev = fr["ev"]
                    fr["applied"] = True
                    fr["held"] = (prev_abs[ev.subsystem - 1]
                                  if ev.stuck_value is None
                                  else ev.stuck_value)
                    out.events.append(dict(
                        t=t, step=k, kind="fault", subsystem=ev.subsystem,
                        label=f"fault:sub{ev.subsystem}:{ev.kind}",
                        detail=ev.to_dict()))
            for fr in faults if scn.reconfigure else ():
                if fr["applied"] and not fr["diagnosed"] and k >= fr["fdi"]:
                    ev = fr["ev"]
                    fr["diagnosed"] = True
                    sid = ev.subsystem
                    others = tuple({g["ev"].subsystem for g in faults
                                    if g["applied"]} - {sid})
                    plan = rftc_select(
                        sid, lin, scn.alpha, scn.xi,
                        faulty_C=fault_output_map(ev, lin.Csub[sid - 1]),
                        j_max=scn.j_max if scn.j_max is not None else np.inf,
                        excluded_ids=others)
                    out.plans.append((t, plan.to_dict()))
                    out.events.append(dict(
                        t=t, step=k, kind="fdi", subsystem=sid,
                        label=f"fdi:sub{sid}:{plan.mode}",
                        detail={"mode": plan.mode, "J": plan.J,
                                "augment_set": list(plan.augment_set)
                                if plan.augment_set else None}))
                    if plan.mode == "virtual-sensor":
                        vs_gain[sid - 1] = ev.factor
                    elif plan.mode == "augmentation":
                        spec = types.SimpleNamespace(
                            ids=plan.augment_set, chain=plan.chain,
                            output_weights=plan.output_weights,
                            index_map={
                                mid: slice(3 * a, 3 * a + 3)
                                for a, mid in enumerate(plan.augment_set)})
                        xh_now = (Tn_inv @ Z[..., None])[..., 0]
                        if merged is not None:
                            xm = merged_estimates()
                            for mid in merged["spec"].ids:
                                xh_now[mid - 1] = \
                                    xm[merged["spec"].index_map[mid]]
                        xcat = np.concatenate([xh_now[mid - 1]
                                               for mid in spec.ids])
                        dead.add(sid)
                        m = spec.chain.n
                        merged = dict(
                            spec=spec, fid=sid, z=spec.chain.T @ xcat, L=1.0,
                            coeffs=shaping_coefficients(m),
                            powers=np.arange(1, m + 1, dtype=float),
                            weights=np.where(
                                [i in dead for i in spec.ids], 0.0,
                                spec.output_weights))
                        nominal_active[sid - 1] = False
                        vs_gain.pop(sid - 1, None)
                    else:
                        out.unrecoverable = True

            y_abs = delta0 + x[:, 0]
            if scn.noise_amplitude > 0.0:
                y_abs = y_abs + scn.noise_amplitude * (
                    2.0 * rng.random(n) - 1.0)
            y_abs = _measure_rows(y_abs, [(fr["ev"], fr["held"])
                                          for fr in faults if fr["applied"]])
            prev_abs = y_abs
            y_dev = y_abs - y_ref
            y_used = y_dev.copy()
            for i, factor in vs_gain.items():
                y_used[i] = (y_abs[i] - factor * y_ref[i]) / factor
            xhat = (Tn_inv @ Z[..., None])[..., 0]
            L_col = Lg.copy()
            if merged is not None:
                fid = merged["fid"]
                xhat[fid - 1] = \
                    merged_estimates()[merged["spec"].index_map[fid]]
                L_col[fid - 1] = merged["L"]
            out.t[k] = t
            out.x[k] = x
            out.xhat[k] = xhat
            out.y_meas[k] = y_dev
            out.y_used[k] = y_used
            out.L[k] = L_col
            if k == n_steps:
                break

            u_dev = -(K * xhat).sum(1)
            if merged is not None:
                u_dev[merged["fid"] - 1] = 0.0
            u_abs = u0 + u_dev
            e1 = y_used - Z[:, 0]
            Z_next = _chain_rk4_rows(Z, y_used,
                                     coeffs * Lg[:, None] ** powers,
                                     ICn * u_dev[:, None], dt)
            Lg_next = _gain_rows(Lg, e1, dt, L_max, l_const)
            Z = np.where(nominal_active[:, None], Z_next, Z)
            Lg = np.where(nominal_active, Lg_next, Lg)
            if merged is not None:
                spec = merged["spec"]
                idx = np.array(spec.ids) - 1
                y = float(merged["weights"] @ y_used[idx])
                uch = spec.chain.input_chain @ u_dev[idx]
                g = merged["coeffs"] * merged["L"] ** merged["powers"]
                e1m = y - merged["z"][0]
                merged["z"] = _chain_rk4_rows(merged["z"], y, g, uch, dt)
                merged["L"] = _gain_rows(merged["L"], e1m, dt, L_max, l_const)

            k1 = _rhs_rows(x, u_abs, rhs_k)
            k2 = _rhs_rows(x + 0.5 * dt * k1, u_abs, rhs_k)
            k3 = _rhs_rows(x + 0.5 * dt * k2, u_abs, rhs_k)
            k4 = _rhs_rows(x + dt * k3, u_abs, rhs_k)
            x = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return out


def recovery_summary_full(scn, log):
    """Per-fault recovery rows with the deviation taken over the whole log.

    The per-row deviation is one ``max |x|`` over the full (rows, n, 3)
    state array at once; everything else follows the recovery verdict rule
    step by step.
    """
    dev = np.max(np.abs(log.x), axis=(1, 2))
    t = log.t
    fault_times = [f.t_fault for f in scn.faults]
    out = []
    for i, f in enumerate(scn.faults):
        t_start = f.t_fault
        t_end = fault_times[i + 1] if i + 1 < len(fault_times) else t[-1]
        window = dev[(t >= t_start) & (t <= t_end)]
        peak = float(window.max()) if window.size else 0.0
        tail_start = max(t_start, t_end - scn.settling_window)
        tail = dev[(t >= tail_start) & (t <= t_end)]
        tail_max = float(tail.max()) if tail.size else 0.0
        verdict = "recovered" if (peak > 0 and tail_max < 0.05 * peak) \
            else "not-recovered"
        if log.diverged and t_end >= t[-1]:
            verdict = "diverged"
        plan_mode = None
        for tp, plan in log.plans:
            if plan.faulty_id == f.subsystem and tp >= t_start \
                    and (i + 1 >= len(fault_times) or tp < fault_times[i + 1]):
                plan_mode = plan.mode
                if plan.mode == "unrecoverable":
                    verdict = "unrecoverable"
        out.append({
            "subsystem": f.subsystem, "kind": f.kind, "t_fault": f.t_fault,
            "peak": peak, "tail_max": tail_max, "verdict": verdict,
            "plan_mode": plan_mode,
        })
    return out


def trajectory_csv_rows(log):
    """The data lines of the trajectory CSV, formatted one row at a time."""
    rows, n = log.y_used.shape
    labels = {}
    for m in log.events:
        labels.setdefault(m.step, []).append(m.label)
    lines = []
    for r in range(rows):
        vals = [log.t[r]]
        for i in range(n):
            vals += list(log.x[r, i]) + list(log.xhat[r, i])
            vals += [log.y_used[r, i], log.L[r, i]]
        lines.append(",".join("%.12g" % float(v) for v in vals) + ","
                     + ";".join(labels.get(r, ())))
    return lines


def errnorm_stacked(subs, header, data):
    """Per-row max |x - xhat| from one stacked array of the state columns."""
    cols = [data[:, header.index(f"{s}_x{j}")]
            - data[:, header.index(f"{s}_xhat{j}")]
            for s in subs for j in (1, 2, 3)]
    return np.max(np.abs(np.stack(cols)), axis=0)
