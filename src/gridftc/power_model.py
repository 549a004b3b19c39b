"""Third-order multi-machine power system model.

Each generator is represented by rotor angle deviation, speed deviation and
transient quadrature-axis EMF deviation, coupled through a reduced network
described by conductance and susceptance matrices.  All quantities are in
per unit except angles (rad) and time (s).

Network currents in phasor form
-------------------------------
With ``d_ij = delta_i - delta_j`` the axis currents of :func:`currents` are

    Id_i = sum_j E'_qj (G_ij sin(d_ij) - B_ij cos(d_ij))
    Iq_i = sum_j E'_qj (B_ij sin(d_ij) + G_ij cos(d_ij)).

Put ``w_j = exp(1j delta_j)`` and ``Y = G + 1j B``.  Since
``conj(w_i) w_j = exp(-1j d_ij) = cos(d_ij) - 1j sin(d_ij)``,

    S_i = conj(w_i) (Y @ (E'_q w))_i
        = sum_j E'_qj [(G_ij cos + B_ij sin) + 1j (B_ij cos - G_ij sin)](d_ij),

so ``Iq = Re S`` and ``Id = -Im S``: n complex exponentials and one complex
matrix-vector product instead of n^2 sines, n^2 cosines and two real
products.  :func:`currents`, the simulation right-hand side and
:func:`linearize` share this one kernel: the Jacobian is the kernel's
derivative, ``N = conj(w)[:, None] Y w[None, :]`` with ``S = N @ E'_q``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "GeneratorParams",
    "NetworkModel",
    "OperatingPoint",
    "LinearizedPlant",
    "PlantModel",
    "EquilibriumError",
    "currents",
    "derivatives",
    "verify_equilibrium",
    "linearize",
    "construct_equilibrium",
    "load_plant",
    "save_plant",
]

N_STATES = 3  # angle, speed, transient EMF (deviations per machine)
N_OUTPUTS = 1  # measured rows per machine: its rotor angle


class EquilibriumError(ValueError):
    """Raised when an operating point fails the equilibrium check.

    Carries the offending residual infinity-norm in ``residual``.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = float(residual)


@dataclass(frozen=True)
class GeneratorParams:
    """Constants of a single synchronous generator.

    Attributes
    ----------
    D : damping coefficient (p.u.)
    H : inertia constant (s)
    omega0 : synchronous electrical speed (rad/s)
    Pm : mechanical input power (p.u.), constant over the horizon
    Tdo_prime : d-axis transient open-circuit time constant (s)
    xd : d-axis synchronous reactance (p.u.)
    xd_prime : d-axis transient reactance (p.u.)
    xad : mutual reactance between excitation coil and stator (p.u.)
    """

    D: float
    H: float
    omega0: float
    Pm: float
    Tdo_prime: float
    xd: float
    xd_prime: float
    xad: float

    def __post_init__(self):
        if self.H <= 0.0:
            raise ValueError(f"inertia constant H must be positive, got {self.H}")
        if self.Tdo_prime <= 0.0:
            raise ValueError(f"Tdo_prime must be positive, got {self.Tdo_prime}")
        if not (self.xd > self.xd_prime > 0.0):
            raise ValueError(
                f"reactances must satisfy xd > xd_prime > 0, got xd={self.xd}, "
                f"xd_prime={self.xd_prime}"
            )
        if self.xad <= 0.0:
            raise ValueError(f"xad must be positive, got {self.xad}")
        if self.D < 0.0:
            raise ValueError(f"damping D must be non-negative, got {self.D}")
        if self.omega0 <= 0.0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")


@dataclass(frozen=True)
class NetworkModel:
    """Reduced network: conductance G and susceptance B matrices (p.u.)."""

    G: np.ndarray
    B: np.ndarray

    _SYM_TOL = 1e-9

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
        B = np.asarray(self.B, dtype=float)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "B", B)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError(f"G must be square, got shape {G.shape}")
        if B.shape != G.shape:
            raise ValueError(f"B shape {B.shape} does not match G shape {G.shape}")
        for name, M in (("G", G), ("B", B)):
            if not np.all(np.isfinite(M)):
                raise ValueError(f"{name} contains non-finite entries")
            dev = np.max(np.abs(M - M.T)) if M.size else 0.0
            if dev > self._SYM_TOL:
                raise ValueError(
                    f"{name} is not symmetric: max |{name} - {name}^T| = {dev:.3e}"
                )

    @property
    def n(self) -> int:
        return self.G.shape[0]


@dataclass(frozen=True)
class OperatingPoint:
    """Steady-state absolute angles, transient EMFs and field voltages."""

    delta0: np.ndarray
    Eq_prime0: np.ndarray
    Ef0: np.ndarray

    def __post_init__(self):
        for name in ("delta0", "Eq_prime0", "Ef0"):
            v = np.asarray(getattr(self, name), dtype=float).ravel()
            object.__setattr__(self, name, v)
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} contains non-finite entries")
        if not (self.delta0.shape == self.Eq_prime0.shape == self.Ef0.shape):
            raise ValueError(
                "operating point vectors must share one length, got "
                f"{self.delta0.shape}, {self.Eq_prime0.shape}, {self.Ef0.shape}"
            )

    @property
    def n(self) -> int:
        return self.delta0.shape[0]


@dataclass(frozen=True)
class LinearizedPlant:
    """Block-structured linearization around an operating point.

    ``A[i]`` is the 3x3 own-dynamics block of subsystem ``i``; ``Gint[i, j]``
    couples subsystem ``j``'s states into subsystem ``i``'s dynamics.  Input
    columns ``Bsub[i]`` act on the field voltage channel; output rows
    ``Csub[i]`` select the measured angle deviation.
    """

    A: np.ndarray      # (n, 3, 3)
    Gint: np.ndarray   # (n, n, 3, 3); Gint[i, i] == 0
    Bsub: np.ndarray   # (n, 3)
    Csub: np.ndarray   # (n, 1, 3)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @cached_property
    def _full(self):
        """``(A, B, C, index)`` of the whole plant, assembled once.

        A merged candidate's state matrix is the rows and columns
        ``idx = index[ids].ravel()`` of ``A``.  Nothing mutates the plant, so
        the arrays are built on first use and shared read-only.
        """
        n, p = self.n, self.Csub.shape[1]
        on = np.arange(n)
        A = self.Gint.transpose(0, 2, 1, 3).copy()
        A[on, :, on, :] = self.A
        B = np.zeros((n, N_STATES, n))
        B[on, :, on] = self.Bsub
        C = np.zeros((n, p, n, N_STATES))
        C[on, :, on, :] = self.Csub
        full = (A.reshape(N_STATES * n, N_STATES * n),
                B.reshape(N_STATES * n, n), C.reshape(n * p, N_STATES * n),
                np.arange(N_STATES * n).reshape(n, N_STATES))
        for M in full:
            M.flags.writeable = False
        return full

    def full_matrix(self) -> np.ndarray:
        """The full (3n, 3n) state matrix (shared, read-only)."""
        return self._full[0]

    def full_input(self) -> np.ndarray:
        """Block-diagonal (3n, n) input matrix (shared, read-only)."""
        return self._full[1]

    def full_output(self) -> np.ndarray:
        """Block-diagonal (n p, 3n) output matrix, p rows per subsystem
        (shared, read-only)."""
        return self._full[2]

    def state_index(self) -> np.ndarray:
        """(n, 3) table: row ``i`` holds subsystem ``i``'s full-matrix
        columns."""
        return self._full[3]


def _as_state(x, n: int) -> np.ndarray:
    """Normalize a state vector to shape (n, 3), validating dimensions."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.size != N_STATES * n:
            raise ValueError(
                f"state has {arr.size} entries, expected {N_STATES * n} "
                f"for {n} subsystems"
            )
        arr = arr.reshape(n, N_STATES)
    elif arr.shape != (n, N_STATES):
        raise ValueError(f"state shape {arr.shape} != ({n}, {N_STATES})")
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"state contains non-finite entry at subsystem index {bad[0]}")
    return arr


class _RhsScratch:
    """Caller-owned temporaries of :func:`_rhs_core` for ``n`` machines.

    ``phase`` is the zero-real complex array whose imaginary part receives
    the absolute angles: nothing ever writes its real part.  ``S_real`` and
    ``S_imag`` are views of ``S``.  One scratch serves any number of calls,
    one at a time.
    """

    __slots__ = ("E", "phase", "phase_imag", "w", "Ew", "S", "S_real",
                 "S_imag", "q")

    def __init__(self, n: int):
        self.E = np.empty(n)
        self.phase = np.zeros(n, dtype=complex)
        self.phase_imag = self.phase.imag
        self.w = np.empty(n, dtype=complex)
        self.Ew = np.empty(n, dtype=complex)
        self.S = np.empty(n, dtype=complex)
        self.S_real, self.S_imag = self.S.real, self.S.imag
        self.q = np.empty(n)


def _network_power(delta0, ddelta, E, Y, ws: _RhsScratch):
    """``S = conj(w) (Y @ (E w))`` with ``w = exp(1j (delta0 + ddelta))``
    and ``Y = G + 1j B``: by the module docstring ``Iq = Re S`` and
    ``Id = -Im S``.

    ``1j * delta`` is the zero-real ``ws.phase`` whose imaginary part
    receives the sum; every product goes to ``ws``, and ``ws.S`` is
    returned.
    """
    w, S = ws.w, ws.S
    np.add(delta0, ddelta, ws.phase_imag)
    np.exp(ws.phase, w)
    np.matmul(Y, np.multiply(E, w, ws.Ew), S)
    return np.multiply(np.conjugate(w, w), S, S)


def currents(state, op: OperatingPoint, net: NetworkModel):
    """Direct- and quadrature-axis currents injected by the network.

    Returns ``(Id, Iq)`` where
    ``Id_i = sum_j E'_qj (G_ij sin(d_ij) - B_ij cos(d_ij))`` and
    ``Iq_i = sum_j E'_qj (B_ij sin(d_ij) + G_ij cos(d_ij))`` with
    ``d_ij = delta_i - delta_j`` built from absolute angles.
    """
    n = net.n
    if op.n != n:
        raise ValueError(f"operating point has {op.n} machines, network has {n}")
    x = _as_state(state, n)
    S = _network_power(op.delta0, x[:, 0], op.Eq_prime0 + x[:, 2],
                       net.G + 1j * net.B, _RhsScratch(n))
    return -S.imag, S.real


@dataclass(frozen=True, slots=True)
class _RhsConstants:
    """Per-plant constants of the right-hand side, built once per plant."""

    damp: np.ndarray     # D / 2H
    gain: np.ndarray     # omega0 / 2H
    drive: np.ndarray    # omega0 Pm / 2H
    dxd: np.ndarray      # xd - x'd
    inv_Tdo: np.ndarray  # 1 / T'do
    Y: np.ndarray        # G + jB
    delta0: np.ndarray
    E0: np.ndarray


def _rhs_constants(params: Sequence[GeneratorParams], op: OperatingPoint,
                   net: NetworkModel) -> _RhsConstants:
    """The plant's RHS constants, built on first use and kept on ``op`` for
    the (``params``, ``net``) pair they were built from."""
    params = tuple(params)
    cached = op.__dict__.get("_rhs_cache")
    if cached is not None and cached[0] is net and cached[1] == params:
        return cached[2]

    def stack(name):
        return np.array([getattr(p, name) for p in params])

    two_H = 2.0 * stack("H")
    gain = stack("omega0") / two_H
    k = _RhsConstants(
        damp=stack("D") / two_H, gain=gain, drive=gain * stack("Pm"),
        dxd=stack("xd") - stack("xd_prime"), inv_Tdo=1.0 / stack("Tdo_prime"),
        Y=net.G + 1j * net.B, delta0=op.delta0, E0=op.Eq_prime0)
    object.__setattr__(op, "_rhs_cache", (net, params, k))
    return k


def _rhs_core(x, u, k: _RhsConstants, out=None, scratch=None):
    """Unvalidated deviation-dynamics right-hand side (hot-loop form).

    ``x`` is state-major, (3, n): row 0 the angles, row 1 the speeds, row 2
    the EMFs, so every row is a contiguous vector.  ``u`` holds the absolute
    field EMFs (n,) and ``k`` the plant's :class:`_RhsConstants`.  The
    simulation engine calls this once per integrator substage;
    :func:`derivatives` wraps it with input validation and the (n, 3)
    layout.

    The result goes to ``out`` (shaped like ``x``, not ``x`` itself) and the
    temporaries to ``scratch``, a :class:`_RhsScratch`; either is allocated
    when not given, and ``out`` is returned.  ``x`` and ``out`` may also be
    given as tuples of their three row views, which a caller stepping the
    same arrays many times builds once.  The rows are computed in place:
    ``dx[1] = (drive - damp x[1]) - gain (E Iq)`` and
    ``dx[2] = ((u - E) - dxd Id) inv_Tdo``, where subtracting
    ``dxd Id = -(dxd Im S)`` is adding ``Im S dxd``, bit for bit.
    """
    ws = _RhsScratch(len(u)) if scratch is None else scratch
    dx = np.empty_like(x) if out is None else out
    add, subtract, multiply = np.add, np.subtract, np.multiply
    x0, x1, x2 = x
    d0, d1, d2 = dx
    E, q = ws.E, ws.q
    add(k.E0, x2, E)
    _network_power(k.delta0, x0, E, k.Y, ws)
    np.copyto(d0, x1)
    multiply(k.damp, x1, d1)
    subtract(k.drive, d1, d1)
    multiply(E, ws.S_real, q)
    multiply(q, k.gain, q)
    subtract(d1, q, d1)
    subtract(u, E, d2)
    multiply(ws.S_imag, k.dxd, q)
    add(d2, q, d2)
    multiply(d2, k.inv_Tdo, d2)
    return dx


def derivatives(state, u, params: Sequence[GeneratorParams],
                op: OperatingPoint, net: NetworkModel) -> np.ndarray:
    """Time derivative of the deviation state under field voltages ``u``.

    ``u`` holds the absolute field EMFs (p.u., one per machine).  Rows of the
    result are ``[d(delta)/dt, d(omega)/dt, d(E'_q)/dt]`` per machine:

        d(delta_i)/dt = omega_i
        d(omega_i)/dt = -(D_i / 2H_i) omega_i + (omega0_i / 2H_i)(Pm_i - Pe_i)
        d(E'_qi)/dt   = (u_i - E_qi) / T'_doi,  E_qi = E'_qi + (xd_i - x'_di) Id_i
    """
    n = net.n
    x = _as_state(state, n)
    u = np.asarray(u, dtype=float).ravel()
    if u.size != n:
        raise ValueError(f"u has {u.size} entries, expected {n}")
    return _rhs_core(x.T, u, _rhs_constants(params, op, net)).T


def verify_equilibrium(op: OperatingPoint, params: Sequence[GeneratorParams],
                       net: NetworkModel, u0=None) -> float:
    """Infinity-norm of the state derivative at zero deviation.

    ``u0`` defaults to the operating point's field voltages.
    """
    if u0 is None:
        u0 = op.Ef0
    zero = np.zeros((net.n, N_STATES))
    dx = derivatives(zero, u0, params, op, net)
    return float(np.max(np.abs(dx)))


def linearize(op: OperatingPoint, params: Sequence[GeneratorParams],
              net: NetworkModel, eq_tol: float = 1e-6) -> LinearizedPlant:
    """Analytic Jacobian of :func:`_rhs_core` at zero deviation.

    The operating point must be an equilibrium (residual at most ``eq_tol``);
    otherwise an :class:`EquilibriumError` is raised.  Returns per-subsystem
    own-dynamics blocks, interaction blocks, input columns and output rows.

    With ``w = exp(1j delta0)`` the kernel's ``S_i = sum_j N_ij E'_qj`` for
    ``N = conj(w)[:, None] Y w[None, :]``, so ``dS/dE'_q = N`` and
    ``dS_i/d(delta_j) = 1j N_ij E'_qj`` for ``j != i``.  A uniform angle
    shift leaves ``S`` unchanged, so the own-angle entry is minus the row
    sum over foreign machines, and every Jacobian block is one slice of an
    (n, 3, n, 3) array.
    """
    residual = verify_equilibrium(op, params, net)
    if residual > eq_tol:
        raise EquilibriumError(
            f"operating point is not an equilibrium: residual {residual:.3e} "
            f"exceeds tolerance {eq_tol:.3e}",
            residual,
        )
    k = _rhs_constants(params, op, net)
    n, E = net.n, k.E0
    w = np.exp(1j * k.delta0)
    N = np.conjugate(w)[:, None] * k.Y * w[None, :]
    S = N @ E
    dS_dd = 1j * N * E[None, :]
    on = np.arange(n)
    dS_dd[on, on] = 0.0
    dS_dd[on, on] = -dS_dd.sum(axis=1)

    # dx[1] = drive - damp x[1] - gain E Re S,
    # dx[2] = (u - E + dxd Im S) inv_Tdo
    J = np.zeros((n, N_STATES, n, N_STATES))
    J[on, 0, on, 1] = 1.0
    J[on, 1, on, 1] = -k.damp
    J[:, 1, :, 0] = -(k.gain * E)[:, None] * dS_dd.real
    J[:, 1, :, 2] = -(k.gain * E)[:, None] * N.real
    J[on, 1, on, 2] -= k.gain * S.real
    J[:, 2, :, 0] = (k.dxd * k.inv_Tdo)[:, None] * dS_dd.imag
    J[:, 2, :, 2] = (k.dxd * k.inv_Tdo)[:, None] * N.imag
    J[on, 2, on, 2] -= k.inv_Tdo

    A = J[on, :, on, :]
    Gint = J.transpose(0, 2, 1, 3).copy()
    Gint[on, on] = 0.0
    Bsub = np.zeros((n, N_STATES))
    Bsub[:, 2] = k.inv_Tdo
    Csub = np.zeros((n, N_OUTPUTS, N_STATES))
    Csub[:, 0, 0] = 1.0
    return LinearizedPlant(A=A, Gint=Gint, Bsub=Bsub, Csub=Csub)


def construct_equilibrium(delta0, Eq_prime0, params: Sequence[GeneratorParams],
                          net: NetworkModel):
    """Build an exact equilibrium at prescribed angles and EMFs.

    Sets each machine's mechanical power to the electrical power drawn at the
    point and each field voltage to the steady synchronous EMF.  Returns
    ``(new_params, OperatingPoint)``.
    """
    delta0 = np.asarray(delta0, dtype=float).ravel()
    Eq_prime0 = np.asarray(Eq_prime0, dtype=float).ravel()
    op_probe = OperatingPoint(delta0=delta0, Eq_prime0=Eq_prime0,
                              Ef0=np.zeros_like(delta0))
    zero = np.zeros((net.n, N_STATES))
    Id, Iq = currents(zero, op_probe, net)
    Pe = Eq_prime0 * Iq
    xd = np.array([p.xd for p in params])
    xdp = np.array([p.xd_prime for p in params])
    Ef0 = Eq_prime0 + (xd - xdp) * Id
    new_params = [replace(p, Pm=float(Pe[i])) for i, p in enumerate(params)]
    op = OperatingPoint(delta0=delta0, Eq_prime0=Eq_prime0, Ef0=Ef0)
    return new_params, op


@dataclass(frozen=True)
class PlantModel:
    """A complete plant: generator constants, network and operating point."""

    generators: tuple
    network: NetworkModel
    op: OperatingPoint
    name: str = "plant"

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if len(gens) != self.network.n:
            raise ValueError(
                f"{len(gens)} generators but network is {self.network.n}x"
                f"{self.network.n}"
            )
        if self.op.n != self.network.n:
            raise ValueError(
                f"operating point covers {self.op.n} machines, network has "
                f"{self.network.n}"
            )

    @property
    def n(self) -> int:
        return self.network.n

    def derivatives(self, state, u):
        return derivatives(state, u, self.generators, self.op, self.network)

    def verify_equilibrium(self) -> float:
        return verify_equilibrium(self.op, self.generators, self.network)

    def linearize(self, eq_tol: float = 1e-6) -> LinearizedPlant:
        return linearize(self.op, self.generators, self.network, eq_tol=eq_tol)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "generators": [
                {
                    "D": p.D, "H": p.H, "omega0": p.omega0, "Pm": p.Pm,
                    "Tdo_prime": p.Tdo_prime, "xd": p.xd,
                    "xd_prime": p.xd_prime, "xad": p.xad,
                }
                for p in self.generators
            ],
            "network": {
                "G": self.network.G.tolist(),
                "B": self.network.B.tolist(),
            },
            "operating_point": {
                "delta0": self.op.delta0.tolist(),
                "Eq_prime0": self.op.Eq_prime0.tolist(),
                "Ef0": self.op.Ef0.tolist(),
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PlantModel":
        try:
            gens = tuple(GeneratorParams(**g) for g in d["generators"])
            net = NetworkModel(G=np.array(d["network"]["G"], dtype=float),
                               B=np.array(d["network"]["B"], dtype=float))
            opd = d["operating_point"]
            op = OperatingPoint(delta0=np.array(opd["delta0"], dtype=float),
                                Eq_prime0=np.array(opd["Eq_prime0"], dtype=float),
                                Ef0=np.array(opd["Ef0"], dtype=float))
        except KeyError as exc:
            raise ValueError(f"plant description is missing field {exc}") from exc
        return cls(generators=gens, network=net, op=op,
                   name=d.get("name", "plant"))


def load_plant(path) -> PlantModel:
    """Read a plant description from a JSON file."""
    with open(path) as fh:
        return PlantModel.from_dict(json.load(fh))


def save_plant(plant: PlantModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(plant.to_dict(), fh, indent=2)
        fh.write("\n")
