"""Adaptive chain-form observers with a scalar time-varying gain.

A single-output observable system is transformed into chain coordinates
(integrator chain plus a last-row remainder).  The observer corrects each
chain state with powers of one adaptive gain L and treats the remainder and
any interconnection terms as a bounded disturbance.

:func:`chain_rk4` and :func:`gain_law` are the only observer step: the
simulation engine advances its per-subsystem bank (a 2-D chain state) and
the merged observer of an augmented set (a 1-D chain state) through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .observability import StateSpace, kalman_rank, obsv_matrix

__all__ = [
    "ChainForm",
    "ChainScratch",
    "to_chain_form",
    "shaping_coefficients",
    "chain_rk4",
    "gain_law",
    "interaction_bound_estimate",
]

CHAIN_INV_TOL = 1e-10
DEFAULT_L_MAX = 1e3


@dataclass(frozen=True)
class ChainForm:
    """Change of coordinates z = T x bringing (A, C) to observer chain form.

    In the new coordinates the output is the first state and the state matrix
    ``T A T_inv`` is an integrator chain (ones on the superdiagonal) with all
    remaining linear dynamics confined to its last row.  The input
    distribution in chain coordinates is ``input_chain = T B``.
    """

    n: int
    T: np.ndarray
    T_inv: np.ndarray
    input_chain: np.ndarray  # (n, n_inputs): chain-coordinate input distribution

    def __post_init__(self):
        err = np.max(np.abs(self.T @ self.T_inv - np.eye(self.n)))
        if err > CHAIN_INV_TOL:
            raise ValueError(
                f"chain transform inverse residual {err:.3e} exceeds "
                f"{CHAIN_INV_TOL:.1e}; the pair is too close to unobservable"
            )


def to_chain_form(sub: StateSpace, tol: float = 1e-9) -> ChainForm:
    """Build the chain-coordinate transform for a single-output pair.

    The transform rows are the output and its successive Lie derivatives, so
    T is exactly the observability matrix of (A, C).  Raises ``ValueError``
    when C has more than one row or the pair is unobservable at ``tol``.
    """
    if sub.C.shape[0] != 1:
        raise ValueError(
            f"chain form needs a single output row, got {sub.C.shape[0]}"
        )
    rank, ok = kalman_rank(sub.A, sub.C, tol)
    if not ok:
        raise ValueError(
            f"pair is unobservable (rank {rank} of {sub.n}); no chain form exists"
        )
    T = obsv_matrix(sub.A, sub.C)
    return ChainForm(n=sub.n, T=T, T_inv=np.linalg.inv(T),
                     input_chain=T @ sub.B)


def shaping_coefficients(n: int) -> np.ndarray:
    """Per-row multipliers a_k applied to the gain powers L^k.

    The binomial coefficients of (s + L)^n place every frozen-gain observer
    pole at -L.
    """
    return np.array([math.comb(n, k) for k in range(1, n + 1)], dtype=float)


class ChainScratch:
    """Caller-owned temporaries of :func:`chain_rk4` for chain states of
    ``shape``: the four RK4 stages, the stage state and the innovation,
    with the row views the step reads, and the step's constants for the
    last ``dt`` as 0-d arrays (a ufunc takes those faster than Python
    floats, with the same result).  One scratch serves any number of calls,
    one at a time."""

    __slots__ = ("stages", "heads", "s", "s0", "s_tail", "e", "dt",
                 "constants")

    def __init__(self, shape):
        self.stages = tuple(np.empty((4,) + tuple(shape)))
        self.heads = tuple(k[:-1] for k in self.stages)
        self.s = np.empty(shape)
        # s[0, ...] stays a view when the state is 1-D
        self.s0, self.s_tail = self.s[0, ...], self.s[1:]
        self.e = np.empty(shape[1:])
        self.dt = None

    def step_constants(self, dt):
        """``(dt / 2, dt, 2, dt / 6)`` as 0-d arrays."""
        if dt != self.dt:
            self.dt = dt
            self.constants = tuple(np.array(c) for c in
                                   (0.5 * dt, dt, 2.0, dt / 6.0))
        return self.constants


def chain_rk4(Z, y, g, uch, dt, out=None, scratch=None):
    """One RK4 step of chain-observer dynamics, batched over trailing axes.

    ``Z`` is chain-axis first, (n_chain, ...): a 1-D state is one observer,
    a (n_chain, m) state a bank of m observers, one per column.  The
    innovation uses the first chain coordinate ``Z[0]`` against the frozen
    measurement ``y``; ``g`` carries the per-row correction gains
    ``a_k L^k`` and ``uch`` the chain-coordinate input term, both shaped
    like ``Z``.  The stages are summed in place in the order
    ``Z + (dt/6) ((k1 + 2 (k2 + k3)) + k4)``.

    The next state goes to ``out``, shaped like ``Z`` or ``Z`` itself (the
    stages read ``Z`` before the last, elementwise sum writes ``out``), the
    temporaries to ``scratch``, a :class:`ChainScratch`; either is
    allocated when not given, and the next state is returned.
    """
    ws = ChainScratch(Z.shape) if scratch is None else scratch
    add, subtract, multiply = np.add, np.subtract, np.multiply
    half, full, two, sixth = ws.step_constants(dt)
    e, s = ws.e, ws.s
    k1, k2, k3, k4 = stages = ws.stages
    z0, z_tail, prev = Z[0], Z[1:], None
    for dz, head, h in zip(stages, ws.heads, (None, half, half, full)):
        if h is not None:       # the stage state Z + h k_(i-1)
            multiply(prev, h, s)
            add(s, Z, s)
            z0, z_tail = ws.s0, ws.s_tail
        subtract(y, z0, e)
        multiply(g, e, dz)
        add(dz, uch, dz)
        add(head, z_tail, head)
        prev = dz
    add(k2, k3, k2)
    multiply(k2, two, k2)
    add(k2, k1, k2)
    add(k2, k4, k2)
    multiply(k2, sixth, k2)
    return add(k2, Z, out)


def gain_law(L, e1, dt, L_max, l_value=None, out=None, scratch=None):
    """Forward-Euler step of the gain law L' = e1^2 / l^2, capped at L_max.

    Without ``l_value`` the divisor l is the current gain (self-normalizing
    law), so growth slows as L rises; the gain never decreases.  Works on
    scalars and elementwise on arrays.  For arrays the next gain can go to
    ``out`` and ``l * l`` to ``scratch`` (both shaped like ``L``, neither
    ``L`` itself); without them the arrays are allocated.
    """
    ll = (np.multiply(L, L, out=scratch) if l_value is None
          else l_value * l_value)
    rate = np.multiply(e1, e1, out=out)
    rate /= ll
    rate = np.multiply(dt, rate, out=out)
    rate = np.add(L, rate, out=out)
    return np.minimum(L_max, rate, out=out)


def interaction_bound_estimate(traj, min_activity: float = 1e-9) -> np.ndarray:
    """Empirical per-row constants of the triangular interaction bound.

    For each chain row k the disturbance magnitude |I_ik| is assumed bounded
    by a constant times the sum of |z_jl| over every subsystem j and chain
    index l <= k.  This scans a trajectory's sampled interaction reductions
    and returns, per row, the largest observed ratio.  Samples where the
    bound's right-hand side is below ``min_activity`` are skipped.

    ``traj`` must expose ``interaction_peak`` (samples, n_chain), the max
    over subsystems of |I_ik|, and ``chain_activity`` with the same shape,
    the right-hand side's sum; a run's log carries both.
    """
    peak = getattr(traj, "interaction_peak", None)
    rhs = getattr(traj, "chain_activity", None)
    if peak is None or rhs is None or len(peak) == 0:
        raise ValueError(
            "trajectory carries no interaction diagnostics (interaction_peak "
            "and chain_activity); pass the log that run_scenario returns"
        )
    peak = np.asarray(peak, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if peak.shape != rhs.shape:
        raise ValueError(
            f"interaction peak shape {peak.shape} != chain activity {rhs.shape}"
        )
    n_chain = peak.shape[1]
    out = np.zeros(n_chain)
    for k in range(n_chain):
        mask = rhs[:, k] > min_activity
        if np.any(mask):
            out[k] = float(np.max(peak[mask, k] / rhs[mask, k]))
    return out
