"""Observability tests, Gramians and the reconfiguration cost function.

Covers the numeric Kalman rank test, a graph-based structural test, a
three-condition test for one-directional cascades, Lyapunov-equation
observability Gramians with an iterative-refinement residual guarantee, and
the H2-based cost used to rank sensor-substitution candidates.  The screens
(``obsv_matrix``, ``obsv_singular_values``, ``kalman_rank``,
``structurally_observable`` and ``is_hurwitz``) also take stacks of systems
on leading axes and answer each one as a 2-D call would.

The Lyapunov equations are solved in Kronecker form: a d-state equation is
one dense d^2 x d^2 linear system, O(d^6) work.  That suits the merged
pairs (d = 6) the reconfiguration search prices, where a Gramian and a
functionality gap together take about 0.2 ms, but it grows fast: about
1 ms at d = 12 and 0.1 s at d = 36 (2-CPU x86 machine, one BLAS thread).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "StateSpace",
    "ZeroPattern",
    "CostReport",
    "CascadeReason",
    "UnstableSystemError",
    "obsv_matrix",
    "obsv_singular_values",
    "kalman_rank",
    "structurally_observable",
    "cascade_observable",
    "obs_gramian",
    "ctrl_gramian",
    "hf_norm_sq",
    "cost_J",
    "is_hurwitz",
]

DEFAULT_RANK_TOL = 1e-9
DEFAULT_EIG_TOL = 1e-7
GRAMIAN_RESIDUAL_REL = 1e-10
HURWITZ_REL_MARGIN = 1e-9


class UnstableSystemError(ValueError):
    """Raised when a Gramian is requested for a non-Hurwitz state matrix."""

    def __init__(self, eigenvalue: complex):
        super().__init__(
            f"state matrix is not Hurwitz: eigenvalue {eigenvalue:.6g} has "
            f"non-negative real part"
        )
        self.eigenvalue = eigenvalue


@dataclass(frozen=True)
class StateSpace:
    """Plain (A, B, C) triple with dimension validation."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.asarray(self.B, dtype=float)
        C = np.asarray(self.C, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        if C.ndim == 1:
            C = C[None, :]
        for name, M in (("A", A), ("B", B), ("C", C)):
            if not np.all(np.isfinite(M)):
                raise ValueError(f"{name} contains non-finite entries")
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise ValueError(f"B has {B.shape[0]} rows, A is {A.shape[0]}x{A.shape[0]}")
        if C.shape[1] != A.shape[0]:
            raise ValueError(f"C has {C.shape[1]} columns, A is {A.shape[0]}x{A.shape[0]}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class ZeroPattern:
    """Structural nonzero patterns of a state matrix and output matrix.

    ``A`` is (..., n, n) and ``C`` is (..., p, n); leading axes stack
    patterns of the same size.
    """

    A: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=bool)
        C = np.atleast_2d(np.asarray(self.C, dtype=bool))
        if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
            raise ValueError(f"pattern A must be square, got {A.shape}")
        if C.shape[-1] != A.shape[-1]:
            raise ValueError(
                f"pattern C has {C.shape[-1]} columns, A is "
                f"{A.shape[-1]}x{A.shape[-1]}"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "C", C)


@dataclass
class CostReport:
    """Evaluation of one candidate subsystem set.

    ``trace_Wo``, ``rho``, ``hf_norm`` and ``J`` are populated only when the
    candidate is both observable and stable; otherwise they stay ``None`` and
    ``reason`` explains the rejection.
    """

    candidate: tuple
    observable: bool
    stable: bool
    trace_Wo: Optional[float] = None
    rho: Optional[float] = None
    hf_norm: Optional[float] = None
    J: Optional[float] = None
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "candidate": list(self.candidate),
            "observable": self.observable,
            "stable": self.stable,
            "trace_Wo": self.trace_Wo,
            "rho": self.rho,
            "hf_norm": self.hf_norm,
            "J": self.J,
            "reason": self.reason,
        }


def _scalar_or_stack(value: np.ndarray, kind):
    """A 0-d result as a Python scalar, a stacked one as it is."""
    return kind(value) if value.ndim == 0 else value


def obsv_matrix(A, C, blocks: Optional[int] = None) -> np.ndarray:
    """Stacked observability matrix [C; CA; ...; CA^(blocks-1)].

    ``A`` is (..., n, n) and ``C`` is (..., p, n) (or one row of n); leading
    axes broadcast, and each matrix of a stack gets the same products in the
    same order as a 2-D call.  ``blocks`` defaults to n.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n, p = A.shape[-1], C.shape[-2]
    rows = p * (n if blocks is None else blocks)
    batch = np.broadcast_shapes(A.shape[:-2], C.shape[:-2])
    O = np.empty(batch + (rows, C.shape[-1]))
    O[..., :p, :] = C
    for k in range(p, rows, p):
        np.matmul(O[..., k - p:k, :], A, out=O[..., k:k + p, :])
    return O


def obsv_singular_values(A, C, blocks: Optional[int] = None) -> np.ndarray:
    """Singular values, largest first, of ``obsv_matrix(A, C, blocks)``.

    Stacks as :func:`obsv_matrix` does: the last axis holds each matrix's
    min(rows, n) values (none for an empty matrix).
    """
    O = obsv_matrix(A, C, blocks)
    if O.size == 0:
        return np.zeros(O.shape[:-2] + (0,))
    return np.linalg.svd(O, compute_uv=False)


def kalman_rank(A, C, tol: float = DEFAULT_RANK_TOL):
    """Numeric observability test.

    Returns ``(rank, observable)`` where the rank is the number of singular
    values of the observability matrix above ``tol`` relative to the largest.
    A 2-D call returns ``(int, bool)``; stacked ``A`` (..., n, n) and ``C``
    (..., p, n) give one array of each over the leading axes.
    """
    if tol <= 0.0:
        raise ValueError(f"rank tolerance must be positive, got {tol}")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    s = obsv_singular_values(A, C)
    # When s[0] is 0 every singular value is, and none exceeds tol * 0.
    rank = np.count_nonzero(s > tol * s[..., :1], axis=-1)
    return (_scalar_or_stack(rank, int),
            _scalar_or_stack(rank == A.shape[-1], bool))


def structurally_observable(pattern: ZeroPattern):
    """Output connectivity on the influence digraph.

    State ``j`` influences state ``i`` when ``A[i, j]`` is structurally
    nonzero; a state is measured when some output row touches it.  The system
    is structurally observable only if every state reaches a measured state
    along influence edges.  This is a necessary condition: it ignores
    numerical cancellation entirely.  A 2-D pattern gives a ``bool``, a
    stacked one a boolean array over its leading axes.
    """
    # Information flows from state j to every state i with A[i, j] nonzero,
    # so the states that reach an output are found by walking rows backwards
    # from the measured states, one whole frontier at a time (a boolean
    # vector-matrix product is the OR over the frontier's rows).
    reached = pattern.C.any(axis=-2)
    frontier = reached
    while frontier.any():
        frontier = (frontier[..., None, :] @ pattern.A)[..., 0, :] & ~reached
        reached = reached | frontier
    return _scalar_or_stack(reached.all(axis=-1), bool)


def adjugate_coeffs(A: np.ndarray) -> np.ndarray:
    """Matrix coefficients of adj(sI - A) by the Faddeev-LeVerrier recursion.

    Returns a stack ``Bk`` of shape (n, n, n) such that
    ``adj(sI - A) = sum_k Bk[k] * s**(n - 1 - k)``.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    Bk = np.empty((n, n, n))
    Bk[0] = np.eye(n)
    for k in range(1, n):
        AB = A @ Bk[k - 1]
        ck = -np.trace(AB) / k
        Bk[k] = AB + ck * np.eye(n)
    return Bk


def eval_adjugate(coeffs: np.ndarray, s: complex) -> np.ndarray:
    """Evaluate an adjugate coefficient stack at a (complex) point."""
    n = coeffs.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for k in range(n):
        out += coeffs[k] * s ** (n - 1 - k)
    return out


class CascadeReason(enum.Enum):
    """Outcome detail for :func:`cascade_observable`."""

    OBSERVABLE = "observable"
    PAIR_UNOBSERVABLE = "measured block pair unobservable"
    DEGENERATE_EIGENVALUE = "repeated eigenvalue with insufficient output coverage"
    INTERACTION_CANCELLED = "interaction polynomial vanishes at an eigenvalue"


def cascade_observable(A11, A12, A22, C1,
                       tol: float = DEFAULT_RANK_TOL,
                       eig_tol: float = DEFAULT_EIG_TOL):
    """Observability of the cascade [[A11, A12], [0, A22]] measured by [C1, 0].

    Three conditions are checked in order and the first failure is reported:

    1. the measured pair (A11, C1) must be observable;
    2. any eigenvalue of the cascade matrix with geometric multiplicity q >= 2
       (in particular eigenvalues shared between A11 and A22) must be covered
       by q output directions not orthogonal to its eigenvectors; shared
       eigenvalues of simple degeneracy pass;
    3. at every remaining eigenvalue of A22 the polynomial matrix
       C1 adj(sI - A11) A12 adj(sI - A22) must not vanish, i.e. no factor of
       the A22 characteristic polynomial divides the interaction path.

    Returns ``(observable, CascadeReason)``.
    """
    A11 = np.atleast_2d(np.asarray(A11, dtype=float))
    A22 = np.atleast_2d(np.asarray(A22, dtype=float))
    A12 = np.atleast_2d(np.asarray(A12, dtype=float))
    C1 = np.atleast_2d(np.asarray(C1, dtype=float))
    n1, n2 = A11.shape[0], A22.shape[0]
    if A12.shape != (n1, n2):
        raise ValueError(f"A12 shape {A12.shape} != ({n1}, {n2})")
    if C1.shape[1] == n1 + n2:
        tail = C1[:, n1:]
        if np.any(tail != 0.0):
            raise ValueError(
                "output matrix touches the unmeasured block; the cascade test "
                "requires C = [C1, 0]"
            )
        C1 = C1[:, :n1]
    elif C1.shape[1] != n1:
        raise ValueError(f"C1 has {C1.shape[1]} columns, expected {n1}")

    # condition 1: the measured block must be observable on its own
    _, obs1 = kalman_rank(A11, C1, tol)
    if not obs1:
        return False, CascadeReason.PAIR_UNOBSERVABLE

    n = n1 + n2
    A = np.zeros((n, n))
    A[:n1, :n1] = A11
    A[:n1, n1:] = A12
    A[n1:, n1:] = A22
    C = np.hstack([C1, np.zeros((C1.shape[0], n2))])

    eig1 = np.linalg.eigvals(A11)
    eig2 = np.linalg.eigvals(A22)

    def _close(a, b):
        return abs(a - b) <= eig_tol * (1.0 + max(abs(a), abs(b)))

    # condition 2: degenerate eigenvalues of the cascade matrix
    all_eigs = np.concatenate([eig1, eig2])
    handled: list[complex] = []
    deg_checked: list[complex] = []
    scale_A = max(1.0, float(np.max(np.abs(A))))
    for lam in all_eigs:
        if any(_close(lam, mu) for mu in handled):
            continue
        handled.append(lam)
        M = lam * np.eye(n) - A
        s = np.linalg.svd(M, compute_uv=False)
        q = int(np.count_nonzero(s <= max(tol * s[0], eig_tol * scale_A)))
        if q >= 2:
            # repeated eigenvalue with a q-dimensional eigenspace: the
            # outputs must distinguish all q directions on it
            _, _, Vh = np.linalg.svd(M)
            V = Vh.conj().T[:, n - q:]
            sv = np.linalg.svd(C.astype(complex) @ V, compute_uv=False)
            if np.count_nonzero(sv > tol * sv[0]) < q:
                return False, CascadeReason.DEGENERATE_EIGENVALUE
            deg_checked.append(lam)

    # condition 3: no common factor between the interaction path and the
    # characteristic polynomial of the unmeasured block
    adj11 = adjugate_coeffs(A11)
    adj22 = adjugate_coeffs(A22)
    seen: list[complex] = []
    for lam in eig2:
        if any(_close(lam, mu) for mu in seen):
            continue
        seen.append(lam)
        if any(_close(lam, mu) for mu in deg_checked):
            continue  # adjudicated by the eigenvector test above
        M = C1 @ eval_adjugate(adj11, lam) @ A12 @ eval_adjugate(adj22, lam)
        scale = (np.linalg.norm(C1, 2) * np.linalg.norm(A12, 2)
                 * np.linalg.norm(eval_adjugate(adj11, lam), 2)
                 * np.linalg.norm(eval_adjugate(adj22, lam), 2))
        if np.max(np.abs(M)) <= tol * (1.0 + scale):
            return False, CascadeReason.INTERACTION_CANCELLED
    return True, CascadeReason.OBSERVABLE


def is_hurwitz(A):
    """True when every eigenvalue of A has real part below -1e-9 max(1, |A|_1).

    The relative margin rejects a mode that is zero in exact arithmetic but
    rounds to a tiny negative real part, such as the angle-rotation mode of
    a subsystem set that covers a whole connected island.  A 2-D ``A`` gives
    a ``bool``; a (..., n, n) stack gives a boolean array, with each
    matrix's own norm as its margin.
    """
    A = np.atleast_2d(A)
    margin = HURWITZ_REL_MARGIN * np.maximum(
        1.0, np.linalg.norm(A, 1, axis=(-2, -1)))
    worst = np.linalg.eigvals(A).real.max(axis=-1)
    return _scalar_or_stack(worst < -margin, bool)


def _lyap_with_refinement(AT: np.ndarray, Q: np.ndarray, target: float) -> np.ndarray:
    """Solve AT X + X AT^T + Q = 0 and refine until the residual meets target.

    On row-major ``X.ravel()`` the equation is the d^2 x d^2 system
    ``K = kron(AT, I) + kron(I, AT)``, built once and solved densely for the
    first solution and every refinement step (cost: see the module docstring).
    """
    d = AT.shape[0]
    K = np.kron(AT, np.eye(d)) + np.kron(np.eye(d), AT)
    X = np.linalg.solve(K, -Q.ravel()).reshape(d, d)
    X = 0.5 * (X + X.T)
    for _ in range(5):
        R = AT @ X + X @ AT.T + Q
        if np.linalg.norm(R, "fro") <= target:
            return X
        dX = np.linalg.solve(K, -R.ravel()).reshape(d, d)
        X = X + 0.5 * (dX + dX.T)
    R = AT @ X + X @ AT.T + Q
    if np.linalg.norm(R, "fro") > target:
        raise RuntimeError(
            f"Lyapunov residual {np.linalg.norm(R, 'fro'):.3e} did not reach "
            f"target {target:.3e} after refinement"
        )
    return X


def _require_hurwitz(A: np.ndarray) -> None:
    eigs = np.linalg.eigvals(A)
    worst = eigs[np.argmax(eigs.real)]
    if worst.real >= 0.0:
        raise UnstableSystemError(worst)


def obs_gramian(A, C, *, assume_hurwitz: bool = False) -> np.ndarray:
    """Observability Gramian from A^T W + W A + C^T C = 0.

    Requires a Hurwitz ``A`` (raises :class:`UnstableSystemError` otherwise;
    a caller that has already screened ``A``, like the reconfiguration
    search, passes ``assume_hurwitz=True`` to skip this eigenvalue check).
    The returned matrix is symmetrized and satisfies the equation with a
    Frobenius residual at most 1e-10 times ||C^T C||_F.  The equation is
    solved as one dense (n^2, n^2) Kronecker-form system, which is cheap
    for the 6-state merged pairs the search prices and O(n^6) beyond.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if not assume_hurwitz:
        _require_hurwitz(A)
    Q = C.T @ C
    target = GRAMIAN_RESIDUAL_REL * max(np.linalg.norm(Q, "fro"), np.finfo(float).tiny)
    return _lyap_with_refinement(A.T, Q, target)


def ctrl_gramian(A, B, *, assume_hurwitz: bool = False) -> np.ndarray:
    """Controllability Gramian from A W + W A^T + B B^T = 0 (Hurwitz ``A``,
    residual bound and Kronecker-form solve as for :func:`obs_gramian`)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if not assume_hurwitz:
        _require_hurwitz(A)
    Q = B @ B.T
    target = GRAMIAN_RESIDUAL_REL * max(np.linalg.norm(Q, "fro"), np.finfo(float).tiny)
    return _lyap_with_refinement(A, Q, target)


def hf_norm_sq(A, B, C_healthy, C_faulty, *,
               assume_hurwitz: bool = False) -> float:
    """Squared health-functionality gap between two output maps.

    Both output configurations share one controllability Gramian (Hurwitz
    ``A`` as for :func:`obs_gramian`), so the gap is
    trace(Ch Wc Ch^T) - trace(Cf Wc Cf^T).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Ch = np.atleast_2d(np.asarray(C_healthy, dtype=float))
    Cf = np.atleast_2d(np.asarray(C_faulty, dtype=float))
    if Ch.shape[1] != A.shape[0] or Cf.shape[1] != A.shape[0]:
        raise ValueError(
            f"output maps must have {A.shape[0]} columns, got "
            f"{Ch.shape[1]} and {Cf.shape[1]}"
        )
    Wc = ctrl_gramian(A, B, assume_hurwitz=assume_hurwitz)
    return float(np.trace(Ch @ Wc @ Ch.T) - np.trace(Cf @ Wc @ Cf.T))


def cost_J(trace_Wo: float, hf_norm: float, alpha: float, xi: float) -> float:
    """Candidate ranking cost: alpha (1/trace_Wo)^2 + xi hf_norm^2.

    Penalizes weak observability (small Gramian trace) and large loss of
    output functionality relative to the healthy configuration.
    """
    if trace_Wo <= 0.0:
        raise ValueError(f"trace_Wo must be positive, got {trace_Wo}")
    if alpha < 0.0 or xi < 0.0:
        raise ValueError(f"weights must be non-negative, got alpha={alpha}, xi={xi}")
    return alpha * (1.0 / trace_Wo) ** 2 + xi * hf_norm ** 2
