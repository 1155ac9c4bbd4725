"""The zero-sum experiment-selection game.

For a reference hypothesis i the payoff matrix is A[u, j] =
D(p_i^u || p_j^u) over alternates j != i.  The maximizing player mixes
over experiments (alpha), the minimizing player over alternates (beta);
the value D*(i) is the optimal misclassification error exponent.

Both one-sided linear programs are solved with a small dense primal
simplex using Bland's pivot rule, so degenerate games always resolve to
the same vertex and runs are reproducible.  No external solver is used:
the matrices are at most tens of rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import HypothesisModel, kl_matrix

PIVOT_TOL = 1e-11


class SimplexError(RuntimeError):
    """LP infeasible or unbounded; cannot happen for game LPs built here."""


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _bland_iterate(T: np.ndarray, basis: list[int], num_vars: int) -> None:
    """Run primal simplex pivots on tableau T (last row = reduced costs,
    last column = rhs) until optimal.  Bland's rule: entering variable is
    the lowest-index column with negative reduced cost; among minimum-
    ratio rows the one whose basic variable has the lowest index leaves.
    """
    m = T.shape[0] - 1
    while True:
        col = -1
        for j in range(num_vars):
            if T[m, j] < -PIVOT_TOL:
                col = j
                break
        if col < 0:
            return
        rows = [r for r in range(m) if T[r, col] > PIVOT_TOL]
        if not rows:
            raise SimplexError("LP is unbounded")
        ratios = [T[r, -1] / T[r, col] for r in rows]
        best = min(ratios)
        candidates = [r for r, q in zip(rows, ratios) if q <= best + 1e-12]
        row = min(candidates, key=lambda r: basis[r])
        _pivot(T, basis, row, col)


def simplex_minimize(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimize c @ x subject to A x = b, x >= 0 (two-phase, Bland).

    Returns the optimal x.  Raises SimplexError when infeasible or
    unbounded.
    """
    A = np.asarray(A, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # Phase 1: artificial identity basis, minimize the artificial mass.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    # Entering restricted to structural columns: artificials leave and
    # never return.
    _bland_iterate(T, basis, n)
    if T[m, -1] < -1e-9:
        raise SimplexError("LP is infeasible")

    # Drive any degenerate artificial out of the basis (or drop its row).
    keep = []
    for r in range(m):
        if basis[r] >= n:
            piv = next((j for j in range(n) if abs(T[r, j]) > PIVOT_TOL), None)
            if piv is None:
                continue            # redundant constraint
            _pivot(T, basis, r, piv)
        keep.append(r)
    T = T[keep + [m]][:, list(range(n)) + [n + m]]
    basis = [basis[r] for r in keep]
    m2 = len(keep)

    # Phase 2: rebuild reduced costs for the real objective.
    cb = c[basis]
    T[m2, :n] = c - cb @ T[:m2, :n]
    T[m2, -1] = -cb @ T[:m2, -1]
    _bland_iterate(T, basis, n)

    x = np.zeros(n)
    for r, j in enumerate(basis):
        x[j] = T[r, -1]
    return x


def _positive_shift(A: np.ndarray) -> float:
    return 1.0 - float(A.min())


def solve_maxmin(A: np.ndarray) -> tuple[float, np.ndarray]:
    """max over row mixtures alpha of min_j (alpha @ A)[j]."""
    shift = _positive_shift(A)
    Ap = A + shift
    m, k = Ap.shape
    # min sum(x) s.t. Ap^T x - s = 1; alpha = x / sum(x), value = 1/sum(x).
    Aeq = np.hstack([Ap.T, -np.eye(k)])
    c = np.concatenate([np.ones(m), np.zeros(k)])
    x = simplex_minimize(c, Aeq, np.ones(k))[:m]
    total = x.sum()
    return 1.0 / total - shift, x / total


def solve_minmax(A: np.ndarray) -> tuple[float, np.ndarray]:
    """min over column mixtures beta of max_u (A @ beta)[u]."""
    shift = _positive_shift(A)
    Ap = A + shift
    m, k = Ap.shape
    # max sum(y) s.t. Ap y <= 1; beta = y / sum(y), value = 1/sum(y).
    Aeq = np.hstack([Ap, np.eye(m)])
    c = np.concatenate([-np.ones(k), np.zeros(m)])
    y = simplex_minimize(c, Aeq, np.ones(m))[:k]
    total = y.sum()
    return 1.0 / total - shift, y / total


@dataclass(frozen=True)
class GameSolution:
    """Value and optimal mixtures for one reference hypothesis.

    alpha_star guarantees at least `value` against every alternate;
    beta_star caps every experiment's payoff at `value`.
    """

    reference: int
    value: float
    alpha_star: np.ndarray          # over experiments
    beta_star: np.ndarray           # over alternates (ascending j != i)
    payoff_matrix: np.ndarray       # (U, M-1)
    duality_gap: float


def guaranteed_floor(alpha, payoff_matrix) -> float:
    """min_j sum_u alpha(u) A[u, j] — what alpha secures."""
    return float(np.min(np.asarray(alpha) @ np.asarray(payoff_matrix)))


def guaranteed_cap(beta, payoff_matrix) -> float:
    """max_u sum_j A[u, j] beta(j) — what beta concedes at most."""
    return float(np.max(np.asarray(payoff_matrix) @ np.asarray(beta)))


def solve(model: HypothesisModel, i: int) -> GameSolution:
    """Solve the experiment-selection game for reference hypothesis i.

    Both one-sided LPs are solved and cross-checked; the stored value is
    the midpoint of the two recomputed guarantees.  A zero value means
    some alternate is indistinguishable from i under every experiment;
    that is legal for asymmetric use and reported with a warning.
    """
    if not 0 <= i < model.num_hypotheses:
        raise ValueError(f"reference hypothesis {i} out of range")
    A = kl_matrix(model, i)
    _, alpha = solve_maxmin(A)
    _, beta = solve_minmax(A)
    floor = guaranteed_floor(alpha, A)
    cap = guaranteed_cap(beta, A)
    gap = abs(cap - floor)
    value = 0.5 * (floor + cap)
    if value <= 1e-12:
        warnings.warn(
            f"game value for reference hypothesis {model.hypotheses[i]} is 0: "
            "some alternate is indistinguishable under every experiment",
            RuntimeWarning, stacklevel=2)
    return GameSolution(reference=i, value=value, alpha_star=alpha,
                        beta_star=beta, payoff_matrix=A, duality_gap=gap)

