"""Log-space posterior beliefs and per-trajectory likelihood-ratio state.

Everything here stays in log space; confidences routinely reach hundreds
of nats at long horizons and must never be exponentiated raw.  The log
odds C_i have one definition, log_odds, for a batch of beliefs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import HypothesisModel, ModelError, llr_table
from .numerics import logsumexp, log_normalize


@dataclass(frozen=True)
class Belief:
    """A distribution over hypotheses, stored as normalized log masses."""

    log_prob: np.ndarray

    def __post_init__(self):
        lp = np.asarray(self.log_prob, dtype=float)
        object.__setattr__(self, "log_prob", lp)
        lp.setflags(write=False)

    @classmethod
    def from_probs(cls, probs) -> "Belief":
        p = np.asarray(probs, dtype=float)
        if np.any(p < 0):
            raise ValueError("negative probability in belief")
        with np.errstate(divide="ignore"):
            return cls(log_normalize(np.log(p)))

    @classmethod
    def uniform(cls, M: int) -> "Belief":
        return cls(np.full(M, -np.log(M)))

    def probs(self) -> np.ndarray:
        return np.exp(self.log_prob)


def prior_belief(model: HypothesisModel) -> Belief:
    return Belief(log_normalize(model.log_prior.copy()))


def update_belief(b: Belief, model: HypothesisModel, u: int, y: int) -> Belief:
    """One Bayes step: fold in the likelihood of observing y under
    experiment u and renormalize in log space."""
    if not model.support[u, y]:
        raise ModelError(
            f"observation {model.observations[y]} outside the support of "
            f"experiment {model.experiments[u]}")
    lp = b.log_prob + model.log_kernel[:, u, y]
    return Belief(log_normalize(lp))


def log_odds(lb: np.ndarray, i: int) -> np.ndarray:
    """Log odds log(rho(i) / (1 - rho(i))) of each row of `lb`, an
    (n, M) array of log beliefs, normalized or not (the shift cancels):
    lb[:, i] - logsumexp(lb[:, j != i])."""
    alts = [j for j in range(lb.shape[1]) if j != i]
    return lb[:, i] - logsumexp(lb[:, alts], axis=1)


def confidence(b: Belief, i: int) -> float:
    """log_odds of one belief, a batch of one."""
    with np.errstate(invalid="ignore"):
        c = float(log_odds(b.log_prob[None, :], i)[0])
    if not np.isfinite(c):
        raise ValueError("confidence undefined for a degenerate belief")
    return c


def tilde_log(b: Belief, i: int) -> np.ndarray:
    """Log of the renormalized belief over alternates j != i
    (ascending j), i.e. log(rho(j) / (1 - rho(i)))."""
    lp = b.log_prob
    alts = np.concatenate([lp[:i], lp[i + 1:]])
    denom = logsumexp(alts)
    if not np.isfinite(denom):
        raise ValueError("tilde belief undefined when rho(i) = 1")
    return alts - denom


def tilde_belief(b: Belief, i: int) -> np.ndarray:
    """Conditional distribution over the alternates of i."""
    return np.exp(tilde_log(b, i))


def cross_entropy(beta, b: Belief, i: int) -> float:
    """H(beta, tilde_rho) over the alternates of i (ascending j); at the
    prior and beta* it is the prior's share of both converse bounds."""
    return float(-np.dot(beta, tilde_log(b, i)))


@dataclass(frozen=True)
class Trajectory:
    """One run's history plus derived state for a fixed reference
    hypothesis: the current belief and the total log-likelihood ratios
    z[k] against each alternate (decomposition_terms weighs them)."""

    model: HypothesisModel
    reference: int
    belief: Belief
    z: np.ndarray                       # (M-1,) over alternates, ascending j
    history: tuple = ()
    _llr: np.ndarray = field(repr=False, default=None)   # (M-1, U, Y) lookup

    def __post_init__(self):
        if self._llr is None:
            object.__setattr__(self, "_llr", llr_table(self.model, self.reference))

    @property
    def step_count(self) -> int:
        return len(self.history)


def new_trajectory(model: HypothesisModel, reference: int) -> Trajectory:
    """Empty trajectory at the prior for `reference`: z is all zeros."""
    M = model.num_hypotheses
    if not 0 <= reference < M:
        raise ValueError(f"reference hypothesis {reference} out of range")
    return Trajectory(model=model, reference=reference,
                      belief=prior_belief(model), z=np.zeros(M - 1))


def step_trajectory(t: Trajectory, u: int, y: int) -> Trajectory:
    """Append one (experiment, observation) pair: advance the belief,
    which update_belief checks first, and the per-alternate total LLRs."""
    return replace(
        t,
        belief=update_belief(t.belief, t.model, u, y),
        z=t.z + t._llr[:, u, y],
        history=t.history + ((u, y),),
    )


def confidence_increment(t: Trajectory) -> float:
    """Total confidence gained since the prior, computed from the LLR
    state: -logsumexp_j(log tilde_rho_1(j) - Z_n(j)).

    Equals confidence(t.belief, i) - confidence(prior, i) exactly (an
    algebraic identity, enforced by tests)."""
    return float(-logsumexp(tilde_log(prior_belief(t.model), t.reference) - t.z))


def decomposition_terms(t: Trajectory, beta_star) -> tuple[float, float, float]:
    """Split the confidence increment into cross-entropy bookends around
    the weighted LLR sum: returns (H(beta, tilde_rho_end), z_bar,
    H(beta, tilde_rho_start)) with

        increment = -H_end + z_bar + H_start.

    Both cross-entropies are nonnegative.
    """
    beta = np.asarray(beta_star, dtype=float)
    if beta.shape != t.z.shape or np.any(beta < 0) or abs(beta.sum() - 1.0) > 1e-9:
        raise ValueError("beta_star must be a distribution over the alternates")
    h_start = cross_entropy(beta, prior_belief(t.model), t.reference)
    h_end = cross_entropy(beta, t.belief, t.reference)
    z_bar = float(np.dot(beta, t.z))
    return h_end, z_bar, h_start

