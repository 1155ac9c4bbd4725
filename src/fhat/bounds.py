"""Converse bounds overlaid on empirical error curves.

Three channels:

* a weak (data-processing) bound on the achievable rate
  (1/N) ln(1/phi), valid for every strategy;
* a strong (tail-probability) bound on the absolute ln(1/phi), either
  estimated from weighted-LLR samples of the strategy under test or, for
  the two-sensor binary family, in closed form via an exact binomial
  quantile;
* the asymptotic rate D*(i) itself.

Everything is in nats; dB conversion (10 log10) happens at reporting.
Only the formulas are here: `fhat bounds` (cli.cmd_bounds) writes its table.
"""

from __future__ import annotations

import math

import numpy as np

from .belief import cross_entropy, prior_belief
from .game import GameSolution
from .model import ROW_SUM_TOL, HypothesisModel
from .numerics import LN2


def weak_converse(game: GameSolution, model: HypothesisModel, N: int,
                  epsilon: float) -> float:
    """Strategy-independent upper bound on (1/N) ln(1/phi_N(i)):

        (D*(i) + H(beta*, tilde_rho_1)/N + ln2/N) / (1 - eps).
    """
    if not 0 <= epsilon < 1:
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
    if N < 1:
        raise ValueError(f"horizon must be at least 1, got {N}")
    h1 = cross_entropy(game.beta_star, prior_belief(model), game.reference)
    return (game.value + h1 / N + LN2 / N) / (1.0 - epsilon)


def strong_converse_sweep(zbar_samples, h_start: float,
                          epsilon: float) -> tuple[float, float]:
    """The tail-probability bound

        ln(1/phi) <= chi - ln( P_i[Zbar_N + h_start <= chi] - eps ),

    with the tail probability replaced by its empirical frequency, swept
    over chi at the sample's empirical quantile points.  Returns (best
    chi, tightest finite bound): the first minimum over the sorted
    samples, or (nan, inf) where no point has a tail frequency above
    epsilon (an empty sample)."""
    z = np.sort(np.asarray(zbar_samples, dtype=float)) + h_start
    # At chi = z[k], the empirical tail frequency is (k+1)/T; at or
    # below epsilon the bound is vacuous.
    p_hat = np.arange(1, z.size + 1) / z.size
    k0 = int(np.searchsorted(p_hat, epsilon, side="right"))
    if k0 == z.size:
        return math.nan, math.inf
    k = k0 + int(np.argmin(z[k0:] - np.log(p_hat[k0:] - epsilon)))
    # the bound at the pick through math.log: numpy's vectorized log may
    # differ from it in the last bit
    return float(z[k]), float(z[k] - math.log(p_hat[k] - epsilon))


def binomial_quantile(N: int, p: float, q: float) -> int:
    """Smallest k with CDF_{Bin(N,p)}(k) >= q, by exact log-space PMF
    accumulation (no normal approximation)."""
    if not 0 < p < 1 or not 0 < q < 1:
        raise ValueError("need 0 < p < 1 and 0 < q < 1")
    k = np.arange(N + 1)
    log_pmf = (math.lgamma(N + 1)
               - np.array([math.lgamma(v + 1) for v in k])
               - np.array([math.lgamma(N - v + 1) for v in k])
               + k * math.log(p) + (N - k) * math.log1p(-p))
    shift = log_pmf.max()
    cdf = np.cumsum(np.exp(log_pmf - shift)) * math.exp(shift)
    idx = int(np.searchsorted(cdf, q, side="left"))
    return min(idx, N)


def strong_bound_binary_example(N: int, nu: float, epsilon: float) -> float:
    """Closed-form strong bound for the two-sensor binary family.

    There the weighted LLR walk is i.i.d. regardless of the strategy and
    reduces to a count K ~ Bin(N, nu) of zero observations:

        chi* = (Q(2 eps) - N/2) ln(nu/(1-nu)) + ln 2,
        ln(1/phi) <= chi* - ln(eps),

    where Q is the Bin(N, nu) quantile function.  Inapplicable to models
    without this structure; use strong_converse_sweep there.
    """
    if not 0 < nu < 1:
        raise ValueError(f"nu must be in (0, 1), got {nu}")
    if not 0 < 2 * epsilon < 1:
        raise ValueError("need 0 < 2*epsilon < 1")
    k_star = binomial_quantile(N, nu, 2.0 * epsilon)
    chi_star = (k_star - N / 2.0) * math.log(nu / (1.0 - nu)) + LN2
    return chi_star - math.log(epsilon)


def check_binary_family(model: HypothesisModel, reference: int, nu: float) -> None:
    """Raise ValueError unless strong_bound_binary_example bounds this
    model's reference: reference 0 of 3 hypotheses, 2 experiments and 2
    symbols, P(Y=1 | i, u) = nu when i = u + 1 and 1 - nu otherwise
    (within ROW_SUM_TOL), and prior[1] == prior[2]."""
    near = np.arange(3)[:, None] == np.arange(1, 3)[None, :]
    if not (reference == 0 and model.kernel.shape == (3, 2, 2)
            and np.all(np.abs(model.kernel[:, :, 1] - np.where(near, nu, 1.0 - nu))
                       <= ROW_SUM_TOL)
            and model.prior[1] == model.prior[2]):
        raise ValueError(
            f"the binary closed-form strong bound with nu = {nu} holds only for "
            "reference 0 of the two-sensor model with that nu; `fhat sweep "
            "--strong empirical` estimates a strong bound for any model")
