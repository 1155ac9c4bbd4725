"""Experiment-selection strategies and threshold inference rules.

Five selection rules share one interface:

* ``ors``           — sample i.i.d. from the game's optimal experiment
                      mixture (open loop, randomized);
* ``das``           — pick the experiment minimizing the belief-tilted
                      moment-generating-function score (deterministic,
                      adaptive); at tilt 1, where that score is
                      identically 1, its s -> 1- limit is used instead;
* ``das-rs``        — same minimization restricted to the support of the
                      optimal mixture;
* ``chernoff-det``  — best single experiment against the currently most
                      likely alternate (the classical heuristic; kept as
                      a benchmark, it is not admissible in general);
* ``symmetric``     — maximum-likelihood composite: estimate the true
                      hypothesis from a uniform-prior posterior, then
                      delegate to that hypothesis's inner rule.

One selector, select_batch, picks for a batch of beliefs; the engine
(and with it run_trial, a one-row engine run), select_experiment (a
batch of one) and exact enumeration all call it.  A row's pick depends
on that row alone, and values within a relative TIE_RTOL of the row's
best are ties that go to the first label, so the pick is a function of
the state and not of the rounding of the path that reached it.  The
tilted score has one scorer, _tilted_scores: select_batch reads it for
``das`` and ``das-rs``, and criterion_holds for a batch of one.

One threshold rule, decisions_from_increments, decides for a batch of
confidence increments: Monte Carlo estimation, run_trial, enumeration
and infer (a batch of one) all apply it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import game as game_mod
from .belief import Belief, confidence, prior_belief
from .game import GameSolution
from .model import HypothesisModel, kl_divergence, ratio_lattice

KINDS = ("ors", "das", "das-rs", "chernoff-det", "symmetric")
# the kinds the symmetric composite can delegate to
INNER_KINDS = ("ors", "das", "das-rs", "chernoff-det")
SUPPORT_EPS = 1e-12
CRITERION_SLACK = 1e-12
# Relative width of a tie in selection: rounding differences between
# paths to the same state are far below it, real score gaps far above.
TIE_RTOL = 1e-12
# zeta of the symmetric threshold: its margin over -C_i(prior), which
# keeps a declaration unique
SYMMETRIC_ZETA = 0.01


def default_epsilon(N: int) -> float:
    """Correct-inference slack used by the experiments: min(0.05, 10/N)."""
    if N < 1:
        raise ValueError(f"horizon must be at least 1, got {N}")
    return min(0.05, 10.0 / N)


def s_schedule(N: int, M: int, epsilon: float, B: float) -> float:
    """Tilt parameter min{1, sqrt(2 ln(M/eps) / (N B^2))}.

    This is the exact balancer of the two Chernoff-bound penalty terms
    when the square root is below 1.
    """
    if N < 1 or M < 2 or not 0 < epsilon < 1 or B <= 0:
        raise ValueError("need N >= 1, M >= 2, 0 < epsilon < 1, B > 0")
    return min(1.0, math.sqrt(2.0 * math.log(M / epsilon) / (N * B * B)))


def mgf(model: HypothesisModel, i: int, j: int, u: int, s: float) -> float:
    """E_i[exp(-s * llr_j^i(u, Y))] = sum_y p_i(y)^(1-s) p_j(y)^s over
    the support of u.  Equals 1 at s = 0 and s = 1; at most 1 between."""
    idx = model.support_indices(u)
    lp = model.log_kernel[i, u, idx]
    lq = model.log_kernel[j, u, idx]
    return float(np.sum(np.exp((1.0 - s) * lp + s * lq)))


def mgf_matrix(model: HypothesisModel, i: int, s: float) -> np.ndarray:
    """mu[u, k] for alternates j != i (k indexes ascending j)."""
    alts = model.alternates(i)
    out = np.zeros((model.num_experiments, len(alts)))
    for u in range(model.num_experiments):
        for k, j in enumerate(alts):
            out[u, k] = mgf(model, i, j, u, s)
    return out


def reverse_kl_matrix(model: HypothesisModel, i: int) -> np.ndarray:
    """kl[u, k] = D(p_j^u || p_i^u) for alternates j != i (k indexes
    ascending j): the slope of mgf(model, i, j, u, s) at s = 1, so
    mu = 1 - (1 - s) * kl + O((1 - s)^2) near tilt 1."""
    alts = model.alternates(i)
    out = np.zeros((model.num_experiments, len(alts)))
    for u in range(model.num_experiments):
        idx = model.support_indices(u)
        for k, j in enumerate(alts):
            out[u, k] = kl_divergence(model.kernel[j, u, idx], model.kernel[i, u, idx])
    return out


@dataclass(frozen=True)
class StrategySpec:
    """A fully resolved experiment-selection strategy for one run.

    Schedules (s_value) and lookup tables are frozen at construction;
    strategies are time-invariant given the horizon.  Like mu and kl,
    the pick key K and its decode G (pick_ratios) are derived, not
    settings: a point P of the key stands for the log beliefs
    log prior + P @ G, up to a shift that selection does not read.
    """

    kind: str
    model: HypothesisModel
    reference: int | None = None
    s_value: float | None = None
    game: GameSolution | None = None
    sample_alpha: np.ndarray | None = None          # ors sampling mixture
    inner: tuple["StrategySpec", ...] | None = None  # symmetric: one per hypothesis
    mu: np.ndarray = field(repr=False, default=None)             # (U, M-1)
    kl: np.ndarray = field(repr=False, default=None)             # (U, M-1)
    support_mask: np.ndarray = field(repr=False, default=None)   # (U,) bool
    chernoff_u: np.ndarray = field(repr=False, default=None)     # (M-1,) int
    # ratio_lattice of the hypotheses selection reads over the
    # experiments the rule can pick, its key K and decode G, or None
    pick_key: np.ndarray | None = field(repr=False, default=None)     # (U*Y, r) int
    pick_ratios: np.ndarray | None = field(repr=False, default=None)  # (r, M)
    # montecarlo._pick_table's tables by horizon: not an __init__
    # argument, emptied by dataclasses.replace, carried by pickle
    _pick_tables: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def horizon_free(self) -> bool:
        """True when the selection does not depend on the horizon the
        spec was built for: ``ors`` samples the game's mixture and
        ``chernoff-det`` reads a table of the game, so specs of either,
        or of a composite of them, select the same for any N or epsilon.
        ``das`` and ``das-rs`` tilt by the horizon; a sweep shares their
        runs, or their composite's, only where a shorter horizon's spec
        picks as the longer one's pick table (montecarlo._shares)."""
        if self.kind == "symmetric":
            return all(inner.horizon_free() for inner in self.inner)
        return self.kind in ("ors", "chernoff-det")


def build_strategy(model: HypothesisModel, kind: str, horizon: int,
                   reference: int | None = None, epsilon: float | None = None,
                   inner_kind: str = "das") -> StrategySpec:
    """Resolve a strategy: solve the game(s), fix the tilt schedule, and
    precompute per-run lookup tables.

    Rules that pick on the belief alone get a pick key and its decode,
    the ratio lattice of the hypotheses they read over the experiments
    they can pick: ``das-rs`` picks only on the support of alpha*, and
    ``chernoff-det`` only its table's experiments, so no other
    experiment is ever observed in their runs.

    The symmetric composite requires a positive game value for every
    hypothesis (some experiment must separate every pair); asymmetric
    kinds accept zero-value games with a warning.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown strategy kind {kind!r}")
    if epsilon is None:
        epsilon = default_epsilon(horizon)

    if kind == "symmetric":
        if inner_kind not in INNER_KINDS:
            raise ValueError(f"invalid inner kind {inner_kind!r}")
        inner = []
        for i in range(model.num_hypotheses):
            spec_i = build_strategy(model, inner_kind, horizon, reference=i,
                                    epsilon=epsilon)
            if spec_i.game.value <= 0:
                raise ValueError(
                    f"symmetric strategy requires every hypothesis pair to be "
                    f"distinguishable by some experiment; hypothesis "
                    f"{model.hypotheses[i]} has game value 0")
            inner.append(spec_i)
        # the maximum-likelihood step reads every hypothesis
        lattice = (None if inner_kind == "ors"
                   else ratio_lattice(model, range(model.num_hypotheses)))
        key, ratios = lattice or (None, None)
        return StrategySpec(kind=kind, model=model, inner=tuple(inner),
                            pick_key=key, pick_ratios=ratios)

    if reference is None:
        raise ValueError(f"strategy {kind!r} needs a reference hypothesis")
    sol = game_mod.solve(model, reference)
    s_val = s_schedule(horizon, model.num_hypotheses, epsilon, model.llr_bound)
    mu = mgf_matrix(model, reference, s_val)
    kl = reverse_kl_matrix(model, reference)
    mask = sol.alpha_star > SUPPORT_EPS
    A = sol.payoff_matrix
    chern = np.array([int(np.argmax(A[:, k])) for k in range(A.shape[1])])
    # das, das-rs and chernoff-det read the alternates' log beliefs
    # through their differences, observed on the experiments they pick
    picks = {"das-rs": np.flatnonzero(mask),
             "chernoff-det": sorted(set(chern.tolist()))}
    lattice = None if kind == "ors" else ratio_lattice(
        model, model.alternates(reference), picks.get(kind))
    key, ratios = lattice or (None, None)
    return StrategySpec(kind=kind, model=model, reference=reference,
                        s_value=s_val, game=sol, sample_alpha=sol.alpha_star,
                        mu=mu, kl=kl, support_mask=mask, chernoff_u=chern,
                        pick_key=key, pick_ratios=ratios)


def reads_draws(spec: StrategySpec) -> bool:
    """True when selection reads the experiment draws: ``ors`` samples
    with them, on its own or as the symmetric composite's inner rule."""
    if spec.kind == "symmetric":
        return any(reads_draws(inner) for inner in spec.inner)
    return spec.kind == "ors"


def _first_best(columns, largest: bool, scale: float = 0.0) -> np.ndarray:
    """Per row, the first label of `columns`, a list of (label, 1-D
    array) pairs, whose value is within TIE_RTOL * (|best| + scale) of
    the row's smallest (largest) value `best`.  `scale` is the magnitude
    beyond |best| at which the values were rounded."""
    keep, beyond = (np.maximum, np.less) if largest else (np.minimum, np.greater)
    best = columns[0][1]
    for _, col in columns[1:]:
        best = keep(best, col)
    bar = np.abs(best)
    if scale:
        bar += scale
    bar *= TIE_RTOL
    (np.subtract if largest else np.add)(best, bar, out=bar)
    # the first tied column's position is the count of untied ones
    # before it (a gather is cheaper than a np.where per column)
    untied = beyond(columns[0][1], bar)
    first = untied.astype(np.int64)
    for _, col in columns[1:-1]:
        untied &= beyond(col, bar)
        first += untied
    labels = [label for label, _ in columns]
    return first if labels == list(range(len(labels))) else np.take(labels, first)


def _tilted_scores(spec: StrategySpec, lb: np.ndarray, table: np.ndarray,
                   experiments) -> tuple[list, list]:
    """The tilted score sum_j w_j table[v, j] of each row of `lb`, an
    (n, M) array of log beliefs, for each experiment v of `experiments`,
    with the unnormalized weights w_j = exp(c_j - max c), c_j = s lb_j,
    over spec's alternates j: the (v, score) pairs and the weights, one
    (n,) array each.  Every score is summed over the alternates in
    ascending order."""
    w = [spec.s_value * lb[:, j] for j in spec.model.alternates(spec.reference)]
    top = w[0].copy()
    for c in w[1:]:
        np.maximum(top, c, out=top)
    if not np.isfinite(top).all():
        raise ValueError("all alternate mass is zero; score undefined")
    for c in w:
        np.exp(np.subtract(c, top, out=c), out=c)
    # `top` is no longer read: it is scratch for the products
    scores = []
    for v in experiments:
        score = w[0] * table[v, 0]
        for k in range(1, len(w)):
            score += np.multiply(w[k], table[v, k], out=top)
        scores.append((v, score))
    return scores, w


def select_batch(spec: StrategySpec, lb: np.ndarray,
                 exp_draws: np.ndarray | None) -> np.ndarray:
    """The experiment picked for each row of `lb`, an array of log
    beliefs, normalized or not, in its first M columns (the columns past
    M, such as the engine's padding, are not read); `exp_draws` holds one
    uniform in [0, 1) per row and may be None when reads_draws(spec) is
    False.

    Every step is elementwise or runs column by column in a fixed order,
    so a row's pick does not depend on the other rows.  ``das`` and
    ``das-rs`` minimize the tilted score sum_j w_j mu[u, j] with the
    unnormalized weights w_j = exp(c_j - max c), c_j = s lb_j; at s >= 1,
    where every tilted score is 1, they maximize its s -> 1- limit
    sum_j w_j D(p_j^u || p_i^u).  ``chernoff-det`` and the symmetric
    composite take the largest lb_j - log prior_j, rounded at the
    magnitude |best| + max |log prior|.  Ties go to the first label.

    The symmetric composite counts its maximum-likelihood labels, runs
    the most common label's inner rule on the whole batch in place, and
    then overwrites the rows of each other label with that label's rule
    run on those rows alone.  Since a pick depends on its row alone,
    the common rule's picks on rows it does not own change nothing; and
    as those rows' own hypothesis is among its alternates with a finite
    log belief, they cannot make it raise.
    """
    model = spec.model
    if spec.kind == "ors":
        # inverse CDF: #{cum <= r} over all but the last column, which
        # is the clip to the last experiment (cum never decreases); a
        # draw of 0.0 lands on the first positive-mass experiment.  Every
        # draw, in [0, 1), passes a cut at 0: those count as a constant,
        # with no compare per row
        u = np.zeros(lb.shape[0], dtype=np.int64)
        at_zero = 0
        for c in np.cumsum(spec.sample_alpha)[:-1]:
            if c > 0.0:
                u += exp_draws >= c
            else:
                at_zero += 1
        if at_zero:
            u += at_zero
        return u
    if spec.kind in ("das", "das-rs"):
        # a positive factor per row moves no argmin or argmax, so the
        # weights need no normalization
        limit = spec.s_value >= 1.0
        table = spec.kl if limit else spec.mu
        allowed = (np.flatnonzero(spec.support_mask) if spec.kind == "das-rs"
                   else range(table.shape[0]))
        scores, _ = _tilted_scores(spec, lb, table, allowed)
        return _first_best(scores, largest=limit)
    lp = model.log_prior
    scale = float(np.max(np.abs(lp)))
    if spec.kind == "chernoff-det":
        alts = model.alternates(spec.reference)
        return _first_best([(spec.chernoff_u[k], lb[:, j] - lp[j])
                            for k, j in enumerate(alts)], largest=True, scale=scale)
    if spec.kind == "symmetric":
        # the uniform-prior maximum-likelihood hypothesis picks the rule
        i_hat = _first_best([(i, lb[:, i] - lp[i]) for i in range(lp.size)],
                            largest=True, scale=scale)
        counts = np.bincount(i_hat, minlength=lp.size)
        common = int(np.argmax(counts))
        u = select_batch(spec.inner[common], lb, exp_draws)
        for i, inner in enumerate(spec.inner):
            if i != common and counts[i]:
                rows = np.flatnonzero(i_hat == i)
                draws = None if exp_draws is None else np.take(exp_draws, rows)
                u[rows] = select_batch(inner, np.take(lb, rows, axis=0), draws)
        return u
    raise ValueError(f"unknown strategy kind {spec.kind!r}")


def select_experiment(spec: StrategySpec, belief: Belief, rng) -> int:
    """Pick the next experiment: select_batch on a batch of one.  `rng`
    (numpy Generator) gives the one draw that randomized kinds read and
    is not touched otherwise."""
    draws = np.array([rng.random()]) if reads_draws(spec) else None
    return int(select_batch(spec, belief.log_prob[None, :], draws)[0])


def criterion_holds(alpha_n, belief: Belief, spec: StrategySpec) -> bool:
    """Admissibility check at `belief`, a batch of one: the expected
    tilted score of the experiment mixture alpha_n must not exceed that
    of spec's optimal mixture alpha*, on spec's tilt and mu over every
    experiment, with the weights normalized to sum to 1.  `spec` is a
    rule with a reference hypothesis (any kind but ``symmetric``)."""
    if spec.reference is None:
        raise ValueError(f"criterion_holds needs a spec with a reference "
                         f"hypothesis, not the {spec.kind} composite")
    pairs, w = _tilted_scores(spec, belief.log_prob[None, :], spec.mu,
                              range(spec.mu.shape[0]))
    scores = np.concatenate([score for _, score in pairs]) / sum(w)
    lhs = float(np.dot(np.asarray(alpha_n, dtype=float), scores))
    rhs = float(np.dot(spec.game.alpha_star, scores))
    return lhs <= rhs + CRITERION_SLACK


# ---------------------------------------------------------------------------
# Threshold schedules and inference rules
# ---------------------------------------------------------------------------

def threshold_asymmetric(N: int, game: GameSolution, epsilon: float,
                         M: int, B: float) -> float:
    """Theory threshold N D* - s N B^2 / 2 - ln(M/eps)/s with the
    balanced tilt s.  May be negative at small N; that is legal."""
    s = s_schedule(N, M, epsilon, B)
    return N * game.value - s * N * B * B / 2.0 - math.log(M / epsilon) / s


def default_n_prime(N: int) -> int:
    """Settling-time allowance N' = ceil(sqrt(N)) for the composite
    strategy.  The paper's choice ceil(-(1/b) ln(eps/(2K))) needs the
    concentration constants (b, K) of the maximum-likelihood estimate,
    which are rarely known; ceil(sqrt(N)) is o(N), so it keeps the
    threshold's asymptotic rate.
    """
    return max(1, math.ceil(math.sqrt(N)))


def threshold_symmetric(N: int, i: int, game: GameSolution, epsilon: float,
                        M: int, B: float, n_prime: int, zeta: float,
                        prior_confidence: float) -> float:
    """Per-hypothesis threshold for the symmetric rule:

        max{ zeta - C_i(prior),
             N'' D*(i) - s N'' B^2/2 - ln(2M/eps)/s },   N'' = N - n_prime + 1

    with the tilt balanced for the effective horizon N'' and slack
    eps/2.  Always exceeds -C_i(prior), so at most one hypothesis can
    clear its threshold.
    """
    if not 1 <= n_prime <= N:
        raise ValueError(f"n_prime must be in [1, N], got {n_prime}")
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    branch = threshold_asymmetric(N - n_prime + 1, game, epsilon / 2.0, M, B)
    return max(zeta - prior_confidence, branch)


RULE_KINDS = ("asymmetric", "symmetric", "empirical")


@dataclass(frozen=True)
class InferenceRule:
    """Threshold rule: declare i when the confidence gained since the
    prior reaches thresholds[i] (inclusive); otherwise abstain."""

    kind: str
    thresholds: dict[int, float]
    epsilon: float

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown inference kind {self.kind!r}")
        if not self.thresholds:
            raise ValueError("thresholds must cover at least one hypothesis")
        if any(math.isnan(theta) for theta in self.thresholds.values()):
            raise ValueError("a threshold is NaN")


def asymmetric_rule(model: HypothesisModel, game: GameSolution, N: int,
                    epsilon: float) -> InferenceRule:
    theta = threshold_asymmetric(N, game, epsilon, model.num_hypotheses,
                                 model.llr_bound)
    return InferenceRule("asymmetric", {game.reference: theta}, epsilon)


def empirical_rule(reference: int, theta: float, epsilon: float) -> InferenceRule:
    """Threshold found by calibration rather than by the theory bound."""
    return InferenceRule("empirical", {reference: theta}, epsilon)


def symmetric_rule(model: HypothesisModel, games: dict[int, GameSolution],
                   N: int, epsilon: float) -> InferenceRule:
    """Per-hypothesis thresholds of the symmetric composite, each with
    zeta = SYMMETRIC_ZETA, N' = default_n_prime(N) and slack eps/2."""
    n_prime = default_n_prime(N)
    prior = prior_belief(model)
    thresholds = {}
    for i in range(model.num_hypotheses):
        c1 = confidence(prior, i)
        thresholds[i] = threshold_symmetric(
            N, i, games[i], epsilon, model.num_hypotheses, model.llr_bound,
            n_prime, SYMMETRIC_ZETA, c1)
    return InferenceRule("symmetric", thresholds, epsilon)


def symmetric_setup(model: HypothesisModel, N: int, epsilon: float,
                    inner_kind: str = "das") -> tuple[StrategySpec, InferenceRule]:
    """The symmetric composite for horizon N and its rule, thresholded
    with the game of each hypothesis's inner rule."""
    spec = build_strategy(model, "symmetric", N, epsilon=epsilon,
                          inner_kind=inner_kind)
    games = {i: inner.game for i, inner in enumerate(spec.inner)}
    return spec, symmetric_rule(model, games, N, epsilon)


def decisions_from_increments(c_inc: np.ndarray, refs: tuple,
                              rule: InferenceRule) -> np.ndarray:
    """The rule on each row of confidence increments C_i(final) -
    C_i(prior), one column per hypothesis of `refs`: the first to reach
    its threshold, or -1 for the inconclusive declaration."""
    T = c_inc.shape[0]
    flags = np.zeros((T, len(refs)), dtype=bool)
    for col, i in enumerate(refs):
        if i in rule.thresholds:
            flags[:, col] = c_inc[:, col] >= rule.thresholds[i]
    counts = flags.sum(axis=1)
    if rule.kind == "symmetric" and np.any(counts > 1):
        raise ValueError("two hypotheses cleared their symmetric thresholds")
    dec = np.full(T, -1, dtype=np.int64)
    hit = counts >= 1
    dec[hit] = np.asarray(refs)[np.argmax(flags[hit], axis=1)]
    return dec


def infer(final_belief: Belief, prior: Belief, rule: InferenceRule) -> int | None:
    """decisions_from_increments on the run's final belief, a batch of
    one: the declared hypothesis index, or None to abstain."""
    refs = tuple(sorted(rule.thresholds))
    c_inc = np.array([[confidence(final_belief, i) - confidence(prior, i) for i in refs]])
    decision = int(decisions_from_increments(c_inc, refs, rule)[0])
    return None if decision < 0 else decision
