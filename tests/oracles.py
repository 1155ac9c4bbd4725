"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the library's own computational
paths: the game oracle is an exhaustive simplex grid search, the
binomial CDF is exact rational arithmetic, the Monte Carlo step loop
uses whole-array numpy reductions where the engine works column by
column, the selectors score with BLAS products on normalized beliefs
where the library sums elementwise over unnormalized ones, and exact
enumeration recurses node by node with a scalar selector, weighs each
experiment a sampling rule can pick by its mass in the mixture, and
sums in a scalar per-leaf loop, where the library walks blocks of
nodes, selects for a block of beliefs at once and cuts the draw's
range into pieces, and the strong-bound sweep loops over the
sorted samples where the library takes one argmin.

The reference definitions below restate single quantities of the paper
the plain way, one value at a time: the tilted score on a normalized
belief, the log-likelihood ratio, the decode of a pick key solved in
fractions, a pick table filled point by point, the bilinear payoff,
the strong bound at one cut point, a belief replayed from its history,
and the log odds of one belief.
"""

import math
from fractions import Fraction
from math import comb

import numpy as np

from fhat.belief import Belief, confidence, prior_belief, update_belief
from fhat.model import ModelError
from fhat.numerics import log_normalize, logsumexp
from fhat.strategy import TIE_RTOL, mgf_matrix, select_batch


# ---------------------------------------------------------------------------
# Reference definitions of single quantities
# ---------------------------------------------------------------------------

def tilted_alternate_log_weights(log_belief, i, s):
    """log of rho(j)^s / sum_k rho(k)^s over alternates (ascending j),
    computed with logsumexp; insensitive to the belief's normalization."""
    alts = np.concatenate([log_belief[:i], log_belief[i + 1:]])
    w = s * alts
    total = logsumexp(w)
    if not np.isfinite(total):
        raise ValueError("all alternate mass is zero; score undefined")
    return w - total


def score_all(model, i, belief, s, mu=None):
    """Tilted-MGF score of every experiment at the given belief."""
    if mu is None:
        mu = mgf_matrix(model, i, s)
    w = np.exp(tilted_alternate_log_weights(belief.log_prob, i, s))
    return mu @ w


def score_M(model, i, u, belief, s):
    """Score of a single experiment (lower is better for the tester)."""
    return float(score_all(model, i, belief, s)[u])


def reference_confidence(b, i):
    """Log odds log(rho(i) / (1 - rho(i))) of one belief, on its 1-D log
    masses: log_prob[i] - logsumexp(log_prob[j != i])."""
    lp = b.log_prob
    alts = np.concatenate([lp[:i], lp[i + 1:]])
    denom = logsumexp(alts)
    if not np.isfinite(lp[i]) or not np.isfinite(denom):
        raise ValueError("confidence undefined for a degenerate belief")
    return float(lp[i] - denom)


def uniform_prior_log_posterior(b, model):
    """Log posterior the agent would hold after the same history had the
    prior been uniform: divide out the actual prior and renormalize."""
    return log_normalize(b.log_prob - model.log_prior)


def recompute_belief(t):
    """Replay a trajectory's history through Bayes updates."""
    b = prior_belief(t.model)
    for u, y in t.history:
        b = update_belief(b, t.model, u, y)
    return b


def log_likelihood_ratio(model, i, j, u, y):
    """log(p_i^u(y) / p_j^u(y)); y must be in the support of experiment u."""
    if not model.support[u, y]:
        raise ModelError(
            f"observation {model.observations[y]} outside the support of "
            f"experiment {model.experiments[u]}")
    return float(model.log_kernel[i, u, y] - model.log_kernel[j, u, y])


def reference_ratio_matrix(spec):
    """G, (r, M), for spec.pick_key K by Gauss-Jordan elimination in
    fractions: the log-likelihood ratios that the lattice point P of K
    spans are P @ G, in the columns of the hypotheses selection reads
    (the alternates' ratios to the first alternate, or for the
    symmetric composite every hypothesis's ratio to hypothesis 0); the
    other columns are 0.

    K has full column rank r, so the elimination of [K | L] over the
    rows the key spans (its nonzero ones; the rest are rows the rule
    never observes, or rows of ratio 1) leaves [I | G] in its first r
    rows, exactly in fractions of the floats L, and rows of K zero
    after it.  Their ratios must be zero too, or the key would not span
    them: that is checked to rounding.  The library derives G from the
    primes of the kernel's decimals instead (model.ratio_lattice)."""
    model, K = spec.model, spec.pick_key
    M, U, Y = model.kernel.shape
    r = K.shape[1]
    hyps = range(M) if spec.reference is None else model.alternates(spec.reference)
    logk = model.log_kernel.transpose(1, 2, 0).reshape(U * Y, M)
    rows = [[Fraction(int(k)) for k in K[i]]
            + [Fraction(float(logk[i, h] - logk[i, hyps[0]])) if h in hyps else 0
               for h in range(M)]
            for i in np.flatnonzero(K.any(axis=1))]
    for c in range(r):
        p = next(i for i in range(c, len(rows)) if rows[i][c])
        pivot = rows.pop(p)
        rows.insert(c, [x / pivot[c] for x in pivot])
        for i, row in enumerate(rows):
            if i != c and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[c])]
    if any(abs(x) > 1e-9 for row in rows[r:] for x in row[r:]):
        raise RuntimeError("the pick key does not span the log-likelihood ratios")
    return np.array([[float(x) for x in row[r:]] for row in rows[:r]]).reshape(r, M)


def _reference_box(spec, N):
    """(lo, width) of the box of points spec.pick_key's columns reach in
    N steps: its corner and its width along each column."""
    lo = [N * min(int(c.min()), 0) for c in spec.pick_key.T]
    width = [N * max(int(c.max()), 0) - a + 1 for a, c in zip(lo, spec.pick_key.T)]
    return lo, width


def reference_key_rows(spec, N, keys):
    """The representative row of each of `keys` of spec's key box at
    horizon N, one point at a time: the key decoded mixed-radix, column
    0 the fastest, to its point P, and log prior + P @ G (G is
    spec.pick_ratios) accumulated from the log prior column by column.
    The library decodes one line of the box at a time instead
    (montecarlo._box_rows)."""
    lo, width = _reference_box(spec, N)
    lb = np.tile(spec.model.log_prior, (keys.size, 1))
    rest = keys
    for first, w, g in zip(lo, width, spec.pick_ratios):
        rest, c = np.divmod(rest, w)
        lb += (c + first)[:, None] * g
    return lb


def reference_pick_table(spec, N):
    """The pick table of `spec` (one with a pick key) at horizon N,
    filled point by point: the selector runs on blocks of
    REFERENCE_CHUNK keys' reference_key_rows, in key order."""
    size = math.prod(_reference_box(spec, N)[1])
    table = np.empty(size, dtype=np.min_scalar_type(spec.model.num_experiments - 1))
    for a in range(0, size, REFERENCE_CHUNK):
        keys = np.arange(a, min(a + REFERENCE_CHUNK, size))
        table[a:a + REFERENCE_CHUNK] = select_batch(spec, reference_key_rows(spec, N, keys),
                                                    None)
    return table


def assumption_pairwise_informative(model):
    """True when every experiment distinguishes every pair of hypotheses,
    i.e. D(p_i^u || p_j^u) > 0 for all u and all i != j."""
    for u in range(model.num_experiments):
        idx = model.support_indices(u)
        for i in range(model.num_hypotheses):
            for j in range(model.num_hypotheses):
                if i != j and np.array_equal(model.kernel[i, u, idx], model.kernel[j, u, idx]):
                    return False
    return True


def payoff(alpha, beta, payoff_matrix):
    """Bilinear payoff sum_u sum_j alpha(u) A[u, j] beta(j)."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    A = np.asarray(payoff_matrix, dtype=float)
    if alpha.shape != (A.shape[0],) or beta.shape != (A.shape[1],):
        raise ValueError(
            f"dimension mismatch: alpha {alpha.shape}, beta {beta.shape}, payoff {A.shape}")
    return float(alpha @ A @ beta)


def strong_converse_empirical(zbar_samples, h_start, chi, epsilon):
    """Tail-probability bound at one cut point chi:

        ln(1/phi) <= chi - ln( P_i[Zbar_N + h_start <= chi] - eps )

    with the tail probability replaced by its empirical frequency.
    Returns +inf ("unbounded") when the frequency does not exceed eps:
    the bound is vacuous at this chi."""
    z = np.asarray(zbar_samples, dtype=float)
    if z.size == 0:
        raise ValueError("need at least one sample")
    p_hat = float(np.mean(z + h_start <= chi))
    if p_hat <= epsilon:
        return math.inf
    return chi - math.log(p_hat - epsilon)


def simplex_grid(dim: int, step: float) -> np.ndarray:
    """All points of the probability simplex with coordinates that are
    multiples of `step` (dim <= 3)."""
    n = round(1.0 / step)
    if dim == 1:
        return np.ones((1, 1))
    if dim == 2:
        a = np.arange(n + 1)
        return np.stack([a, n - a], axis=1) / n
    if dim == 3:
        i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        mask = i + j <= n
        return np.stack([i[mask], j[mask], n - i[mask] - j[mask]], axis=1) / n
    raise ValueError("grid oracle supports at most 3-point mixtures")


def grid_maxmin(A: np.ndarray, step: float = 1e-3) -> float:
    """max over gridded row mixtures of the column-wise minimum."""
    alphas = simplex_grid(A.shape[0], step)
    return float((alphas @ A).min(axis=1).max())


def grid_minmax(A: np.ndarray, step: float = 1e-3) -> float:
    """min over gridded column mixtures of the row-wise maximum."""
    betas = simplex_grid(A.shape[1], step)
    return float((betas @ A.T).max(axis=1).min())


def binomial_cdf_exact(N: int, p: Fraction, k: int) -> Fraction:
    """Exact CDF of Bin(N, p) at k via rational arithmetic."""
    total = Fraction(0)
    for j in range(0, min(k, N) + 1):
        total += comb(N, j) * p**j * (1 - p) ** (N - j)
    return total


def binomial_quantile_exact(N: int, p: Fraction, q: Fraction) -> int:
    """Smallest k with exact CDF >= q."""
    total = Fraction(0)
    for k in range(N + 1):
        total += comb(N, k) * p**k * (1 - p) ** (N - k)
        if total >= q:
            return k
    return N


# ---------------------------------------------------------------------------
# Reference step loop of the Monte Carlo engine
# ---------------------------------------------------------------------------

REFERENCE_CHUNK = 8192


def reference_strong_converse_sweep(zbar_samples, h_start, epsilon):
    """(chi, bound) of the strong-bound sweep by a scalar loop: at the
    k-th sorted shifted sample the tail frequency is (k+1)/T, and a bound
    strictly below the best so far replaces it (the first minimum wins)."""
    z = np.sort(np.asarray(zbar_samples, dtype=float)) + h_start
    best_chi, best = math.nan, math.inf
    for k in range(z.size):
        p_hat = (k + 1) / z.size
        if p_hat > epsilon:
            val = z[k] - math.log(p_hat - epsilon)
            if val < best:
                best, best_chi = val, float(z[k])
    return best_chi, best


def _reference_inv_cdf(cum_rows, draws):
    """Index = #{cum <= r}, clipped to the last symbol."""
    idx = (draws[:, None] >= cum_rows).sum(axis=1)
    return np.minimum(idx, cum_rows.shape[1] - 1)


def reference_first_tied(values, largest, scale=0.0):
    """Per row of `values`, the first column within TIE_RTOL * (|best| +
    scale) of the row's smallest (largest) value, by whole-row
    reductions: the library's tie rule."""
    if largest:
        best = values.max(axis=1, keepdims=True)
        tied = values >= best - TIE_RTOL * (np.abs(best) + scale)
    else:
        best = values.min(axis=1, keepdims=True)
        tied = values <= best + TIE_RTOL * (np.abs(best) + scale)
    return np.argmax(tied, axis=1)


def reference_select(spec, lb, exp_draws):
    """Experiment choice per row with whole-row numpy reductions
    (numerics.logsumexp, a BLAS score product, the tie rule by row
    reductions, an inverse-CDF gather)."""
    model = spec.model
    if spec.kind == "ors":
        cum = np.cumsum(spec.sample_alpha)
        return _reference_inv_cdf(np.broadcast_to(cum, (lb.shape[0], cum.size)),
                                  exp_draws)
    if spec.kind in ("das", "das-rs"):
        alts = list(model.alternates(spec.reference))
        w = spec.s_value * lb[:, alts]
        w = np.exp(w - logsumexp(w, axis=1, keepdims=True))
        limit = spec.s_value >= 1.0
        scores = w @ (spec.kl if limit else spec.mu).T
        if spec.kind == "das-rs":
            scores = np.where(spec.support_mask[None, :], scores,
                              -np.inf if limit else np.inf)
        return reference_first_tied(scores, limit)
    scale = np.abs(model.log_prior).max()
    lbar = lb - model.log_prior[None, :]
    if spec.kind == "chernoff-det":
        alts = list(model.alternates(spec.reference))
        return spec.chernoff_u[reference_first_tied(lbar[:, alts], True, scale)]
    if spec.kind == "symmetric":
        i_hat = reference_first_tied(lbar, True, scale)
        u = np.zeros(lb.shape[0], dtype=np.int64)
        for i in range(model.num_hypotheses):
            mask = i_hat == i
            if mask.any():
                u[mask] = reference_select(spec.inner[i], lb[mask], exp_draws[mask])
        return u
    raise ValueError(f"unknown strategy kind {spec.kind!r}")


def reference_joint_thresholds(spec, cum_rows):
    """Plain ors's joint inverse-CDF thresholds, one entry at a time:
    T[u, k] = min(lo_u + (hi_u - lo_u) cum_rows[u, k], hi_u), where
    [lo_u, hi_u) is the range of draws reference_select maps to
    experiment u (the cumulative mixture, clipped to 1, the last range
    ending at 1).  A draw r in it gives the observation
    #{k < Y - 1 : T[u, k] <= r}, clipped to the last symbol."""
    cum = np.cumsum(spec.sample_alpha)
    U = cum.size
    T = np.empty_like(cum_rows)
    for u in range(U):
        lo = min(float(cum[u - 1]), 1.0) if u else 0.0
        hi = min(float(cum[u]), 1.0) if u < U - 1 else 1.0
        for k in range(cum_rows.shape[1]):
            T[u, k] = min(lo + (hi - lo) * float(cum_rows[u, k]), hi)
    return T


def reference_chunk(model, spec, N, true_hyp, master_seed, purpose, chunk_idx,
                    n_rows, track_llr_of=None, path=None):
    """Step the first n_rows trials of one chunk of the engine's random
    stream with whole-array numpy operations.  Returns the final raw log
    beliefs (n_rows, M), when track_llr_of = i is given the total LLRs
    (n_rows, M-1) of i against its alternates (else None), and each
    row's observation counts n[u*Y + y] (n_rows, U*Y); a list `path`
    gets each step's (u, y) arrays appended.  Plain ors takes
    its observation from its experiment draw, through
    reference_joint_thresholds: it draws its observation uniforms, to
    keep its place in the stream, and reads none of them."""
    ss = np.random.SeedSequence((master_seed, purpose, true_hyp, chunk_idx))
    gen = np.random.Generator(np.random.PCG64DXSM(ss))
    lb = np.tile(model.log_prior, (n_rows, 1))
    M, U, Y = model.kernel.shape
    counts = np.zeros((n_rows, U * Y), dtype=np.int64)
    cumk = np.cumsum(model.kernel[true_hyp], axis=1)
    if spec.kind == "ors":
        cumk = reference_joint_thresholds(spec, cumk)
    z = None
    if track_llr_of is not None:
        i = track_llr_of
        alts = [j for j in range(model.num_hypotheses) if j != i]
        with np.errstate(invalid="ignore"):
            llr = np.stack([np.where(model.support,
                                     model.log_kernel[i] - model.log_kernel[j], 0.0)
                            for j in alts])
        z = np.zeros((n_rows, len(alts)))
    for _ in range(N):
        exp_draws = gen.random(REFERENCE_CHUNK)[:n_rows]
        obs_draws = gen.random(REFERENCE_CHUNK)[:n_rows]
        if spec.kind == "ors":
            obs_draws = exp_draws
        u = reference_select(spec, lb, exp_draws)
        y = _reference_inv_cdf(cumk[u], obs_draws)
        lb += model.log_kernel[:, u, y].T
        counts[np.arange(n_rows), u * Y + y] += 1
        if path is not None:
            path.append((u, y))
        if z is not None:
            z += llr[:, u, y].T
    return lb, z, counts


# ---------------------------------------------------------------------------
# Reference exact enumeration: the recursive tree walk and per-leaf loop
# ---------------------------------------------------------------------------

class ZeroRng:
    """A generator whose every draw is 0.0: a point-mass sampler fed it
    lands on its single positive-mass experiment."""

    def random(self):
        return 0.0


def reference_select_experiment(spec, belief, rng) -> int:
    """The scalar selector on a normalized Belief: 1-D arrays, one belief
    at a time, matrix-vector score products and the tie rule by row
    reductions."""
    if spec.kind == "ors":
        cum = np.cumsum(spec.sample_alpha)
        return int(min(int((cum <= rng.random()).sum()), len(cum) - 1))
    if spec.kind in ("das", "das-rs"):
        limit = spec.s_value >= 1.0
        if limit:
            w = np.exp(tilted_alternate_log_weights(belief.log_prob, spec.reference, 1.0))
            scores = spec.kl @ w
        else:
            scores = score_all(spec.model, spec.reference, belief, spec.s_value, spec.mu)
        if spec.kind == "das-rs":
            scores = np.where(spec.support_mask, scores, -np.inf if limit else np.inf)
        return int(reference_first_tied(scores[None, :], limit)[0])
    scale = np.abs(spec.model.log_prior).max()
    log_bar = uniform_prior_log_posterior(belief, spec.model)
    if spec.kind == "chernoff-det":
        i = spec.reference
        alts = np.concatenate([log_bar[:i], log_bar[i + 1:]])
        k = int(reference_first_tied(alts[None, :], True, scale)[0])
        return int(spec.chernoff_u[k])
    if spec.kind == "symmetric":
        i_hat = int(reference_first_tied(log_bar[None, :], True, scale)[0])
        return reference_select_experiment(spec.inner[i_hat], belief, rng)
    raise ValueError(f"unknown strategy kind {spec.kind!r}")


def reference_pick_weights(spec, belief):
    """(experiment, probability) pairs of the next pick at a normalized
    Belief: each experiment of positive mass in ``ors``'s mixture with
    that mass, the maximum-likelihood hypothesis's inner rule for the
    composite, and the scalar selector's one pick, of weight 1, for a
    rule that reads no draws."""
    if spec.kind == "ors":
        return [(u, a) for u, a in enumerate(spec.sample_alpha) if a > 0]
    if spec.kind == "symmetric":
        scale = np.abs(spec.model.log_prior).max()
        log_bar = uniform_prior_log_posterior(belief, spec.model)
        i_hat = int(reference_first_tied(log_bar[None, :], True, scale)[0])
        return reference_pick_weights(spec.inner[i_hat], belief)
    return [(reference_select_experiment(spec, belief, None), 1)]


def reference_weighted_paths(model, spec, N):
    """Depth-first recursion over every (experiment, observation)
    sequence the rule can take, one node and one scalar selector call
    at a time: (experiments, observations, loglik, weight), the weight
    the product of the picks' probabilities."""

    def rec(loglik, exps, obs, weight, depth):
        if depth == N:
            yield exps, obs, loglik, weight
            return
        b = Belief(log_normalize(model.log_prior + loglik))
        for u, p in reference_pick_weights(spec, b):
            for y in model.support_indices(u):
                yield from rec(loglik + model.log_kernel[:, u, y], exps + (u,),
                               obs + (int(y),), weight * p, depth + 1)

    yield from rec(np.zeros(model.num_hypotheses), (), (), 1, 0)


def reference_enumerate_paths(model, spec, N):
    """(experiments, observations, loglik) of each path of a rule that
    reads no draws (reference_weighted_paths, every weight 1)."""
    for exps, obs, loglik, _ in reference_weighted_paths(model, spec, N):
        yield exps, obs, loglik


def reference_enumerate_exact(model, spec, rule, N):
    """(psi, phi, gamma, leaves) from a per-leaf loop: scalar log-sum-exp
    increments and masses added leaf by leaf, each path's mass and its
    count in `leaves` weighed by the probability of its picks."""
    refs = tuple(sorted(rule.thresholds))
    prior = prior_belief(model)
    prior_conf = {i: confidence(prior, i) for i in refs}
    M = model.num_hypotheses
    declare_mass = {i: np.zeros(M) for i in refs}   # P_h[declare i] per h
    total_mass = np.zeros(M)
    leaves = 0
    for _, _, loglik, weight in reference_weighted_paths(model, spec, N):
        leaves += weight
        path_p = weight * np.exp(loglik)
        total_mass += path_p
        lb = model.log_prior + loglik
        cleared = []
        for i in refs:
            alts = list(model.alternates(i))
            inc = (lb[i] - logsumexp(lb[alts])) - prior_conf[i]
            if inc >= rule.thresholds[i]:
                cleared.append(i)
        if rule.kind == "symmetric" and len(cleared) > 1:
            raise ValueError("two hypotheses cleared their symmetric thresholds")
        if cleared:
            declare_mass[cleared[0]] += path_p
    if np.any(np.abs(total_mass - 1.0) > 1e-9):
        raise RuntimeError("enumeration did not cover the observation tree")
    psi, phi = {}, {}
    for i in refs:
        psi[i] = float(declare_mass[i][i])
        w = np.array([model.prior[j] / (1.0 - model.prior[i]) if j != i else 0.0
                      for j in range(M)])
        phi[i] = float(np.dot(w, declare_mass[i]))
    gamma = sum(phi[i] * (1.0 - model.prior[i]) for i in refs)
    return psi, phi, gamma, leaves
