"""Monte Carlo and exact-enumeration evaluation of (strategy, rule) pairs.

The simulation engine is vectorized over trials and organized in
fixed-size chunks of 8192 trials.  Chunk c of the stream (seed, purpose,
hypothesis) draws its randomness from its own jump-ahead generator seeded
from exactly those integers (_chunk_draws), and a trial's experiment
picks depend on its own state alone, so results are bit-identical for
any worker count and any trial budget that covers the same trials.
Where that state lies on a small likelihood-ratio lattice, a chunk reads
its picks from a table that the selector fills, one row per lattice
point the chunk reaches (_pick_table).

phi is reported through two channels: the plain declaration frequency
under the alternate mixture (sanity channel, useless once phi is tiny)
and the log-sum-exp estimator run under the reference measure, which
targets phi exactly for deterministic threshold rules and stays accurate
down to e^{-hundreds}.

Exact enumeration of a deterministic strategy merges the paths that
reach the same observation counts n[u, y]: they share their pick and
their probability under each hypothesis, so the work follows the number
of distinct count states (polynomial in N) rather than of paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bounds as bounds_mod
from .belief import confidence, new_trajectory, prior_belief, step_trajectory
from .model import HypothesisModel, llr_table
from .numerics import largest_remainder_allocation, logsumexp, nats_to_db
# select_experiment is not called here; perfbench's tracer wraps it
# under this module's name as well as strategy's
from .strategy import (InferenceRule, StrategySpec, build_strategy,
                       decisions_from_increments, default_epsilon,
                       empirical_rule, reads_draws, select_experiment,
                       symmetric_setup)
from .strategy import select_batch as _select_batch

CHUNK = 8192
# the chunk generator, by name: recorded in every manifest, and looked
# up at call time so that importing fhat does not import numpy.random
STREAM_RNG = "PCG64DXSM"
ENUM_STATE_CAP = 1 << 18  # live count states (bounds enumeration memory)
PICK_TABLE_CAP = 1 << 20  # entries of a chunk's pick table (one byte each)
JACKKNIFE_BATCHES = 100
# Results one shared sweep run may hold: per horizon, the calibration and
# estimation increments and the weighted LLRs, 24 bytes per trial.
_SHARED_BYTES = 32 << 20

# Stream purposes: estimation, threshold calibration, alternate mixture.
PURPOSE_ESTIMATE = 0
PURPOSE_CALIBRATE = 1
PURPOSE_MIXTURE = 2


# ---------------------------------------------------------------------------
# Vectorized trial engine
# ---------------------------------------------------------------------------

def _chunk_generator(master_seed: int, purpose: int, hyp: int, chunk: int):
    ss = np.random.SeedSequence((int(master_seed), int(purpose), int(hyp), int(chunk)))
    return np.random.Generator(getattr(np.random, STREAM_RNG)(ss))


def _chunk_draws(gen, lo: int, hi: int) -> np.ndarray:
    """Uniforms lo..hi-1 of the next CHUNK draws of a chunk generator,
    which is left where drawing all CHUNK of them would leave it.  Each
    step of a chunk takes CHUNK experiment draws, then CHUNK observation
    draws, and trial t reads entry t of each.  Each double is one 64-bit
    output and ``advance(k)`` skips k outputs, so only the wanted draws
    are made; a full chunk is one gen.random(CHUNK) and skips nothing."""
    if lo:
        gen.bit_generator.advance(lo)
    out = gen.random(hi - lo)
    if hi < CHUNK:
        gen.bit_generator.advance(CHUNK - hi)
    return out


def _pick_table(spec: StrategySpec, N: int):
    """(table, dk, key0) of a chunk run of `spec` to horizon N, or None
    when it has no lattice key or its key box exceeds PICK_TABLE_CAP.

    A trial's key is its point of the lattice K.T @ n (spec.pick_key,
    n its observation counts) in the box that N steps can reach, packed
    mixed-radix into one int64: key0 at the start, plus dk[u*Y + y] per
    step.  Equal keys mean equal likelihood ratios among the hypotheses
    selection reads, so the pick is a function of the key; the table
    caches it as pick + 1, 0 where no trial has reached the key yet.
    It is allocated zeroed, so memory pages the trials never reach are
    never touched."""
    K = spec.pick_key
    if K is None:
        return None
    lo = [N * min(int(c.min()), 0) for c in K.T]
    width = [N * max(int(c.max()), 0) - a + 1 for a, c in zip(lo, K.T)]
    size = math.prod(width)
    if size > PICK_TABLE_CAP:
        return None
    stride = np.cumprod([1, *width], dtype=np.int64)[:-1]
    table = np.zeros(size, dtype=np.min_scalar_type(spec.model.num_experiments))
    return table, K @ stride, -int(np.dot(lo, stride))


def _confidence_increments(model: HypothesisModel, lb: np.ndarray,
                           refs) -> np.ndarray:
    """C_i(final) - C_i(prior) for each reference, from unnormalized
    final log beliefs (the normalization shift cancels)."""
    prior = prior_belief(model)
    out = np.empty((lb.shape[0], len(refs)))
    for col, i in enumerate(refs):
        alts = list(model.alternates(i))
        out[:, col] = (lb[:, i] - logsumexp(lb[:, alts], axis=1)) - confidence(prior, i)
    return out


def _simulate_chunk(model: HypothesisModel, spec: StrategySpec, horizons: tuple,
                    true_hyp: int, master_seed: int, purpose: int,
                    chunk_idx: int, lo: int, hi: int, refs: tuple,
                    zbar_weights: np.ndarray | None, path: list | None = None):
    """Simulate trials lo..hi-1 of one chunk to the last of the ascending
    `horizons`, and return (c_inc, zbar) stacked over them; a list
    `path` gets each step's (u, y) arrays appended.

    Each step draws only the randoms of those rows and skips the rest of
    the chunk's (_chunk_draws); a rule that never reads the experiment
    draws skips all of them.  Either way the stream layout does not
    depend on the rule, and a row's results are the same bits in any
    range that holds it (prefix stability, one-row run_trial).  A
    trial's first n steps are the same for every horizon >= n, so the
    state at each horizon is recorded on the way to the last; a run of
    one horizon is the tuple (N,).

    When the rule has a pick table for the last horizon, each trial
    carries its lattice key, a step reads the picks from the table, and
    the selector runs only on one row per key that no trial of this
    call has reached before; its pick is the one every row of that key
    would get.  The table lives for this call only."""
    M, U, Y = model.kernel.shape
    if horizons[0] < 0:
        raise ValueError(f"horizon must be >= 0, got {horizons[0]}")
    if not 0 <= true_hyp < M:
        raise ValueError(f"true hypothesis {true_hyp} outside [0, {M})")
    if chunk_idx < 0:
        raise ValueError(f"trial index must be >= 0, got {chunk_idx * CHUNK + lo}")
    gen = _chunk_generator(master_seed, purpose, true_hyp, chunk_idx)
    lb = np.tile(model.log_prior, (hi - lo, 1))
    # inverse-CDF sampling as #{cum <= r} over all but the last column,
    # which is the clip to the last symbol (cum never decreases)
    cumk = np.cumsum(model.kernel[true_hyp], axis=1)
    cum_cols = [cumk[:, k].copy() for k in range(Y - 1)]
    # belief and LLR increments as flat rows, row u*Y + y
    logk_rows = model.log_kernel.transpose(1, 2, 0).reshape(U * Y, M)
    track_z = zbar_weights is not None
    if track_z:
        llr_rows = llr_table(model, refs[0]).transpose(1, 2, 0).reshape(U * Y, M - 1)
        z = np.zeros((hi - lo, M - 1))
    reads = reads_draws(spec)
    exp_draws = None
    cache = _pick_table(spec, horizons[-1])
    if cache is not None:
        table, dk, key0 = cache
        key = np.full(hi - lo, key0, dtype=np.int64)
    c_incs, zbars = [], []
    step = 0
    for stop in horizons:
        for _ in range(step, stop):
            if reads:
                exp_draws = _chunk_draws(gen, lo, hi)
            else:   # where drawing the chunk's uniforms leaves it
                gen.bit_generator.advance(CHUNK)
            obs_draws = _chunk_draws(gen, lo, hi)
            if cache is None:
                u = _select_batch(spec, lb, exp_draws)
            else:
                u = np.subtract(np.take(table, key), 1, dtype=np.int64)
                miss = np.flatnonzero(u < 0)
                if miss.size:
                    # one real row per key not seen yet picks for it
                    new, first = np.unique(key[miss], return_index=True)
                    table[new] = _select_batch(spec, lb[miss[first]], None) + 1
                    u[miss] = table[key[miss]] - 1
            row = u * Y
            for cum in cum_cols:
                row += obs_draws >= cum[u]
            if path is not None:
                path.append((u, row - u * Y))
            lb += np.take(logk_rows, row, axis=0)
            if cache is not None:
                key += np.take(dk, row)
            if track_z:
                z += np.take(llr_rows, row, axis=0)
        step = stop
        c_incs.append(_confidence_increments(model, lb, refs))
        if track_z:
            # weighted column sum in fixed order: the same bits for a
            # trial whatever the number of rows in its chunk
            zbar = z[:, 0] * zbar_weights[0]
            for k in range(1, M - 1):
                zbar += z[:, k] * zbar_weights[k]
            zbars.append(zbar)
    return np.stack(c_incs), np.stack(zbars) if track_z else None


def _chunk_task(args):
    return _simulate_chunk(*args)


def simulate_measure(model: HypothesisModel, spec: StrategySpec, N: int,
                     true_hyp: int, trials: int, master_seed: int,
                     purpose: int = PURPOSE_ESTIMATE, refs: tuple = (),
                     zbar_weights=None, workers: int = 0,
                     snapshots=None):
    """Run `trials` trials of N steps under X = true_hyp.

    Returns (c_inc, zbar): confidence increments per requested reference
    hypothesis, and the weighted total-LLR samples when `zbar_weights`
    is given (weights over the alternates of refs[0]).  Rules other than
    ``ors`` never read the experiment draws, so no step makes them (the
    stream advances past them).

    `snapshots`, strictly ascending horizons below N, also records the
    trials' state at each of them on the same run (a trial's first n
    steps do not depend on the horizon).  When it is given, even as an
    empty tuple, c_inc and zbar have a leading axis over
    (*snapshots, N), and entry k is bit for bit what a run of that
    many steps returns; without it they are entry -1 alone.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if snapshots is not None:
        snapshots = tuple(int(n) for n in snapshots)
        if any(not 0 <= a < b for a, b in zip(snapshots, (*snapshots[1:], N))):
            raise ValueError("snapshots must be strictly ascending horizons in [0, N)")
    refs = tuple(refs) if refs else (true_hyp,)
    horizons = (*(snapshots or ()), N)
    w = None if zbar_weights is None else np.asarray(zbar_weights, dtype=float)
    n_chunks = (trials + CHUNK - 1) // CHUNK
    tasks = []
    for c in range(n_chunks):
        rows = min(CHUNK, trials - c * CHUNK)
        tasks.append((model, spec, horizons, true_hyp, master_seed, purpose, c,
                      0, rows, refs, w))
    if workers and workers > 1 and n_chunks > 1:
        # imported here: its modules take about 10 ms to import, which
        # serial runs never need
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_chunk_task, tasks))
    else:
        results = [_chunk_task(t) for t in tasks]
    c_inc = np.concatenate([r[0] for r in results], axis=1)
    zbar = None
    if w is not None:
        zbar = np.concatenate([r[1] for r in results], axis=1)
    if snapshots is None:
        return c_inc[-1], None if zbar is None else zbar[-1]
    return c_inc, zbar


def run_trial(model: HypothesisModel, spec: StrategySpec, rule: InferenceRule,
              N: int, true_hypothesis: int, seed: int,
              purpose: int = PURPOSE_ESTIMATE, trial_index: int = 0,
              beta_star=None):
    """Trial `trial_index` of the given stream: the engine run on its
    one row, so it takes the engine's path and gets the engine's
    decision (None to abstain) bit for bit, for every strategy kind.
    The trajectory, for the rule's first hypothesis and with z_bar when
    `beta_star` is given, steps the belief layer along that path."""
    chunk_idx, row = divmod(trial_index, CHUNK)
    refs = tuple(sorted(rule.thresholds))
    path = []
    c_inc, _ = _simulate_chunk(model, spec, (N,), true_hypothesis, seed, purpose,
                               chunk_idx, row, row + 1, refs, None, path)
    traj = new_trajectory(model, refs[0], beta_star=beta_star)
    for u, y in path:
        traj = step_trajectory(traj, int(u[0]), int(y[0]))
    decision = int(decisions_from_increments(c_inc[0], refs, rule)[0])
    return traj, None if decision < 0 else decision


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LsePhiEstimate:
    """ln(1/phi_hat) from the log-sum-exp estimator under X = i."""

    log_inv_phi: float
    se: float
    accepted: int
    trials: int
    is_lower_bound: bool = False     # no accepted trial: report >= ln T


def estimate_phi_lse(c_inc: np.ndarray, accepted: np.ndarray,
                     batches: int = JACKKNIFE_BATCHES) -> LsePhiEstimate:
    """phi = E_i[exp(-(C_inc - ln 1_accept))]; estimate ln(1/phi) as
    ln T - logsumexp(-C_inc over accepted trials).  Declined trials
    contribute exp(-inf) = 0.  SE by jackknife over equal trial batches.
    """
    c_inc = np.asarray(c_inc, dtype=float).ravel()
    accepted = np.asarray(accepted, dtype=bool).ravel()
    T = c_inc.size
    n_acc = int(accepted.sum())
    if n_acc == 0:
        return LsePhiEstimate(math.log(T), math.nan, 0, T, is_lower_bound=True)
    neg = np.where(accepted, -c_inc, -np.inf)
    shift = float(neg.max())
    terms = np.exp(neg - shift)
    total = float(terms.sum())
    est = math.log(T) - (shift + math.log(total))

    batches = min(batches, T)
    edges = np.linspace(0, T, batches + 1).astype(int)
    loo = []
    for b in range(batches):
        s_b = float(terms[edges[b]:edges[b + 1]].sum())
        t_b = edges[b + 1] - edges[b]
        rest = total - s_b
        if rest <= 0.0 or t_b == 0 or t_b == T:
            continue
        loo.append(math.log(T - t_b) - (shift + math.log(rest)))
    if len(loo) >= 2:
        loo = np.asarray(loo)
        B = loo.size
        se = math.sqrt((B - 1) / B * float(np.sum((loo - loo.mean()) ** 2)))
    else:
        se = math.nan
    return LsePhiEstimate(est, se, n_acc, T)


@dataclass
class SimulationConfig:
    """Everything needed to reproduce one evaluation run."""

    model: HypothesisModel
    spec: StrategySpec
    rule: InferenceRule
    horizon: int
    trials: int
    seed: int
    workers: int = 0


@dataclass
class SimulationReport:
    """Per-hypothesis estimates with standard errors.

    phi_hat is the plain mixture-frequency channel; lse[i] the log-sum-
    exp channel (primary for small phi).  gamma_hat combines the plain
    channel, gamma_hat_lse the log-sum-exp channel.
    """

    horizon: int
    trials: int
    seed: int
    psi_hat: dict = field(default_factory=dict)
    psi_se: dict = field(default_factory=dict)
    phi_hat: dict = field(default_factory=dict)
    phi_se: dict = field(default_factory=dict)
    lse: dict = field(default_factory=dict)
    gamma_hat: float = math.nan
    gamma_hat_lse: float = math.nan
    gamma_lse_se: float = math.nan
    histogram: dict = field(default_factory=dict)


def _batch_estimates(c_inc: np.ndarray, col: int, dec: np.ndarray, i: int):
    """psi_hat, its binomial SE and the log-sum-exp ln(1/phi) of one
    estimation batch under X = i (increments for i in column `col`)."""
    hit = dec == i
    psi = float(np.mean(hit))
    return (psi, math.sqrt(psi * (1 - psi) / hit.size),
            estimate_phi_lse(c_inc[:, col], hit))


def _gamma(model: HypothesisModel, phi: dict) -> float:
    """gamma = sum_i (1 - prior(i)) phi(i) over the hypotheses in `phi`."""
    return sum((1.0 - model.prior[i]) * p for i, p in phi.items())


def _gamma_lse(model: HypothesisModel, lse: dict) -> tuple[float, float]:
    """gamma from the log-sum-exp estimates `lse`, and its SE; a
    lower-bound estimate counts as phi = 0."""
    phi = {i: 0.0 if e.is_lower_bound else math.exp(-e.log_inv_phi)
           for i, e in lse.items()}
    var = sum(((1.0 - model.prior[i]) * phi[i] * e.se) ** 2 for i, e in lse.items()
              if not e.is_lower_bound and np.isfinite(e.se))
    return _gamma(model, phi), math.sqrt(var)


def estimate(config: SimulationConfig) -> SimulationReport:
    """Monte Carlo estimates of psi, phi (both channels) and gamma.

    psi_hat(i) and the log-sum-exp channel come from the estimation batch
    under X = i.  The symmetric rule runs such a batch under every
    hypothesis, and its plain phi_hat(i) is the stratified sum of the
    other batches' rates of declaring i, weighted prior(j)/(1 - prior(i)).
    Otherwise phi_hat(i) comes from trials under the alternate mixture
    with those weights, allocated by largest remainder.
    """
    model, rule, T = config.model, config.rule, config.trials
    refs = tuple(sorted(rule.thresholds))
    symmetric = rule.kind == "symmetric"
    report = SimulationReport(horizon=config.horizon, trials=T, seed=config.seed)

    def run(h, trials, purpose):
        c_inc, _ = simulate_measure(model, config.spec, config.horizon, h,
                                    trials, config.seed, purpose, refs=refs,
                                    workers=config.workers)
        return c_inc, decisions_from_increments(c_inc, refs, rule)

    dec_by_hyp = {}
    for h in range(model.num_hypotheses) if symmetric else refs:
        c_inc, dec_by_hyp[h] = run(h, T, PURPOSE_ESTIMATE)
        report.histogram[model.hypotheses[h]] = {
            name: int(np.sum(dec_by_hyp[h] == k))
            for k, name in [*enumerate(model.hypotheses), (-1, "inconclusive")]}
        if h in rule.thresholds:
            report.psi_hat[h], report.psi_se[h], report.lse[h] = _batch_estimates(
                c_inc, refs.index(h), dec_by_hyp[h], h)

    for i in refs:
        alts = model.alternates(i)
        weights = [model.prior[j] / (1.0 - model.prior[i]) for j in alts]
        if symmetric:
            rates = [float(np.mean(dec_by_hyp[j] == i)) for j in alts]
            report.phi_hat[i] = sum(w * p for w, p in zip(weights, rates))
            report.phi_se[i] = math.sqrt(sum((w ** 2) * p * (1 - p) / T
                                             for w, p in zip(weights, rates)))
        else:
            hits = 0
            for j, t_j in zip(alts, largest_remainder_allocation(weights, T)):
                if t_j:
                    hits += int(np.sum(run(j, int(t_j), PURPOSE_MIXTURE)[1] == i))
            phi = hits / T
            report.phi_hat[i], report.phi_se[i] = phi, math.sqrt(phi * (1 - phi) / T)

    report.gamma_hat = _gamma(model, report.phi_hat)
    report.gamma_hat_lse, report.gamma_lse_se = _gamma_lse(model, report.lse)
    return report


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactReport:
    """Exact psi/phi per hypothesis and overall gamma; `leaves` is the
    number of paths and `states` the most count states live at once."""

    psi: dict
    phi: dict
    gamma: float
    leaves: int
    states: int


def enumerate_exact(model: HypothesisModel, spec: StrategySpec,
                    rule: InferenceRule, N: int,
                    state_cap: int = ENUM_STATE_CAP) -> ExactReport:
    """Exact (psi_N, phi_N, gamma_N) of a deterministic strategy, by a
    dynamic program over count states n[u, y] level by level.

    A pick is a function of the count state, and every path to a state
    has the same probability under each hypothesis (the product of the
    same kernel entries), so the paths to a state merge: it keeps its
    counts, one log-likelihood row (that of its first child in the
    level's fixed order) and its path multiplicity, and its mass is the
    multiplicity times exp(loglik).  A level picks once per state, on
    log prior plus loglik (zero draws for a point-mass ``ors``), expands
    each state over the pick's support and merges equal counts.  The
    cost follows the number of distinct states, not of paths; more than
    `state_cap` live states raise ValueError.  Probabilities are exact
    to 64-bit rounding, and `leaves`, the summed multiplicity, is exact
    below 2**53 paths.
    """
    if not spec.is_deterministic():
        raise ValueError("exact enumeration needs a deterministic strategy")
    M, U, Y = model.kernel.shape
    logk_rows = model.log_kernel.transpose(1, 2, 0).reshape(U * Y, M)
    zero_draws = reads_draws(spec)
    # counts never pass N: the narrowest type that holds N keeps the
    # merge keys short
    counts = np.zeros((1, U * Y), dtype=np.min_scalar_type(N))
    loglik = np.zeros((1, M))
    mult = np.ones(1)
    states = 1
    for step in range(1, N + 1):
        u = _select_batch(spec, model.log_prior + loglik,
                          np.zeros(len(loglik)) if zero_draws else None)
        parent, y = np.nonzero(model.support[u])
        k = u[parent] * Y + y
        child = counts[parent]
        child[np.arange(k.size), k] += 1
        keys = child.view(np.dtype((np.void, child[0].nbytes))).ravel()
        _, first, merged = np.unique(keys, return_index=True,
                                     return_inverse=True)
        if first.size > state_cap:
            raise ValueError(f"{first.size} count states after {step} of {N} "
                             f"steps exceed the enumeration cap {state_cap}")
        states = max(states, first.size)
        counts = child[first]
        loglik = loglik[parent[first]] + np.take(logk_rows, k[first], axis=0)
        mult = np.bincount(merged.ravel(), weights=mult[parent],
                           minlength=first.size)

    refs = tuple(sorted(rule.thresholds))
    mass = mult[:, None] * np.exp(loglik)      # P_h[state] per h
    if np.any(np.abs(mass.sum(axis=0) - 1.0) > 1e-9):
        raise RuntimeError("enumeration did not cover the observation tree")
    c_inc = _confidence_increments(model, model.log_prior + loglik, refs)
    dec = decisions_from_increments(c_inc, refs, rule)
    psi, phi = {}, {}
    for i in refs:
        declare_mass = mass[dec == i].sum(axis=0)   # P_h[declare i] per h
        psi[i] = float(declare_mass[i])
        w = np.array([model.prior[j] / (1.0 - model.prior[i]) if j != i else 0.0
                      for j in range(M)])
        phi[i] = float(np.dot(w, declare_mass))
    return ExactReport(psi=psi, phi=phi, gamma=_gamma(model, phi),
                       leaves=int(mult.sum()), states=states)


# ---------------------------------------------------------------------------
# Threshold calibration and the sweep driver
# ---------------------------------------------------------------------------

def best_threshold_search(model: HypothesisModel, spec: StrategySpec, N: int,
                          epsilon: float, trials: int, tol: float = 1e-6,
                          seed: int = 0, workers: int = 0,
                          c_inc: np.ndarray | None = None) -> float:
    """Largest threshold theta with psi_hat >= 1 - epsilon.

    Bisection over theta; every probe reuses the same calibration batch
    (common random numbers), so psi_hat(theta) is monotone and the
    search is exact up to `tol`.  Increments are bounded by N*B, hence
    the bracket below is always feasible at its lower end.
    """
    i = spec.reference
    if c_inc is None:
        c_inc, _ = simulate_measure(model, spec, N, i, trials, seed,
                                    PURPOSE_CALIBRATE, refs=(i,),
                                    workers=workers)
    inc = np.sort(np.asarray(c_inc).ravel())
    bound = N * model.llr_bound + 1.0
    lo, hi = -bound, bound
    need = 1.0 - epsilon

    def psi_at(theta):
        # fraction of increments >= theta
        return 1.0 - np.searchsorted(inc, theta, side="left") / inc.size

    if psi_at(lo) < need:
        raise RuntimeError("calibration failed at the lower bracket; "
                           "trial budget too small to certify epsilon")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if psi_at(mid) >= need:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass
class SweepRow:
    """One CSV row of a figure sweep."""

    strategy: str
    N: int
    epsilon: float
    theta: float
    psi_hat: float
    psi_se: float
    log_inv_phi: float
    log_inv_phi_se: float
    gamma_hat: float
    weak_bound: float      # rate bound, nats per step
    strong_bound: float    # absolute bound, nats
    seed: int

    @property
    def phi_db(self) -> float:
        """10 log10(1/phi), from log_inv_phi."""
        return float(nats_to_db(self.log_inv_phi))


CSV_COLUMNS = ("strategy", "N", "epsilon", "theta", "psi_hat", "psi_se",
               "log_inv_phi", "log_inv_phi_se", "phi_db", "gamma_hat",
               "weak_bound", "strong_bound", "seed")


def fmt9(x) -> str:
    """Floats at 9 significant digits for CSV cells."""
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def rows_to_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(fmt9(getattr(r, c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def sweep(model: HypothesisModel, kinds, reference: int, horizons,
          trials: int, seed: int, epsilon_fn=default_epsilon,
          strong: str = "none", nu: float | None = None,
          workers: int = 0, inner_kind: str = "das") -> list[SweepRow]:
    """Evaluate each (strategy kind, horizon) cell.

    Asymmetric kinds: calibrate the threshold empirically on a dedicated
    batch, then estimate psi and ln(1/phi) (log-sum-exp channel) on a
    fresh batch; bound columns use the weak rate bound and the selected
    strong channel ("binary" needs `nu`, "empirical" reuses the
    estimation batch's weighted-LLR samples, "none" leaves it infinite).

    The symmetric composite row reports min_i psi_hat, gamma via the
    log-sum-exp channel and ln(1/gamma) in the log_inv_phi column.

    Rows come in the order of `kinds`, then of `horizons`; a repeated
    horizon is simulated once.  A kind whose spec is horizon_free()
    (``ors``, ``chernoff-det``) runs its ascending distinct horizons in
    groups, one calibration and one estimation run to each group's
    longest, and the group's other horizons take their trials' state on
    the way there: the same bits as runs of their own.  A group holds
    as many horizons as fit _SHARED_BYTES of results (13 at 100 000
    trials, 170 at 8192), so memory does not grow with the horizon
    list.  Other kinds run each horizon on its own.
    """
    if strong not in ("none", "binary", "empirical"):
        raise ValueError(f"unknown strong-bound channel {strong!r}")
    if strong == "binary" and nu is None:
        raise ValueError("the binary closed-form strong bound needs nu")
    horizons = list(horizons)
    rows = []
    for kind in kinds:
        made = {}
        if kind == "symmetric":
            for N in dict.fromkeys(horizons):
                eps = epsilon_fn(N)
                spec, rule = symmetric_setup(model, N, eps, inner_kind)
                rep = estimate(SimulationConfig(model, spec, rule, N, trials,
                                                seed, workers))
                gamma = rep.gamma_hat_lse
                made[N] = SweepRow(
                    strategy=kind, N=N, epsilon=eps,
                    theta=min(rule.thresholds.values()),
                    psi_hat=min(rep.psi_hat.values()),
                    psi_se=max(rep.psi_se.values()),
                    log_inv_phi=-math.log(gamma) if gamma > 0 else math.inf,
                    log_inv_phi_se=rep.gamma_lse_se / gamma if gamma > 0 else math.nan,
                    gamma_hat=gamma,
                    weak_bound=min(bounds_mod.weak_converse(inner.game, model, N, eps)
                                   for inner in spec.inner),
                    strong_bound=math.inf, seed=seed)
        else:
            cells = {}
            for N in horizons:
                if N not in cells:
                    eps = epsilon_fn(N)
                    cells[N] = (eps, build_strategy(model, kind, N, reference=reference,
                                                    epsilon=eps))
            stops = sorted(cells)
            size = 1
            if stops and cells[stops[0]][1].horizon_free():
                size = max(1, _SHARED_BYTES // (24 * trials))
            for g in range(0, len(stops), size):
                group = stops[g:g + size]
                spec = cells[group[-1]][1]
                zw = spec.game.beta_star if strong == "empirical" else None
                cal, _ = simulate_measure(model, spec, group[-1], reference, trials,
                                          seed, PURPOSE_CALIBRATE, refs=(reference,),
                                          workers=workers, snapshots=group[:-1])
                inc, z = simulate_measure(model, spec, group[-1], reference, trials,
                                          seed, PURPOSE_ESTIMATE, refs=(reference,),
                                          zbar_weights=zw, workers=workers,
                                          snapshots=group[:-1])
                for k, N in enumerate(group):
                    made[N] = _sweep_row(model, kind, reference, N, *cells[N], cal[k],
                                         inc[k], None if z is None else z[k],
                                         trials, seed, strong, nu)
        rows.extend(replace(made[N]) for N in horizons)
    return rows


def _sweep_row(model, kind, reference, N, eps, spec, cal_inc, c_inc, zbar,
               trials, seed, strong, nu) -> SweepRow:
    """One asymmetric sweep row from its calibration increments, its
    estimation increments and (strong="empirical") its weighted LLRs."""
    theta = best_threshold_search(model, spec, N, eps, trials, c_inc=cal_inc)
    rule = empirical_rule(reference, theta, eps)
    dec = decisions_from_increments(c_inc, (reference,), rule)
    psi, psi_se, est = _batch_estimates(c_inc, 0, dec, reference)
    weak = bounds_mod.weak_converse(spec.game, model, N, eps)
    if strong == "binary":
        strong_abs = bounds_mod.strong_bound_binary_example(N, nu, eps)
    elif strong == "empirical":
        h1 = bounds_mod.cross_entropy_start(model, spec.game)
        _, strong_abs = bounds_mod.strong_converse_sweep(zbar, h1, eps)
    else:
        strong_abs = math.inf
    return SweepRow(
        strategy=kind, N=N, epsilon=eps, theta=theta, psi_hat=psi,
        psi_se=psi_se, log_inv_phi=est.log_inv_phi, log_inv_phi_se=est.se,
        gamma_hat=_gamma_lse(model, {reference: est})[0],
        weak_bound=weak, strong_bound=strong_abs, seed=seed)
