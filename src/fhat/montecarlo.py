"""Monte Carlo and exact-enumeration evaluation of (strategy, rule) pairs.

The simulation engine is vectorized over trials and organized in
fixed-size chunks of 8192 trials.  Chunk c of the stream (seed, purpose,
hypothesis) draws its randomness from its own jump-ahead generator seeded
from exactly those integers (_chunk_draws), and a trial's experiment
picks depend on its own state alone, so results are bit-identical for
any worker count and any trial budget that covers the same trials.
Plain ``ors`` samples a step's experiment and observation from one draw
(_sampling_thresholds).
Where that state lies on a small likelihood-ratio lattice, the engine
reads its picks from a table that the selector fills at every point of
the lattice box before any trial runs (_pick_table), so a step never
calls the selector.  The pick is a function of the point whatever the
chunk, purpose or true hypothesis, so the table of a (spec, horizon),
made once and kept in the spec, serves all of its chunks and runs, and
comparing two specs' picks over a box decides before running whether a
shorter horizon shares a sweep run (_shares).

Where selection reads no belief, on a pick table or under ``ors``, a
trial's whole state is its point of the statistic lattice, the
likelihood ratios among all hypotheses over the experiments the rule
can pick (_stat_box), packed with its pick key into one int64: a step
adds one key step, no float row, and the confidence increments and
weighted LLRs are decoded from the final points, each distinct point
once (_key_statistics).  They are a function of the point, so trials
at one point get the same bits, and exact enumeration decodes its
states the same way.  Other runs carry
float log beliefs, and LLRs where asked, as path sums.

phi is reported through two channels: the plain declaration frequency
under the alternate mixture (sanity channel, useless once phi is tiny)
and the log-sum-exp estimator run under the reference measure, which
targets phi exactly for deterministic threshold rules and stays accurate
down to e^{-hundreds}.  One summary (_summarize) makes a cell's psi, its
SE and the log-sum-exp phi and gamma for estimate() and sweep alike.

Exact enumeration of any strategy merges the paths that reach the same
point of the likelihood lattice (the prime exponents of their
likelihood products, or their observation counts n[u, y] on a model
that is not written in short decimals): they share their picks (one
per piece of the draw's range for a rule that samples) and their
probability under each hypothesis, so the work follows the number of
distinct lattice states (polynomial in N) rather than of paths.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import bounds as bounds_mod
from .belief import (confidence, cross_entropy, log_odds, new_trajectory,
                     prior_belief, step_trajectory)
from .model import HypothesisModel, llr_table, ratio_lattice
from .numerics import largest_remainder_allocation, nats_to_db
# select_experiment is not called here; perfbench's tracer wraps it
# under this module's name as well as strategy's
from .strategy import (InferenceRule, StrategySpec, build_strategy,
                       decisions_from_increments, default_epsilon,
                       empirical_rule, mixture_cuts, pickable_experiments,
                       reads_draws, select_experiment, symmetric_setup)
from .strategy import select_batch as _select_batch

CHUNK = 8192
# the chunk generator, by name: recorded in every manifest, and looked
# up at call time so that importing fhat does not import numpy.random
STREAM_RNG = "PCG64DXSM"
ENUM_STATE_CAP = 1 << 18  # live lattice states (bounds enumeration memory)
PICK_TABLE_CAP = 1 << 20  # entries of a run's pick table (one byte each)
JACKKNIFE_BATCHES = 100
THRESHOLD_TOL = 1e-6   # width of the calibrated threshold's bisection bracket
# Results one sweep group may hold: 8 bytes per trial and horizon times
# max(3, runs x references), see sweep.
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


def _lattice_box(K: np.ndarray, N: int, cap: int):
    """(dk, key0, lo, width) packing mixed-radix the box of lattice
    points K.T @ n that N steps can reach, corner lo and width[k] points
    along column k (the first column the fastest), into keys in
    [0, prod(width)), or None when that size exceeds `cap`: a path's key
    is key0 plus dk[u*Y + y] per observation, every partial sum in the
    range, so int64 for a cap of at most 2**63."""
    lo = [N * min(int(c.min()), 0) for c in K.T]
    width = [N * max(int(c.max()), 0) - a + 1 for a, c in zip(lo, K.T)]
    if math.prod(width) > cap:
        return None
    stride = np.cumprod([1, *width], dtype=np.int64)[:-1]
    return K @ stride, -int(np.dot(lo, stride)), lo, width


def _key_coords(keys: np.ndarray, lo, width):
    """The coordinates of the points with keys `keys` in the box of
    corner lo and widths `width` that _lattice_box packs: one int64
    array per key column, made as it is asked for."""
    for a, w in zip(lo, width):
        keys, c = np.divmod(keys, w)
        yield c + a


def _lattice_rows(base: np.ndarray, G: np.ndarray, coords) -> np.ndarray:
    """base + P @ G at the points P whose coordinates along the key
    columns are the int arrays `coords`, summed in column order,
    ((base + c0 G[0]) + c1 G[1]) + ..., with no matrix product (BLAS
    rounds by the row count): a point gets the same bits whatever the
    other points.  Row G[k] lies along the first axis, broadcast against
    base and coords[k]."""
    rows = base
    for g, c in zip(G, coords):
        term = g.reshape(-1, *(1,) * c.ndim) * c
        # in place once rows is a new array of the full shape: the same
        # bits, with one array fewer alive
        if rows is not base and np.broadcast_shapes(rows.shape, term.shape) == rows.shape:
            rows += term
        else:
            rows = rows + term
    return rows


def _box_rows(spec: StrategySpec, N: int):
    """Blocks (a, rows) of the representative rows of spec's key box at
    N, in key order: rows[k] is log prior + P @ G at the point P of key
    a + k (G is spec.pick_ratios), by _lattice_rows.

    A block holds whole lines of the box, keys along key column 0 with
    the others fixed, at most CHUNK rows, or a CHUNK-point piece of a
    longer line; each other column's coordinate is decoded once per
    line from the line index alone.  Its rows are the transpose of an
    (M, rows) array, so the selector reads each column contiguous."""
    _, _, lo, width = _lattice_box(spec.pick_key, N, PICK_TABLE_CAP)
    lp = spec.model.log_prior[:, None, None]    # (M, lines, points)
    w0 = width[0] if width else 1     # a rank-0 key is one row
    piece = min(w0, CHUNK)
    lines, per_block = math.prod(width[1:]), CHUNK // piece
    for start in range(0, lines, per_block):
        rest = [c[:, None] for c in _key_coords(
            np.arange(start, min(start + per_block, lines)), lo[1:], width[1:])]
        for p in range(0, w0, piece):
            c0 = [np.arange(lo[0] + p, lo[0] + min(p + piece, w0))[None, :]] if width else []
            rows = _lattice_rows(lp, spec.pick_ratios, c0 + rest)
            yield start * w0 + p, rows.reshape(lp.size, -1).T


def _has_table(spec: StrategySpec, N: int) -> bool:
    """True when runs of `spec` to N read their picks from a _pick_table:
    spec has a pick key, and its box at N fits PICK_TABLE_CAP."""
    return (spec.pick_key is not None
            and _lattice_box(spec.pick_key, N, PICK_TABLE_CAP) is not None)


def _pick_table(spec: StrategySpec, N: int):
    """(table, dk, key0) for runs of `spec` to horizon N where it has
    one (_has_table), else None.  A trial's key is its point of the
    lattice K.T @ n (spec.pick_key, n its observation counts) packed by
    _lattice_box.  Equal keys mean equal likelihood ratios among the
    hypotheses selection reads (the key spans the experiments the rule
    can pick, the only ones its trials observe), so the pick is a
    function of the key.  The table holds the pick u at every point of
    the box as its row base u * Y, made block by block from the
    representative rows of _box_rows, before any trial runs, so it
    serves every chunk, stream purpose and true hypothesis of `spec` at
    N without a selector call.  The table is made once per (spec, N)
    and kept in the spec, which a pickle carries along."""
    tables = spec._pick_tables
    if N not in tables and _has_table(spec, N):
        _, U, Y = spec.model.kernel.shape
        dk, key0, _, width = _lattice_box(spec.pick_key, N, PICK_TABLE_CAP)
        table = np.empty(math.prod(width), dtype=np.min_scalar_type((U - 1) * Y))
        for a, rows in _box_rows(spec, N):
            table[a:a + len(rows)] = _select_batch(spec, rows, None) * Y
        tables[N] = table, dk, key0
    return tables.get(N)


def _shares(spec: StrategySpec, N: int, other: StrategySpec, n: int) -> bool:
    """True when runs of `other`, built for horizon n < N, are the first
    n steps of runs of `spec` to N, bit for bit: when both carry their
    state alike, on the statistic lattice or in floats (_stat_box), and
    spec is horizon_free(), or other has spec's pick key and picks as
    spec's _pick_table at N at every point of its own (n - 1)-step box,
    every key a trial reads in its first n steps.  The comparison runs
    block by block (_box_rows) and stops at the first that differs."""
    if (_stat_box(spec, N) is None) != (_stat_box(other, n) is None):
        return False
    if spec.horizon_free():
        return True
    table = _pick_table(spec, N)
    if table is None or not np.array_equal(other.pick_key, spec.pick_key):
        return False
    _, _, lo, width = _lattice_box(spec.pick_key, N, PICK_TABLE_CAP)
    _, _, lo_n, width_n = _lattice_box(spec.pick_key, n - 1, PICK_TABLE_CAP)
    # the packed table as an array, its first key column the last axis,
    # sliced to the (n - 1)-step box and flattened in that box's key order
    sub = table[0].reshape(width[::-1])[tuple(
        slice(b - a, b - a + w) for a, b, w in zip(lo, lo_n, width_n))[::-1]].ravel()
    Y = spec.model.num_observations
    return all(np.array_equal(_select_batch(other, rows, None) * Y, sub[a:a + len(rows)])
               for a, rows in _box_rows(other, n - 1))


def _confidence_increments(model: HypothesisModel, lb: np.ndarray,
                           refs) -> np.ndarray:
    """C_i(final) - C_i(prior), both by belief.log_odds, for each reference
    i, from unnormalized final log beliefs (the normalization shift cancels)."""
    prior = prior_belief(model)
    out = np.empty((lb.shape[0], len(refs)))
    for col, i in enumerate(refs):
        out[:, col] = log_odds(lb, i) - confidence(prior, i)
    return out


def _stat_box(spec: StrategySpec, N: int):
    """(K, G, box, shift) where runs of `spec` to N carry their point of
    the statistic lattice, else None.  (K, G) is the ratio_lattice of
    every hypothesis over the experiments the rule can pick
    (pickable_experiments; the symmetric composite's pick lattice is
    that already, and is used as it is), box its _lattice_box at N.
    On a pick table of another lattice, a trial's one int64 key is its
    statistic key shifted left by `shift`, the bit length of the pick
    box's size, plus its pick key, and box's (dk, key0) step it so;
    elsewhere shift is 0.  Runs carry the point where selection reads no
    belief, under ``ors`` or on a pick table (_has_table), and the
    packed box fits int64.  The answer is made once per (spec, N), the
    lattice only for such runs, and kept in the spec like the pick
    tables: a spec made by dataclasses.replace makes its own."""
    boxes = spec._stat_boxes
    if N not in boxes:
        stat, table = None, _has_table(spec, N)
        if spec.kind == "ors" or table:
            lattice, pick = (spec.pick_key, spec.pick_ratios), None
            if spec.kind != "symmetric":
                lattice = ratio_lattice(spec.model, range(spec.model.num_hypotheses),
                                        pickable_experiments(spec))
                if table:
                    pick = _lattice_box(spec.pick_key, N, PICK_TABLE_CAP)
            shift = math.prod(pick[3]).bit_length() if pick else 0
            box = None if lattice is None else _lattice_box(lattice[0], N, 1 << (63 - shift))
            if box is not None:
                dk, key0, lo, width = box
                if pick:
                    dk, key0 = (dk << shift) + pick[0], (key0 << shift) + pick[1]
                stat = (*lattice, (dk, key0, lo, width), shift)
        boxes[N] = stat
    return boxes[N]


def _key_statistics(model: HypothesisModel, stat, keys: np.ndarray, refs: tuple,
                    zbar_weights) -> tuple:
    """(c_inc, zbar) of trials with the keys `keys` (statistic keys
    keys >> shift) of the statistic lattice (K, G, box, shift) = stat
    (_stat_box), as _simulate_chunk returns them for one horizon; zbar
    is None without `zbar_weights`.  Each distinct point is decoded
    once, column by column (_key_coords, _lattice_rows), into its log
    beliefs lb = log prior + P @ G.  They give the increments, and the
    LLRs of i = refs[0] against each alternate j, z_j = (lb_i - lb_j) -
    (log prior_i - log prior_j), weighted in ascending order.  A point's
    results do not depend on the other keys, so enumerate_exact gives a
    state the bits a trial at its point gets."""
    _, G, (_, _, lo, width), shift = stat
    points, at = np.unique(keys >> shift, return_inverse=True)
    lb = _lattice_rows(model.log_prior[:, None], G, _key_coords(points, lo, width))
    c_inc = _confidence_increments(model, lb.T, refs).take(at, axis=0)
    if zbar_weights is None:
        return c_inc, None
    i, lp = refs[0], model.log_prior
    zbar = 0.0
    for w, j in zip(zbar_weights, model.alternates(i)):
        zbar = zbar + ((lb[i] - lb[j]) - (lp[i] - lp[j])) * w
    return c_inc, zbar.take(at)


def _padded(a: np.ndarray) -> np.ndarray:
    """A copy of `a`, a zero column appended when it has 3 (_simulate_chunk)."""
    n = a.shape[1]
    out = np.zeros((a.shape[0], 4 if n == 3 else n))
    out[:, :n] = a
    return out


def _sampling_thresholds(model: HypothesisModel, spec: StrategySpec,
                         true_hyp: int) -> np.ndarray:
    """T, (U, Y - 1), to sample y = #{k : T[u, k] <= r} under X =
    true_hyp: the cumulative kernel cum but its last column, the clip to
    the last symbol.  Plain ``ors`` reads the draw r that picked u in
    [lo_u, hi_u) (mixture_cuts), and T[u, k] = min(lo_u + (hi_u - lo_u)
    cum[u, k], hi_u) gives (u, y) probability alpha_u p(y | u)."""
    T = np.cumsum(model.kernel[true_hyp], axis=1)[:, :-1]
    if spec.kind != "ors":
        return T
    cuts = mixture_cuts(spec)[0]
    a, b = cuts[:-1, None], cuts[1:, None]
    return np.minimum(a + (b - a) * T, b)


def _simulate_chunk(model: HypothesisModel, spec: StrategySpec, horizons: tuple,
                    true_hyp: int, master_seed: int, purpose: int,
                    chunk_idx: int, lo: int, hi: int, refs: tuple,
                    zbar_weights: np.ndarray | None, path: list | None = None):
    """Simulate trials lo..hi-1 of one chunk to the last of the ascending
    `horizons`, and return (c_inc, zbar) stacked over them; a list
    `path` gets each step's (u, y) arrays appended.

    Each step draws only the randoms of those rows and skips the rest of
    the chunk's (_chunk_draws), and those a rule never reads (plain
    ``ors`` samples y from the experiment draw, _sampling_thresholds).
    Either way the stream layout does not depend on the rule, and a
    row's results are the same bits in any range that holds it (prefix
    stability, one-row run_trial).  A trial's first n steps are the same
    for every horizon >= n, so the state at each horizon is recorded on
    the way to the last; a run of one horizon is the tuple (N,).

    spec's _pick_table at the last horizon, where it has one (a sweep
    runs shorter horizons on it only where they pick alike, _shares),
    gives a step each trial's row base u * Y with one take; the pick
    there is the one the selector gives the trial's beliefs.  A trial
    carries one int64 key, stepped by its row u * Y + y: where selection
    reads no belief, on that table or under ``ors``, and the packed box
    of spec's statistic lattice fits int64 at the last horizon
    (_stat_box), its point of that lattice, its whole state, packed with
    its pick key, which _key_statistics decodes at each horizon.

    Otherwise the key is the pick key alone, if there is a table, and
    the state is a row of floats per trial: log beliefs lb, and the
    LLRs z when zbar is asked for, each step adding its observation's
    row, and every step without a table runs the selector on lb.  Rows
    of 3 floats, and the increment rows a step gathers for them, are
    _padded to 4: ndarray.take copies 32-byte items on a fast path,
    24-byte ones not.  Pads stay 0, unread, also by the selector, so the
    symmetric composite's row gather takes the fast path too."""
    M, U, Y = model.kernel.shape
    if horizons[0] < 0:
        raise ValueError(f"horizon must be >= 0, got {horizons[0]}")
    if not 0 <= true_hyp < M:
        raise ValueError(f"true hypothesis {true_hyp} outside [0, {M})")
    if chunk_idx < 0:
        raise ValueError(f"trial index must be >= 0, got {chunk_idx * CHUNK + lo}")
    gen = _chunk_generator(master_seed, purpose, true_hyp, chunk_idx)
    reads = reads_draws(spec)
    joint = spec.kind == "ors"
    cols = np.zeros((Y - 1, U * Y))     # column k of T by row base u * Y
    cols[:, ::Y] = _sampling_thresholds(model, spec, true_hyp).T
    track_z = zbar_weights is not None
    table = _pick_table(spec, horizons[-1])
    stat = _stat_box(spec, horizons[-1])
    # one int64 key per trial, stepped by its rows: the packed statistic
    # key where there is one, else the pick key where there is a table
    exp_draws = key = None
    shift = 0
    if stat is not None:
        (key_steps, key0, _, _), shift = stat[2:]
    elif table is not None:
        _, key_steps, key0 = table
    if stat is not None or table is not None:
        key = np.full(hi - lo, key0, dtype=np.int64)
    if table is not None:
        picks, mask = table[0], (1 << shift) - 1
        pick_key = np.empty_like(key) if shift else key
        # rows in the narrowest type that holds every row, as a rule the
        # table's own, so a step adds y to the row bases in place
        row_type = np.min_scalar_type(U * Y - 1)
    if stat is None:
        lbw = _padded(np.tile(model.log_prior, (hi - lo, 1)))
        lb = lbw[:, :M]
        # belief and LLR increments as flat rows, row u*Y + y
        logk_rows = _padded(model.log_kernel.transpose(1, 2, 0).reshape(U * Y, M))
        if track_z:
            llr_rows = _padded(llr_table(model, refs[0]).transpose(1, 2, 0).reshape(U * Y, -1))
            z = _padded(np.zeros((hi - lo, M - 1)))
    c_incs, zbars = [], []
    step = 0
    for stop in horizons:
        for t in range(step, stop):
            if reads:
                exp_draws = _chunk_draws(gen, lo, hi)
            else:   # where drawing the chunk's uniforms leaves it
                gen.bit_generator.advance(CHUNK)
            if joint:
                gen.bit_generator.advance(CHUNK)
                obs_draws = exp_draws
            else:
                obs_draws = _chunk_draws(gen, lo, hi)
            if table is not None:
                if shift:
                    np.bitwise_and(key, mask, out=pick_key)
                row = picks.take(pick_key).astype(row_type, copy=False)
            else:
                row = _select_batch(spec, lbw if stat is None else None, exp_draws)
                row *= Y    # the selector's array is a new one
            # the thresholds at the row base u * Y, before y is added
            for cut in [col.take(row) for col in cols]:
                row += (obs_draws >= cut).view(np.uint8)
            if path is not None:
                path.append(((row // Y).astype(np.int64), (row % Y).astype(np.int64)))
            if key is not None:
                key += key_steps.take(row)
            if stat is None:
                lbw += logk_rows.take(row, axis=0)
                if track_z:
                    z += llr_rows.take(row, axis=0)
        step = stop
        if stat is not None:
            c_inc, zbar = _key_statistics(model, stat, key, refs, zbar_weights)
        else:
            c_inc = _confidence_increments(model, lb, refs)
            if track_z:
                # weighted column sum in fixed order: the same bits for a
                # trial whatever the number of rows in its chunk
                zbar = z[:, 0] * zbar_weights[0]
                for k in range(1, M - 1):
                    zbar += z[:, k] * zbar_weights[k]
        c_incs.append(c_inc)
        if track_z:
            zbars.append(zbar)
    return np.stack(c_incs), np.stack(zbars) if track_z else None


def _chunk_block(args):
    """The results of chunks first..last-1 of a run of `trials` trials."""
    (model, spec, horizons, true_hyp, master_seed, purpose, first, last,
     trials, refs, w) = args
    return [_simulate_chunk(model, spec, horizons, true_hyp, master_seed, purpose,
                            c, 0, min(CHUNK, trials - c * CHUNK), refs, w)
            for c in range(first, last)]


def simulate_measure(model: HypothesisModel, spec: StrategySpec, N: int,
                     true_hyp: int, trials: int, master_seed: int,
                     purpose: int = PURPOSE_ESTIMATE, refs: tuple = (),
                     zbar_weights=None, workers: int = 0,
                     snapshots=None):
    """Run `trials` trials of N steps under X = true_hyp.

    Returns (c_inc, zbar): confidence increments per requested reference
    hypothesis, and the weighted total-LLR samples when `zbar_weights`
    is given (weights over the alternates of refs[0]).  Rules other than
    ``ors`` never read the experiment draws, and plain ``ors`` never
    reads the observation draws, so no step makes them (the stream
    advances past them).

    `snapshots`, strictly ascending horizons below N, also records the
    trials' state at each of them on the same run (a trial's first n
    steps do not depend on the horizon).  When it is given, even as an
    empty tuple, c_inc and zbar have a leading axis over
    (*snapshots, N), and entry k is bit for bit what a run of that
    many steps returns; without it they are entry -1 alone.

    Every chunk reads its picks from spec's _pick_table at N, where it
    has one, made here before any chunk runs unless an earlier run of
    spec to N made it.  With `workers` > 1 each worker runs a contiguous
    block of chunks on a copy of spec that carries that table; a chunk's
    stream does not depend on its block, so the results do not either.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if N < 0:   # before a table for N is made
        raise ValueError(f"horizon must be >= 0, got {N}")
    if snapshots is not None:
        snapshots = tuple(int(n) for n in snapshots)
        if any(not 0 <= a < b for a, b in zip(snapshots, (*snapshots[1:], N))):
            raise ValueError("snapshots must be strictly ascending horizons in [0, N)")
    # in this process, before a pool copies spec
    _pick_table(spec, N)
    _stat_box(spec, N)
    refs = tuple(refs) if refs else (true_hyp,)
    horizons = (*(snapshots or ()), N)
    w = None if zbar_weights is None else np.asarray(zbar_weights, dtype=float)
    n_chunks = (trials + CHUNK - 1) // CHUNK
    task = (model, spec, horizons, true_hyp, master_seed, purpose)
    if workers and workers > 1 and n_chunks > 1:
        # imported here: its modules take about 10 ms to import, which
        # serial runs never need
        from concurrent.futures import ProcessPoolExecutor
        blocks = min(workers, n_chunks)
        edges = [b * n_chunks // blocks for b in range(blocks + 1)]
        tasks = [(*task, a, b, trials, refs, w)
                 for a, b in zip(edges, edges[1:])]
        # one process per block: under fork the pool starts them all at once
        with ProcessPoolExecutor(max_workers=blocks) as pool:
            results = [r for block in pool.map(_chunk_block, tasks) for r in block]
    else:
        results = _chunk_block((*task, 0, n_chunks, trials, refs, w))
    c_inc = np.concatenate([r[0] for r in results], axis=1)
    zbar = None
    if w is not None:
        zbar = np.concatenate([r[1] for r in results], axis=1)
    if snapshots is None:
        return c_inc[-1], None if zbar is None else zbar[-1]
    return c_inc, zbar


def run_trial(model: HypothesisModel, spec: StrategySpec, rule: InferenceRule,
              N: int, true_hypothesis: int, seed: int, trial_index: int = 0):
    """Trial `trial_index` of the estimation stream: the engine run on
    its one row, so it takes the engine's path, on spec's pick table at
    N where it has one, and gets the engine's decision (None to abstain)
    bit for bit, for every strategy kind.  The trajectory, for the
    rule's first hypothesis, steps the belief layer along that path."""
    chunk_idx, row = divmod(trial_index, CHUNK)
    refs = tuple(sorted(rule.thresholds))
    path = []
    c_inc, _ = _simulate_chunk(model, spec, (N,), true_hypothesis, seed,
                               PURPOSE_ESTIMATE, chunk_idx, row, row + 1, refs,
                               None, path)
    traj = new_trajectory(model, refs[0])
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


def estimate_phi_lse(c_inc: np.ndarray, accepted: np.ndarray) -> LsePhiEstimate:
    """phi = E_i[exp(-(C_inc - ln 1_accept))]; estimate ln(1/phi) as
    ln T - logsumexp(-C_inc over accepted trials).  Declined trials
    contribute exp(-inf) = 0.  SE by jackknife over JACKKNIFE_BATCHES
    equal trial batches (fewer when T is smaller).
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

    batches = min(JACKKNIFE_BATCHES, T)
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
    """One (strategy, horizon) cell's estimates from `trials` trials at
    `seed`, keyed by hypothesis i: psi_hat[i], the rate of declaring i
    under X = i, and its binomial SE psi_se[i]; lse[i], the log-sum-exp
    ln(1/phi(i)), primary for small phi; gamma_hat_lse, gamma from it,
    and its SE gamma_lse_se.  _summarize fills these for estimate() and
    sweep, whose rows _sweep_row reads from the report.  estimate() alone
    fills the plain mixture channel phi_hat[i], phi_se[i] and gamma_hat.
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


def _gamma(model: HypothesisModel, phi: dict) -> float:
    """gamma = sum_i (1 - prior(i)) phi(i) over the hypotheses in `phi`."""
    return sum((1.0 - model.prior[i]) * p for i, p in phi.items())


def _summarize(model: HypothesisModel, rule: InferenceRule,
               report: SimulationReport, runs) -> dict:
    """Fill `report` from the estimation batches (h, c_inc) in `runs`,
    increments under X = h, made one at a time if need be, and return
    each batch's decisions by h: psi_hat, its binomial psi_se and the
    log-sum-exp lse of each hypothesis the rule thresholds, from the
    batch under it, then gamma_hat_lse and gamma_lse_se (a lower-bound
    estimate counts as phi = 0).  A symmetric rule warns, naming the
    caller of estimate or sweep, where some psi_hat is below
    1 - epsilon by more than 3 of its SE: a missed hit constraint."""
    refs = tuple(sorted(rule.thresholds))
    decisions = {}
    for h, c_inc in runs:
        dec = decisions[h] = decisions_from_increments(c_inc, refs, rule)
        if h in rule.thresholds:
            hit = dec == h
            psi = report.psi_hat[h] = float(np.mean(hit))
            report.psi_se[h] = math.sqrt(psi * (1 - psi) / hit.size)
            report.lse[h] = estimate_phi_lse(c_inc[:, refs.index(h)], hit)
    phi = {i: 0.0 if e.is_lower_bound else math.exp(-e.log_inv_phi)
           for i, e in report.lse.items()}
    report.gamma_hat_lse = _gamma(model, phi)
    report.gamma_lse_se = math.sqrt(sum(
        ((1.0 - model.prior[i]) * phi[i] * e.se) ** 2 for i, e in report.lse.items()
        if not e.is_lower_bound and np.isfinite(e.se)))
    if rule.kind == "symmetric":
        eps, se = rule.epsilon, report.psi_se
        short = [f"hypothesis {model.hypotheses[i]} at {psi:.4g} (SE {se[i]:.2g})"
                 for i, psi in report.psi_hat.items() if psi < 1 - eps - 3 * se[i]]
        if short:
            warnings.warn(f"symmetric at N = {report.horizon}: psi_hat is below 1 - "
                          f"epsilon = {1 - eps:.4g} by more than 3 SE for "
                          + ", ".join(short), RuntimeWarning, stacklevel=3)
    return decisions


def estimate(config: SimulationConfig) -> SimulationReport:
    """Monte Carlo estimates of psi, phi (both channels) and gamma.

    psi_hat(i) and the log-sum-exp channel come from the estimation batch
    under X = i.  The symmetric rule runs such a batch under every
    hypothesis, and its plain phi_hat(i) is the stratified sum of the
    other batches' rates of declaring i, weighted prior(j)/(1 - prior(i)).
    Otherwise phi_hat(i) comes from trials under the alternate mixture
    with those weights, allocated by largest remainder.

    All of these runs read their picks from one pick table (_pick_table).
    """
    model, rule, T = config.model, config.rule, config.trials
    refs = tuple(sorted(rule.thresholds))
    symmetric = rule.kind == "symmetric"
    report = SimulationReport(horizon=config.horizon, trials=T, seed=config.seed)

    def run(h, trials, purpose):
        return simulate_measure(model, config.spec, config.horizon, h, trials, config.seed,
                                purpose, refs=refs, workers=config.workers)[0]

    dec_by_hyp = _summarize(model, rule, report, (
        (h, run(h, T, PURPOSE_ESTIMATE))
        for h in (range(model.num_hypotheses) if symmetric else refs)))
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
                    hits += int(np.sum(decisions_from_increments(
                        run(j, int(t_j), PURPOSE_MIXTURE), refs, rule) == i))
            phi = hits / T
            report.phi_hat[i], report.phi_se[i] = phi, math.sqrt(phi * (1 - phi) / T)

    report.gamma_hat = _gamma(model, report.phi_hat)
    return report


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactReport:
    """Exact psi/phi per hypothesis and overall gamma; `leaves` is the
    number of paths, each weighed by the probability of the draws that
    pick its experiments (an int where that sum is whole, as for every
    rule that reads no draws, else a float), and `states` the most
    lattice states live at once."""

    psi: dict
    phi: dict
    gamma: float
    leaves: int | float
    states: int


def enumerate_exact(model: HypothesisModel, spec: StrategySpec,
                    rule: InferenceRule, N: int) -> ExactReport:
    """Exact (psi_N, phi_N, gamma_N) of any strategy, by a dynamic
    program over likelihood-lattice states level by level.

    A path's state is its point K.T @ n (n its counts n[u, y]) of the
    lattice K of ratio_lattice(model, [None, *hypotheses]), or of the
    identity on the support (the counts) for a model not written in
    short decimals.  Paths to one point have the same likelihood under
    each hypothesis, exactly, so they merge: a state keeps its point
    (one int64 when _lattice_box fits one, else a row of narrow
    coordinates), the log-likelihood row of its first child in the
    level's order and its path multiplicity; its mass is the
    multiplicity times exp(loglik).

    The cuts of the sampling mixtures (``ors``, alone or as the
    symmetric composite's inner rule) split [0, 1) into pieces on each
    of which every draw picks the same; a rule that reads no draws has the
    one piece [0, 1).  A level picks once per state and piece, on log
    prior plus loglik with the piece's left edge as the draw, expands
    each (state, piece) over the pick's support with the multiplicity
    times the piece's length, and merges equal points, so the cost
    follows the number of states, not of paths; more than
    ENUM_STATE_CAP live states raise ValueError (the module constant,
    read at call time).  Multiplicities past 2**960 are scaled down by
    exact powers of two, so they stay finite past 2**1024 paths.
    Probabilities are exact to 64-bit rounding, and `leaves`, the summed
    multiplicity, is exact below 2**53 paths.

    Where runs of spec to N carry their point of the statistic lattice
    (_stat_box), a state also keeps the key of its point there, the same
    for every path it merges, and its confidence increments are
    _key_statistics of that key: a trial's c_inc equals, bit for bit,
    the one its final state gets here.  Elsewhere they come from the
    state's log-likelihood row.
    """
    M, U, Y = model.kernel.shape
    logk_rows = model.log_kernel.transpose(1, 2, 0).reshape(U * Y, M)
    cuts = (c for s in (spec, *(spec.inner or ())) if s.kind == "ors"
            for c in mixture_cuts(s)[0][1:-1] if c < 1.0)
    edges = np.array(sorted({0.0, *cuts}))
    lengths = np.diff(edges, append=1.0)
    lattice = ratio_lattice(model, [None, *range(M)])
    K = (np.eye(U * Y, dtype=np.int64)[:, model.support.ravel()]
         if lattice is None else lattice[0])
    box = _lattice_box(K, N, 1 << 63)
    if box is None:
        # coordinates in the narrowest type that holds the box keep the
        # merge keys short
        dtype = np.result_type(np.min_scalar_type(N * K.min()),
                               np.min_scalar_type(N * K.max()))
        steps, point = K.astype(dtype), np.zeros((1, K.shape[1]), dtype)
        row = np.dtype((np.void, point[0].nbytes))
    else:
        steps, point, row = box[0], np.full(1, box[1], dtype=np.int64), None
    stat = _stat_box(spec, N)
    if stat is not None:
        sdk, skey0, _, _ = stat[2]
        skey = np.full(1, skey0, dtype=np.int64)
    loglik = np.zeros((1, M))
    mult = np.ones(1)
    scale = 0       # the path multiplicities are mult * 2**scale
    states = 1
    for step in range(1, N + 1):
        u = _select_batch(spec, np.tile(model.log_prior + loglik, (edges.size, 1)),
                          np.repeat(edges, len(loglik)))
        # node p * len(loglik) + s is state s on piece p: take's wrap mode finds s
        node, y = np.nonzero(model.support[u])
        k = u[node] * Y + y
        child = np.take(point, node, axis=0, mode="wrap") + np.take(steps, k, axis=0)
        keys = child if row is None else child.view(row).ravel()
        _, first, merged = np.unique(keys, return_index=True,
                                     return_inverse=True)
        if first.size > ENUM_STATE_CAP:
            raise ValueError(f"{first.size} lattice states after {step} of {N} "
                             f"steps exceed the enumeration cap {ENUM_STATE_CAP}")
        states = max(states, first.size)
        point = np.take(child, first, axis=0)
        if stat is not None:
            skey = np.take(skey, node[first], mode="wrap") + sdk.take(k[first])
        loglik = (np.take(loglik, node[first], axis=0, mode="wrap")
                  + np.take(logk_rows, k[first], axis=0))
        mult = np.bincount(merged.ravel(), minlength=first.size,
                           weights=np.outer(lengths, mult).ravel()[node])
        if mult.max() > 2.0 ** 960:
            mult, scale = np.ldexp(mult, -960), scale + 960

    refs = tuple(sorted(rule.thresholds))
    # P_h[state] per h; 2**scale joins the exponent, where it is finite
    mass = mult[:, None] * np.exp(loglik + scale * math.log(2))
    if not np.all(np.abs(mass.sum(axis=0) - 1.0) <= 1e-9):
        raise RuntimeError("enumeration did not cover the observation tree")
    c_inc = (_confidence_increments(model, model.log_prior + loglik, refs) if stat is None
             else _key_statistics(model, stat, skey, refs, None)[0])
    dec = decisions_from_increments(c_inc, refs, rule)
    psi, phi = {}, {}
    for i in refs:
        declare_mass = mass[dec == i].sum(axis=0)   # P_h[declare i] per h
        psi[i] = float(declare_mass[i])
        w = np.array([model.prior[j] / (1.0 - model.prior[i]) if j != i else 0.0
                      for j in range(M)])
        phi[i] = float(np.dot(w, declare_mass))
    num, den = float(mult.sum()).as_integer_ratio()
    num <<= scale
    return ExactReport(psi=psi, phi=phi, gamma=_gamma(model, phi),
                       leaves=num / den if num % den else num // den, states=states)


# ---------------------------------------------------------------------------
# Threshold calibration and the sweep driver
# ---------------------------------------------------------------------------

def best_threshold_search(model: HypothesisModel, N: int, epsilon: float,
                          c_inc: np.ndarray) -> float:
    """Largest threshold theta with psi_hat >= 1 - epsilon, where
    psi_hat(theta) is the fraction of the calibration increments `c_inc`
    at or above theta.

    Bisection over theta to within THRESHOLD_TOL; every probe reads the
    same increments (common random numbers), so psi_hat(theta) is
    monotone.  Increments are bounded by N*B, hence the bracket
    +-(N*B + 1) is always feasible at its lower end.  Raises ValueError
    unless 0 < epsilon < 1.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    inc = np.sort(np.asarray(c_inc).ravel())
    bound = N * model.llr_bound + 1.0
    lo, hi = -bound, bound
    need = 1.0 - epsilon

    def psi_at(theta):
        # fraction of increments >= theta
        return 1.0 - np.searchsorted(inc, theta, side="left") / inc.size

    while hi - lo > THRESHOLD_TOL:
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
    """Evaluate each (strategy kind, horizon) cell, summarized by
    _summarize as in estimate() and its row read from that report by
    _sweep_row.  An asymmetric kind calibrates its threshold on a batch
    of its own under `reference`; the symmetric composite keeps the
    thresholds of symmetric_setup.  "binary" raises ValueError off its
    family (check_binary_family).

    Rows come in the order of `kinds`, then of `horizons`; a repeated
    horizon is simulated once.  Horizons run in groups: the calibration
    run, if any, and one estimation run under each thresholded
    hypothesis go to the group's longest horizon on its pick table, and
    its other horizons take their trials' state on the way there, the
    same bits as runs of their own.  The longest horizon left leads a
    group, and the next shorter ones join it while they share its run
    (_shares) and the group fits _SHARED_BYTES of results, at 8 bytes
    per trial and horizon times max(3, runs x references): 13 horizons
    at 100 000 trials and 170 at 8192 for an asymmetric kind, 4 and 56
    for the M = 3 composite.  A group's specs, and with them the
    leader's pick table, go once its rows are made, so memory does not
    grow with the horizon list."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if strong not in ("none", "binary", "empirical"):
        raise ValueError(f"unknown strong-bound channel {strong!r}")
    if strong == "binary":
        if nu is None:
            raise ValueError("the binary closed-form strong bound needs nu")
        bounds_mod.check_binary_family(model, reference, nu)
    horizons = list(horizons)
    rows = []
    for kind in kinds:
        symmetric = kind == "symmetric"
        refs = tuple(range(model.num_hypotheses)) if symmetric else (reference,)
        cells = {}
        for N in dict.fromkeys(horizons):
            eps = epsilon_fn(N)
            cells[N] = (*(symmetric_setup(model, N, eps, inner_kind) if symmetric
                          else (build_strategy(model, kind, N, reference=reference,
                                               epsilon=eps), None)), eps)
        left = sorted(cells)
        size = max(1, _SHARED_BYTES // (8 * max(3, len(refs) ** 2) * trials))
        made = {}
        while left:
            N = left.pop()
            spec = cells[N][0]
            group = [N]
            while left and len(group) < size and _shares(
                    spec, N, cells[left[-1]][0], left[-1]):
                group.insert(0, left.pop())
            kw = dict(refs=refs, workers=workers, snapshots=group[:-1])
            cal = None if symmetric else simulate_measure(
                model, spec, N, reference, trials, seed, PURPOSE_CALIBRATE, **kw)[0]
            zw = spec.game.beta_star if strong == "empirical" and not symmetric else None
            est = [simulate_measure(model, spec, N, h, trials, seed, PURPOSE_ESTIMATE,
                                    zbar_weights=zw, **kw) for h in refs]
            for k, n in enumerate(group):
                rule, eps = cells[n][1:]    # no name keeps a spec past its group
                rule = rule or empirical_rule(reference, best_threshold_search(
                    model, n, eps, cal[k]), eps)
                report = SimulationReport(n, trials, seed)
                _summarize(model, rule, report, ((h, c[k]) for h, (c, _) in zip(refs, est)))
                made[n] = _sweep_row(cells.pop(n)[0], rule, report,
                                     None if zw is None else est[0][1][k], strong, nu)
        rows.extend(replace(made[N]) for N in horizons)
    return rows


def _sweep_row(spec, rule, report, zbar, strong, nu) -> SweepRow:
    """The sweep row of `spec` under `rule`, read from the report that
    _summarize filled at its horizon: the smallest psi_hat and threshold
    and the largest psi_se.  An asymmetric kind's row adds its ln(1/phi),
    the weak rate bound and the strong channel ("binary" needs `nu`,
    "empirical" reads zbar, the weighted LLRs under the reference, and
    "none" is infinite).  The symmetric composite's row adds ln(1/gamma)
    from the log-sum-exp gamma, the smallest weak bound of its inner
    games and an infinite strong bound."""
    model, N, eps = spec.model, report.horizon, rule.epsilon
    gamma, strong_abs = report.gamma_hat_lse, math.inf
    if spec.kind == "symmetric":
        log_inv_phi = -math.log(gamma) if gamma > 0 else math.inf
        log_inv_phi_se = report.gamma_lse_se / gamma if gamma > 0 else math.nan
        weak = min(bounds_mod.weak_converse(inner.game, model, N, eps)
                   for inner in spec.inner)
    else:
        (lse,) = report.lse.values()
        log_inv_phi, log_inv_phi_se = lse.log_inv_phi, lse.se
        weak = bounds_mod.weak_converse(spec.game, model, N, eps)
        if strong == "binary":
            strong_abs = bounds_mod.strong_bound_binary_example(N, nu, eps)
        elif strong == "empirical":
            _, strong_abs = bounds_mod.strong_converse_sweep(zbar, cross_entropy(
                spec.game.beta_star, prior_belief(model), spec.game.reference), eps)
    return SweepRow(
        strategy=spec.kind, N=N, epsilon=eps, theta=min(rule.thresholds.values()),
        psi_hat=min(report.psi_hat.values()), psi_se=max(report.psi_se.values()),
        log_inv_phi=log_inv_phi, log_inv_phi_se=log_inv_phi_se, gamma_hat=gamma,
        weak_bound=weak, strong_bound=strong_abs, seed=report.seed)
