"""Simulation engine: determinism, estimators, enumeration, calibration."""

import math
import pickle
import warnings
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import decimal_model, four_hypothesis_model, random_model
from fhat import cli
from fhat import montecarlo as mc
from fhat.belief import Belief, confidence, prior_belief
from fhat.model import make_model, ratio_lattice
from fhat.numerics import log_normalize
from fhat.strategy import (INNER_KINDS, KINDS, InferenceRule, asymmetric_rule,
                           build_strategy, default_epsilon, empirical_rule,
                           select_experiment, symmetric_rule, symmetric_setup)
from oracles import (REFERENCE_CHUNK, ZeroRng, reference_chunk,
                     reference_enumerate_exact, reference_enumerate_paths,
                     reference_key_rows, reference_pick_table,
                     reference_ratio_matrix, reference_select_experiment)


def identical_rows_model():
    kernel = [[[0.5, 0.5]], [[0.5, 0.5]]]
    return make_model(["a", "b"], ["u"], ["0", "1"], kernel, [0.5, 0.5])


def kernel_models():
    """Random models with Y = 2, 3 and 4 observations (the last two with
    a dropped symbol) on which every strategy kind builds."""
    rng = np.random.default_rng(31)
    found = {}
    while len(found) < 3:
        m = random_model(rng, max_hyp=3)
        Y = m.num_observations
        if Y in found or (Y > 2 and m.support.all()):
            continue
        try:
            build_strategy(m, "symmetric", 60)
        except ValueError:
            continue
        found[Y] = m
    return [found[Y] for Y in sorted(found)]


def wide_models():
    """Random models with M = 4 and M = 5 hypotheses, and two
    experiments to keep them quick, on which every strategy kind
    builds: the engine pads the 3 LLR columns of the first to 4 and
    stores the 4 of the second, and its beliefs, as they are."""
    rng = np.random.default_rng(43)
    found = {}
    while len(found) < 2:
        m = random_model(rng, max_hyp=5, max_exp=2)
        M = m.num_hypotheses
        if M < 4 or M in found or m.num_experiments < 2:
            continue
        try:
            build_strategy(m, "symmetric", 60)
        except ValueError:
            continue
        found[M] = m
    return [found[4], found[5]]


def decimal_models():
    """Random short-decimal models (conftest.decimal_model) on which
    every strategy kind builds and whose likelihood lattice has fewer
    directions than the model has (u, y) cells, so that it merges paths
    with different counts."""
    rng = np.random.default_rng(17)
    found = []
    while len(found) < 3:
        m = decimal_model(rng, units=10)
        K, _ = ratio_lattice(m, (None, *range(m.num_hypotheses)))
        if K.shape[1] == m.support.sum():
            continue
        try:
            build_strategy(m, "symmetric", 60)
        except ValueError:
            continue
        found.append(m)
    return found


class TestRunTrial:
    def test_zero_horizon_decision_from_prior(self, t1):
        spec = build_strategy(t1, "das", horizon=1, reference=0)
        traj, dec = mc.run_trial(t1, spec, empirical_rule(0, 0.5, 0.05),
                                 0, 0, seed=1)
        assert traj.step_count == 0 and dec is None
        _, dec2 = mc.run_trial(t1, spec, empirical_rule(0, -0.5, 0.05),
                               0, 0, seed=1)
        assert dec2 == 0   # negative threshold accepts the empty increment

    def test_identical_rows_never_move_belief(self):
        m = identical_rows_model()
        with pytest.warns(RuntimeWarning):
            spec = build_strategy(m, "das", horizon=8, reference=0)
        rule = empirical_rule(0, 0.1, 0.05)
        traj, dec = mc.run_trial(m, spec, rule, 8, 1, seed=3)
        np.testing.assert_allclose(traj.belief.probs(), [0.5, 0.5], atol=1e-12)
        assert dec is None

    def test_bitwise_reproducible(self, t1):
        spec = build_strategy(t1, "ors", horizon=20, reference=0)
        rule = empirical_rule(0, 0.0, 0.05)
        t_a, _ = mc.run_trial(t1, spec, rule, 20, 0, seed=9, trial_index=5)
        t_b, _ = mc.run_trial(t1, spec, rule, 20, 0, seed=9, trial_index=5)
        assert t_a.history == t_b.history
        assert np.array_equal(t_a.belief.log_prob, t_b.belief.log_prob)

    def test_scalar_matches_vectorized_engine(self, t1, t2):
        """The per-trial path replays exactly the chunked engine, also
        with more than two observation symbols, and on table1's lattice,
        where exact score ties are common."""
        y4 = kernel_models()[-1]
        cases = [(t1, ("ors", "das", "chernoff-det"), (12,)),
                 (t1, ("das", "symmetric"), (60, 200)),
                 (t2, ("das-rs", "chernoff-det"), (12, 40)),
                 (y4, ("ors", "das", "das-rs", "chernoff-det"), (12, 60))]
        for m, kinds, horizons in cases:
            prior = prior_belief(m)
            for kind in kinds:
                for N in horizons:
                    spec = build_strategy(m, kind, horizon=N, reference=None
                                          if kind == "symmetric" else 0)
                    rule = empirical_rule(0, 0.0, 0.05)
                    c_inc, _ = mc.simulate_measure(m, spec, N, 1, 40, 77, refs=(0,))
                    for t in (0, 13, 39):
                        traj, _ = mc.run_trial(m, spec, rule, N, 1, seed=77,
                                               trial_index=t)
                        inc = confidence(traj.belief, 0) - confidence(prior, 0)
                        np.testing.assert_allclose(inc, c_inc[t, 0], atol=1e-12)

    @pytest.mark.parametrize("kind", ["ors", "das"])
    def test_replays_past_the_first_chunk(self, t1, kind):
        """Trials at the end of chunk 0 and in the partial chunk 1 of a
        9000-trial run replay the engine: the per-row skips land on the
        same draws whether or not the rule reads the experiment ones."""
        N = 40
        spec = build_strategy(t1, kind, horizon=N, reference=0)
        rule = empirical_rule(0, 0.0, 0.05)
        c_inc, _ = mc.simulate_measure(t1, spec, N, 1, 9000, 11, refs=(0,))
        prior = prior_belief(t1)
        for t in (8191, 8192, 8193, 8999):
            traj, _ = mc.run_trial(t1, spec, rule, N, 1, seed=11, trial_index=t)
            inc = confidence(traj.belief, 0) - confidence(prior, 0)
            np.testing.assert_allclose(inc, c_inc[t, 0], atol=1e-12)

    def test_decides_as_the_engine_on_the_boundary(self, t1, t2):
        """With the threshold set to a trial's own engine increment, the
        inclusive rule accepts it in the engine, and run_trial returns
        that decision: it decides on the engine's increments, not on a
        renormalized belief that may land a rounding error below."""
        rng = np.random.default_rng(3)
        for m in (t1, t2):
            for kind in INNER_KINDS:
                for N in (12, 40):
                    spec = build_strategy(m, kind, horizon=N, reference=0)
                    c_inc, _ = mc.simulate_measure(m, spec, N, 0, 64, 21, refs=(0,))
                    for t in rng.choice(64, 4, replace=False):
                        rule = empirical_rule(0, float(c_inc[t, 0]), 0.05)
                        engine = mc.decisions_from_increments(c_inc[t:t + 1], (0,), rule)
                        _, dec = mc.run_trial(m, spec, rule, N, 0, seed=21,
                                              trial_index=int(t))
                        assert dec == engine[0] == 0
        # the symmetric rule, with hypothesis h's threshold at the
        # increment of a trial under h and the others out of reach
        N = 40
        spec = build_strategy(t1, "symmetric", horizon=N)
        refs = (0, 1, 2)
        for h in refs:
            c_inc, _ = mc.simulate_measure(t1, spec, N, h, 64, 21, refs=refs)
            for t in rng.choice(64, 4, replace=False):
                thresholds = {i: 1e9 for i in refs}
                thresholds[h] = float(c_inc[t, h])
                rule = InferenceRule("symmetric", thresholds, 0.05)
                engine = mc.decisions_from_increments(c_inc[t:t + 1], refs, rule)
                _, dec = mc.run_trial(t1, spec, rule, N, h, seed=21,
                                      trial_index=int(t))
                assert dec == engine[0] == h

    def test_rejects_impossible_inputs(self, t1):
        spec = build_strategy(t1, "das", horizon=5, reference=0)
        rule = empirical_rule(0, 0.0, 0.05)
        with pytest.raises(ValueError, match="horizon"):
            mc.run_trial(t1, spec, rule, -3, 0, seed=1)
        with pytest.raises(ValueError, match="trial index"):
            mc.run_trial(t1, spec, rule, 5, 0, seed=1, trial_index=-1)
        for h in (-1, 3):
            with pytest.raises(ValueError, match="true hypothesis"):
                mc.run_trial(t1, spec, rule, 5, h, seed=1)


class TestSimulateMeasure:
    def test_rejects_impossible_inputs(self, t1):
        spec = build_strategy(t1, "das", horizon=5, reference=0)
        with pytest.raises(ValueError, match="horizon"):
            mc.simulate_measure(t1, spec, -3, 0, 10, 1)
        for h in (-1, 3):
            with pytest.raises(ValueError, match="true hypothesis"):
                mc.simulate_measure(t1, spec, 5, h, 10, 1, refs=(0,))

    @pytest.mark.parametrize("kind,inner", [
        *(pytest.param(kind, "das", id=kind) for kind in KINDS),
        pytest.param("symmetric", "ors", id="symmetric-ors")])
    def test_row_range_matches_full_chunk(self, t2, kind, inner):
        """Rows [lo, hi) of a chunk give bit for bit the same increments
        and weighted LLRs as those rows of the whole chunk's run."""
        N = 12
        spec = build_strategy(t2, kind, N, inner_kind=inner,
                              reference=None if kind == "symmetric" else 0)
        refs = (0, 1, 2) if kind == "symmetric" else (0,)
        zw = None if kind == "symmetric" else spec.game.beta_star
        full = mc._simulate_chunk(t2, spec, (N,), 1, 8, 0, 2, 0, mc.CHUNK, refs, zw)
        for lo, hi in ((0, 1), (3, 4), (100, 4000), (8191, 8192)):
            c_inc, zbar = mc._simulate_chunk(t2, spec, (N,), 1, 8, 0, 2, lo, hi,
                                             refs, zw)
            assert c_inc.tobytes() == full[0][:, lo:hi].tobytes()
            if zw is not None:
                assert zbar.tobytes() == full[1][:, lo:hi].tobytes()

    def test_pool_has_one_process_per_block(self, t1, monkeypatch):
        """With more workers than chunks the pool asks for one process
        per block of chunks, not one per worker: under fork a pool
        starts all of its processes at once.  A stand-in executor that
        records its arguments and maps in this process keeps the test
        from starting any; the results are those of a serial run."""
        import concurrent.futures

        asked = []

        class RecordingExecutor:
            def __init__(self, max_workers=None):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingExecutor)
        spec = build_strategy(t1, "das", 6, reference=0)
        trials = 2 * mc.CHUNK + 5      # three chunks
        serial = mc.simulate_measure(t1, spec, 6, 0, trials, 3)[0]
        pooled = mc.simulate_measure(t1, spec, 6, 0, trials, 3, workers=64)[0]
        assert asked == [3]
        assert pooled.tobytes() == serial.tobytes()


class TestEstimate:
    def test_rule_that_always_accepts(self, t1):
        spec = build_strategy(t1, "das", horizon=3, reference=0)
        rule = empirical_rule(0, -1e9, 0.05)
        rep = mc.estimate(mc.SimulationConfig(t1, spec, rule, 3, 500, 0))
        assert rep.psi_hat[0] == 1.0 and rep.phi_hat[0] == 1.0
        np.testing.assert_allclose(rep.gamma_hat, 2 / 3, atol=1e-12)

    def test_rule_that_never_accepts(self, t1):
        spec = build_strategy(t1, "das", horizon=3, reference=0)
        rule = empirical_rule(0, 1e9, 0.05)
        rep = mc.estimate(mc.SimulationConfig(t1, spec, rule, 3, 500, 0))
        assert rep.psi_hat[0] == 0.0 and rep.phi_hat[0] == 0.0
        assert rep.lse[0].is_lower_bound
        np.testing.assert_allclose(rep.lse[0].log_inv_phi, math.log(500))

    @pytest.mark.filterwarnings("ignore:symmetric at N")
    def test_gamma_combines_phi(self, t1):
        """gamma_hat = sum_i phi_hat(i) (1 - prior(i)) by construction."""
        spec = build_strategy(t1, "symmetric", horizon=30)
        games = {i: spec.inner[i].game for i in range(3)}
        rule = symmetric_rule(t1, games, 30, 0.05)
        rep = mc.estimate(mc.SimulationConfig(t1, spec, rule, 30, 400, 5))
        expect = sum(rep.phi_hat[i] * (1 - t1.prior[i]) for i in range(3))
        np.testing.assert_allclose(rep.gamma_hat, expect, atol=1e-12)

    def test_workers_do_not_change_results(self, t1):
        spec = build_strategy(t1, "das", horizon=10, reference=0)
        a, _ = mc.simulate_measure(t1, spec, 10, 0, 3 * mc.CHUNK // 2, 42,
                                   refs=(0,), workers=0)
        b, _ = mc.simulate_measure(t1, spec, 10, 0, 3 * mc.CHUNK // 2, 42,
                                   refs=(0,), workers=2)
        assert np.array_equal(a, b)

    def test_trial_budget_extension_is_prefix_stable(self, t1, t2):
        """Adding trials never changes the trials already simulated, nor
        their weighted LLRs, even for a trial alone in its chunk, and
        under every hypothesis for the symmetric composite."""
        spec = build_strategy(t1, "das", horizon=5, reference=0)
        a, _ = mc.simulate_measure(t1, spec, 5, 0, 100, 42, refs=(0,))
        b, _ = mc.simulate_measure(t1, spec, 5, 0, 2000, 42, refs=(0,))
        assert np.array_equal(a, b[:100])
        for kind in ("ors", "das-rs", "chernoff-det"):
            spec = build_strategy(t2, kind, horizon=20, reference=0)
            runs = [mc.simulate_measure(t2, spec, 20, 0, T, 42, refs=(0,),
                                        zbar_weights=spec.game.beta_star)
                    for T in (100, mc.CHUNK + 1, 2 * mc.CHUNK)]
            c_all, z_all = runs[-1]
            for c_inc, zbar in runs[:-1]:
                assert np.array_equal(c_inc, c_all[:len(c_inc)])
                assert np.array_equal(zbar, z_all[:len(zbar)])
        # the symmetric composite hands each inner rule the rows whose ML
        # hypothesis it serves, a batch that changes with the budget
        for N in (30, 60, 120, 200):
            spec = build_strategy(t1, "symmetric", N)
            for h in range(3):
                full, _ = mc.simulate_measure(t1, spec, N, h, mc.CHUNK, 3,
                                              refs=(0, 1, 2))
                for T in (1, 7, 100, 1000):
                    part, _ = mc.simulate_measure(t1, spec, N, h, T, 3,
                                                  refs=(0, 1, 2))
                    assert np.array_equal(part, full[:T])


class TestSnapshots:
    def test_snapshots_match_runs_of_their_own(self, t2):
        """The state recorded at each snapshot horizon on the way to N
        is bit for bit that of a run of its own, over a partial second
        chunk and for kinds that do and do not read experiment draws."""
        T = mc.CHUNK + 5
        stops = (0, 3, 11)
        for kind in ("ors", "das-rs", "chernoff-det"):
            spec = build_strategy(t2, kind, horizon=20, reference=0)
            zw = spec.game.beta_star
            c_all, z_all = mc.simulate_measure(t2, spec, 20, 1, T, 8, refs=(0,),
                                               zbar_weights=zw, snapshots=stops)
            assert c_all.shape == (4, T, 1) and z_all.shape == (4, T)
            for k, N in enumerate((*stops, 20)):
                c, z = mc.simulate_measure(t2, spec, N, 1, T, 8, refs=(0,),
                                           zbar_weights=zw)
                assert c_all[k].tobytes() == c.tobytes()
                assert z_all[k].tobytes() == z.tobytes()

    def test_rejects_snapshots_out_of_order(self, t1):
        spec = build_strategy(t1, "ors", horizon=10, reference=0)
        for bad in ((5, 3), (4, 4), (10,), (-1,)):
            with pytest.raises(ValueError, match="snapshots"):
                mc.simulate_measure(t1, spec, 10, 0, 10, 1, snapshots=bad)


class TestChunkDraws:
    def test_skipped_draws_match_full_draws(self):
        """Drawing only a row range gives that range of the full chunk's
        draws, and leaves the generator as drawing the full chunk does:
        same state and increment, no buffered half-word, step after
        step."""
        ranges = [(0, n) for n in (1, 3, 4, 7, 3000, 8191, mc.CHUNK)]
        ranges += [(r, r + 1) for r in (0, 3, 4, 4093, 8188, 8191)]
        for lo, hi in ranges:
            fast = mc._chunk_generator(3, 0, 1, 2)
            full = mc._chunk_generator(3, 0, 1, 2)
            for _ in range(3):
                got = mc._chunk_draws(fast, lo, hi)
                assert got.tobytes() == full.random(mc.CHUNK)[lo:hi].tobytes()
                a, b = fast.bit_generator.state, full.bit_generator.state
                for part in ("state", "inc"):
                    assert a["state"][part] == b["state"][part]
                assert a["has_uint32"] == b["has_uint32"] == 0
            assert fast.random(5).tobytes() == full.random(5).tobytes()


class TestEngineKernel:
    @pytest.mark.parametrize("kind,inner", [
        *(pytest.param(kind, "das", id=kind) for kind in KINDS),
        *(pytest.param("symmetric", inner, id=f"symmetric-{inner}")
          for inner in INNER_KINDS if inner != "das")])
    def test_matches_reference_step_loop(self, t1, t2, kind, inner):
        """The engine's column-wise step loop gives bit for bit the
        confidence increments of the plain whole-array step loop in
        oracles.reference_chunk, and as weighted LLR that loop's total
        LLRs times the weights, summed in ascending alternate order.
        The symmetric composite runs with each inner kind: with `ors`
        its most common rule reads the whole chunk's experiment draws
        and the others read their rows' draws.  The rules that track
        weighted LLRs also run on models of 4 and 5 hypotheses, so the
        engine's rows of beliefs and LLRs take every width it stores
        them in, padded or not."""
        assert mc.CHUNK == REFERENCE_CHUNK
        models = [t1, t2, *kernel_models()]
        if kind != "symmetric":
            models += wide_models()
        for m in models:
            M = m.num_hypotheses
            refs = tuple(range(M)) if kind == "symmetric" else (0,)
            for N in (8, 60):     # tilt 1 on every model; below 1 on all but the Y = 2 one
                spec = build_strategy(m, kind, N, inner_kind=inner,
                                      reference=None if kind == "symmetric" else 0)
                zw = None if kind == "symmetric" else spec.game.beta_star
                for h in range(M):
                    for rows in (1, 7, mc.CHUNK):
                        c_inc, zbar = mc._simulate_chunk(m, spec, (N,), h, 5, 0, 1,
                                                         0, rows, refs, zw)
                        c_inc = c_inc[0]
                        zbar = None if zbar is None else zbar[0]
                        lb, z = reference_chunk(m, spec, N, h, 5, 0, 1, rows,
                                                None if zw is None else 0)
                        assert np.array_equal(
                            c_inc, mc._confidence_increments(m, lb, refs))
                        if zw is not None:
                            expect = z[:, 0] * zw[0]
                            for k in range(1, M - 1):
                                expect = expect + z[:, k] * zw[k]
                            assert np.array_equal(zbar, expect)


class TestPickCache:
    @staticmethod
    def counted_rows(monkeypatch):
        """Rows the engine and the table fill hand the selector: their
        total in entry 0, then each call's rows in call order."""
        seen = [0]
        select = mc._select_batch

        def counting(spec, lb, draws):
            seen[0] += lb.shape[0]
            seen.append(lb.shape[0])
            return select(spec, lb, draws)

        monkeypatch.setattr(mc, "_select_batch", counting)
        return seen

    @staticmethod
    def assert_matches_reference(m, spec, N, h, refs, rows=mc.CHUNK):
        """A chunk on spec's pick table at N, where it has one, against
        the reference step loop, which computes every pick."""
        c_inc, _ = mc._simulate_chunk(m, spec, (N,), h, 5, 0, 1, 0, rows, refs, None)
        lb, _ = reference_chunk(m, spec, N, h, 5, 0, 1, rows)
        assert np.array_equal(c_inc[0], mc._confidence_increments(m, lb, refs))

    @pytest.mark.parametrize("kind,N", [("das", 500), ("symmetric", 350)])
    def test_matches_reference_at_paper_horizons(self, t1, kind, N):
        """On table1 at the paper's horizons a full chunk, its picks read
        from the pick table, gives bit for bit the increments of the
        reference step loop, which computes every pick, under every
        hypothesis."""
        spec = build_strategy(t1, kind, N, reference=None if kind == "symmetric" else 0)
        assert mc._pick_table(spec, N) is not None
        for h in range(3):
            self.assert_matches_reference(t1, spec, N, h, (0, 1, 2))

    # some drawn models have a zero-value game; the symmetric build
    # rejects them after game.solve has warned
    @pytest.mark.filterwarnings("ignore:game value:RuntimeWarning")
    def test_matches_reference_on_decimal_models(self):
        """On random short-decimal models, whose lattices merge paths
        with different counts, chunks on the filled table give the
        reference step loop's increments bit for bit, for every rule
        with a key and under every hypothesis: decimal_models() (two
        hypotheses: rank-0 keys for the asymmetric rules) and three
        models of three hypotheses, whose keys have one to three
        directions."""
        rng = np.random.default_rng(29)
        models = decimal_models()
        while len(models) < 6:
            m = decimal_model(rng, units=10)
            if m.num_hypotheses < 3:
                continue
            try:
                build_strategy(m, "symmetric", 60)
            except ValueError:
                continue
            models.append(m)
        tables = 0
        for m in models:
            M = m.num_hypotheses
            for kind in ("das", "das-rs", "chernoff-det", "symmetric"):
                for N in (20, 60):
                    spec = build_strategy(m, kind, N, reference=None
                                          if kind == "symmetric" else 0)
                    tables += mc._pick_table(spec, N) is not None
                    for h in range(M):
                        self.assert_matches_reference(m, spec, N, h, tuple(range(M)), 1000)
        assert tables == 43

    @pytest.mark.parametrize("kind", ["das-rs", "chernoff-det"])
    def test_table2_keys_on_the_experiments_picked(self, t2, kind, monkeypatch):
        """table2 das-rs picks only C or D and chernoff-det only A or B,
        so their keys span those rows alone and fit a table at N = 500:
        a full chunk gives the reference step loop's increments bit for
        bit under every hypothesis.  Filling the table hands the
        selector one row per point of the key box, and the runs on it
        hand it none."""
        seen = self.counted_rows(monkeypatch)
        spec = build_strategy(t2, kind, 500, reference=0)
        size = mc._pick_table(spec, 500)[0].size
        assert seen[0] == size
        for h in range(3):
            self.assert_matches_reference(t2, spec, 500, h, (0, 1, 2))
        assert seen[0] == size

    def test_cache_is_used(self, t1, monkeypatch):
        """table1 das at N = 200: the fill selects once per point of the
        401-point key box, and a full chunk on the table selects no row
        at all."""
        seen = self.counted_rows(monkeypatch)
        spec = build_strategy(t1, "das", 200, reference=0)
        table = mc._pick_table(spec, 200)
        assert seen[0] == table[0].size == 401
        mc._simulate_chunk(t1, spec, (200,), 1, 5, 0, 1, 0, mc.CHUNK, (0,), None)
        assert seen[0] == 401

    def test_falls_back_over_the_cap_and_off_the_lattice(self, t2, monkeypatch):
        """table2 das at N = 60 (its key box, 121**3 entries, exceeds
        PICK_TABLE_CAP) and a generated float model (no lattice): every
        trial-step is selected."""
        seen = self.counted_rows(monkeypatch)
        spec = build_strategy(t2, "das", 60, reference=0)
        assert spec.pick_key is not None and mc._pick_table(spec, 60) is None
        self.assert_matches_reference(t2, spec, 60, 2, (0,))
        assert seen[0] == mc.CHUNK * 60
        m = kernel_models()[0]
        spec = build_strategy(m, "symmetric", 60)
        assert spec.pick_key is None
        seen[0] = 0
        self.assert_matches_reference(m, spec, 60, 1, tuple(range(m.num_hypotheses)), 1000)
        assert seen[0] == 1000 * 60

    def test_filled_table_selects_no_row(self, t1, monkeypatch):
        """A chunk on a filled table hands the selector no row, and gives
        the increments and weighted LLRs, bit for bit, of the chunk run
        without a table (the spec without its pick key), which selects
        on every row at every step."""
        seen = self.counted_rows(monkeypatch)
        spec = build_strategy(t1, "das", 200, reference=0)
        mc._pick_table(spec, 200)
        runs, rows = [], []
        for s in (spec, replace(spec, pick_key=None)):
            seen[0] = 0
            runs.append(mc._simulate_chunk(t1, s, (200,), 1, 5, 0, 1, 0, mc.CHUNK,
                                           (0, 1, 2), spec.game.beta_star))
            rows.append(seen[0])
        assert rows == [0, mc.CHUNK * 200]
        assert runs[0][0].tobytes() == runs[1][0].tobytes()
        assert runs[0][1].tobytes() == runs[1][1].tobytes()

    @staticmethod
    def two_hypothesis_model():
        return make_model(["a", "b"], ["u", "v"], ["0", "1"],
                          [[[0.3, 0.7], [0.5, 0.5]], [[0.6, 0.4], [0.25, 0.75]]],
                          [0.5, 0.5])

    def test_one_entry_table_for_two_hypotheses(self):
        """With one alternate, das reads no ratio: a rank-0 key, a table
        of one entry, and a chunk on it that matches the reference step
        loop."""
        m = self.two_hypothesis_model()
        spec = build_strategy(m, "das", 40, reference=0)
        table, dk, key0 = mc._pick_table(spec, 40)
        assert table.size == 1 and not dk.any() and key0 == 0
        c_inc, _ = mc._simulate_chunk(m, spec, (40,), 1, 5, 0, 0, 0, 100, (0,), None)
        lb, _ = reference_chunk(m, spec, 40, 1, 5, 0, 0, 100)
        assert np.array_equal(c_inc[0], mc._confidence_increments(m, lb, (0,)))

    def test_ratio_matrix_decodes_every_lattice_point(self, t1, t2):
        """The representative rows reproduce, to rounding, the
        log-likelihood ratios a path's counts give, on paths drawn at
        random, for every rule with a key."""
        rng = np.random.default_rng(3)
        for m in (t1, t2, *decimal_models()):
            M, U, Y = m.kernel.shape
            logk = m.log_kernel.transpose(1, 2, 0).reshape(U * Y, M)
            logk = np.where(np.isfinite(logk), logk, 0.0)   # rows never observed
            for kind in ("das", "das-rs", "chernoff-det", "symmetric"):
                spec = build_strategy(m, kind, 30, reference=None
                                      if kind == "symmetric" else 0)
                hyps = list(range(M) if kind == "symmetric" else m.alternates(0))
                G = spec.pick_ratios
                spanned = np.flatnonzero(spec.pick_key.any(axis=1))
                for _ in range(20 if spanned.size else 0):
                    n = np.bincount(rng.choice(spanned, 30), minlength=U * Y)
                    want = n @ logk
                    want = want - want[hyps[0]]
                    got = (n @ spec.pick_key) @ G
                    assert np.allclose(got[hyps], want[hyps], rtol=0, atol=1e-9)
                    assert not np.delete(got, hyps).any()

    @staticmethod
    def decode_cases(t1, t2):
        """(spec, N): the figure rules on table1 and table2 at the
        figures' horizons and the symmetric composite at the benchmark's,
        then short-decimal models with keys of every rank 0-3 and one of
        rank 4 or more, at N = 5 and 30."""
        for m in (t1, t2):
            for kind in ("das", "das-rs", "chernoff-det"):
                for N in (100, 300, 500):
                    yield build_strategy(m, kind, N, reference=0), N
            for N in (200, 350):
                yield build_strategy(m, "symmetric", N), N
        rng = np.random.default_rng(23)
        wanted = {0, 1, 2, 3, 4}
        while wanted:
            m = decimal_model(rng)
            for kind in ("das", "das-rs", "chernoff-det", "symmetric"):
                try:
                    spec = build_strategy(m, kind, 30, reference=None
                                          if kind == "symmetric" else 0)
                except ValueError:
                    continue
                rank = min(spec.pick_key.shape[1], 4)
                if rank in wanted:
                    wanted.discard(rank)
                    yield spec, 5
                    yield spec, 30

    @pytest.mark.filterwarnings("ignore:game value")
    def test_line_fill_matches_point_by_point_fill(self, t1, t2):
        """The rows decoded a line of the key box at a time are, bit for
        bit, the rows decoded point by point (oracles.reference_key_rows),
        and the table filled from them equals, entry for entry and in
        dtype, the table filled point by point
        (oracles.reference_pick_table): on every decode case, on table1
        das at N = 5000, whose one line of 10 001 points is longer than
        a block, and on a rank-0 key."""
        cases = [*self.decode_cases(t1, t2),
                 (build_strategy(t1, "das", 5000, reference=0), 5000),
                 (build_strategy(self.two_hypothesis_model(), "das", 40, reference=0), 40)]
        ranks = set()
        for spec, N in cases:
            got = mc._pick_table(spec, N)
            if got is None:
                continue
            for a, rows in mc._box_rows(spec, N):
                want = reference_key_rows(spec, N, np.arange(a, a + len(rows)))
                assert np.ascontiguousarray(rows).tobytes() == want.tobytes(), (spec.kind, N, a)
            want = reference_pick_table(spec, N)
            assert got[0].dtype == want.dtype, (spec.kind, N)
            assert np.array_equal(got[0], want), (spec.kind, N)
            ranks.add(min(spec.pick_key.shape[1], 4))
        assert ranks == {0, 1, 2, 3, 4}

    def test_fill_blocks_hold_at_most_a_chunk(self, t1, t2, monkeypatch):
        """Filling a table hands the selector at most CHUNK rows a call,
        and one row per point of the key box in all: whole lines of
        table2 das-rs (rank 2) and das (rank 3), table1 symmetric, the
        two pieces of table1 das's 10 001-point line at N = 5000, and
        the one row of a rank-0 key."""
        seen = self.counted_rows(monkeypatch)
        cases = [(t2, "das-rs", 500), (t2, "das", 50), (t1, "symmetric", 350),
                 (t1, "das", 5000), (self.two_hypothesis_model(), "das", 40)]
        for m, kind, N in cases:
            spec = build_strategy(m, kind, N, reference=None
                                  if kind == "symmetric" else 0)
            seen[:] = [0]
            size = mc._pick_table(spec, N)[0].size
            assert max(seen[1:]) <= mc.CHUNK, (kind, N)
            assert sum(seen[1:]) == seen[0] == size, (kind, N)

    @pytest.mark.filterwarnings("ignore:game value")
    def test_pick_ratios_match_the_fraction_solve(self, t1, t2):
        """ratio_lattice's integer elimination decodes the key as the
        Gauss-Jordan solve in fractions of the float log ratios does
        (oracles.reference_ratio_matrix), to 1e-12, and a table filled
        with either decode is the same, entry for entry."""
        tables = 0
        for spec, N in self.decode_cases(t1, t2):
            want = reference_ratio_matrix(spec)
            assert spec.pick_ratios.shape == want.shape
            assert np.abs(spec.pick_ratios - want).max(initial=0) <= 1e-12
            got = mc._pick_table(spec, N)
            ref = mc._pick_table(replace(spec, pick_ratios=want), N)
            assert (got is None) == (ref is None)
            if got is not None:
                assert np.array_equal(got[0], ref[0]), (spec.kind, N)
                tables += 1
        assert tables >= 20


class TestSharedPickTable:
    """A spec keeps the pick table of each horizon it runs to, filled
    once before the first run: estimate() reads it across all of its
    runs and their chunks, and worker processes get it inside the
    spec."""

    T = 3 * mc.CHUNK + 100      # three full chunks and a partial one

    @staticmethod
    def configs(t1, t2):
        """table1 symmetric (a run under every hypothesis) and table2
        das-rs (the estimation run and the alternate-mixture runs)."""
        spec, rule = symmetric_setup(t1, 60, 0.05)
        yield mc.SimulationConfig(t1, spec, rule, 60, TestSharedPickTable.T, 4)
        spec = build_strategy(t2, "das-rs", 60, reference=0)
        yield mc.SimulationConfig(t2, spec, empirical_rule(0, 5.0, 0.05), 60,
                                  TestSharedPickTable.T, 4)

    @pytest.mark.filterwarnings("ignore:symmetric at N")
    def test_runs_match_reference_per_chunk(self, t1, t2, monkeypatch):
        """Every chunk of every run of estimate() gives bit for bit the
        increments of the reference step loop, which computes every
        pick."""
        calls = []
        simulate = mc.simulate_measure

        def recording(model, spec, N, h, trials, seed, purpose, **kw):
            out = simulate(model, spec, N, h, trials, seed, purpose, **kw)
            calls.append((model, spec, N, h, trials, seed, purpose, kw["refs"], out[0]))
            return out

        monkeypatch.setattr(mc, "simulate_measure", recording)
        for config in self.configs(t1, t2):
            assert mc._pick_table(config.spec, config.horizon) is not None
            calls.clear()
            mc.estimate(config)
            assert len(calls) == 3
            for m, spec, N, h, trials, seed, purpose, refs, c_inc in calls:
                for c in range(0, trials, mc.CHUNK):
                    rows = min(mc.CHUNK, trials - c)
                    lb, _ = reference_chunk(m, spec, N, h, seed, purpose,
                                            c // mc.CHUNK, rows)
                    assert np.array_equal(c_inc[c:c + rows],
                                          mc._confidence_increments(m, lb, refs))

    @pytest.mark.filterwarnings("ignore:symmetric at N")
    def test_workers_do_not_change_reports(self, t1, t2):
        """Two workers, each running a block of chunks on the table its
        copy of the spec carries, report what one serial run reports."""
        for config in self.configs(t1, t2):
            serial = mc.estimate(config)
            assert mc.estimate(replace(config, workers=2)) == serial

    def test_shared_table_selects_fewer_rows(self, t1, monkeypatch):
        """The symmetric composite at N = 200: its runs under the three
        hypotheses hand the selector one key box of rows, the one fill
        of the spec's table, and estimate() on that spec then hands it
        none; estimate() on a fresh copy of the spec fills one box."""
        seen = TestPickCache.counted_rows(monkeypatch)
        spec, rule = symmetric_setup(t1, 200, 0.05)
        box = math.prod(mc._lattice_box(spec.pick_key, 200, mc.PICK_TABLE_CAP)[3])
        for h in range(3):
            mc.simulate_measure(t1, spec, 200, h, self.T, 4, refs=(0, 1, 2))
        assert seen[0] == box
        seen[0] = 0
        mc.estimate(mc.SimulationConfig(t1, spec, rule, 200, self.T, 4))
        assert seen[0] == 0
        mc.estimate(mc.SimulationConfig(t1, replace(spec), rule, 200, self.T, 4))
        assert seen[0] == box

    @staticmethod
    def counted_fills(monkeypatch):
        """The number of pick tables filled (_box_rows calls) in this
        process, in entry 0."""
        fills = [0]
        box_rows = mc._box_rows

        def counting(spec, N):
            fills[0] += 1
            return box_rows(spec, N)

        monkeypatch.setattr(mc, "_box_rows", counting)
        return fills

    def test_tables_are_made_per_run_not_per_chunk(self, t1, monkeypatch):
        """A run fills one table for all of its chunks, with workers too,
        and none when an earlier run of the spec to that horizon filled
        it; a one-row replay of such a spec fills none either."""
        fills = self.counted_fills(monkeypatch)
        for workers in (0, 2):
            spec = build_strategy(t1, "das", 100, reference=0)
            fills[0] = 0
            mc.simulate_measure(t1, spec, 100, 0, self.T, 4, snapshots=(50,),
                                workers=workers)
            assert fills[0] == 1
        fills[0] = 0
        mc.simulate_measure(t1, spec, 100, 1, self.T, 4, purpose=mc.PURPOSE_CALIBRATE)
        mc.run_trial(t1, spec, empirical_rule(0, 5.0, 0.05), 100, 0, 4, mc.CHUNK + 3)
        assert fills[0] == 0
        mc.simulate_measure(t1, spec, 60, 0, self.T, 4)
        assert fills[0] == 1

    def test_simulate_calibrate_fills_one_table(self, monkeypatch):
        """fhat simulate --calibrate runs the calibration batch and then
        the estimation batches on one spec: table2 das-rs at N = 500
        fills its pick table once for all of them."""
        fills = self.counted_fills(monkeypatch)
        assert cli.main(["simulate", "--model", "table2", "--strategy", "das-rs",
                         "--reference", "0", "--horizon", "500", "--trials", "300",
                         "--calibrate"]) == 0
        assert fills[0] == 1

    def test_replaced_spec_reads_no_stale_table(self, t2):
        """dataclasses.replace gives a spec with no tables: after the
        table2 das spec at N = 34 has filled its table, a copy with the
        tilt of the N = 30 spec (s_value, mu), or with a new decode
        (pick_ratios), fills its own, equal to the table of a newly
        built spec with those settings and apart from the original's."""
        spec = build_strategy(t2, "das", 34, reference=0)
        other = build_strategy(t2, "das", 30, reference=0)
        table = mc._pick_table(spec, 34)[0]
        cases = [(replace(spec, s_value=other.s_value, mu=other.mu), other),
                 (replace(spec, pick_ratios=2 * spec.pick_ratios),
                  replace(build_strategy(t2, "das", 34, reference=0),
                          pick_ratios=2 * spec.pick_ratios))]
        for copy, fresh in cases:
            assert copy._pick_tables == {} and fresh._pick_tables == {}
            got = mc._pick_table(copy, 34)[0]
            assert np.array_equal(got, mc._pick_table(fresh, 34)[0])
            assert not np.array_equal(got, table)
        assert mc._pick_table(spec, 34)[0] is table

    def test_table_travels_with_the_spec(self, t1, monkeypatch):
        """A spec pickled after a run has filled its table (as a worker
        process receives it) carries that table: a block of chunks run
        on the copy hands the selector no row and gives the serial run's
        increments and weighted LLRs bit for bit."""
        spec = build_strategy(t1, "das", 200, reference=0)
        zw = spec.game.beta_star
        serial = mc.simulate_measure(t1, spec, 200, 1, self.T, 4, refs=(0, 1, 2),
                                     zbar_weights=zw)
        copy = pickle.loads(pickle.dumps(spec))
        seen = TestPickCache.counted_rows(monkeypatch)
        block = mc._chunk_block((t1, copy, (200,), 1, 4, mc.PURPOSE_ESTIMATE, 0, 4,
                                 self.T, (0, 1, 2), zw))
        assert seen[0] == 0
        assert np.concatenate([r[0][0] for r in block]).tobytes() == serial[0].tobytes()
        assert np.concatenate([r[1][0] for r in block]).tobytes() == serial[1].tobytes()


def count_state_picks(m, spec, N):
    """{count state n[u, y]: picks} over the nodes above depth N of the
    observation tree, each node selecting on its log belief in the
    engine's form (a running sum from the log prior) and in
    enumeration's (log prior plus a running sum from zero).  Nodes with
    the same counts and the same bits are merged.  The keys are the
    int64 bytes of the flat counts, row u*Y + y."""
    M, U, Y = m.kernel.shape
    logk_rows = m.log_kernel.transpose(1, 2, 0).reshape(U * Y, M)
    counts = np.zeros((1, U * Y), dtype=np.int64)
    lb, ll = m.log_prior[None, :].copy(), np.zeros((1, M))
    picks = {}
    for _ in range(N):
        u = mc._select_batch(spec, lb, None)
        v = mc._select_batch(spec, m.log_prior + ll, None)
        for key, a, b in zip(counts, u.tolist(), v.tolist()):
            picks.setdefault(key.tobytes(), set()).update((a, b))
        parent, y = np.nonzero(m.support[u])
        row = u[parent] * Y + y
        counts = counts[parent]
        counts[np.arange(row.size), row] += 1
        lb, ll = lb[parent] + logk_rows[row], ll[parent] + logk_rows[row]
        bits = np.hstack([counts, lb.view(np.int64), ll.view(np.int64)])
        _, keep = np.unique(bits, axis=0, return_index=True)
        counts, lb, ll = counts[keep], lb[keep], ll[keep]
    return picks


def lattice_key_picks(picks, K):
    """count_state_picks regrouped by the lattice key n @ K."""
    out = {}
    for counts, p in picks.items():
        out.setdefault(tuple(np.frombuffer(counts, dtype=np.int64) @ K), set()).update(p)
    return out


class TestStateSelection:
    def test_picks_are_a_function_of_the_count_state(self, t1, t2):
        """Paths that reach the same counts n[u, y] sum their log
        beliefs in different orders and round differently; every
        deterministic rule still picks one experiment per count state.
        On table1's lattice many states are exact ties."""
        rng = np.random.default_rng(5)
        models = [(t1, 14), (t2, 14)]
        while len(models) < 5:
            m = random_model(rng, max_exp=2, max_obs=3)
            try:
                build_strategy(m, "symmetric", 10)
            except ValueError:
                continue
            models.append((m, 10))
        for m, N in models:
            for kind in ("das", "das-rs", "chernoff-det", "symmetric"):
                spec = build_strategy(m, kind, N, reference=None
                                      if kind == "symmetric" else 0)
                picks = count_state_picks(m, spec, N)
                assert all(len(p) == 1 for p in picks.values()), (m.kernel.shape, kind)

    # some drawn models have a zero-value game; the symmetric build
    # rejects them after game.solve has warned
    @pytest.mark.filterwarnings("ignore:game value:RuntimeWarning")
    def test_picks_are_a_function_of_the_lattice_key(self, t1):
        """States with different counts but the same likelihood ratios
        among the hypotheses a rule reads (spec.pick_key) pick alike,
        also where their common shift differs: the pick cache may key on
        the lattice point.  Checked on table1 and on random short-decimal
        models on which the symmetric composite's picks vary."""
        rng = np.random.default_rng(12)
        models, varied, merged = [t1], 0, 0
        while varied < 4:
            m = models.pop() if models else decimal_model(rng, units=10)
            try:
                build_strategy(m, "symmetric", 14)
            except ValueError:
                continue
            for kind in ("das", "das-rs", "chernoff-det", "symmetric"):
                spec = build_strategy(m, kind, 14, reference=None
                                      if kind == "symmetric" else 0)
                picks = count_state_picks(m, spec, 14)
                by_key = lattice_key_picks(picks, spec.pick_key)
                assert all(len(p) == 1 for p in by_key.values()), (m.kernel, kind)
                merged += len(picks) - len(by_key)
            varied += len(set().union(*picks.values())) > 1
        assert merged > 0


class TestLsePhiEstimator:
    def test_zero_horizon_all_accepted(self):
        est = mc.estimate_phi_lse(np.zeros(1000), np.ones(1000, dtype=bool))
        np.testing.assert_allclose(est.log_inv_phi, 0.0, atol=1e-12)

    def test_no_accepted_trials_flagged(self):
        est = mc.estimate_phi_lse(np.ones(250), np.zeros(250, dtype=bool))
        assert est.is_lower_bound and est.log_inv_phi == math.log(250)

    def test_matches_direct_average(self):
        rng = np.random.default_rng(0)
        c = rng.normal(3.0, 1.0, 10_000)
        acc = c >= 2.0
        est = mc.estimate_phi_lse(c, acc)
        direct = np.mean(np.where(acc, np.exp(-c), 0.0))
        np.testing.assert_allclose(est.log_inv_phi, -math.log(direct), atol=1e-10)
        assert 0 < est.se < 0.05

    def test_jackknife_se_covers_truth(self, t1):
        """At a small horizon the estimator lands within a few SE of the
        enumerated value."""
        spec = build_strategy(t1, "das", horizon=6, reference=0)
        rule = empirical_rule(0, 0.1, 0.05)
        exact = mc.enumerate_exact(t1, spec, rule, 6)
        c_inc, _ = mc.simulate_measure(t1, spec, 6, 0, 30_000, 11, refs=(0,))
        dec = mc.decisions_from_increments(c_inc, (0,), rule)
        est = mc.estimate_phi_lse(c_inc[:, 0], dec == 0)
        assert abs(est.log_inv_phi - (-math.log(exact.phi[0]))) < 4 * est.se


class TestEnumerate:
    def test_always_accept_single_step(self, t1):
        spec = replace(build_strategy(t1, "ors", horizon=1, reference=0),
                       sample_alpha=np.array([1.0, 0.0]))
        rep = mc.enumerate_exact(t1, spec, empirical_rule(0, -1e9, 0.05), 1)
        np.testing.assert_allclose(rep.psi[0], 1.0, atol=1e-12)
        np.testing.assert_allclose(rep.phi[0], 1.0, atol=1e-12)

    def test_declare_iff_zero_observation(self, t1):
        """One probe of sensor A, declare the null iff y = 0: hit rate
        0.6, mixture false-declare rate (0.4 + 0.6)/2 = 0.5."""
        spec = replace(build_strategy(t1, "ors", horizon=1, reference=0),
                       sample_alpha=np.array([1.0, 0.0]))
        from fhat.belief import new_trajectory, step_trajectory, confidence_increment
        inc0 = confidence_increment(step_trajectory(new_trajectory(t1, 0), 0, 0))
        inc1 = confidence_increment(step_trajectory(new_trajectory(t1, 0), 0, 1))
        theta = 0.5 * (inc0 + inc1)
        rep = mc.enumerate_exact(t1, spec, empirical_rule(0, theta, 0.05), 1)
        np.testing.assert_allclose(rep.psi[0], 0.6, atol=1e-12)
        np.testing.assert_allclose(rep.phi[0], 0.5, atol=1e-12)
        np.testing.assert_allclose(rep.gamma, 0.5 * 2 / 3, atol=1e-12)

    def test_enumerates_randomized_strategies(self, t1):
        """ors at alpha* and the symmetric composite with inner ors
        enumerate, and give what oracles.reference_enumerate_exact gives
        by weighing each pick by alpha; table1's leaves are 2^N."""
        sym, sym_rule = symmetric_setup(t1, 2, 0.05, "ors")
        for spec, rule in ((build_strategy(t1, "ors", horizon=2, reference=0),
                            empirical_rule(0, 0.5, 0.05)), (sym, sym_rule)):
            rep = mc.enumerate_exact(t1, spec, rule, 2)
            psi, phi, gamma, leaves = reference_enumerate_exact(t1, spec, rule, 2)
            assert math.isclose(rep.leaves, leaves, rel_tol=1e-12)
            assert math.isclose(rep.leaves, 4, rel_tol=1e-12)
            for i in psi:
                assert math.isclose(rep.psi[i], psi[i], rel_tol=1e-12)
                assert math.isclose(rep.phi[i], phi[i], rel_tol=1e-12)
            assert math.isclose(rep.gamma, gamma, rel_tol=1e-12)

    def test_ors_agrees_with_monte_carlo(self, t1):
        """table1 ors at alpha*, N = 60 and theta = 3: the exact psi and
        ln(1/phi) lie within 3 SE of 200 000 simulated trials."""
        spec = build_strategy(t1, "ors", 60, reference=0)
        rule = empirical_rule(0, 3.0, 0.05)
        exact = mc.enumerate_exact(t1, spec, rule, 60)
        assert exact.states == 61 ** 2
        rep = mc.estimate(mc.SimulationConfig(t1, spec, rule, 60, 200000, 5))
        assert abs(rep.psi_hat[0] - exact.psi[0]) <= 3 * rep.psi_se[0]
        est = rep.lse[0]
        assert abs(est.log_inv_phi + math.log(exact.phi[0])) <= 3 * est.se

    def test_rejects_horizon_above_cap(self, t1, monkeypatch):
        """A horizon whose live lattice states exceed the state cap
        raises; one at the cap runs."""
        spec = build_strategy(t1, "das", horizon=11, reference=0)
        rule = empirical_rule(0, 0.5, 0.05)
        states = mc.enumerate_exact(t1, spec, rule, 11).states
        assert 1 < states < 2 ** 11
        monkeypatch.setattr(mc, "ENUM_STATE_CAP", states)
        mc.enumerate_exact(t1, spec, rule, 11)
        monkeypatch.setattr(mc, "ENUM_STATE_CAP", states - 1)
        with pytest.raises(ValueError, match="cap"):
            mc.enumerate_exact(t1, spec, rule, 11)

    def test_leaf_masses_are_distributions(self, t2):
        spec = build_strategy(t2, "das-rs", horizon=5, reference=0)
        total = np.zeros(3)
        for _, _, loglik in reference_enumerate_paths(t2, spec, 5):
            total += np.exp(loglik)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_threshold_bound_on_misclassification(self, t1):
        """phi(0) <= e^{-theta} exactly, for a grid of thresholds."""
        for N in (3, 6):
            spec = build_strategy(t1, "das", horizon=N, reference=0)
            for theta in (-1.5, -0.3, 0.1, 0.8, 2.0):
                rep = mc.enumerate_exact(t1, spec, empirical_rule(0, theta, 0.05), N)
                assert rep.phi[0] <= math.exp(-theta) + 1e-12

    def test_change_of_measure_targets_phi_exactly(self, t1, t2):
        """E_i[exp(-increment); accept] equals the enumerated
        misclassification probability to 1e-12: the log-sum-exp
        estimator's target is exactly phi."""
        from fhat.numerics import logsumexp
        for model, kind, N in ((t1, "das", 6), (t2, "das-rs", 5),
                               (t2, "chernoff-det", 5)):
            spec = build_strategy(model, kind, horizon=N, reference=0)
            theta = 0.17
            rule = empirical_rule(0, theta, 0.05)
            exact = mc.enumerate_exact(model, spec, rule, N)
            prior_conf = confidence(prior_belief(model), 0)
            alts = list(model.alternates(0))
            expectation = 0.0
            for _, _, loglik in reference_enumerate_paths(model, spec, N):
                lb = model.log_prior + loglik
                inc = (lb[0] - logsumexp(lb[alts])) - prior_conf
                if inc >= theta:
                    expectation += math.exp(loglik[0]) * math.exp(-inc)
            assert abs(expectation - exact.phi[0]) <= 1e-12

    def test_oracle_agreement_other_deterministic_kinds(self, t2):
        """Monte Carlo matches enumeration within 3 SE for the
        restricted-adaptive and benchmark strategies as well."""
        for kind in ("das-rs", "chernoff-det"):
            spec = build_strategy(t2, kind, horizon=6, reference=0)
            rule = empirical_rule(0, 0.17, 0.05)
            exact = mc.enumerate_exact(t2, spec, rule, 6)
            rep = mc.estimate(mc.SimulationConfig(t2, spec, rule, 6, 30000, 21))
            assert abs(rep.psi_hat[0] - exact.psi[0]) <= 3 * rep.psi_se[0] + 1e-9
            assert abs(rep.phi_hat[0] - exact.phi[0]) <= 3 * rep.phi_se[0] + 1e-9
            est = rep.lse[0]
            assert abs(est.log_inv_phi - (-math.log(exact.phi[0]))) <= 3 * est.se

    def test_theory_threshold_feasibility(self, t1):
        """With the theory threshold, the hit-probability constraint
        holds: exactly (enumeration) at small N where the threshold is
        deeply negative, and within Monte Carlo slack at desk horizons."""
        for kind in ("ors", "das", "das-rs"):
            # small horizons: exact
            for N in (4, 6):
                spec = build_strategy(t1, kind, horizon=N, reference=0)
                eps = 0.05
                rule = asymmetric_rule(t1, spec.game, N, eps)
                exact = mc.enumerate_exact(t1, spec, rule, N)
                assert exact.psi[0] >= 1 - eps
            # desk horizons: sampled
            for N in (100, 300, 500):
                eps = min(0.05, 10 / N)
                spec = build_strategy(t1, kind, horizon=N, reference=0, epsilon=eps)
                rule = asymmetric_rule(t1, spec.game, N, eps)
                c_inc, _ = mc.simulate_measure(t1, spec, N, 0, 20000, 13, refs=(0,))
                psi = float(np.mean(c_inc[:, 0] >= rule.thresholds[0]))
                se = math.sqrt(max(psi * (1 - psi), 1e-12) / 20000)
                assert psi >= 1 - eps - 3 * se, (kind, N, psi)

    def test_symmetric_rule_enumeration(self, t1):
        spec = build_strategy(t1, "symmetric", horizon=6)
        games = {i: spec.inner[i].game for i in range(3)}
        rule = symmetric_rule(t1, games, 6, 0.05)
        rep = mc.enumerate_exact(t1, spec, rule, 6)
        assert set(rep.psi) == {0, 1, 2}
        assert rep.gamma <= sum(math.exp(-rule.thresholds[i]) * (1 - t1.prior[i])
                                for i in range(3)) + 1e-12

    @pytest.mark.filterwarnings("ignore:symmetric at N")
    def test_past_the_old_cap_agrees_with_monte_carlo(self, t1, t2):
        """At N = 60, far past the 2^10 leaves a tree walk managed, the
        exact psi and phi agree with 30 000 simulated trials within 3 SE
        (phi through the log-sum-exp estimator), for every hypothesis of
        the symmetric composite; so do table1 das at N = 500, under the
        default state cap."""
        sym = build_strategy(t1, "symmetric", 60)
        games = {i: sym.inner[i].game for i in range(3)}
        cells = [(t1, build_strategy(t1, "das", 60, reference=0),
                  empirical_rule(0, 3.0, 0.05), 60),
                 (t2, build_strategy(t2, "das-rs", 60, reference=0),
                  empirical_rule(0, 3.0, 0.05), 60),
                 (t1, sym, symmetric_rule(t1, games, 60, 0.05), 60),
                 (t1, build_strategy(t1, "das", 500, reference=0, epsilon=0.02),
                  empirical_rule(0, 10.0, 0.02), 500)]
        for model, spec, rule, N in cells:
            exact = mc.enumerate_exact(model, spec, rule, N)
            if N == 60:
                assert exact.leaves == 2 ** N
            else:   # a float sum of path counts
                assert math.isclose(exact.leaves, 2 ** N, rel_tol=1e-12)
            rep = mc.estimate(mc.SimulationConfig(model, spec, rule, N, 30000, 1))
            assert set(exact.psi) == set(rule.thresholds)
            for i in exact.psi:
                assert abs(rep.psi_hat[i] - exact.psi[i]) <= 3 * rep.psi_se[i]
                est = rep.lse[i]
                assert abs(est.log_inv_phi + math.log(exact.phi[i])) <= 3 * est.se

    def test_past_2_to_the_1024_paths(self):
        """One binary experiment, p(1 | 0) = 0.6 and p(1 | 1) = 0.4, at
        N = 1100: the increment is (2 n1 - N) ln 1.5, so psi and phi
        are binomial tails of Bin(N, 0.6) and Bin(N, 0.4), here summed
        exactly.  The path multiplicities pass 2^1024 on the way."""
        m = make_model(["0", "1"], ["A"], ["0", "1"],
                       [[[0.4, 0.6]], [[0.6, 0.4]]], [0.5, 0.5])
        N, theta = 1100, 3.0
        rep = mc.enumerate_exact(m, build_strategy(m, "das", N, reference=0),
                                 empirical_rule(0, theta, 0.05), N)
        n1 = math.ceil((theta / math.log(1.5) + N) / 2)

        def tail(a, b):     # P(Bin(N, a / 5) >= n1), b = 5 - a
            return float(Fraction(sum(math.comb(N, k) * a ** k * b ** (N - k)
                                      for k in range(n1, N + 1)), 5 ** N))

        for got, want in ((rep.psi[0], tail(3, 2)), (rep.phi[0], tail(2, 3)),
                          (rep.gamma, 0.5 * tail(2, 3))):
            assert abs(got - want) <= 1e-9 * want
        assert isinstance(rep.leaves, int)
        assert abs(rep.leaves - 2 ** N) <= 2 ** N // 10 ** 12
        assert rep.states == N + 1

    def test_float_models_key_on_counts(self, t1):
        """A model not written in short decimals merges paths on their
        counts n[u, y]: `states` is the most distinct count vectors that
        one level of the observation tree reaches, found here path by
        path.  table1's lattice holds fewer."""
        rule = empirical_rule(0, 0.5, 0.05)
        for m in (*kernel_models(), four_hypothesis_model(), t1):
            for N in range(1, 7):
                spec = build_strategy(m, "das", N, reference=0)
                levels = [set() for _ in range(N)]
                for exps, obs, _ in reference_enumerate_paths(m, spec, N):
                    for t in range(1, N + 1):
                        levels[t - 1].add(frozenset(Counter(zip(exps[:t], obs[:t])).items()))
                count_states = max(len(level) for level in levels)
                states = mc.enumerate_exact(m, spec, rule, N).states
                if m is t1:
                    assert states <= count_states and (N < 3 or states < count_states)
                else:
                    assert ratio_lattice(m, (None, *range(m.num_hypotheses))) is None
                    assert states == count_states


class TestEnumerateOracle:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_recursive_walk(self, t1, t2, kind):
        """The lattice-state dynamic program gives the psi, phi and gamma
        of the scalar per-leaf loop over the node-by-node recursion in
        oracles.reference_enumerate_paths to 1e-12 relative (it sums in
        another order), and exactly its leaf count, on float models
        (keyed on counts) and on short-decimal ones (keyed on the
        likelihood lattice).  `ors` is a point mass on the last
        experiment."""
        for m in (t1, t2, *kernel_models(), four_hypothesis_model(),
                  *decimal_models()):
            M = m.num_hypotheses
            deep = 8 if m.num_observations == 2 else 7
            for N in (1, 4, deep):
                if kind == "symmetric":
                    spec = build_strategy(m, kind, N)
                    games = {i: spec.inner[i].game for i in range(M)}
                    rules = [symmetric_rule(m, games, N, 0.5)]
                else:
                    spec = build_strategy(m, kind, N, reference=0)
                    if kind == "ors":
                        spec = replace(spec, sample_alpha=np.eye(m.num_experiments)[-1])
                    rules = [empirical_rule(0, theta * N, 0.05)
                             for theta in (0.025, 0.25)]
                for rule in rules:
                    rep = mc.enumerate_exact(m, spec, rule, N)
                    psi, phi, gamma, leaves = reference_enumerate_exact(
                        m, spec, rule, N)
                    assert rep.leaves == leaves
                    assert rep.psi.keys() == psi.keys() == phi.keys()
                    for got, want in [*((rep.psi[i], psi[i]) for i in psi),
                                      *((rep.phi[i], phi[i]) for i in phi),
                                      (rep.gamma, gamma)]:
                        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("kind", ["ors", "symmetric"])
    def test_sampling_rules_match_weighted_walk(self, t1, t2, kind):
        """ors at alpha* and the symmetric composite with inner ors:
        the dynamic program, which picks once per piece of the draw's
        range, gives the psi, phi, gamma and leaves of
        oracles.reference_enumerate_exact, which weighs each experiment
        by alpha directly, to 1e-12 relative."""
        for m in (t1, t2, *kernel_models(), four_hypothesis_model()):
            for N in (1, 4, 6):
                if kind == "symmetric":
                    spec, rule = symmetric_setup(m, N, 0.5, "ors")
                    rules = [rule]
                else:
                    spec = build_strategy(m, kind, N, reference=0)
                    rules = [empirical_rule(0, theta * N, 0.05)
                             for theta in (0.025, 0.25)]
                for rule in rules:
                    rep = mc.enumerate_exact(m, spec, rule, N)
                    psi, phi, gamma, leaves = reference_enumerate_exact(
                        m, spec, rule, N)
                    assert rep.psi.keys() == psi.keys() == phi.keys()
                    for got, want in [*((rep.psi[i], psi[i]) for i in psi),
                                      *((rep.phi[i], phi[i]) for i in phi),
                                      (rep.gamma, gamma), (rep.leaves, leaves)]:
                        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("kind", KINDS)
    def test_block_selection_matches_scalar(self, t1, t2, kind):
        """The selector on a block of rows, fed raw log beliefs or their
        normalized form, and select_experiment on each row pick what the
        1-D oracles.reference_select_experiment picks, on beliefs reached
        by random histories (table1's lattice has exact ties) at horizons
        where s_N clamps to 1 and where it is below 1; `ors` also with a
        sampling mixture and a seeded generator, which select_experiment
        and the oracle must consume alike."""
        rng = np.random.default_rng(53)
        tilts = set()
        for m in (t1, t2, *kernel_models(), four_hypothesis_model()):
            M, U, Y = m.kernel.shape
            ll = np.zeros((400, M))
            for step in range(30):
                u = rng.integers(U, size=ll.shape[0])
                nth = (rng.random(ll.shape[0]) * m.support[u].sum(axis=1)).astype(int)
                y = [np.flatnonzero(m.support[a])[b] for a, b in zip(u, nth)]
                ll += m.log_kernel[:, u, y].T
            lb = m.log_prior + ll
            lp = log_normalize(lb, axis=1)
            for N in (4, 60, 400):
                if kind == "symmetric":
                    spec = build_strategy(m, kind, N)
                    tilts.update(inner.s_value < 1 for inner in spec.inner)
                else:
                    spec = build_strategy(m, kind, N, reference=0)
                    if kind == "ors":
                        spec = replace(spec, sample_alpha=np.eye(U)[-1])
                    tilts.add(spec.s_value < 1)
                want = [reference_select_experiment(spec, Belief(row), ZeroRng())
                        for row in lp]
                for rows in (lb, lp):
                    got = mc._select_batch(spec, rows, np.zeros(len(rows)))
                    assert got.tolist() == want
                assert [select_experiment(spec, Belief(row), ZeroRng())
                        for row in lp] == want
            if kind == "ors":
                spec = build_strategy(m, kind, 60, reference=0)
                gens = [np.random.default_rng(9) for _ in range(3)]
                want = [reference_select_experiment(spec, Belief(row), gens[0])
                        for row in lp]
                draws = np.array([gens[1].random() for _ in lp])
                assert mc._select_batch(spec, lp, draws).tolist() == want
                assert [select_experiment(spec, Belief(row), gens[2])
                        for row in lp] == want
                assert len({g.random() for g in gens}) == 1
        assert tilts == {False, True}


class TestBestThresholdSearch:
    @staticmethod
    def calibrate(model, spec, N, eps, trials, seed):
        """The calibration batch under the reference and its threshold."""
        c_inc, _ = mc.simulate_measure(model, spec, N, 0, trials, seed,
                                       mc.PURPOSE_CALIBRATE, refs=(0,))
        return mc.best_threshold_search(model, N, eps, c_inc), c_inc

    def test_near_one_epsilon_returns_top_of_sample(self, t1):
        """An almost-vacuous constraint calibrates to the largest
        increment seen in the calibration batch."""
        spec = build_strategy(t1, "das", horizon=5, reference=0)
        theta, c_inc = self.calibrate(t1, spec, 5, 0.999999, 2000, 1)
        assert theta == pytest.approx(float(c_inc.max()), abs=1e-5)
        assert theta <= 5 * t1.llr_bound

    def test_identical_rows_model_calibrates_near_zero(self):
        m = identical_rows_model()
        with pytest.warns(RuntimeWarning):
            spec = build_strategy(m, "das", horizon=5, reference=0)
        theta, _ = self.calibrate(m, spec, 5, 0.05, 2000, 1)
        assert abs(theta) < 1e-5   # increments are identically zero

    def test_calibrated_threshold_meets_constraint(self, t1):
        spec = build_strategy(t1, "das", horizon=40, reference=0)
        eps = 0.05
        theta, c_inc = self.calibrate(t1, spec, 40, eps, 5000, 2)
        assert np.mean(c_inc[:, 0] >= theta) >= 1 - eps
        # largest such threshold: nudging it up breaks the constraint
        assert np.mean(c_inc[:, 0] >= theta + 1e-4) < 1 - eps

    def test_shared_quantile_level(self, t1):
        """Hand-made increments, four of them at the (1 - eps)-quantile
        level 1.3: theta lands within THRESHOLD_TOL below that level, so
        psi(theta) counts all four and psi(theta + THRESHOLD_TOL) none."""
        c_inc = np.array([5.0, 1.3, -2.0, 1.3, 4.1, 1.3, 0.2, 2.5, 1.3, 3.0])[:, None]
        eps = 0.25

        def psi(theta):
            return np.mean(c_inc[:, 0] >= theta)

        theta = mc.best_threshold_search(t1, 20, eps, c_inc)
        assert psi(theta) == 0.8 >= 1 - eps
        assert psi(theta + mc.THRESHOLD_TOL) == 0.4 < 1 - eps
        assert 1.3 - mc.THRESHOLD_TOL <= theta <= 1.3

    def test_empirical_beats_theory_threshold(self, t1):
        """The theory threshold is conservative: calibration finds a
        strictly larger cut at the same epsilon."""
        from fhat.strategy import threshold_asymmetric
        spec = build_strategy(t1, "das", horizon=200, reference=0)
        eps = 0.05
        theory = threshold_asymmetric(200, spec.game, eps, 3, t1.llr_bound)
        empirical, _ = self.calibrate(t1, spec, 200, eps, 4000, 3)
        assert empirical > theory


class TestSweep:
    def test_empty_grid_gives_empty_table(self, t1):
        assert mc.sweep(t1, ["das"], 0, [], 100, 0) == []

    def test_rows_and_csv_format(self, t1):
        rows = mc.sweep(t1, ["ors", "das"], 0, [5, 10], 400, 3,
                        strong="binary", nu=0.6)
        assert len(rows) == 4
        csv = mc.rows_to_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == ",".join(mc.CSV_COLUMNS)
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "ors" and first[1] == "5"

    @pytest.mark.filterwarnings("ignore:symmetric at N")
    def test_symmetric_row(self, t1):
        rows = mc.sweep(t1, ["symmetric"], 0, [20], 600, 4)
        (row,) = rows
        assert row.strategy == "symmetric"
        assert 0 <= row.psi_hat <= 1
        assert row.gamma_hat >= 0

    @pytest.mark.filterwarnings("ignore:symmetric at N")
    def test_repeated_symmetric_horizon_runs_once(self, t1, monkeypatch):
        """The symmetric composite, like the other kinds, simulates each
        distinct horizon once: 30 shares the run to 60, one estimation
        run under each hypothesis.  Every row equals the row of a sweep
        of its horizon alone."""
        horizons = [60, 60, 30, 60]
        alone = {N: mc.sweep(t1, ["symmetric"], 0, [N], 2000, 5)[0]
                 for N in set(horizons)}
        calls = []
        run = mc.simulate_measure

        def counted(model, spec, N, true_hyp, trials, seed, purpose, **kw):
            calls.append((N, tuple(kw["snapshots"]), true_hyp, purpose))
            return run(model, spec, N, true_hyp, trials, seed, purpose, **kw)

        monkeypatch.setattr(mc, "simulate_measure", counted)
        rows = mc.sweep(t1, ["symmetric"], 0, horizons, 2000, 5)
        assert calls == [(60, (30,), h, mc.PURPOSE_ESTIMATE) for h in range(3)]
        assert [r.N for r in rows] == horizons
        for row in rows:
            for name, value in vars(row).items():
                other = getattr(alone[row.N], name)
                assert value == other or (value != value and other != other), name
        # with inner ors every horizon shares: one run under each hypothesis
        calls.clear()
        mc.sweep(t1, ["symmetric"], 0, range(100, 501, 100), 300, 2, inner_kind="ors")
        assert calls == [(500, (100, 200, 300, 400), h, mc.PURPOSE_ESTIMATE)
                         for h in range(3)]

    def test_symmetric_row_short_of_the_hit_constraint_warns(self, t1):
        """On table1 the composite's psi_hat is below 1 - eps by more
        than 3 SE at N = 100 and not at 200: a sweep of both warns once,
        for 100, and its rows are those of the same sweep run with
        warnings silenced."""
        with pytest.warns(RuntimeWarning, match="symmetric at N") as record:
            rows = mc.sweep(t1, ["symmetric"], 0, [100, 200], 9000, 7)
        (warned,) = [str(w.message) for w in record
                     if str(w.message).startswith("symmetric at N")]
        assert warned.startswith("symmetric at N = 100:")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            quiet = mc.sweep(t1, ["symmetric"], 0, [100, 200], 9000, 7)
        assert mc.rows_to_csv(rows) == mc.rows_to_csv(quiet)

    @pytest.mark.filterwarnings("ignore:symmetric at N")
    def test_symmetric_row_reads_the_estimate_report(self, t1):
        """A symmetric row's ln(1/phi) and its SE are ln(1/gamma) and the
        relative SE of gamma from the log-sum-exp channel of estimate()
        on the same cell."""
        (row,) = mc.sweep(t1, ["symmetric"], 0, [30], 3000, 11)
        spec, rule = symmetric_setup(t1, 30, default_epsilon(30))
        rep = mc.estimate(mc.SimulationConfig(t1, spec, rule, 30, 3000, 11))
        assert row.log_inv_phi == -math.log(rep.gamma_hat_lse)
        assert row.log_inv_phi_se == rep.gamma_lse_se / rep.gamma_hat_lse

    @pytest.mark.parametrize("workers", [0, 2])
    def test_shared_horizons_match_single_cells(self, t1, t2, workers):
        """ors and chernoff-det run once to their longest horizon; each
        row equals, field for field, the row of a sweep of its horizon
        alone, with unsorted and repeated horizons and a partial second
        chunk."""
        horizons = [12, 5, 30, 12]
        T = mc.CHUNK + 1
        cases = [(t1, ["ors"], dict(strong="binary", nu=0.6)),
                 (t2, ["ors", "chernoff-det"], dict(strong="empirical"))]
        for m, kinds, kw in cases:
            rows = mc.sweep(m, kinds, 0, horizons, T, 19, workers=workers, **kw)
            alone = [mc.sweep(m, [kind], 0, [N], T, 19, workers=workers, **kw)[0]
                     for kind in kinds for N in horizons]
            assert [(r.strategy, r.N) for r in rows] == \
                [(kind, N) for kind in kinds for N in horizons]
            for a, b in zip(rows, alone):
                for name, value in vars(a).items():
                    other = getattr(b, name)
                    assert value == other or (value != value and other != other), name

    @pytest.mark.filterwarnings("ignore:symmetric at N")
    @pytest.mark.parametrize("workers", [0, 2])
    def test_lattice_keyed_horizons_match_single_cells(self, t1, t2, workers):
        """das and das-rs rows equal, field for field, the rows of sweeps
        of one horizon, where the horizons share a run (table1, on both
        sides of the s = 1 clamp, and table2 das-rs, keyed on C and D)
        and where their picks differ and the sweep falls back to a run
        per horizon or a shorter group (table2 das), also across the
        horizon past which table2 das has no pick table.  So do the rows
        of the table1 symmetric composite, whose runs under every
        hypothesis share where its picks agree (inner das) and at every
        horizon (inner ors)."""
        T = mc.CHUNK + 1
        cases = [(t1, ["das", "das-rs"], [300, 10, 50, 100, 49, 10],
                  dict(strong="binary", nu=0.6)),
                 (t2, ["das-rs"], [500, 100, 300], dict(strong="empirical")),
                 (t2, ["das"], [5, 7, 12, 20, 30, 34], dict(strong="empirical")),
                 (t2, ["das"], [5, 10, 60, 80], dict(strong="empirical")),
                 *((t1, ["symmetric"], [200, 10, 49, 100, 60, 10], dict(inner_kind=inner))
                   for inner in ("das", "ors"))]
        for m, kinds, horizons, kw in cases:
            rows = mc.sweep(m, kinds, 0, horizons, T, 23, workers=workers, **kw)
            assert [(r.strategy, r.N) for r in rows] == \
                [(kind, N) for kind in kinds for N in horizons]
            for row in rows:
                (alone,) = mc.sweep(m, [row.strategy], 0, [row.N], T, 23,
                                    workers=workers, **kw)
                for name, value in vars(row).items():
                    other = getattr(alone, name)
                    assert value == other or (value != value and other != other), name

    def test_lattice_keyed_groups_run_once_per_purpose(self, t1, t2, monkeypatch):
        """On table1 a das or das-rs horizon group makes one calibration
        and one estimation run, and so does table2 das-rs to N = 500; on
        table2 das 30 picks apart from 34, 20 from 30 and 12 from 20, but
        5 and 7 share the run to 12, which the sweep finds before
        running, so it makes eight runs."""
        calls = []
        run = mc.simulate_measure

        def counted(model, spec, N, true_hyp, trials, seed, purpose, **kw):
            calls.append((spec.kind, N, tuple(kw["snapshots"]), purpose))
            return run(model, spec, N, true_hyp, trials, seed, purpose, **kw)

        monkeypatch.setattr(mc, "simulate_measure", counted)
        mc.sweep(t1, ["das", "das-rs"], 0, [300, 10, 50, 100, 49], 300, 2)
        assert calls == [(kind, 300, (10, 49, 50, 100), purpose)
                         for kind in ("das", "das-rs")
                         for purpose in (mc.PURPOSE_CALIBRATE, mc.PURPOSE_ESTIMATE)]
        calls.clear()
        mc.sweep(t2, ["das-rs"], 0, [500, 100, 300], 300, 2)
        assert calls == [("das-rs", 500, (100, 300), purpose)
                         for purpose in (mc.PURPOSE_CALIBRATE, mc.PURPOSE_ESTIMATE)]
        calls.clear()
        mc.sweep(t2, ["das"], 0, [5, 7, 12, 20, 30, 34], 300, 2)
        assert calls == [("das", N, snapshots, purpose)
                         for N, snapshots in ((34, ()), (30, ()), (20, ()), (12, (5, 7)))
                         for purpose in (mc.PURPOSE_CALIBRATE, mc.PURPOSE_ESTIMATE)]

    def test_grouping_is_decided_before_running(self, t1, t2):
        """_shares decides which shorter horizons share a longer one's
        run from the specs alone: table1 das and das-rs share from 10 to
        400 with 500, on both sides of the s = 1 clamp, table2 das-rs
        shares 100 and 300 with 500, table2 das at 5 to 30 picks apart
        from 34 at some point of each shorter box and 5 and 7 share with
        12.  ors and chernoff-det share with no table, and table2 das at
        60, which has none, shares nothing.  The table1 symmetric
        composite with inner das shares 10, 49 and 60 with 100 and 199
        with 200, but 100 and 150 pick apart from 200, 200 from 350, and
        350 and 499 from 500; with inner ors or chernoff-det it shares
        every horizon.  table2 symmetric with inner das-rs shares 5 with
        6, and has no table past 6."""
        cases = [(t1, "das", 500, (10, 49, 50, 100, 200, 300, 400), True),
                 (t1, "das-rs", 500, (10, 49, 50, 100, 200, 300, 400), True),
                 (t2, "das-rs", 500, (100, 300), True),
                 (t2, "das", 34, (5, 7, 12, 20, 30), False),
                 (t2, "das", 12, (5, 7), True),
                 (t2, "das", 60, (5, 10, 30, 50), False),
                 (t1, "ors", 500, (10, 100), True),
                 (t2, "chernoff-det", 500, (10, 100), True),
                 (t1, "symmetric-das", 100, (10, 49, 60), True),
                 (t1, "symmetric-das", 200, (199,), True),
                 (t1, "symmetric-das", 200, (100, 150), False),
                 (t1, "symmetric-das", 350, (200,), False),
                 (t1, "symmetric-das", 500, (350, 499), False),
                 (t1, "symmetric-ors", 500, (10, 100, 499), True),
                 (t1, "symmetric-chernoff-det", 500, (10, 100, 499), True),
                 (t2, "symmetric-das-rs", 6, (5,), True),
                 (t2, "symmetric-das-rs", 12, (5, 6), False)]
        tableless = {("das", 60), ("symmetric-das-rs", 12)}

        def build(m, kind, n):
            if kind.startswith("symmetric-"):
                return build_strategy(m, "symmetric", n,
                                      inner_kind=kind[len("symmetric-"):])
            return build_strategy(m, kind, n, reference=0)

        for m, kind, N, shorter, share in cases:
            spec = build(m, kind, N)
            table = None if spec.horizon_free() else mc._pick_table(spec, N)
            assert (table is None) == (spec.horizon_free() or (kind, N) in tableless), \
                (kind, N)
            for n in shorter:
                other = build(m, kind, n)
                assert mc._shares(spec, N, other, n) is share, (kind, N, n)
                assert mc._shares(other, n, other, n)

    def test_shares_stops_at_the_first_block_that_differs(self, t2, monkeypatch):
        """table2 das at 30 picks apart from 34 a few blocks into its
        29-step box: _shares says so having handed the selector fewer
        rows than that box holds."""
        spec = build_strategy(t2, "das", 34, reference=0)
        mc._pick_table(spec, 34)
        other = build_strategy(t2, "das", 30, reference=0)
        seen = TestPickCache.counted_rows(monkeypatch)
        assert not mc._shares(spec, 34, other, 30)
        box = math.prod(mc._lattice_box(other.pick_key, 29, mc.PICK_TABLE_CAP)[3])
        assert 0 < seen[0] < box

    @pytest.mark.filterwarnings("ignore:game value:RuntimeWarning")
    def test_shares_slices_every_key_column(self):
        """On short-decimal models whose das key box is wider along some
        key columns than others, a spec shares with itself at every
        shorter horizon: _shares finds the (n - 1)-step box in the right
        place along each column of the table."""
        rng = np.random.default_rng(29)
        found = 0
        while found < 3:
            m = decimal_model(rng, units=10)
            try:
                spec = build_strategy(m, "das", 12, reference=0)
            except ValueError:
                continue
            if mc._pick_table(spec, 12) is None:
                continue
            width = mc._lattice_box(spec.pick_key, 12, mc.PICK_TABLE_CAP)[3]
            if len(set(width)) < 2:
                continue
            found += 1
            for n in range(1, 12):
                assert mc._shares(spec, 12, spec, n), (width, n)

    @pytest.mark.filterwarnings("ignore:symmetric at N")
    def test_horizon_groups_bound_memory(self, t2, monkeypatch):
        """A horizon list longer than the result budget runs in groups,
        each to its own longest horizon; a repeated horizon of any kind
        runs once.  Rows still equal those of sweeps of one horizon.
        The M = 3 composite's results take 72 bytes per trial and
        horizon, an asymmetric kind's 24."""
        T = 500
        calls = []
        run = mc.simulate_measure

        def counted(model, spec, N, *args, **kw):
            calls.append((spec.kind, N, tuple(kw["snapshots"])))
            return run(model, spec, N, *args, **kw)

        horizons = [12, 5, 30, 12, 7]
        alone = {(kind, N): mc.sweep(t2, [kind], 0, [N], T, 4, strong="empirical")[0]
                 for kind in ("ors", "das-rs") for N in set(horizons)}
        monkeypatch.setattr(mc, "_SHARED_BYTES", 24 * T * 2)
        monkeypatch.setattr(mc, "simulate_measure", counted)
        rows = mc.sweep(t2, ["ors", "das-rs"], 0, horizons, T, 4, strong="empirical")
        assert calls[::2] == [("ors", 30, (12,)), ("ors", 7, (5,)),
                              ("das-rs", 30, (12,)), ("das-rs", 7, (5,))]
        assert calls[1::2] == calls[::2]
        for row in rows:
            assert vars(row) == vars(alone[(row.strategy, row.N)])
        assert [(r.strategy, r.N) for r in rows] == \
            [(kind, N) for kind in ("ors", "das-rs") for N in horizons]
        # the M = 3 composite holds 72 bytes per trial and horizon
        calls.clear()
        monkeypatch.setattr(mc, "_SHARED_BYTES", 72 * T * 2)
        mc.sweep(t2, ["symmetric"], 0, horizons, T, 4, inner_kind="ors")
        assert calls == [("symmetric", N, snapshots)
                         for N, snapshots in ((30, (12,)), (7, (5,))) for _ in range(3)]
        calls.clear()
        monkeypatch.setattr(mc, "_SHARED_BYTES", 72 * T * 2 - 1)
        mc.sweep(t2, ["symmetric"], 0, horizons, T, 4, inner_kind="ors")
        assert calls == [("symmetric", N, ()) for N in (30, 12, 7, 5) for _ in range(3)]

    @pytest.mark.filterwarnings("ignore:symmetric at N")
    def test_one_pick_table_alive_at_a_time(self, t1, t2, monkeypatch):
        """A sweep drops each group's specs, and the leader's pick table
        with them, once the group's rows are made: when a later leader
        fills its table no earlier one is left, and none is left after
        the sweep.  Both sweeps below run in several groups, each leader
        with a table."""
        filled = []
        alive = []
        fill = mc._pick_table

        def counted(spec, N):
            alive.append(sum(ref() is not None for ref in filled))
            table = fill(spec, N)
            if table is not None and all(ref() is not spec for ref in filled):
                filled.append(weakref.ref(spec))
            return table

        monkeypatch.setattr(mc, "_pick_table", counted)
        for model, kind, horizons in ((t1, "symmetric", [100, 200, 300, 400, 500]),
                                      (t2, "das", [5, 7, 12, 20, 30, 34])):
            filled.clear()
            alive.clear()
            mc.sweep(model, [kind], 0, horizons, 100, 3)
            assert len(filled) >= 4
            assert max(alive) == 1
            assert all(ref() is None for ref in filled)

    def test_shared_horizons_reject_like_single_cells(self, t1):
        """A horizon the single-cell path rejects raises the same error
        in a shared sweep."""
        def error(kind, horizons, **kw):
            with pytest.raises(Exception) as info:
                mc.sweep(t1, [kind], 0, horizons, 50, 0, **kw)
            return type(info.value), str(info.value)

        for kw in ({}, {"epsilon_fn": lambda N: 0.05}):
            want = error("das", [5, 0], **kw)
            for kind in ("ors", "chernoff-det", "symmetric"):
                assert error(kind, [5, 0], **kw) == want
                assert error(kind, [0], **kw) == want

    def test_unknown_strong_channel(self, t1):
        with pytest.raises(ValueError, match="strong"):
            mc.sweep(t1, ["das"], 0, [5], 100, 0, strong="bogus")
