"""Selection strategies, tilt/threshold schedules, inference rules."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import four_hypothesis_model, random_model
from fhat.belief import Belief, confidence, prior_belief
from fhat.game import solve
from fhat.model import kl_divergence, make_model
from fhat.montecarlo import _select_batch
from fhat.numerics import log_normalize, logsumexp
from fhat.strategy import (INNER_KINDS, KINDS, InferenceRule, asymmetric_rule,
                           build_strategy, criterion_holds, default_epsilon,
                           default_n_prime, empirical_rule, infer, mgf, mgf_matrix,
                           reads_draws, s_schedule, select_batch,
                           select_experiment, symmetric_rule, threshold_asymmetric,
                           threshold_symmetric)
from oracles import log_likelihood_ratio, reference_select, score_all, score_M

LN15 = math.log(1.5)


def belief_grid(step=0.05, include_reference_only=False):
    """All 3-hypothesis beliefs on a step grid, skipping the corner with
    no alternate mass (scores are undefined there)."""
    n = round(1 / step)
    for a in range(n + 1):
        for b in range(n + 1 - a):
            c = n - a - b
            if b == 0 and c == 0 and not include_reference_only:
                continue
            yield (a / n, b / n, c / n)


class TestSchedules:
    def test_default_epsilon(self):
        assert default_epsilon(100) == 0.05
        assert default_epsilon(500) == 0.02
        np.testing.assert_allclose(default_epsilon(400), 0.025)

    def test_s_schedule_paper_operating_point(self):
        got = s_schedule(500, 3, 0.02, LN15)
        expect = math.sqrt(2 * math.log(3 / 0.02) / (500 * LN15**2))
        np.testing.assert_allclose(got, expect, atol=1e-15)
        np.testing.assert_allclose(got, 0.34916, atol=5e-6)

    def test_clamped_at_one(self):
        assert s_schedule(2, 5, 0.01, 0.1) == 1.0

    def test_exact_boundary(self):
        # choose epsilon with 2 ln(M/eps) = N B^2 exactly
        N, M, B = 50, 3, 0.5
        eps = M * math.exp(-N * B * B / 2.0)
        np.testing.assert_allclose(s_schedule(N, M, eps, B), 1.0, atol=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            s_schedule(0, 3, 0.1, 1.0)
        with pytest.raises(ValueError):
            s_schedule(10, 3, 1.5, 1.0)


class TestMgf:
    def test_endpoints_are_one(self, t1):
        for (i, j, u) in [(0, 1, 0), (0, 2, 1), (1, 2, 0)]:
            np.testing.assert_allclose(mgf(t1, i, j, u, 0.0), 1.0, atol=1e-12)
            np.testing.assert_allclose(mgf(t1, i, j, u, 1.0), 1.0, atol=1e-12)

    def test_half_tilt_matches_bhattacharyya(self, t1):
        got = mgf(t1, 0, 1, 0, 0.5)
        np.testing.assert_allclose(got, 2 * math.sqrt(0.24), atol=1e-12)

    def test_at_most_one_inside(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            m = random_model(rng)
            i, j = 0, 1
            for u in range(m.num_experiments):
                for s in (0.1, 0.5, 0.9):
                    assert mgf(m, i, j, u, s) <= 1.0 + 1e-12

    def test_two_evaluation_forms_agree(self, t2):
        for u in range(4):
            for s in (0.3, 0.7):
                via_power = sum(t2.kernel[0, u, y] ** (1 - s) * t2.kernel[1, u, y] ** s
                                for y in range(2))
                via_llr = sum(t2.kernel[0, u, y]
                              * math.exp(-s * log_likelihood_ratio(t2, 0, 1, u, y))
                              for y in range(2))
                np.testing.assert_allclose(mgf(t2, 0, 1, u, s), via_power, atol=1e-12)
                np.testing.assert_allclose(mgf(t2, 0, 1, u, s), via_llr, atol=1e-12)


class TestScore:
    def test_two_hypotheses_ignore_belief(self):
        m = make_model(["a", "b"], ["u", "v"], ["0", "1"],
                       [[[0.3, 0.7], [0.5, 0.5]], [[0.8, 0.2], [0.1, 0.9]]],
                       [0.5, 0.5])
        for p in ([0.9, 0.1], [0.2, 0.8]):
            got = score_M(m, 0, 0, Belief.from_probs(p), 0.5)
            np.testing.assert_allclose(got, mgf(m, 0, 1, 0, 0.5), atol=1e-12)

    def test_table1_uniform_half_tilt(self, t1):
        got = score_M(t1, 0, 0, Belief.uniform(3), 0.5)
        np.testing.assert_allclose(got, (2 * math.sqrt(0.24) + 1) / 2, atol=1e-12)

    def test_table1_ordering_follows_belief(self, t1):
        b = Belief.from_probs([0.3, 0.5, 0.2])
        for s in (0.2, 0.5, 1.0 - 1e-9):
            assert score_M(t1, 0, 0, b, s) < score_M(t1, 0, 1, b, s)


class TestSelectExperiment:
    def test_das_reduction_table1(self, t1):
        """On the two-sensor model the adaptive rule probes the sensor
        whose anomaly hypothesis currently dominates, for every tilt
        strictly inside (0, 1)."""
        spec = build_strategy(t1, "das", horizon=500, reference=0)
        rng = np.random.default_rng(0)
        for s in np.arange(0.05, 1.0, 0.05):
            sp = replace(spec, s_value=float(s), mu=mgf_matrix(t1, 0, float(s)))
            for p in belief_grid():
                want = 0 if p[1] >= p[2] else 1
                assert select_experiment(sp, Belief.from_probs(p), rng) == want

    def test_das_rs_reduction_table2(self, t2):
        spec = build_strategy(t2, "das-rs", horizon=500, reference=0)
        rng = np.random.default_rng(0)
        assert list(spec.support_mask) == [False, False, True, True]
        for s in np.arange(0.05, 1.0, 0.05):
            sp = replace(spec, s_value=float(s), mu=mgf_matrix(t2, 0, float(s)))
            for p in belief_grid():
                want = 2 if p[1] >= p[2] else 3
                assert select_experiment(sp, Belief.from_probs(p), rng) == want

    def test_tilt_one_uses_divergence_limit(self, t2):
        """At s = 1 every tilted score is 1, so das/das-rs minimize the
        s -> 1- limit: they pick argmax_u sum_j w_j D(p_j^u || p_i^u), w
        the normalized alternate beliefs.  The restricted rule reduces to
        C/D on table 2, and the batch and scalar selectors agree."""
        spec = build_strategy(t2, "das-rs", horizon=10, reference=0)
        assert spec.s_value == 1.0
        for p in belief_grid():
            want = 2 if p[1] >= p[2] else 3
            assert select_experiment(spec, Belief.from_probs(p), None) == want

        rng = np.random.default_rng(11)
        for _ in range(50):
            m = random_model(rng)
            M, U = m.num_hypotheses, m.num_experiments
            kl = np.zeros((U, M - 1))
            for u in range(U):
                idx = m.support_indices(u)
                for k, j in enumerate(m.alternates(0)):
                    kl[u, k] = kl_divergence(m.kernel[j, u, idx], m.kernel[0, u, idx])
            lb = np.log(rng.dirichlet(np.ones(M), size=20)) + rng.normal(size=(20, 1))
            w = np.exp(lb[:, 1:] - logsumexp(lb[:, 1:], axis=1, keepdims=True))
            for kind in ("das", "das-rs"):
                spec = build_strategy(m, kind, horizon=1, reference=0)
                assert spec.s_value == 1.0
                target = w @ kl.T
                if kind == "das-rs":
                    target = np.where(spec.support_mask, target, -np.inf)
                want = np.argmax(target, axis=1)
                batch = _select_batch(spec, lb, np.zeros(20))
                scalar = [select_experiment(spec, Belief(log_normalize(row)), None)
                          for row in lb]
                assert list(batch) == list(want)
                assert scalar == list(want)

    def test_chernoff_det_reduction_table2(self, t2):
        spec = build_strategy(t2, "chernoff-det", horizon=500, reference=0)
        rng = np.random.default_rng(0)
        for p in belief_grid():
            want = 0 if p[1] >= p[2] else 1
            assert select_experiment(spec, Belief.from_probs(p), rng) == want

    def test_ors_samples_alpha_star(self, t1):
        spec = build_strategy(t1, "ors", horizon=100, reference=0)
        rng = np.random.default_rng(1)
        picks = [select_experiment(spec, Belief.uniform(3), rng) for _ in range(4000)]
        frac = np.mean(np.asarray(picks) == 0)
        assert abs(frac - 0.5) < 0.03

    def test_ors_point_mass_override(self, t1):
        spec = replace(build_strategy(t1, "ors", horizon=100, reference=0),
                       sample_alpha=np.array([0.0, 1.0]))
        rng = np.random.default_rng(2)
        assert all(select_experiment(spec, Belief.uniform(3), rng) == 1
                   for _ in range(20))

    def test_symmetric_delegates_to_ml_hypothesis(self, t1):
        spec = build_strategy(t1, "symmetric", horizon=200)
        rng = np.random.default_rng(3)
        # ML hypothesis 1: its inner strategy always probes sensor A
        b = Belief.from_probs([0.2, 0.6, 0.2])
        assert select_experiment(spec, b, rng) == 0
        # ML hypothesis 2: always sensor B
        b = Belief.from_probs([0.2, 0.2, 0.6])
        assert select_experiment(spec, b, rng) == 1

    def test_symmetric_uses_uniform_prior_posterior(self):
        """With a skewed prior, the ML estimate divides the prior out."""
        kernel = [[[0.6, 0.4]], [[0.4, 0.6]]]
        m = make_model(["a", "b"], ["u"], ["0", "1"], kernel, [0.9, 0.1])
        spec = build_strategy(m, "symmetric", horizon=50)
        rng = np.random.default_rng(4)
        # posterior still favors a, but the likelihood favors b
        b = Belief.from_probs([0.55, 0.45])
        lbar = b.log_prob - m.log_prior
        assert int(np.argmax(lbar)) == 1
        u = select_experiment(spec, b, rng)
        assert u == select_experiment(spec.inner[1], b, rng)

    def test_symmetric_requires_distinguishable_pairs(self):
        kernel = [[[0.5, 0.5]], [[0.5, 0.5]]]
        m = make_model(["a", "b"], ["u"], ["0", "1"], kernel, [0.5, 0.5])
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ValueError, match="distinguishable"):
                build_strategy(m, "symmetric", horizon=50)


def edge_batches(m, rng):
    """(name, lb) batches of raw log beliefs whose uniform-prior
    maximum-likelihood labels are arranged to stress the symmetric
    composite's dispatch."""
    M = m.num_hypotheses

    def rows(labels, ties=False):
        labels = np.asarray(labels)
        lbar = rng.uniform(-4.0, 0.0, (len(labels), M))
        lbar[np.arange(len(labels)), labels] = 0.5
        if ties:
            # every third row below label M - 1 ties with the next
            # hypothesis, which leaves the label its first maximum
            tied = np.flatnonzero((np.arange(len(labels)) % 3 == 0) & (labels < M - 1))
            lbar[tied, labels[tied] + 1] = 0.5
        assert np.array_equal(np.argmax(lbar, axis=1), labels)
        return lbar + m.log_prior

    yield "empty", np.zeros((0, M))
    for i in range(M):
        yield f"all rows of {i}", rows([i] * 40)
    yield "tied counts, every label", rows(np.tile(np.arange(M), 12), ties=True)
    yield "tied counts, all but 0", rows(np.repeat(np.arange(1, M), 12), ties=True)
    labels = np.repeat(np.arange(M), [40] + [4] * (M - 1))
    lb = rows(labels)
    minority = np.arange(40, len(labels))
    # -inf on a hypothesis other than the row's own, which leaves a
    # finite alternate for every rule
    lb[minority, (labels[minority] + 1) % M] = -np.inf
    yield "-inf in minority rows", lb


SELECT_CASES = [*(pytest.param(kind, None, id=kind) for kind in INNER_KINDS),
                *(pytest.param("symmetric", inner, id=f"symmetric-{inner}")
                  for inner in INNER_KINDS)]


class TestSelectBatchEdges:
    @pytest.mark.parametrize("kind,inner", SELECT_CASES)
    def test_edge_batches(self, t1, t2, kind, inner):
        """On an empty batch, a batch one rule owns, tied label counts
        and minority rows with -inf log beliefs, the picks are int64,
        equal row-by-row batches of one and oracles.reference_select,
        and raise no warning, at tilt 1 and below it."""
        rng = np.random.default_rng(67)
        for m in (t1, t2, four_hypothesis_model()):
            for N in (8, 300):
                if kind == "symmetric":
                    spec = build_strategy(m, kind, N, inner_kind=inner)
                else:
                    spec = build_strategy(m, kind, N, reference=0)
                for name, lb in edge_batches(m, rng):
                    draws = rng.random(lb.shape[0])
                    given = draws if reads_draws(spec) else None
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        got = select_batch(spec, lb, given)
                        one = [select_batch(spec, lb[r:r + 1],
                                            None if given is None else given[r:r + 1])
                               for r in range(lb.shape[0])]
                        want = reference_select(spec, lb, draws)
                    assert got.dtype == np.int64 and got.shape == (lb.shape[0],), name
                    assert got.tolist() == [int(u[0]) for u in one], name
                    assert got.tolist() == want.tolist(), name


class TestHorizonFree:
    @pytest.mark.parametrize("kind", KINDS)
    def test_exactly_the_kinds_built_from_the_game_alone(self, t1, t2, kind):
        """horizon_free() holds for ors and chernoff-det, and for
        symmetric composites of them, only, and their selection tables
        are the same at every horizon under either epsilon schedule (the
        N-dependent default and a fixed one)."""
        for m in (t1, t2):
            for inner in INNER_KINDS if kind == "symmetric" else (None,):
                ref = None if kind == "symmetric" else 0
                specs = [build_strategy(m, kind, N, reference=ref, epsilon=eps,
                                        inner_kind=inner or "das")
                         for N in (5, 60, 500) for eps in (default_epsilon(N), 0.1)]
                free = (inner or kind) in ("ors", "chernoff-det")
                assert all(s.horizon_free() == free for s in specs)
                if free:
                    for s in specs[1:]:
                        for a, b in zip(s.inner or (s,), specs[0].inner or (specs[0],)):
                            assert a.sample_alpha.tobytes() == b.sample_alpha.tobytes()
                            assert a.chernoff_u.tobytes() == b.chernoff_u.tobytes()


class TestCriterion:
    def test_alpha_star_always_admissible(self, t1):
        spec = build_strategy(t1, "das", horizon=200, reference=0)
        for p in belief_grid():
            assert criterion_holds(spec.game.alpha_star, Belief.from_probs(p), spec)

    def test_score_minimizer_always_admissible(self, t2):
        spec = build_strategy(t2, "das", horizon=200, reference=0)
        for p in belief_grid(step=0.1):
            b = Belief.from_probs(p)
            u = select_experiment(spec, b, None)
            alpha = np.eye(4)[u]
            assert criterion_holds(alpha, b, spec)

    def test_score_maximizer_fails_when_strictly_worse(self, t2):
        spec = build_strategy(t2, "das", horizon=200, reference=0)
        b = Belief.from_probs([0.2, 0.6, 0.2])
        scores = score_all(t2, 0, b, spec.s_value, spec.mu)
        worst = int(np.argmax(scores))
        assert scores[worst] > scores.min() + 1e-6
        alpha = np.eye(4)[worst]
        assert not criterion_holds(alpha, b, spec)

    def test_symmetric_spec_is_refused(self, t1):
        """The symmetric composite has no reference hypothesis, so no
        tilted score to compare: a ValueError that says so."""
        spec = build_strategy(t1, "symmetric", 50)
        with pytest.raises(ValueError, match="reference hypothesis"):
            criterion_holds([0.5, 0.5], prior_belief(t1), spec)

    def test_chernoff_det_violates_criterion_on_table2(self, t2):
        """The most-likely-alternate heuristic is inadmissible here: it
        insists on sensors A/B while the optimal play mixes C/D."""
        spec = build_strategy(t2, "chernoff-det", horizon=200, reference=0)
        das = build_strategy(t2, "das", horizon=200, reference=0)
        violations = 0
        for p in belief_grid():
            b = Belief.from_probs(p)
            u = select_experiment(spec, b, None)
            alpha = np.eye(4)[u]
            if not criterion_holds(alpha, b, das):
                violations += 1
        assert violations > 0

    def test_all_admissible_kinds_pass_criterion_on_both_tables(self, t1, t2):
        """The optimal-mixture sampler and both adaptive minimizers
        satisfy the admissibility inequality at every grid belief, on
        both built-in models and at their own run schedules."""
        for model in (t1, t2):
            U = model.num_experiments
            for N in (100, 500):
                specs = {k: build_strategy(model, k, N, reference=0)
                         for k in ("ors", "das", "das-rs")}
                for p in belief_grid():
                    b = Belief.from_probs(p)
                    for kind, sp in specs.items():
                        if kind == "ors":
                            alpha = sp.sample_alpha
                        else:
                            alpha = np.eye(U)[select_experiment(sp, b, None)]
                        assert criterion_holds(alpha, b, sp), (
                            model.experiments, kind, N, p)


class TestThresholds:
    def test_asymmetric_paper_operating_point(self, t1):
        sol = solve(t1, 0)
        theta = threshold_asymmetric(500, sol, 0.02, 3, LN15)
        s = s_schedule(500, 3, 0.02, LN15)
        expect = 500 * sol.value - s * 500 * LN15**2 / 2 - math.log(150) / s
        np.testing.assert_allclose(theta, expect, atol=1e-12)
        np.testing.assert_allclose(theta, -8.4278, atol=2e-4)

    def test_penalty_terms_balance_below_clamp(self, t1):
        sol = solve(t1, 0)
        N, eps = 400, 0.02
        s = s_schedule(N, 3, eps, LN15)
        assert s < 1.0
        np.testing.assert_allclose(s * N * LN15**2 / 2,
                                   math.log(3 / eps) / s, atol=1e-9)

    def test_zero_value_game_gives_negative_threshold(self):
        kernel = [[[0.5, 0.5]], [[0.5, 0.5]]]
        m = make_model(["a", "b"], ["u"], ["0", "1"], kernel, [0.5, 0.5])
        with pytest.warns(RuntimeWarning):
            sol = solve(m, 0)
        for N in (10, 100, 1000):
            assert threshold_asymmetric(N, sol, 0.05, 2, 1.0) < 0

    def test_symmetric_clamp_value(self, t1):
        sol = solve(t1, 0)
        c1 = confidence(prior_belief(t1), 0)
        theta = threshold_symmetric(50, 0, sol, 0.05, 3, LN15,
                                    n_prime=8, zeta=0.01, prior_confidence=c1)
        np.testing.assert_allclose(theta, 0.01 + math.log(2), atol=1e-12)

    def test_symmetric_reduces_to_asymmetric_with_halved_slack(self, t1):
        """With no settling allowance the second branch is exactly the
        asymmetric threshold at eps/2 (when it dominates the clamp)."""
        sol = solve(t1, 0)
        N, eps = 5000, 0.02
        c1 = confidence(prior_belief(t1), 0)
        got = threshold_symmetric(N, 0, sol, eps, 3, LN15,
                                  n_prime=1, zeta=0.01, prior_confidence=c1)
        expect = threshold_asymmetric(N, sol, eps / 2, 3, LN15)
        assert got > 0.01 - c1     # second branch dominates
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_symmetric_rejects_bad_n_prime(self, t1):
        sol = solve(t1, 0)
        with pytest.raises(ValueError, match="n_prime"):
            threshold_symmetric(10, 0, sol, 0.05, 3, LN15, n_prime=11,
                                zeta=0.01, prior_confidence=-math.log(2))

    def test_default_n_prime(self):
        assert default_n_prime(100) == 10
        assert default_n_prime(101) == 11


class TestInfer:
    def test_threshold_is_inclusive(self, t1):
        prior = prior_belief(t1)
        b = Belief.from_probs([2 / 7, 3 / 7, 2 / 7])
        inc = confidence(b, 1) - confidence(prior, 1)
        rule = empirical_rule(1, inc, 0.05)
        assert infer(b, prior, rule) == 1
        rule_above = empirical_rule(1, inc + 1e-9, 0.05)
        assert infer(b, prior, rule_above) is None

    def test_all_below_gives_abstain(self, t1):
        prior = prior_belief(t1)
        rule = InferenceRule("symmetric", {i: 10.0 for i in range(3)}, 0.05)
        assert infer(prior, prior, rule) is None

    def test_symmetric_at_most_one_clears(self, t1):
        """Valid symmetric thresholds (above -C_i(prior)) can never be
        cleared by two hypotheses at once."""
        games = {i: solve(t1, i) for i in range(3)}
        rule = symmetric_rule(t1, games, 200, 0.05)
        prior = prior_belief(t1)
        rng = np.random.default_rng(5)
        for _ in range(300):
            p = rng.dirichlet([1, 1, 1])
            if p.min() < 1e-6:
                continue
            infer(Belief.from_probs(p), prior, rule)   # must never raise

    def test_two_clearing_raises(self, t1):
        prior = prior_belief(t1)
        bad = InferenceRule("symmetric", {i: -5.0 for i in range(3)}, 0.05)
        b = Belief.from_probs([0.4, 0.35, 0.25])
        with pytest.raises(ValueError, match="cleared"):
            infer(b, prior, bad)

    def test_nan_threshold_is_refused_and_infinities_are_legal(self, t1):
        with pytest.raises(ValueError, match="NaN"):
            empirical_rule(0, math.nan, 0.05)
        prior = prior_belief(t1)
        assert infer(prior, prior, empirical_rule(0, -math.inf, 0.05)) == 0
        assert infer(prior, prior, empirical_rule(0, math.inf, 0.05)) is None

    def test_theory_rule_factory(self, t1):
        sol = solve(t1, 0)
        rule = asymmetric_rule(t1, sol, 500, 0.02)
        np.testing.assert_allclose(rule.thresholds[0],
                                   threshold_asymmetric(500, sol, 0.02, 3, LN15))


class TestBuildStrategy:
    def test_unknown_kind(self, t1):
        with pytest.raises(ValueError, match="unknown"):
            build_strategy(t1, "bogus", 100, reference=0)

    def test_reference_required(self, t1):
        with pytest.raises(ValueError, match="reference"):
            build_strategy(t1, "das", 100)

    def test_pick_key_follows_what_selection_reads(self, t1, t2):
        """das, das-rs and chernoff-det key on the ratios among the
        reference's alternates over the experiments they can pick, the
        symmetric composite on all hypotheses; rules that read draws
        have no key.  On table2 das-rs picks only C or D (rows 4-7) and
        chernoff-det only A or B (rows 0-3)."""
        assert build_strategy(t1, "ors", 50, reference=0).pick_key is None
        assert build_strategy(t1, "symmetric", 50, inner_kind="ors").pick_key is None
        for kind in ("das", "das-rs", "chernoff-det"):
            key = build_strategy(t1, kind, 50, reference=0).pick_key
            assert key.shape == (4, 1) and key.dtype == np.int64
        assert build_strategy(t1, "symmetric", 50).pick_key.shape == (4, 2)
        assert build_strategy(t2, "das", 50, reference=0).pick_key.shape == (8, 3)
        key = build_strategy(t2, "das-rs", 50, reference=0).pick_key
        assert key.shape == (8, 2) and not key[:4].any()
        key = build_strategy(t2, "chernoff-det", 50, reference=0).pick_key
        assert key.shape == (8, 1) and not key[4:].any()
