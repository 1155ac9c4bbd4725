"""Belief recursions, trajectory state, and the confidence identities."""

import math

import numpy as np
import pytest

from conftest import random_model, random_trajectory, sample_observation
from fhat.belief import (Belief, confidence, confidence_increment,
                         decomposition_terms, new_trajectory, prior_belief,
                         step_trajectory, tilde_belief, tilde_log,
                         update_belief)
from fhat.model import ModelError, make_model, table1, table2
from fhat.numerics import logsumexp
from fhat.strategy import build_strategy
from oracles import (recompute_belief, reference_confidence,
                     reference_enumerate_paths, uniform_prior_log_posterior)

LN15 = math.log(1.5)


class TestUpdateBelief:
    def test_table1_one_step(self, t1):
        """Uniform prior, observe y=1 under A: posterior (2/7, 3/7, 2/7)."""
        b = update_belief(prior_belief(t1), t1, 0, 1)
        np.testing.assert_allclose(b.probs(), [2 / 7, 3 / 7, 2 / 7], atol=1e-14)

    def test_uninformative_experiment_keeps_belief(self):
        kernel = [[[0.3, 0.7]], [[0.3, 0.7]]]
        m = make_model(["a", "b"], ["u"], ["0", "1"], kernel, [0.4, 0.6])
        b0 = Belief.from_probs([0.25, 0.75])
        for y in range(2):
            b1 = update_belief(b0, m, 0, y)
            np.testing.assert_allclose(b1.probs(), b0.probs(), atol=1e-14)

    def test_likelihood_ratio_invariance(self, t1):
        """Hypotheses with equal likelihood keep their probability ratio."""
        b0 = Belief.from_probs([0.5, 0.3, 0.2])
        b1 = update_belief(b0, t1, 0, 1)      # rows 0 and 2 agree under A
        r0 = b0.log_prob[0] - b0.log_prob[2]
        r1 = b1.log_prob[0] - b1.log_prob[2]
        np.testing.assert_allclose(r0, r1, atol=1e-12)

    def test_out_of_support_rejected(self):
        kernel = [[[1.0, 0.0]], [[1.0, 0.0]]]
        m = make_model(["a", "b"], ["u"], ["0", "1"], kernel, [0.5, 0.5])
        with pytest.raises(ModelError, match="support"):
            update_belief(prior_belief(m), m, 0, 1)
        # a trajectory step meets the same check, before it changes anything
        t = new_trajectory(m, 0)
        with pytest.raises(ModelError, match="observation 1 outside the support "
                                             "of experiment u"):
            step_trajectory(t, 0, 1)
        assert t.history == () and t.z.tolist() == [0.0]

    def test_stays_normalized_on_long_runs(self, t1):
        rng = np.random.default_rng(0)
        b = prior_belief(t1)
        for _ in range(2000):
            u = int(rng.integers(2))
            b = update_belief(b, t1, u, sample_observation(t1, rng, 0, u))
        assert abs(logsumexp(b.log_prob)) < 1e-10


class TestConfidence:
    def test_uniform_three(self):
        b = Belief.uniform(3)
        for i in range(3):
            np.testing.assert_allclose(confidence(b, i), math.log(0.5), atol=1e-12)

    def test_even_odds_zero(self):
        b = Belief.from_probs([0.5, 0.25, 0.25])
        np.testing.assert_allclose(confidence(b, 0), 0.0, atol=1e-12)

    def test_posterior_example(self):
        b = Belief.from_probs([2 / 7, 3 / 7, 2 / 7])
        np.testing.assert_allclose(confidence(b, 1), math.log(3 / 4), atol=1e-12)
        # the batch of one has the bits of the 1-D formula, also on the
        # built-in priors that the symmetric thresholds read
        rng = np.random.default_rng(12)
        beliefs = [prior_belief(table1()), prior_belief(table2())]
        for M in range(2, 8):
            beliefs += [Belief.from_probs(p) for p in rng.dirichlet(np.ones(M), 300)]
        for b in beliefs:
            for i in range(b.log_prob.size):
                assert confidence(b, i) == reference_confidence(b, i)

    def test_degenerate_rejected(self):
        b = Belief.from_probs([1.0, 0.0])
        with pytest.raises(ValueError, match="degenerate"):
            confidence(b, 0)
        with pytest.raises(ValueError, match="negative probability"):
            Belief.from_probs([1.5, -0.5])


class TestTildeBelief:
    def test_uniform(self):
        np.testing.assert_allclose(tilde_belief(Belief.uniform(3), 0), [0.5, 0.5])

    def test_posterior_example(self):
        b = Belief.from_probs([2 / 7, 3 / 7, 2 / 7])
        np.testing.assert_allclose(tilde_belief(b, 0), [3 / 5, 2 / 5], atol=1e-14)

    def test_two_hypotheses_point_mass(self):
        b = Belief.from_probs([0.3, 0.7])
        np.testing.assert_allclose(tilde_belief(b, 0), [1.0])

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.uniform(0.01, 1, 4)
            b = Belief.from_probs(p / p.sum())
            i = int(rng.integers(4))
            np.testing.assert_allclose(tilde_belief(b, i).sum(), 1.0, atol=1e-12)

    def test_undefined_at_certainty(self):
        """With rho(i) = 1 the alternates hold no mass to renormalize."""
        with pytest.raises(ValueError, match=r"rho\(i\) = 1"):
            tilde_log(Belief.from_probs([0.0, 1.0, 0.0]), 1)


class TestTrajectory:
    def test_one_step_llrs(self, t1):
        t = step_trajectory(new_trajectory(t1, 0), 0, 1)
        np.testing.assert_allclose(t.z, [math.log(0.4 / 0.6), 0.0], atol=1e-15)

    def test_two_steps_cancel(self, t1):
        t = new_trajectory(t1, 0)
        t = step_trajectory(t, 0, 1)
        t = step_trajectory(t, 0, 0)
        np.testing.assert_allclose(t.z[0], 0.0, atol=1e-15)

    def test_uninformative_rows_leave_z(self, t1):
        # experiment B never moves the LLR against alternate 1
        t = new_trajectory(t1, 0)
        for y in (0, 1, 0):
            t = step_trajectory(t, 1, y)
        assert t.z[0] == 0.0

    def test_belief_consistent_with_replay(self, t1):
        rng = np.random.default_rng(2)
        t = random_trajectory(t1, rng, max_steps=30)
        np.testing.assert_allclose(recompute_belief(t).log_prob,
                                   t.belief.log_prob, atol=1e-10)

    @pytest.mark.parametrize("reference", [-1, 3])
    def test_reference_out_of_range(self, t1, reference):
        with pytest.raises(ValueError, match=f"reference hypothesis {reference} out of range"):
            new_trajectory(t1, reference)


class TestConfidenceIncrement:
    def test_empty_trajectory(self, t1):
        assert confidence_increment(new_trajectory(t1, 0)) == 0.0

    def test_one_step_example(self, t1):
        """Both sides of the log-sum-exp identity at one step."""
        t = step_trajectory(new_trajectory(t1, 0), 0, 1)
        inc = confidence_increment(t)
        np.testing.assert_allclose(inc, -math.log(0.5 * 1.5 + 0.5), atol=1e-12)
        direct = confidence(t.belief, 0) - confidence(prior_belief(t1), 0)
        np.testing.assert_allclose(inc, direct, atol=1e-12)

    def test_binary_equals_z(self):
        m = make_model(["a", "b"], ["u"], ["0", "1"],
                       [[[0.3, 0.7]], [[0.8, 0.2]]], [0.5, 0.5])
        t = step_trajectory(new_trajectory(m, 0), 0, 0)
        np.testing.assert_allclose(confidence_increment(t), t.z[0], atol=1e-12)

    def test_identity_on_random_trajectories(self):
        """Increment from the LLR state equals the direct confidence
        difference, for random models and trajectories up to length 50."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = random_model(rng)
            t = random_trajectory(m, rng, max_steps=50)
            lhs = confidence_increment(t)
            rhs = confidence(t.belief, t.reference) - confidence(prior_belief(m), t.reference)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestDecomposition:
    def test_empty_trajectory_reduces(self, t1):
        t = new_trajectory(t1, 0)
        h_end, z_bar, h_start = decomposition_terms(t, [0.5, 0.5])
        assert z_bar == 0.0
        np.testing.assert_allclose(h_end, h_start, atol=1e-14)

    def test_point_mass_weights(self, t1):
        t = step_trajectory(new_trajectory(t1, 0), 0, 1)
        _, z_bar, _ = decomposition_terms(t, [1.0, 0.0])
        np.testing.assert_allclose(z_bar, t.z[0], atol=1e-15)

    def test_identity_and_nonnegativity(self):
        """increment = -H_end + z_bar + H_start with H terms >= 0, for
        arbitrary alternate weightings."""
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = random_model(rng)
            t = random_trajectory(m, rng, max_steps=40)
            k = m.num_hypotheses - 1
            beta = rng.uniform(0.05, 1, k)
            beta = beta / beta.sum()
            h_end, z_bar, h_start = decomposition_terms(t, beta)
            assert h_end >= 0 and h_start >= 0
            inc = confidence_increment(t)
            np.testing.assert_allclose(inc, -h_end + z_bar + h_start, atol=1e-9)

    def test_rejects_non_distribution(self, t1):
        t = new_trajectory(t1, 0)
        with pytest.raises(ValueError, match="distribution"):
            decomposition_terms(t, [0.9, 0.9])


class TestSoftmaxForms:
    def test_tilde_matches_softmax_of_llrs(self):
        """Conditional alternate beliefs equal the softmax of the prior
        log-weights minus the total LLRs, including the tilted variant."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = random_model(rng)
            t = random_trajectory(m, rng, max_steps=40)
            i = t.reference
            lt1 = tilde_log(prior_belief(m), i)
            direct = tilde_belief(t.belief, i)
            soft = np.exp(lt1 - t.z - logsumexp(lt1 - t.z))
            np.testing.assert_allclose(direct, soft, atol=1e-9)
            s = rng.uniform(0.0, 1.0)
            probs = t.belief.probs()
            alts = [j for j in range(m.num_hypotheses) if j != i]
            tilted = probs[alts] ** s / np.sum(probs[alts] ** s)
            soft_s = np.exp(s * (lt1 - t.z) - logsumexp(s * (lt1 - t.z)))
            np.testing.assert_allclose(tilted, soft_s, atol=1e-9)

    def test_uniform_posterior_divides_out_prior(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m = random_model(rng)
            t = random_trajectory(m, rng, max_steps=20)
            log_bar = uniform_prior_log_posterior(t.belief, m)
            # replay with a uniform prior
            lb = np.full(m.num_hypotheses, -math.log(m.num_hypotheses))
            for u, y in t.history:
                lb = lb + m.log_kernel[:, u, y]
            lb = lb - logsumexp(lb)
            np.testing.assert_allclose(log_bar, lb, atol=1e-9)


class TestLikelihoodRatioOfHistories:
    def test_increment_is_history_llr(self):
        """On every positive-probability path, the confidence increment
        equals log of (P[path | X=i] / P[path | X != i]); checked by
        exhaustive enumeration at small horizons."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = random_model(rng, max_hyp=3, max_exp=3, max_obs=3)
            i = int(rng.integers(m.num_hypotheses))
            spec = build_strategy(m, "das", horizon=4, reference=i, epsilon=0.05)
            prior = prior_belief(m)
            lt1 = tilde_log(prior, i)
            alts = [j for j in range(m.num_hypotheses) if j != i]
            for exps, obs, loglik in reference_enumerate_paths(m, spec, 4):
                log_p = loglik[i]
                log_q = logsumexp(lt1 + loglik[alts])
                b = prior
                for u, y in zip(exps, obs):
                    b = update_belief(b, m, u, y)
                inc = confidence(b, i) - confidence(prior, i)
                np.testing.assert_allclose(log_p - log_q, inc, atol=1e-9)


class TestTiltedSupermartingale:
    def test_expected_tilted_weight_at_most_one(self):
        """E_i[exp(s log t1(j) - s Z_n(j))] <= 1 for every alternate and
        every tilt in [0, 1], under any fixed deterministic strategy;
        exhaustive enumeration at N <= 6."""
        rng = np.random.default_rng(8)
        for trial in range(6):
            m = random_model(rng, max_hyp=3, max_exp=2, max_obs=3)
            i = int(rng.integers(m.num_hypotheses))
            kind = ("das", "chernoff-det")[trial % 2]
            spec = build_strategy(m, kind, horizon=6, reference=i, epsilon=0.05)
            prior = prior_belief(m)
            lt1 = tilde_log(prior, i)
            alts = [j for j in range(m.num_hypotheses) if j != i]
            leaves = list(reference_enumerate_paths(m, spec, 6))
            from fhat.model import llr_table
            L = llr_table(m, i)
            for s in (0.25, 0.5, 0.75, 1.0):
                for k, j in enumerate(alts):
                    total = 0.0
                    for exps, obs, loglik in leaves:
                        z = sum(L[k, u, y] for u, y in zip(exps, obs))
                        total += math.exp(loglik[i]) * math.exp(s * lt1[k] - s * z)
                    assert total <= 1.0 + 1e-12
