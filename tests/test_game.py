"""Zero-sum game solver: values, mixtures, duality, grid-oracle checks."""

import math

import numpy as np
import pytest

from conftest import random_model
from fhat import game
from fhat.model import kl_matrix, make_model

from oracles import (assumption_pairwise_informative, grid_maxmin,
                     grid_minmax, payoff)

LN15 = math.log(1.5)


class TestPayoff:
    def test_point_masses_pick_one_entry(self, t1):
        A = kl_matrix(t1, 0)
        got = payoff([1, 0], [1, 0], A)
        np.testing.assert_allclose(got, 0.2 * LN15, atol=1e-12)

    def test_uniform_mixtures_average(self, t1):
        A = kl_matrix(t1, 0)
        got = payoff([0.5, 0.5], [0.5, 0.5], A)
        np.testing.assert_allclose(got, 0.1 * LN15, atol=1e-12)

    def test_zero_matrix(self):
        assert payoff([0.3, 0.7], [0.2, 0.8], np.zeros((2, 2))) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            payoff([1.0], [0.5, 0.5], np.zeros((2, 2)))


class TestSolve:
    def test_table1(self, t1):
        sol = game.solve(t1, 0)
        np.testing.assert_allclose(sol.value, 0.1 * LN15, atol=1e-9)
        np.testing.assert_allclose(sol.alpha_star, [0.5, 0.5], atol=1e-8)
        np.testing.assert_allclose(sol.beta_star, [0.5, 0.5], atol=1e-8)
        assert sol.duality_gap <= 1e-8

    def test_table2_supported_on_c_d(self, t2):
        """The optimal mixture ignores the sensors a naive heuristic
        would choose, and splits evenly over the other two."""
        sol = game.solve(t2, 0)
        np.testing.assert_allclose(sol.alpha_star, [0.0, 0.0, 0.5, 0.5], atol=1e-8)
        d1 = 0.196 * math.log(0.598 / 0.402)
        d2 = (0.598 * math.log(0.598 / 0.720) + 0.402 * math.log(0.402 / 0.280))
        np.testing.assert_allclose(sol.value, 0.5 * (d1 + d2), atol=1e-9)
        # frozen from the grid oracle run before the build
        np.testing.assert_allclose(sol.value, 0.0561012718, atol=1e-9)

    def test_two_hypotheses_single_experiment(self):
        m = make_model(["a", "b"], ["u"], ["0", "1"],
                       [[[0.3, 0.7]], [[0.8, 0.2]]], [0.5, 0.5])
        sol = game.solve(m, 0)
        expect = 0.3 * math.log(0.3 / 0.8) + 0.7 * math.log(0.7 / 0.2)
        np.testing.assert_allclose(sol.value, expect, atol=1e-10)
        np.testing.assert_allclose(sol.alpha_star, [1.0])
        np.testing.assert_allclose(sol.beta_star, [1.0])
        assert sol.duality_gap == 0.0

    def test_zero_value_game_warns(self):
        kernel = [[[0.5, 0.5]], [[0.5, 0.5]]]
        m = make_model(["a", "b"], ["u"], ["0", "1"], kernel, [0.5, 0.5])
        with pytest.warns(RuntimeWarning, match="indistinguishable"):
            sol = game.solve(m, 0)
        assert sol.value == 0.0

    def test_solutions_are_reproducible(self, t2):
        a = game.solve(t2, 0)
        b = game.solve(t2, 0)
        assert np.array_equal(a.alpha_star, b.alpha_star)
        assert np.array_equal(a.beta_star, b.beta_star)

    def test_reference_out_of_range(self, t1):
        with pytest.raises(ValueError, match="out of range"):
            game.solve(t1, 7)


class TestVerifyMinimax:
    """The duality gap solve stores: what beta* concedes at most less
    what alpha* secures."""

    def test_table1_passes(self, t1):
        sol = game.solve(t1, 0)
        A = sol.payoff_matrix
        assert sol.duality_gap == abs(game.guaranteed_cap(sol.beta_star, A)
                                      - game.guaranteed_floor(sol.alpha_star, A))
        assert sol.duality_gap <= 1e-8

    def test_perturbed_alpha_fails(self, t1):
        """A mixture off alpha* secures less than the cap beta* concedes."""
        sol = game.solve(t1, 0)
        A = sol.payoff_matrix
        gap = (game.guaranteed_cap(sol.beta_star, A)
               - game.guaranteed_floor(np.array([0.6, 0.4]), A))
        assert gap > 1e-3

    def test_one_by_one_game_has_zero_gap(self):
        m = make_model(["a", "b"], ["u"], ["0", "1"],
                       [[[0.3, 0.7]], [[0.8, 0.2]]], [0.5, 0.5])
        assert game.solve(m, 0).duality_gap == 0.0


class TestRandomGames:
    def test_duality_and_guarantees(self):
        """Both one-sided LPs agree and each mixture certifies the value,
        across random models of every size in scope."""
        rng = np.random.default_rng(10)
        for _ in range(60):
            m = random_model(rng)
            i = int(rng.integers(m.num_hypotheses))
            sol = game.solve(m, i)
            A = sol.payoff_matrix
            assert sol.value >= -1e-12
            assert sol.duality_gap <= 1e-8
            np.testing.assert_allclose(game.guaranteed_floor(sol.alpha_star, A),
                                       sol.value, atol=1e-8)
            np.testing.assert_allclose(game.guaranteed_cap(sol.beta_star, A),
                                       sol.value, atol=1e-8)
            assert abs(sol.alpha_star.sum() - 1) < 1e-10 and np.all(sol.alpha_star >= -1e-12)
            assert abs(sol.beta_star.sum() - 1) < 1e-10 and np.all(sol.beta_star >= -1e-12)

    def test_grid_oracle_agreement(self):
        """LP value within 2e-3 of exhaustive 1e-3-grid search on both
        simplices (small games where the grid is enumerable)."""
        rng = np.random.default_rng(11)
        done = 0
        while done < 25:
            m = random_model(rng, max_hyp=4, max_exp=3)
            i = int(rng.integers(m.num_hypotheses))
            sol = game.solve(m, i)
            A = sol.payoff_matrix
            if A.shape[0] > 3 or A.shape[1] > 3:
                continue
            assert abs(sol.value - grid_maxmin(A)) <= 2e-3
            assert abs(sol.value - grid_minmax(A)) <= 2e-3
            done += 1

    def test_positive_value_when_every_experiment_informative(self):
        rng = np.random.default_rng(12)
        found = 0
        for _ in range(40):
            m = random_model(rng, allow_dropped_symbols=False)
            if not assumption_pairwise_informative(m):
                continue
            found += 1
            for i in range(m.num_hypotheses):
                assert game.solve(m, i).value > 0
        assert found > 10


class TestSimplexCore:
    def test_simple_lp(self):
        # min x0 + x1 s.t. x0 + 2 x1 - s = 1
        c = np.array([1.0, 1.0, 0.0])
        A = np.array([[1.0, 2.0, -1.0]])
        x = game.simplex_minimize(c, A, np.array([1.0]))
        np.testing.assert_allclose(c @ x, 0.5, atol=1e-12)

    def test_unbounded_detected(self):
        c = np.array([-1.0, 0.0])
        A = np.array([[0.0, 1.0]])
        with pytest.raises(game.SimplexError, match="unbounded"):
            game.simplex_minimize(c, A, np.array([1.0]))

    def test_infeasible_detected(self):
        # x0 = -1 infeasible under x >= 0
        c = np.array([1.0])
        A = np.array([[-1.0]])
        with pytest.raises(game.SimplexError, match="infeasible"):
            game.simplex_minimize(c, A, np.array([1.0]))
