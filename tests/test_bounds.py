"""Converse bounds: weak rate bound, strong tail bound, binomial quantile."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhat import bounds
from fhat.belief import cross_entropy, prior_belief
from fhat.cli import main
from fhat.game import solve
from fhat.strategy import build_strategy

from oracles import (binomial_cdf_exact, binomial_quantile_exact,
                     reference_enumerate_paths, reference_strong_converse_sweep,
                     strong_converse_empirical)

LN15 = math.log(1.5)
LN2 = math.log(2)


class TestWeakConverse:
    def test_table1_value(self, t1):
        """(D* + ln2/N + ln2/N) / (1 - eps) at the N=500 operating point
        (the prior cross-entropy term is ln 2 under a uniform prior)."""
        sol = solve(t1, 0)
        got = bounds.weak_converse(sol, t1, 500, 0.02)
        expect = (0.1 * LN15 + LN2 / 500 + LN2 / 500) / 0.98
        np.testing.assert_allclose(got, expect, atol=1e-12)
        np.testing.assert_allclose(got, 0.0442032, atol=1e-7)

    def test_limit_is_game_value(self, t1):
        sol = solve(t1, 0)
        got = bounds.weak_converse(sol, t1, 10**9, 1e-12)
        np.testing.assert_allclose(got, sol.value, atol=1e-8)

    def test_epsilon_zero_no_inflation(self, t1):
        sol = solve(t1, 0)
        got = bounds.weak_converse(sol, t1, 100, 0.0)
        np.testing.assert_allclose(got, sol.value + 2 * LN2 / 100, atol=1e-12)

    def test_bad_epsilon(self, t1):
        sol = solve(t1, 0)
        with pytest.raises(ValueError):
            bounds.weak_converse(sol, t1, 100, 1.0)

    def test_cross_entropy_start_uniform(self, t1):
        sol = solve(t1, 0)
        np.testing.assert_allclose(cross_entropy(sol.beta_star, prior_belief(t1), 0),
                                   LN2, atol=1e-12)


class TestStrongConverseEmpirical:
    def test_huge_chi_gives_chi_minus_log(self):
        z = np.zeros(100)
        got = strong_converse_empirical(z, 0.0, 50.0, 0.02)
        np.testing.assert_allclose(got, 50.0 - math.log(1 - 0.02), atol=1e-12)

    def test_vacuous_below_epsilon(self):
        z = np.arange(100.0)
        got = strong_converse_empirical(z, 0.0, -1.0, 0.02)
        assert got == math.inf

    def test_degenerate_samples(self):
        z = np.full(1000, 3.25)
        got = strong_converse_empirical(z, 0.5, 3.75, 0.1)
        np.testing.assert_allclose(got, 3.75 - math.log(0.9), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            strong_converse_empirical([], 0.0, 1.0, 0.1)

    def test_sweep_finds_tightest(self):
        rng = np.random.default_rng(0)
        z = rng.normal(10.0, 2.0, 5000)
        chi, best = bounds.strong_converse_sweep(z, LN2, 0.05)
        assert math.isfinite(best)
        # brute sweep over a fine chi grid can do no better
        grid = np.linspace(z.min(), z.max() + 2, 3000)
        vals = [strong_converse_empirical(z, LN2, c, 0.05) for c in grid]
        assert best <= min(vals) + 1e-9

    def test_sweep_matches_the_loop(self):
        """The (chi, bound) bits of the scalar loop, also on tied samples,
        with eps*T an integer and with eps of 0 or 1."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            T = int(rng.integers(1, 300))
            z = rng.normal(0.0, 3.0, T).round(int(rng.integers(0, 3)))
            eps = float(rng.choice([0.0, 0.05, 0.25, 1 / T, 1.0]))
            np.testing.assert_equal(bounds.strong_converse_sweep(z, LN2, eps),
                                    reference_strong_converse_sweep(z, LN2, eps))
        # all samples tied at 0: the bound is -log(1 - eps), and numpy's
        # vectorized log of 1 - eps can differ from math.log's in the last bit
        for eps in (0.032, 0.083, 0.194):
            np.testing.assert_equal(bounds.strong_converse_sweep(np.zeros(50), 0.0, eps),
                                    reference_strong_converse_sweep(np.zeros(50), 0.0, eps))

    def test_sweep_ties_take_the_first_minimum(self):
        """On tied samples the sweep's bound is the least empirical bound
        over the distinct sample points, at the smallest chi reaching it;
        where several points give equal bounds the first wins."""
        z = np.random.default_rng(4).integers(0, 6, 300).astype(float)
        chi, best = bounds.strong_converse_sweep(z, LN2, 0.05)
        points = list(np.unique(z + LN2))
        vals = [strong_converse_empirical(z, LN2, c, 0.05) for c in points]
        assert (chi, best) == (points[vals.index(min(vals))], min(vals))
        # each sample at the log of its own tail frequency bounds at 0
        z = np.array([math.log(0.25), math.log(0.5), -0.25, 0.0])
        vals = [strong_converse_empirical(z, 0.0, c, 0.0) for c in z]
        assert vals[0] == vals[1] == vals[3] == 0.0 < vals[2]
        assert bounds.strong_converse_sweep(z, 0.0, 0.0) == (math.log(0.25), 0.0)

    def test_sweep_skips_the_point_at_epsilon(self):
        """With eps*T an integer, the point whose tail frequency is eps
        exactly bounds nothing; the tightest bound is the next point's."""
        z = np.arange(20.0) * 10.0
        eps = 0.25
        vals = [strong_converse_empirical(z, 0.0, c, eps) for c in z]
        assert vals[4] == math.inf and vals[5] == min(vals)
        assert bounds.strong_converse_sweep(z, 0.0, eps) == (50.0, vals[5])

    def test_sweep_of_no_samples_is_vacuous(self):
        chi, best = bounds.strong_converse_sweep([], 0.0, 0.05)
        assert math.isnan(chi) and best == math.inf


class TestBinomialQuantile:
    def test_single_trial(self):
        assert bounds.binomial_quantile(1, 0.5, 0.5) == 0

    def test_two_trials(self):
        # CDF(0)=0.25, CDF(1)=0.75 < 0.8, CDF(2)=1 -> answer 2
        assert bounds.binomial_quantile(2, 0.5, 0.8) == 2

    def test_q_near_one(self):
        assert bounds.binomial_quantile(10, 0.3, 1 - 1e-12) == 10

    @pytest.mark.parametrize("p,q", [(0.0, 0.5), (1.0, 0.5), (-0.1, 0.5),
                                     (0.5, 0.0), (0.5, 1.0), (0.5, 1.2)])
    def test_p_and_q_inside_the_unit_interval(self, p, q):
        with pytest.raises(ValueError, match="need 0 < p < 1 and 0 < q < 1"):
            bounds.binomial_quantile(10, p, q)

    def test_matches_exact_rational_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            N = int(rng.integers(1, 400))
            p = Fraction(int(rng.integers(1, 10)), 10)
            q = Fraction(int(rng.integers(1, 100)), 100)
            got = bounds.binomial_quantile(N, float(p), float(q))
            want = binomial_quantile_exact(N, p, q)
            assert got == want, (N, p, q)

    def test_paper_operating_point_against_oracle(self):
        got = bounds.binomial_quantile(500, 0.6, 0.04)
        want = binomial_quantile_exact(500, Fraction(3, 5), Fraction(1, 25))
        assert got == want
        # sanity: the CDF brackets q at the returned k
        assert binomial_cdf_exact(500, Fraction(3, 5), got) >= Fraction(1, 25)
        assert binomial_cdf_exact(500, Fraction(3, 5), got - 1) < Fraction(1, 25)

    @given(st.integers(1, 200), st.integers(1, 9), st.integers(1, 99),
           st.integers(1, 99))
    @settings(max_examples=40, deadline=None)
    def test_nondecreasing_in_q(self, N, p10, q1, q2):
        p = p10 / 10
        lo, hi = sorted((q1 / 100, q2 / 100))
        assert bounds.binomial_quantile(N, p, lo) <= bounds.binomial_quantile(N, p, hi)


class TestStrongBoundBinaryExample:
    def test_closed_form_from_quantile(self):
        N, nu, eps = 500, 0.6, 0.02
        k = bounds.binomial_quantile(N, nu, 2 * eps)
        expect = (k - N / 2) * math.log(nu / (1 - nu)) + LN2 - math.log(eps)
        np.testing.assert_allclose(
            bounds.strong_bound_binary_example(N, nu, eps), expect, atol=1e-12)

    def test_fair_coin_collapses(self):
        got = bounds.strong_bound_binary_example(100, 0.5, 0.1)
        np.testing.assert_allclose(got, LN2 - math.log(0.1), atol=1e-12)

    def test_monotone_in_horizon(self):
        vals = [bounds.strong_bound_binary_example(N, 0.6, 0.02)
                for N in range(100, 1001, 100)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_invalid_nu(self):
        with pytest.raises(ValueError):
            bounds.strong_bound_binary_example(100, 1.2, 0.02)
        with pytest.raises(ValueError):
            bounds.strong_bound_binary_example(100, 0.6, 0.6)


class TestWeightedLlrLattice:
    def test_zbar_counts_zero_observations(self, t1):
        """On the two-sensor model the beta*-weighted LLR total under
        the null depends on the history only through the number of zero
        observations: Zbar_N = (K - N/2) ln(nu/(1-nu)), exactly, for any
        deterministic strategy.  Exhaustive check at N <= 10."""
        sol = solve(t1, 0)
        from fhat.model import llr_table
        L = llr_table(t1, 0)
        for kind in ("das", "chernoff-det"):
            for N in (1, 3, 6, 10):
                spec = build_strategy(t1, kind, horizon=N, reference=0)
                for exps, obs, _ in reference_enumerate_paths(t1, spec, N):
                    z = np.zeros(2)
                    for u, y in zip(exps, obs):
                        z += L[:, u, y]
                    zbar = float(sol.beta_star @ z)
                    K = sum(1 for y in obs if y == 0)
                    expect = (K - N / 2) * LN15
                    assert abs(zbar - expect) <= 1e-12

    def test_bounds_table_rows(self, t1, capsys):
        """The rows of `fhat bounds --nu 0.6`, read from its CSV."""
        sol = solve(t1, 0)
        assert main(["bounds", "--model", "table1", "--reference", "0",
                     "--horizons", "100,200", "--nu", "0.6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [SimpleNamespace(**dict(zip(lines[0].split(","), map(float, line.split(",")))))
                for line in lines[1:]]
        assert [r.N for r in rows] == [100, 200]
        assert rows[0].epsilon == 0.05
        np.testing.assert_allclose(rows[0].asymptotic_rate, sol.value)
        assert rows[0].strong_abs < rows[1].strong_abs
        np.testing.assert_allclose(rows[0].strong_db,
                                   rows[0].strong_abs * 10 / math.log(10))
