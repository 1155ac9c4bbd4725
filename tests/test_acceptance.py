"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Each test prints a single `[criterion NN] PASS/FAIL` line (visible with
`pytest -s`, or in captured output).  Tolerances are fixed here, not
calibrated: exact-arithmetic checks use 1e-12, identity checks 1e-9,
LP duality 1e-8, Monte Carlo agreement 3 standard errors.

Criterion 05b checks the adaptive-selection reduction at tilt exactly
1.0.  There the tilted score of every experiment is identically 1 (the
moment generating function at tilt 1 integrates the alternate
distribution over the common support), so the selectors minimize the
score's s -> 1- limit instead, i.e. maximize the belief-weighted
divergence sum_j w_j D(p_j^u || p_i^u), and stay belief-dependent.
"""

import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from conftest import random_model, random_trajectory
from oracles import grid_maxmin, grid_minmax, reference_enumerate_paths

from fhat import game
from fhat import montecarlo as mc
from fhat.belief import (confidence, confidence_increment,
                         decomposition_terms, prior_belief, tilde_belief,
                         tilde_log, Belief)
from fhat.model import llr_table, table1, table2
from fhat.numerics import logsumexp, nats_to_db
from fhat.strategy import (build_strategy, default_epsilon, empirical_rule,
                           mgf_matrix, select_experiment, symmetric_rule)

D1 = 0.1 * math.log(1.5)            # two-sensor game value, reference 0
WORKERS = min(2, os.cpu_count() or 1)


@contextmanager
def criterion(num, budget_s, desc):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL - {desc}")
        raise
    dt = time.perf_counter() - t0
    assert dt < budget_s, f"runtime {dt:.1f}s exceeds the {budget_s}s budget"
    print(f"[criterion {num}] PASS - {desc} ({dt:.1f}s)")


def belief_grid(step=0.05):
    n = round(1 / step)
    for a in range(n + 1):
        for b in range(n + 1 - a):
            c = n - a - b
            if b == 0 and c == 0:
                continue
            yield (a / n, b / n, c / n)


def test_criterion_01_game_solver():
    with criterion("01", 1.0, "two-sensor game: value, mixtures, duality gap"):
        sol = game.solve(table1(), 0)
        assert abs(sol.value - 0.040546511) <= 1e-9
        np.testing.assert_allclose(sol.alpha_star, [0.5, 0.5], atol=1e-8)
        np.testing.assert_allclose(sol.beta_star, [0.5, 0.5], atol=1e-8)
        assert sol.duality_gap <= 1e-8


def test_criterion_02_minimax_suite():
    with criterion("02", 30.0,
                   "200 random games: duality <= 1e-8, grid oracle within 2e-3"):
        rng = np.random.default_rng(20260810)
        grid_checked = 0
        for _ in range(200):
            m = random_model(rng)
            i = int(rng.integers(m.num_hypotheses))
            sol = game.solve(m, i)
            assert sol.duality_gap <= 1e-8
            A = sol.payoff_matrix
            if A.shape[0] <= 3 and A.shape[1] <= 3:
                assert abs(sol.value - grid_maxmin(A)) <= 2e-3
                assert abs(sol.value - grid_minmax(A)) <= 2e-3
                grid_checked += 1
        assert grid_checked >= 50


def test_criterion_03_identity_suite():
    with criterion("03", 10.0,
                   "increment / decomposition / softmax identities on 1000 trajectories"):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            m = random_model(rng)
            t = random_trajectory(m, rng, max_steps=50)
            i = t.reference
            prior = prior_belief(m)
            # log-sum-exp increment identity
            inc = confidence_increment(t)
            direct = confidence(t.belief, i) - confidence(prior, i)
            assert abs(inc - direct) <= 1e-9
            # cross-entropy decomposition, arbitrary alternate weights
            k = m.num_hypotheses - 1
            beta = rng.uniform(0.05, 1, k)
            beta /= beta.sum()
            h_end, z_bar, h_start = decomposition_terms(t, beta)
            assert abs(inc - (-h_end + z_bar + h_start)) <= 1e-9
            # conditional alternate belief as a softmax of the LLR state
            lt1 = tilde_log(prior, i)
            soft = np.exp(lt1 - t.z - logsumexp(lt1 - t.z))
            assert np.max(np.abs(tilde_belief(t.belief, i) - soft)) <= 1e-9
            s = rng.uniform(0.0, 1.0)
            probs = t.belief.probs()
            alts = [j for j in range(m.num_hypotheses) if j != i]
            tilted = probs[alts] ** s / np.sum(probs[alts] ** s)
            soft_s = np.exp(s * (lt1 - t.z) - logsumexp(s * (lt1 - t.z)))
            assert np.max(np.abs(tilted - soft_s)) <= 1e-9


def _oracle_strategies(model, N):
    specs = {
        "das": build_strategy(model, "das", N, reference=0),
        "das-rs": build_strategy(model, "das-rs", N, reference=0),
        "chernoff-det": build_strategy(model, "chernoff-det", N, reference=0),
        "ors-point": build_strategy(
            model, "ors", N, reference=0,
            sample_alpha=np.eye(model.num_experiments)[0]),
    }
    return specs


def test_criterion_04_exact_oracle_suite():
    with criterion("04", 120.0,
                   "exhaustive small-horizon checks: threshold bound, tilted "
                   "supermartingale, weighted-LLR lattice"):
        theta_grid = np.linspace(-2.0, 3.0, 11)
        s_grid = (0.25, 0.5, 0.75, 1.0)
        for model, is_binary_family in ((table1(), True), (table2(), False)):
            prior = prior_belief(model)
            c_prior = confidence(prior, 0)
            lt1 = tilde_log(prior, 0)
            L = llr_table(model, 0)
            beta_star = game.solve(model, 0).beta_star
            alts = model.alternates(0)
            w_mix = np.array([model.prior[j] / (1 - model.prior[0]) for j in alts])
            for N in range(1, 9):
                for kind, spec in _oracle_strategies(model, N).items():
                    leaves = []
                    for exps, obs, loglik in reference_enumerate_paths(model, spec, N):
                        z = np.zeros(len(alts))
                        for u, y in zip(exps, obs):
                            z += L[:, u, y]
                        lb = model.log_prior + loglik
                        inc = (lb[0] - logsumexp(lb[list(alts)])) - c_prior
                        zeros = sum(1 for y in obs if y == 0)
                        leaves.append((np.exp(loglik), z, inc, zeros))
                    # (a) misclassification never beats e^{-theta}
                    for theta in theta_grid:
                        phi = sum(float(w_mix @ p[list(alts)])
                                  for p, _, inc, _ in leaves if inc >= theta)
                        assert phi <= math.exp(-theta) + 1e-12, (kind, N, theta)
                    # (b) tilted alternate weights stay a supermartingale
                    for s in s_grid:
                        for k in range(len(alts)):
                            total = sum(p[0] * math.exp(s * lt1[k] - s * z[k])
                                        for p, z, _, _ in leaves)
                            assert total <= 1.0 + 1e-12, (kind, N, s, k)
                    # (c) the weighted LLR total is a pure zero-count statistic
                    if is_binary_family:
                        for _, z, _, zeros in leaves:
                            zbar = float(beta_star @ z)
                            expect = (zeros - N / 2) * math.log(1.5)
                            assert abs(zbar - expect) <= 1e-12


def test_criterion_05a_strategy_reductions():
    with criterion("05a", 60.0,
                   "belief-grid reductions for the adaptive, restricted and "
                   "benchmark selectors (tilts strictly inside (0, 1))"):
        t1, t2 = table1(), table2()
        das = build_strategy(t1, "das", 500, reference=0)
        dasrs = build_strategy(t2, "das-rs", 500, reference=0)
        chern = build_strategy(t2, "chernoff-det", 500, reference=0)
        grid = list(belief_grid())
        for s in [round(0.1 * k, 1) for k in range(1, 10)]:
            sp1 = replace(das, s_value=s, mu=mgf_matrix(t1, 0, s))
            sp2 = replace(dasrs, s_value=s, mu=mgf_matrix(t2, 0, s))
            for p in grid:
                b = Belief.from_probs(p)
                assert select_experiment(sp1, b, None) == (0 if p[1] >= p[2] else 1)
                assert select_experiment(sp2, b, None) == (2 if p[1] >= p[2] else 3)
        for p in grid:
            b = Belief.from_probs(p)
            assert select_experiment(chern, b, None) == (0 if p[1] >= p[2] else 1)


def test_criterion_05b_das_reduction_at_tilt_one():
    """At s = 1.0 every tilted score is exactly 1, so das picks by the
    s -> 1- limit of the score: the same sensor as for every s < 1."""
    with criterion("05b", 30.0,
                   "adaptive-selection reduction at tilt exactly 1.0"):
        t1 = table1()
        das = build_strategy(t1, "das", 500, reference=0)
        sp = replace(das, s_value=1.0, mu=mgf_matrix(t1, 0, 1.0))
        for p in belief_grid():
            b = Belief.from_probs(p)
            want = 0 if p[1] >= p[2] else 1
            got = select_experiment(sp, b, None)
            assert got == want, (
                f"at belief {p} and tilt 1.0 the selector returned "
                f"experiment {got}, not {want}: at tilt 1 the selector "
                f"must follow the s -> 1- limit of the tilted score")


def test_criterion_06_estimator_cross_check():
    with criterion("06", 120.0,
                   "Monte Carlo and log-sum-exp estimators vs exact enumeration"):
        t1 = table1()
        theta = 0.1   # strictly between two reachable increment values
        for N in (4, 6, 8):
            spec = build_strategy(t1, "das", N, reference=0)
            rule = empirical_rule(0, theta, default_epsilon(N))
            exact = mc.enumerate_exact(t1, spec, rule, N)
            rep = mc.estimate(mc.SimulationConfig(t1, spec, rule, N, 100000,
                                                  seed=606, workers=WORKERS))
            assert abs(rep.psi_hat[0] - exact.psi[0]) <= 3 * rep.psi_se[0]
            assert abs(rep.phi_hat[0] - exact.phi[0]) <= 3 * rep.phi_se[0]
            est = rep.lse[0]
            assert abs(est.log_inv_phi - (-math.log(exact.phi[0]))) <= 3 * est.se


def test_criterion_07_figure1_reproduction():
    with criterion("07", 900.0,
                   "two-sensor sweep: adaptive beats open-loop, both under "
                   "the converse bounds, rate near the game value"):
        rows = mc.sweep(table1(), ["ors", "das"], 0, [100, 200, 300, 400, 500],
                        100000, seed=2026, strong="binary", nu=0.6,
                        workers=WORKERS)
        ors = {r.N: r for r in rows if r.strategy == "ors"}
        das = {r.N: r for r in rows if r.strategy == "das"}
        for N in (100, 200, 300, 400, 500):
            gap = das[N].log_inv_phi - ors[N].log_inv_phi
            joint = math.hypot(das[N].log_inv_phi_se, ors[N].log_inv_phi_se)
            # (a) dominance at every horizon beyond 3 joint SE
            assert gap >= 3 * joint, N
            # (c) both curves below the weak (rate) and strong (absolute) bounds
            for r in (ors[N], das[N]):
                assert r.log_inv_phi <= N * r.weak_bound + 3 * r.log_inv_phi_se
                assert r.log_inv_phi <= r.strong_bound + 3 * r.log_inv_phi_se
        # (b) at N = 500 the improvement reaches at least 6 dB
        gap_db = float(nats_to_db(das[500].log_inv_phi - ors[500].log_inv_phi))
        assert gap_db >= 6.0, gap_db
        # (d) fitted decay rate of the adaptive curve near the game value
        ns = np.array([300.0, 400.0, 500.0])
        ys = np.array([das[int(n)].log_inv_phi for n in ns])
        rate = float(np.polyfit(ns, ys, 1)[0])
        assert 0.6 * D1 <= rate <= 1.1 * D1, rate


def test_criterion_08_figure2_reproduction():
    with criterion("08", 1200.0,
                   "four-sensor sweep: restricted adaptive dominates; the "
                   "benchmark heuristic decays strictly slower"):
        rows = mc.sweep(table2(), ["ors", "das-rs", "chernoff-det"], 0,
                        [100, 200, 300, 400, 500], 100000, seed=2027,
                        strong="none", workers=WORKERS)
        by = {}
        for r in rows:
            by.setdefault(r.strategy, {})[r.N] = r
        for N in (100, 200, 300, 400, 500):
            for other in ("ors", "chernoff-det"):
                gap = by["das-rs"][N].log_inv_phi - by[other][N].log_inv_phi
                joint = math.hypot(by["das-rs"][N].log_inv_phi_se,
                                   by[other][N].log_inv_phi_se)
                assert gap >= 3 * joint, (N, other)
        ns = np.array([300.0, 400.0, 500.0])
        fit = {k: float(np.polyfit(ns, [by[k][int(n)].log_inv_phi for n in ns], 1)[0])
               for k in ("das-rs", "chernoff-det")}
        assert fit["chernoff-det"] < fit["das-rs"]


def test_criterion_09_symmetric_problem():
    with criterion("09", 900.0,
                   "maximum-likelihood composite: hit constraints met and the "
                   "misclassification decay rate sits in the loose envelope"):
        model = table1()
        d_min = min(game.solve(model, i).value for i in range(3))
        gammas, psis = {}, {}
        for N, T in ((200, 200000), (350, 500000), (500, 1200000)):
            eps = default_epsilon(N)
            spec = build_strategy(model, "symmetric", N, epsilon=eps)
            games = {i: spec.inner[i].game for i in range(3)}
            rule = symmetric_rule(model, games, N, eps)
            rep = mc.estimate(mc.SimulationConfig(model, spec, rule, N, T,
                                                  seed=909, workers=WORKERS))
            gammas[N] = rep.gamma_hat_lse
            psis[N] = (eps, rep)
        for N in (200, 500):
            eps, rep = psis[N]
            for i in range(3):
                assert rep.psi_hat[i] >= 1 - eps - 3 * rep.psi_se[i], (N, i)
        assert gammas[500] < gammas[200]
        # Fitted exponential decay rate: the through-origin slope of
        # -ln(gamma) against N, i.e. the fitted value of -(1/N) ln gamma.
        ns = np.array(sorted(gammas), dtype=float)
        ys = np.array([-math.log(gammas[int(n)]) for n in ns])
        rate = float(np.sum(ns * ys) / np.sum(ns * ns))
        assert 0.5 * d_min <= rate <= 1.5 * d_min, rate


def test_criterion_10_reproducibility(tmp_path):
    with criterion("10", 120.0,
                   "manifest replay reproduces the sweep CSV byte-for-byte "
                   "at worker counts 1 and 8"):
        from fhat.cli import main
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sweep", "--model", "table1", "--strategies", "ors,das",
                "--reference", "0", "--horizons", "10,20", "--trials", "4000",
                "--seed", "31", "--strong", "binary", "--nu", "0.6"]
        assert main(base + ["--workers", "1", "--output", str(a)]) == 0
        assert main(["sweep", "--manifest", str(a) + ".manifest.json",
                     "--workers", "8", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        # and the library path agrees regardless of parallelism
        rows1 = mc.sweep(table1(), ["das"], 0, [15], 3000, 7, workers=1)
        rows8 = mc.sweep(table1(), ["das"], 0, [15], 3000, 7, workers=8)
        assert mc.rows_to_csv(rows1) == mc.rows_to_csv(rows8)
