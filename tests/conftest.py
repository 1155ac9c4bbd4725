"""Shared fixtures and generators for the test suite."""

import numpy as np
import pytest

from fhat.belief import new_trajectory, step_trajectory
from fhat.model import make_model, table1, table2
from fhat.strategy import build_strategy


@pytest.fixture(scope="session")
def t1():
    return table1()


@pytest.fixture(scope="session")
def t2():
    return table2()


def random_model(rng, max_hyp=5, max_exp=5, max_obs=4, floor=0.25,
                 allow_dropped_symbols=True):
    """A valid random model: full-rank kernels with probabilities bounded
    away from zero (keeps LLRs modest), optionally with a shared dropped
    observation symbol per experiment to exercise support handling."""
    M = int(rng.integers(2, max_hyp + 1))
    U = int(rng.integers(1, max_exp + 1))
    Y = int(rng.integers(2, max_obs + 1))
    kernel = np.zeros((M, U, Y))
    for u in range(U):
        drop = None
        if allow_dropped_symbols and Y >= 3 and rng.random() < 0.3:
            drop = int(rng.integers(Y))
        for i in range(M):
            w = rng.uniform(floor, 1.0, Y)
            if drop is not None:
                w[drop] = 0.0
            kernel[i, u] = w / w.sum()
    prior = rng.uniform(0.2, 1.0, M)
    prior = prior / prior.sum()
    return make_model([f"h{i}" for i in range(M)],
                      [f"u{u}" for u in range(U)],
                      [f"y{y}" for y in range(Y)],
                      kernel, prior)


def decimal_model(rng, units=20):
    """A valid random model of 2-3 hypotheses, 1-2 experiments and 2-3
    symbols whose probabilities are multiples of 1/units, short
    decimals: a rational likelihood lattice with many coincidences
    between paths."""
    M = int(rng.integers(2, 4))
    U = int(rng.integers(1, 3))
    Y = int(rng.integers(2, 4))
    kernel = np.zeros((M, U, Y))
    for u in range(U):
        for i in range(M):
            cuts = np.sort(rng.choice(np.arange(1, units), Y - 1, replace=False))
            kernel[i, u] = np.diff([0, *cuts, units]) / units
    return make_model([f"h{i}" for i in range(M)],
                      [f"u{u}" for u in range(U)],
                      [f"y{y}" for y in range(Y)],
                      kernel, np.full(M, 1.0 / M))


def sample_observation(model, rng, truth, u):
    cum = np.cumsum(model.kernel[truth, u])
    return int(min(int((cum <= rng.random()).sum()), model.num_observations - 1))


def four_hypothesis_model():
    """A random binary-observation model with three alternates per
    reference, on which every strategy kind builds."""
    rng = np.random.default_rng(41)
    while True:
        m = random_model(rng, max_hyp=4, max_exp=3, max_obs=2)
        if m.num_hypotheses == 4:
            try:
                build_strategy(m, "symmetric", 8)
                return m
            except ValueError:
                continue


def random_trajectory(model, rng, max_steps=50, reference=None, beta_star=None):
    """Step a trajectory with uniformly random experiments and
    observations drawn from a random true hypothesis."""
    M = model.num_hypotheses
    i = int(rng.integers(M)) if reference is None else reference
    truth = int(rng.integers(M))
    t = new_trajectory(model, i, beta_star=beta_star)
    for _ in range(int(rng.integers(0, max_steps + 1))):
        u = int(rng.integers(model.num_experiments))
        t = step_trajectory(t, u, sample_observation(model, rng, truth, u))
    return t
