#!/usr/bin/env python3
"""Symmetric formulation on the two-sensor model: the maximum-likelihood
composite strategy with per-hypothesis symmetric thresholds.

Prints per-horizon correct-inference probabilities and the overall
misclassification probability (log-sum-exp channel), then the fitted
exponential decay rate of the latter, to compare against min_i D*(i).
"""

import argparse
import math
import sys

import numpy as np

from fhat import montecarlo as mc
from fhat.game import solve
from fhat.model import table1
from fhat.strategy import default_epsilon, symmetric_setup


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizons", type=int, nargs="+", default=[200, 350, 500])
    ap.add_argument("--trials", type=int, nargs="+", default=None,
                    help="per-horizon trial counts (default scales with N)")
    ap.add_argument("--seed", type=int, default=909)
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()
    model = table1()
    trials = args.trials or [int(2e5 * math.exp(0.0085 * (N - 200)))
                             for N in args.horizons]
    d_min = min(solve(model, i).value for i in range(3))
    points = []
    for N, T in zip(args.horizons, trials):
        eps = default_epsilon(N)
        spec, rule = symmetric_setup(model, N, eps)
        rep = mc.estimate(mc.SimulationConfig(model, spec, rule, N, T,
                                              args.seed, args.workers))
        points.append((N, rep.gamma_hat_lse))
        psis = " ".join(f"psi({i})={rep.psi_hat[i]:.4f}" for i in range(3))
        print(f"N={N:4d} T={T}: {psis} gamma={rep.gamma_hat_lse:.4e}")
    ns = np.array([p[0] for p in points], dtype=float)
    ys = np.array([-math.log(p[1]) for p in points])
    slope = float(np.polyfit(ns, ys, 1)[0])
    print(f"fitted decay rate: {slope:.5f} nats/step "
          f"(min_i D*(i) = {d_min:.5f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
