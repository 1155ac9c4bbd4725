"""A fixed reference loop that gauges the machine's current speed.

On a shared host the speed of one core drifts by tens of percent over a
few minutes, and every pass of a run slows together.  run.py times this
loop before and after every timed pass and set-up sample and rescales
the pass to the loop's nominal duration, so the reported times cancel
the drift.  The loop uses numpy only, never fhat, so a change to fhat
moves the rescaled times and not the gauge.  It mixes the two kinds of
work the workloads do: whole-chunk array steps like the engine's
(counter-based draws, a tilted-weight score, an inverse-CDF sample, a
log-likelihood update) and an interpreter-bound loop over tiny arrays
like the scalar selector and the enumeration walk.
"""

import time

import numpy as np

NOMINAL_S = 0.2   # a typical duration of the loop on the 2-vCPU host it was
                  # tuned on, where it ranged from 0.13 to 0.21 s
CHUNK_STEPS = 80
TRIALS = 8192
SCALAR_STEPS = 4000


def reference_seconds() -> float:
    """Wall time of the reference loop."""
    gen = np.random.Generator(np.random.Philox(2024))
    logk = np.log(np.array([[[0.4, 0.6], [0.6, 0.4]],
                            [[0.6, 0.4], [0.4, 0.6]],
                            [[0.5, 0.5], [0.3, 0.7]]]))
    cum = np.cumsum(np.exp(logk[0]), axis=1)
    mu = np.array([[0.9, 0.95], [0.97, 0.88]])
    lb = np.tile(np.log(np.full(3, 1.0 / 3.0)), (TRIALS, 1))
    small_logk = np.log(np.array([[0.2, 0.3, 0.5], [0.4, 0.4, 0.2],
                                  [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]]))
    small_mu = np.array([[0.9, 0.8, 0.95], [0.85, 0.97, 0.9]])
    small_lb = np.zeros(4)

    t0 = time.perf_counter()
    for _ in range(CHUNK_STEPS):
        draws = gen.random(TRIALS)
        w = 0.5 * lb[:, 1:]
        w = np.exp(w - w.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        u = np.argmin(w @ mu.T, axis=1)
        y = np.minimum((draws[:, None] >= cum[u]).sum(axis=1), 1)
        lb += logk[:, u, y].T
    for k in range(SCALAR_STEPS):
        w = 0.4 * small_lb[1:]
        w = np.exp(w - w.max())
        w /= w.sum()
        u = int(np.argmin(small_mu @ w))
        small_lb = small_lb + small_logk[:, (k + u) % 3]
        small_lb -= small_lb.max()
    return time.perf_counter() - t0
