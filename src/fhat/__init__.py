"""Fixed-horizon active hypothesis testing.

The agent performs a fixed number N of experiments, then either declares
one hypothesis or abstains.  This package provides the model layer,
log-space belief recursions, the max-min KL experiment-selection game,
the asymptotically optimal selection strategies with their threshold
inference rules, converse bounds, and a seeded Monte Carlo plus
exact-enumeration evaluation engine.
"""

__version__ = "0.5.0"

from .belief import (Belief, confidence, confidence_increment,
                     decomposition_terms, new_trajectory, prior_belief,
                     step_trajectory, tilde_belief, update_belief)
from .bounds import binomial_quantile, strong_bound_binary_example, weak_converse
from .game import GameSolution, solve
from .model import (HypothesisModel, ModelError, kl_divergence, load_model,
                    load_model_file, resolve_model, serialize_model, table1,
                    table2)
from .montecarlo import (SimulationConfig, SimulationReport,
                         best_threshold_search, enumerate_exact, estimate,
                         estimate_phi_lse, run_trial, sweep)
from .strategy import (InferenceRule, StrategySpec, build_strategy,
                       criterion_holds, infer, mgf, s_schedule,
                       select_experiment, threshold_asymmetric,
                       threshold_symmetric)
