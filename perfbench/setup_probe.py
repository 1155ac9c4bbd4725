"""One set-up sample, run in a fresh interpreter by run.py.

Times importing fhat, loading the models and every game solve and
strategy build a workload's cells need.  Usage:

    python3 perfbench/setup_probe.py '<json list of {"model","kind","N"}>'

Prints {"import_s": ..., "build_s": ...}.  Nothing heavier than json is
imported before the clock starts, so numpy's import is counted too.
"""

import json
import sys
import time


def main() -> int:
    cells = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import fhat.cli  # noqa: F401  (the CLI is what the workloads drive)
    from fhat import model as model_mod
    from fhat import strategy
    t1 = time.perf_counter()
    models = {}
    for cell in cells:
        key = cell["model"]
        if key not in models:
            models[key] = model_mod.resolve_model(key)
        model, N = models[key], cell["N"]
        eps = strategy.default_epsilon(N)
        if cell["kind"] == "symmetric":
            spec = strategy.build_strategy(model, "symmetric", N, epsilon=eps)
            games = {i: spec.inner[i].game for i in range(model.num_hypotheses)}
            strategy.symmetric_rule(model, games, N, eps)
        else:
            strategy.build_strategy(model, cell["kind"], N, reference=0,
                                    epsilon=eps)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
