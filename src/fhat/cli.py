"""Command-line harness.

Subcommands: solve-game, simulate, sweep, bounds, enumerate.  Every
output file is written together with a `<file>.manifest.json` recording
the tool, numpy and python versions, the stream's generator, the resolved
flags and seed, so the exact run can be reproduced (`fhat sweep
--manifest <file>` replays a sweep and emits a byte-identical CSV at any
worker count, with a warning if another version wrote the manifest).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import montecarlo as mc
from .model import BUILTIN_MODELS, ModelError, resolve_model
from .strategy import (INNER_KINDS, KINDS, asymmetric_rule, build_strategy,
                       default_epsilon, empirical_rule, symmetric_setup)

STRATEGY_CHOICES = tuple(KINDS)


def _workers_default() -> int:
    text = os.environ.get("FHAT_WORKERS", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"FHAT_WORKERS must be a whole number, got {text!r}") from None


def _parse_horizons(text: str) -> list[int]:
    """Accept comma-separated items, each a horizon or an inclusive
    range a:b[:step]: '10,49,100:500:100'."""
    horizons = []
    for item in filter(None, text.split(",")):
        if ":" not in item:
            horizons.append(int(item))
            continue
        parts = [int(p) for p in item.split(":")]
        if len(parts) == 2:
            start, stop, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            start, stop, step = parts
        else:
            raise ValueError(f"bad horizon range {item!r}")
        if step <= 0 or stop < start:
            raise ValueError(f"bad horizon range {item!r}")
        horizons.extend(range(start, stop + 1, step))
    if not horizons:
        raise ValueError(f"--horizons {text!r} names no horizon")
    return horizons


def _epsilon_fn(args):
    if getattr(args, "epsilon", None) is not None:
        eps = float(args.epsilon)
        return lambda N: eps
    return default_epsilon


def _write_text(path: str, text: str) -> None:
    """Make `text` the whole content of `path`.  An existing file is
    overwritten in place and cut to length, not opened with O_TRUNC: on
    ext4, truncating a written file to zero makes its close start
    writeback.  Rewriting a 600-byte file that way took 0.2 ms on median
    and up to 13 ms on a 2-vCPU virtual machine, against 0.02 ms in
    place."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.truncate()


# parsed values that do not change a run's output, or are recorded apart
_NOT_FLAGS = ("command", "func", "manifest", "output", "seed", "workers")


def _emit(args, content: str) -> None:
    """Write `content` to --output with its manifest, or to stdout.  The
    manifest's flags are every option of the subcommand, as resolved."""
    if not args.output:
        sys.stdout.write(content)
        return
    _write_text(args.output, content)
    manifest = {
        "tool": "fhat",
        "version": __version__,
        "rng": mc.STREAM_RNG,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "subcommand": args.command,
        "flags": {k: v for k, v in vars(args).items() if k not in _NOT_FLAGS},
        "seed": getattr(args, "seed", None),
        "output": os.path.basename(args.output),
    }
    _write_text(args.output + ".manifest.json",
                json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve_game(args) -> int:
    model = resolve_model(args.model)
    from .game import solve
    sol = solve(model, args.reference)
    lines = [
        f"model: {args.model}",
        f"reference: {model.hypotheses[args.reference]}",
        f"value: {mc.fmt9(sol.value)} nats",
        "alpha_star: " + " ".join(f"{model.experiments[u]}={mc.fmt9(float(a))}"
                                  for u, a in enumerate(sol.alpha_star)),
        "beta_star: " + " ".join(
            f"{model.hypotheses[j]}={mc.fmt9(float(b))}"
            for j, b in zip(model.alternates(args.reference), sol.beta_star)),
        "payoff_matrix (experiments x alternates):",
    ]
    for u in range(model.num_experiments):
        lines.append("  " + model.experiments[u] + ": "
                     + " ".join(mc.fmt9(float(v)) for v in sol.payoff_matrix[u]))
    lines.append(f"duality_gap: {mc.fmt9(sol.duality_gap)}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _spec_and_rule(args, model, N: int):
    """The strategy and inference rule that `simulate` and `enumerate`
    evaluate: the symmetric composite with its own rule, or the
    asymmetric strategy with a fixed --theta, a calibrated threshold
    (simulate --calibrate) or the theory threshold.  The symmetric
    composite thresholds every hypothesis by its own rule, so it refuses
    --reference, --theta and --calibrate."""
    eps = _epsilon_fn(args)(N)
    if args.strategy == "symmetric":
        for flag in ("reference", "theta", "calibrate"):
            value = getattr(args, flag, None)
            if value is not None and value is not False:
                raise ValueError(f"--{flag} does not apply to --strategy symmetric")
        return symmetric_setup(model, N, eps, args.inner)
    i = args.reference
    spec = build_strategy(model, args.strategy, N, reference=i, epsilon=eps)
    if args.theta is not None:
        return spec, empirical_rule(i, args.theta, eps)
    if getattr(args, "calibrate", False):
        c_inc, _ = mc.simulate_measure(model, spec, N, i, args.trials, args.seed,
                                       mc.PURPOSE_CALIBRATE, refs=(i,),
                                       workers=args.workers)
        theta = mc.best_threshold_search(model, N, eps, c_inc)
        return spec, empirical_rule(i, theta, eps)
    return spec, asymmetric_rule(model, spec.game, N, eps)


def cmd_simulate(args) -> int:
    model = resolve_model(args.model)
    N = args.horizon
    spec, rule = _spec_and_rule(args, model, N)
    rep = mc.estimate(mc.SimulationConfig(model, spec, rule, N, args.trials,
                                          args.seed, args.workers))
    # one row per thresholded hypothesis; the symmetric rows share the
    # log-sum-exp gamma and have no bound columns
    symmetric = rule.kind == "symmetric"
    rows = [mc.SweepRow(
        strategy=args.strategy, N=N, epsilon=rule.epsilon, theta=theta,
        psi_hat=rep.psi_hat[i], psi_se=rep.psi_se[i],
        log_inv_phi=rep.lse[i].log_inv_phi, log_inv_phi_se=rep.lse[i].se,
        gamma_hat=rep.gamma_hat_lse if symmetric else rep.gamma_hat,
        weak_bound=math.nan if symmetric else bounds_mod.weak_converse(
            spec.game, model, N, rule.epsilon),
        strong_bound=math.nan if symmetric else math.inf, seed=args.seed)
        for i, theta in sorted(rule.thresholds.items())]
    _emit(args, mc.rows_to_csv(rows))
    return 0


def _replay(args):
    """The arguments of the sweep that the manifest `args.manifest`
    records, parsed as its command line with this call's --output and
    --workers, so that a flag the sweep parser would refuse (an unknown
    name, a bad type or choice) exits 2 as it does there.  A null flag
    is one the run did not give."""
    with open(args.manifest, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or manifest.get("subcommand") != "sweep":
        raise ModelError(f"{args.manifest} is not a sweep manifest")
    if not isinstance(manifest.get("flags"), dict) or "seed" not in manifest:
        raise ModelError(f"{args.manifest} records no flags object or no seed")
    if manifest.get("version") != __version__:
        print(f"fhat: warning: {args.manifest} was written by fhat "
              f"{manifest.get('version')}, not {__version__}; the CSV may "
              "differ from the original", file=sys.stderr)
    given = {**manifest["flags"], "seed": manifest["seed"],
             "output": args.output, "workers": args.workers}
    return _parser().parse_args(
        ["sweep", *(f"--{k}={v}" for k, v in given.items() if v is not None)])


def cmd_sweep(args) -> int:
    kinds = [k.strip() for k in args.strategies.split(",") if k.strip()]
    if not kinds:
        raise ModelError("--strategies must name at least one strategy")
    for k in kinds:
        if k not in STRATEGY_CHOICES:
            raise ModelError(f"unknown strategy {k!r}")
    if args.trials < 1:
        raise ModelError("--trials must be at least 1")
    model = resolve_model(args.model)
    horizons = _parse_horizons(args.horizons)
    rows = mc.sweep(model, kinds, args.reference, horizons, args.trials,
                    args.seed, epsilon_fn=_epsilon_fn(args),
                    strong=args.strong, nu=args.nu, workers=args.workers,
                    inner_kind=args.inner)
    _emit(args, mc.rows_to_csv(rows))
    return 0


def cmd_bounds(args) -> int:
    model = resolve_model(args.model)
    from .game import solve
    sol = solve(model, args.reference)
    horizons = _parse_horizons(args.horizons)
    rows = bounds_mod.bounds_table(model, sol, horizons, _epsilon_fn(args),
                                   nu=args.nu)
    lines = ["N,epsilon,weak_rate,strong_abs,strong_db,asymptotic_rate"]
    for r in rows:
        lines.append(",".join(mc.fmt9(v) for v in
                              (r.N, r.epsilon, r.weak_rate, r.strong_abs,
                               r.strong_db, r.asymptotic_rate)))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _count_text(n: int | float) -> str:
    """A path count: exact below 2**53, and past it, where the count is a
    float sum, in float form with the digits that float holds (the
    shortest repr that reads back as it; 17 digits past float range).
    A count weighed by draws that is not whole is a float, shown so."""
    if n < 1 << 53:
        return str(n)
    if n < 1 << 1024:
        return repr(float(n))
    digits = str(round(n, 17 - len(str(n))))    # half to even, may carry
    return f"{digits[0]}.{digits[1:17]}e+{len(digits) - 1}"


def cmd_enumerate(args) -> int:
    model = resolve_model(args.model)
    spec, rule = _spec_and_rule(args, model, args.horizon)
    rep = mc.enumerate_exact(model, spec, rule, args.horizon)
    lines = [f"leaves: {_count_text(rep.leaves)}"]
    for i in sorted(rep.psi):
        lines.append(f"psi[{model.hypotheses[i]}]: {mc.fmt9(rep.psi[i])}")
        lines.append(f"phi[{model.hypotheses[i]}]: {mc.fmt9(rep.phi[i])}")
    lines.append(f"gamma: {mc.fmt9(rep.gamma)}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fhat",
        description="Fixed-horizon active hypothesis testing harness "
                    f"(built-in models: {', '.join(sorted(BUILTIN_MODELS))})")
    p.add_argument("--version", action="version", version=f"fhat {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--model", default=None,
                        help="built-in model name or path to a model file")
        sp.add_argument("--output", default=None,
                        help="write results (plus manifest) to this file")
        sp.add_argument("--workers", type=int, default=None,
                        help="parallel worker processes (default: FHAT_WORKERS or serial)")

    sp = sub.add_parser("solve-game", help="solve the experiment-selection game")
    add_common(sp)
    sp.add_argument("--reference", type=int, required=True)
    sp.set_defaults(func=cmd_solve_game)

    sp = sub.add_parser("simulate", help="Monte Carlo evaluation of one strategy")
    add_common(sp)
    sp.add_argument("--strategy", required=True, choices=STRATEGY_CHOICES)
    sp.add_argument("--reference", type=int, default=None)
    sp.add_argument("--horizon", type=int, required=True)
    sp.add_argument("--trials", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--epsilon", type=float, default=None,
                    help="override the min(0.05, 10/N) schedule")
    threshold = sp.add_mutually_exclusive_group()
    threshold.add_argument("--theta", type=float, default=None,
                           help="fixed inference threshold (nats)")
    threshold.add_argument("--calibrate", action="store_true",
                           help="find the threshold by binary search instead of theory")
    sp.add_argument("--inner", default="das", choices=INNER_KINDS,
                    help="inner strategy kind for the symmetric composite")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="strategy-by-horizon CSV (figure data)")
    add_common(sp)
    sp.add_argument("--strategies", default="",
                    help="comma-separated strategy kinds")
    sp.add_argument("--reference", type=int, default=0)
    sp.add_argument("--horizons", default="100:500:100")
    sp.add_argument("--trials", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--strong", choices=("none", "binary", "empirical"),
                    default="none", help="strong-bound overlay channel")
    sp.add_argument("--nu", type=float, default=None,
                    help="nu for the binary closed-form strong bound")
    sp.add_argument("--inner", default="das", choices=INNER_KINDS)
    sp.add_argument("--manifest", default=None,
                    help="replay a previous sweep from its manifest file")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("bounds", help="converse-bound table over horizons")
    add_common(sp)
    sp.add_argument("--reference", type=int, required=True)
    sp.add_argument("--horizons", default="100:500:100")
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--nu", type=float, default=None)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("enumerate", help="exact evaluation of any strategy over "
                        "its likelihood-lattice states (a sampling rule's leaves "
                        "are its paths weighed by their draws)")
    add_common(sp)
    sp.add_argument("--strategy", required=True, choices=STRATEGY_CHOICES)
    sp.add_argument("--reference", type=int, default=None)
    sp.add_argument("--horizon", type=int, required=True)
    sp.add_argument("--theta", type=float, default=None)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--inner", default="das", choices=INNER_KINDS)
    sp.set_defaults(func=cmd_enumerate)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it takes about
    1 ms, twenty times as long as parsing a run's flags with it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "manifest", None):
            args = _replay(args)
        if args.workers is None:
            # read at call time, so a changed FHAT_WORKERS takes effect
            args.workers = _workers_default()
        if args.workers < 0:
            raise ValueError(f"the worker count must be >= 0, got {args.workers}")
        if args.model is None:
            raise ModelError("--model is required")
        return args.func(args)
    except (ModelError, ValueError, OSError) as exc:
        print(f"fhat: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
