"""Layer spans for the traced run.

The tracer replaces public fhat functions, at the module attributes
their callers look them up through, with wrappers that record a span:
name, start, end, parent span and counts read from the arguments and the
return value.  Spans stay in memory; ``write`` puts them in a sidecar
file.  ``restore`` puts the original attributes back.

The engine's per-step layers (RNG, selection, sampling, update) live
inside one private function and cannot be seen from here; compare
``ns_per_trial_step`` across strategy kinds instead.
"""

from __future__ import annotations

import inspect
import json
import time
from dataclasses import dataclass, field

LAYERS = ("model", "game", "strategy", "belief", "montecarlo", "bounds", "cli")
KINDS = ("ors", "das", "das-rs", "chernoff-det", "symmetric")


@dataclass
class Span:
    name: str
    parent: int
    start: int = 0
    end: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def ns(self) -> int:
        return self.end - self.start


def _simulate_counts(args: dict, result) -> dict:
    from fhat.montecarlo import CHUNK
    trials, N = int(args["trials"]), int(args["N"])
    chunks = -(-trials // CHUNK)
    return {"kind": args["spec"].kind, "trials": trials, "N": N,
            "chunks": chunks, "useful": trials * N,
            "simulated": chunks * CHUNK * N}


def _lse_counts(args: dict, result) -> dict:
    return {"accepted": int(result.accepted), "trials": int(result.trials)}


def _enumerate_counts(args: dict, result) -> dict:
    return {"leaves": int(result.leaves)}


def _targets():
    """(module, attribute, span name, counts) for every wrapped call
    site; counts(arguments by name, return value) gives the span's
    counts.  A function bound by name into several modules is wrapped at
    each of them."""
    from fhat import bounds, cli, game, model, montecarlo, strategy
    return [
        (cli, "main", "cli.main", None),
        (cli, "resolve_model", "model.load", None),
        (model, "resolve_model", "model.load", None),
        (game, "solve", "game.solve", None),
        (strategy, "build_strategy", "strategy.build", None),
        (cli, "build_strategy", "strategy.build", None),
        (montecarlo, "build_strategy", "strategy.build", None),
        (montecarlo, "select_experiment", "strategy.select", None),
        (strategy, "select_experiment", "strategy.select", None),
        (montecarlo, "step_trajectory", "belief.step", None),
        (montecarlo, "simulate_measure", "montecarlo.simulate", _simulate_counts),
        (montecarlo, "best_threshold_search", "montecarlo.calibrate", None),
        (montecarlo, "estimate", "montecarlo.estimate", None),
        (montecarlo, "decisions_from_increments", "montecarlo.decisions", None),
        (montecarlo, "estimate_phi_lse", "montecarlo.lse", _lse_counts),
        (montecarlo, "enumerate_exact", "montecarlo.enumerate", _enumerate_counts),
        (montecarlo, "run_trial", "montecarlo.run_trial", None),
        (bounds, "weak_converse", "bounds.weak", None),
        (bounds, "strong_bound_binary_example", "bounds.strong_binary", None),
        (bounds, "strong_converse_sweep", "bounds.strong_sweep", None),
    ]


class Tracer:
    """Records spans while installed; single-threaded by design (the
    traced run is serial, so no span is lost in a pool worker)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        for module, attr, name, counts in _targets():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counts))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, counts):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        signature = inspect.signature(fn) if counts else None

        def wrapper(*a, **k):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*a, **k)
            finally:
                span.end = clock()
                stack.pop()
            if counts is not None:
                span.counts = counts(signature.bind(*a, **k).arguments, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: str, passes: list) -> None:
        """JSON lines: one record per span, times in ns from the first
        span, tagged with the traced pass it belongs to."""
        t0 = self.spans[0].start if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for p, (lo, hi) in enumerate(passes):
                for idx in range(lo, hi):
                    s = self.spans[idx]
                    fh.write(json.dumps({
                        "pass": p, "id": idx, "name": s.name, "parent": s.parent,
                        "start_ns": s.start - t0, "end_ns": s.end - t0,
                        **s.counts}) + "\n")


def layer_metrics(spans: list[Span], lo: int, hi: int, wall_s: float) -> dict:
    """Per-layer metrics of the spans [lo, hi) of one traced pass."""
    mine = spans[lo:hi]
    child_ns = {}
    for s in mine:
        if s.parent >= 0:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + s.ns

    def picked(name, outermost=False):
        out = []
        for i in range(lo, hi):
            s = spans[i]
            if s.name != name:
                continue
            if outermost:
                p = s.parent
                while p >= 0 and spans[p].name != name:
                    p = spans[p].parent
                if p >= 0:
                    continue
            out.append((i, s))
        return out

    def total_ms(name, outermost=False):
        return sum(s.ns for _, s in picked(name, outermost)) / 1e6

    def self_ms(name):
        return sum(s.ns - child_ns.get(i, 0) for i, s in picked(name)) / 1e6

    def mean_us(name):
        got = picked(name)
        return sum(s.ns for _, s in got) / len(got) / 1e3 if got else 0.0

    sims = [s for _, s in picked("montecarlo.simulate")]
    useful = sum(s.counts["useful"] for s in sims)
    simulated = sum(s.counts["simulated"] for s in sims)
    lse = [s for _, s in picked("montecarlo.lse")]
    lse_trials = sum(s.counts["trials"] for s in lse)
    enum = [s for _, s in picked("montecarlo.enumerate")]
    leaves = sum(s.counts["leaves"] for s in enum)
    enum_s = sum(s.ns for s in enum) / 1e9
    top_ns = sum(s.ns for s in mine if s.parent < 0)

    m = {
        "model.load_ms": total_ms("model.load"),
        "game.solve_calls": len(picked("game.solve")),
        "game.solve_ms": total_ms("game.solve"),
        "strategy.build_calls": len(picked("strategy.build")),
        "strategy.build_ms": total_ms("strategy.build", outermost=True),
        "strategy.select_calls": len(picked("strategy.select")),
        "strategy.select_us": mean_us("strategy.select"),
        "belief.step_calls": len(picked("belief.step")),
        "belief.step_us": mean_us("belief.step"),
        "montecarlo.simulate_calls": len(sims),
        "montecarlo.chunks": sum(s.counts["chunks"] for s in sims),
        "montecarlo.trial_steps.useful": useful,
        "montecarlo.trial_steps.simulated": simulated,
        "montecarlo.useful_step_ratio": useful / simulated if simulated else 0.0,
        "montecarlo.calibrate_self_ms": self_ms("montecarlo.calibrate"),
        "montecarlo.estimate_self_ms": self_ms("montecarlo.estimate"),
        "montecarlo.decisions_ms": total_ms("montecarlo.decisions"),
        "montecarlo.lse_ms": total_ms("montecarlo.lse"),
        "montecarlo.lse_accept_ratio": (sum(s.counts["accepted"] for s in lse)
                                        / lse_trials if lse_trials else 0.0),
        "montecarlo.enumerate_s": enum_s,
        "montecarlo.enum_leaves": leaves,
        "montecarlo.us_per_leaf": enum_s * 1e6 / leaves if leaves else 0.0,
        "montecarlo.run_trial_ms": total_ms("montecarlo.run_trial"),
        "bounds.weak_ms": total_ms("bounds.weak"),
        "bounds.strong_binary_ms": total_ms("bounds.strong_binary"),
        "bounds.strong_sweep_ms": total_ms("bounds.strong_sweep"),
        "cli.self_ms": self_ms("cli.main"),
        "trace.covered_share": top_ns / 1e9 / wall_s if wall_s > 0 else 0.0,
    }
    for kind in KINDS:
        ns = sum(s.ns for s in sims if s.counts["kind"] == kind)
        steps = sum(s.counts["simulated"] for s in sims if s.counts["kind"] == kind)
        m[f"montecarlo.ns_per_trial_step.{kind}"] = ns / steps if steps else 0.0
    return m
