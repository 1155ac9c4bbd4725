#!/usr/bin/env python3
"""The fhat benchmark.

    python3 perfbench/run.py --workload {fig1,fig2,symmetric,short-horizon}
                             --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; fhat is imported from ./src.
One run repeats the workload's timed pass until --seconds have passed
(at least MIN_PASSES times), checks the outputs, and prints one JSON
object as its last line: every end-to-end metric with --trace 0, every
per-layer metric with --trace 1.  The traced run alternates untraced and
traced passes; end-to-end numbers only ever come from --trace 0.

Times are speed-scaled: each pass and each set-up sample is multiplied
by reference.NOMINAL_S over the duration of the reference loop timed
just before and after it (see reference.py), which cancels the drift of
a shared host's speed.  The raw times are in the results file.

Side files go to perfbench/.out/<workload>-seed<N>/: the CSVs, the
generated model, results-trace<T>.json (output digest, every check,
pass times, machine facts) and, when traced, spans.jsonl.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
checkout holds no fhat sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from reference import NOMINAL_S, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 4
SETUP_SAMPLES = 5

# Metric names and units are those BENCHMARK.json declares.
BENCHMARK = ROOT / "BENCHMARK.json"


def declared_metrics(trace: int) -> dict:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes, one pass, one set-up sample")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def import_fhat() -> bool:
    """Import fhat from this checkout's sources, never from elsewhere."""
    if not (SRC / "fhat" / "__init__.py").is_file():
        print(f"run.py: no fhat sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import fhat
    if Path(fhat.__file__).resolve().parent != (SRC / "fhat").resolve():
        print(f"run.py: imported fhat from {fhat.__file__}", file=sys.stderr)
        return False
    return True


def measure_setup(workload, samples: int) -> float:
    """Median over fresh interpreters of import + model load + builds,
    each sample speed-scaled."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cells = json.dumps(workload.setup_cells())
    totals = []
    ref = reference_seconds()
    for _ in range(samples):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), cells],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        ref_after = reference_seconds()
        totals.append((sample["import_s"] + sample["build_s"])
                      * NOMINAL_S / ((ref + ref_after) / 2.0))
        ref = ref_after
    return statistics.median(totals)


@dataclass
class Pass:
    wall_s: float      # raw wall time of the pass
    scale: float       # NOMINAL_S over the reference time around the pass
    out: object        # workloads.Outputs
    spans: tuple       # [lo, hi) of the pass's spans when traced

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.scale


def one_pass(workload, ref_before: float, tracer=None) -> tuple:
    """One timed pass, traced when a tracer is given; returns the pass
    and the reference time measured after it."""
    lo = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    try:
        t0 = time.perf_counter()
        out = workload.run()
        wall = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.restore()
    ref_after = reference_seconds()
    scale = NOMINAL_S / ((ref_before + ref_after) / 2.0)
    return Pass(wall, scale, out, (lo, len(tracer.spans) if tracer else 0)), ref_after


def run_passes(workload, seconds: float, min_passes: int) -> list:
    """Repeat the timed pass for `seconds`, at least `min_passes` times."""
    passes = []
    ref = reference_seconds()
    start = time.perf_counter()
    while (len(passes) < min_passes
           or time.perf_counter() - start < seconds):
        p, ref = one_pass(workload, ref)
        passes.append(p)
    return passes


def run_traced_passes(workload, seconds: float, tracer) -> tuple:
    """Alternate untraced and traced passes, so that both see the same
    machine load; returns (untraced, traced)."""
    plain, traced = [], []
    ref = reference_seconds()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        p, ref = one_pass(workload, ref)
        plain.append(p)
        p, ref = one_pass(workload, ref, tracer)
        traced.append(p)
    return plain, traced


def determinism_checks(reference, passes, label):
    from workloads import Check
    want = reference.digest()
    return [Check(f"{label} pass {k} output identical to the first pass",
                  p.out.digest() == want)
            for k, p in enumerate(passes)]


def work_normalized_var(wall_s: float, rows) -> float:
    """wall_s x mean squared log_inv_phi_se over the given CSV rows; 0
    when no row has a finite SE, which only a failed pass produces."""
    ses = [float(r["log_inv_phi_se"]) for r in rows if "log_inv_phi_se" in r]
    ses = [se for se in ses if math.isfinite(se)]
    return wall_s * statistics.fmean(se * se for se in ses) if ses else 0.0


def machine_facts() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_fhat():
        return 2
    from spans import Tracer, layer_metrics
    from workloads import FULL, SMOKE, WORKLOADS

    prefix = "smoke-" if args.smoke else ""
    out_dir = HERE / ".out" / f"{prefix}{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, str(out_dir),
                                        SMOKE if args.smoke else FULL)
    workload.prepare()
    min_passes = 1 if args.smoke else MIN_PASSES

    metrics = {}
    if args.trace == 0:
        setup_s = measure_setup(workload, 1 if args.smoke else SETUP_SAMPLES)
        passes = run_passes(workload, args.seconds, min_passes)
        wall_s = statistics.median(p.scaled_s for p in passes)
        first = passes[0].out
        metrics = {
            "wall_s": wall_s,
            "trial_steps_per_s": workload.useful_trial_steps() / wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_normalized_var": work_normalized_var(
                wall_s, workload.precision_rows(first)),
        }
        checks = workload.check(first) + determinism_checks(first, passes[1:], "untraced")
    else:
        tracer = Tracer()
        plain, traced = run_traced_passes(workload, args.seconds, tracer)
        first = plain[0].out
        per_pass = [layer_metrics(tracer.spans, *p.spans, p.wall_s)
                    for p in traced]
        for name in per_pass[0]:
            metrics[name] = statistics.median(p[name] for p in per_pass)
        metrics["trace.overhead_share"] = (
            statistics.median(p.scaled_s for p in traced)
            / statistics.median(p.scaled_s for p in plain) - 1.0)
        tracer.write(str(out_dir / "spans.jsonl"), [p.spans for p in traced])
        checks = (workload.check(first)
                  + determinism_checks(first, plain[1:], "untraced")
                  + determinism_checks(first, traced, "traced"))
        passes = plain + traced

    failed = [c for c in checks if not c.ok]
    if args.trace == 0:
        metrics["checks_passed_share"] = (len(checks) - len(failed)) / len(checks)
    units = declared_metrics(args.trace)

    with open(out_dir / f"results-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "digest": first.digest(),
                   "pass_wall_s": [p.wall_s for p in passes],
                   "pass_scale": [p.scale for p in passes],
                   "checks": [vars(c) for c in checks],
                   "machine": machine_facts(),
                   "metrics": metrics}, fh, indent=1)
        fh.write("\n")

    for c in failed:
        print(f"FAILED {args.workload}: {c.name} ({c.detail})", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"digest={first.digest()[:16]}")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
