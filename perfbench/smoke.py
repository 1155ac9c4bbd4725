#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Makes a reduced-size run of every workload, untraced and traced, and
asserts that each prints every metric BENCHMARK.json names, with a finite
value and the declared unit; that perfbench/metrics.json describes exactly
those metrics; and that the traced runs together record spans
in every fhat layer.  Output checks that fail at the reduced size are
reported, not asserted: the sizes are too small for some 3-SE checks.
Exits 0 on success.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode in (0, 1), (workload, trace, proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (proc.returncode == 1) == (result["failed"] > 0), (workload, trace)
    if proc.returncode:
        print(f"  {workload} trace={trace}: output checks failed at smoke size:\n"
              + proc.stderr.strip())
    return result


def main() -> int:
    sys.path.insert(0, str(HERE))
    from spans import LAYERS
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    registry = json.loads((HERE / "metrics.json").read_text())["metrics"]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    described = {name for names in declared.values() for name in names}
    assert described == set(registry), described ^ set(registry)

    layers = set()
    for workload in sorted(WORKLOADS):
        for trace in (0, 1):
            result = run(workload, trace)
            got = result["metrics"]
            assert set(got) == set(declared[trace]), (workload, trace, set(got) ^ set(declared[trace]))
            for name, unit in declared[trace].items():
                value = got[name]["value"]
                assert got[name]["unit"] == unit, (workload, name)
                assert isinstance(value, (int, float)) and math.isfinite(value), (workload, name, value)
            assert result["attempted"] >= 1
        spans = HERE / ".out" / f"smoke-{workload}-seed{SEED}" / "spans.jsonl"
        with open(spans, encoding="utf-8") as fh:
            layers |= {json.loads(line)["name"].split(".")[0] for line in fh}
        print(f"  {workload}: ok")
    missing = set(LAYERS) - layers
    assert not missing, f"no spans for layers {sorted(missing)}"
    print(f"smoke: every metric emitted; spans in layers {sorted(layers)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
