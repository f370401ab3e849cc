"""Run the benchmark over several seeds and record medians and spreads.

Usage::

    python3 perfbench/record.py --out perfbench/baseline.json

Runs ``run.py`` one run at a time, with ``run_seconds`` from BENCHMARK.json:
every workload of BENCHMARK.json at seeds 1-10 and at the held-out seed
4242, once traced at seed 1, and, for the workloads with fixed design seeds
(see ``run.py``), at seed 1 with design seeds 1-5.  The output gives, per
workload and metric, the median, quartiles (``statistics.quantiles(values,
n=4)``) and spread (quartile distance over median) of seeds 1-10; the
held-out seed's value and its deviation from that median; the same
statistics over design seeds 0-5 at seed 1; the traced run's per-layer
metrics; and the tracing overhead (traced over untraced ``ops_per_s``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))
HELDOUT = 4242
TRACE_SEED = 1
DESIGN_SEEDS = list(range(1, 6))
FIXED_DESIGN_SEEDS = ("large-1d", "sweep-cli", "design-2d")


def source_digest() -> str:
    """sha256 over the package source files, to tie results to a program."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_once(workload: str, seed: int, seconds: int, trace: int,
             design_seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--design-seed", str(design_seed)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    out = json.loads(lines[-1])
    out["wall_s"] = time.perf_counter() - start
    for line in lines:
        if line.startswith('{"env"') or line.startswith('{"layer_share'):
            out.update(json.loads(line))
    return out


def spread(runs: list[dict], name: str) -> dict:
    values = [r["result"]["metrics"][name]["value"] for r in runs]
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "n": len(values)}


def summarize(runs: list[dict], spec: dict) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        mine = [r for r in runs if r["workload"] == workload]
        untraced = [r for r in mine if r["trace"] == 0]
        tuned = [r for r in untraced
                 if r["seed"] in SEEDS and r["design_seed"] == 0]
        held = [r for r in untraced if r["seed"] == HELDOUT][0]
        designs = [r for r in untraced if r["seed"] == TRACE_SEED]
        traced = [r for r in mine if r["trace"] == 1][0]["result"]
        out = {"runs": len(mine),
               "run_wall_s_mean": statistics.mean(r["result"]["wall_s"]
                                                  for r in mine),
               "run_wall_s_max": max(r["result"]["wall_s"] for r in mine),
               "all_correct": all(r["result"]["correct"] for r in mine),
               "failed": sum(r["result"]["failed"] for r in mine),
               "attempted": sum(r["result"]["attempted"] for r in mine),
               "end_to_end": {}}
        for name, bound in bounds.items():
            entry = spread(tuned, name)
            entry["bound"] = bound
            entry["heldout"] = held["result"]["metrics"][name]["value"]
            entry["heldout_dev"] = \
                (entry["heldout"] - entry["median"]) / entry["median"]
            if len(designs) > 1:
                entry["design_seeds"] = spread(designs, name)
            out["end_to_end"][name] = entry
        out["per_layer"] = {k: v["value"]
                            for k, v in traced["metrics"].items()}
        out["layer_share_by_kind"] = traced["layer_share_by_kind"]
        ops = out["end_to_end"]["ops_per_s"]["median"]
        out["trace_overhead"] = {
            "traced_ops_per_s": out["per_layer"]["trace.ops_per_s"],
            "untraced_ops_per_s_median": ops,
            "ratio": out["per_layer"]["trace.ops_per_s"] / ops}
        summary[workload] = out
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    plan = [(w, s, 0, 0) for s in SEEDS + [HELDOUT] for w in workloads]
    plan += [(w, TRACE_SEED, 1, 0) for w in workloads]
    plan += [(w, TRACE_SEED, 0, b) for b in DESIGN_SEEDS
             for w in workloads if w in FIXED_DESIGN_SEEDS]
    runs, env = [], None
    for workload, seed, trace, design_seed in plan:
        result = run_once(workload, seed, spec["run_seconds"], trace,
                          design_seed)
        env = result.pop("env")
        runs.append({"workload": workload, "seed": seed, "trace": trace,
                     "design_seed": design_seed, "result": result})
        print(f"{workload} seed={seed} trace={trace} design_seed="
              f"{design_seed} correct={result['correct']}", flush=True)
    summary = summarize(runs, spec)
    record = {"run_seconds": spec["run_seconds"], "source": source_digest(),
              "seeds": SEEDS, "heldout": HELDOUT,
              "design_seeds": [0] + DESIGN_SEEDS, "env": env,
              "runs": runs, "summary": summary}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, out in summary.items():
        for name, e in out["end_to_end"].items():
            print(f"{workload:12s} {name:16s} median {e['median']:.5g} "
                  f"spread {e['spread']:.4f} (bound {e['bound']}) heldout "
                  f"dev {e['heldout_dev']:+.4f}"
                  + (f" design-seed spread {e['design_seeds']['spread']:.4f}"
                     if "design_seeds" in e else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
