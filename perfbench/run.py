"""Benchmark of the cobsig pipeline, timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...

Run from the root of a cobsig checkout.  Each run starts two fresh
processes (``worker.py``) with cobsig's sources on PYTHONPATH and one BLAS
and OpenMP thread.  The first generates the workload's meshes and writes
them to files, at least three times.  The second warms up on tiny meshes,
runs whole rounds of the workload's operations until S seconds have been
measured, then checks every output.  ``--trace 1`` wraps every layer
function and reports per-layer metrics instead of the end-to-end ones.
See README.md.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names,
units and workloads are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: Both worker processes of a run must end within this many seconds.
RUN_TIMEOUT_S = 170


def _child(args, env, deadline) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                          env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _layer_value(name, setups, rounds):
    """Per-layer metric of one set-up plus one round (medians of each)."""
    parts = [median(s.get(name, 0) for s in phase) for phase in (setups, rounds) if phase]
    return max(parts) if name.endswith((".max_nodes", ".max_nnz")) else sum(parts)


def run_workload(bench, workload, seed, seconds, trace) -> dict:
    work_dir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        env, deadline = _env(), time.monotonic() + RUN_TIMEOUT_S
        setup = _child(["setup", workload, work_dir, seed, int(trace)], env, deadline)
        run = _child(["run", workload, work_dir, seed, seconds, int(trace)], env,
                     deadline)
        if trace:
            for phase in ("setup", "run"):
                shutil.move(work_dir / f"{phase}.spans.jsonl",
                            WORK / f"{workload}-seed{seed}.{phase}.spans.jsonl")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if trace:
        specs = bench["per_layer"]
        values = {m["name"]: _layer_value(m["name"], setup["layers"], run["layers"])
                  for m in specs}
    else:
        specs = bench["end_to_end"]
        values = {"setup_s": median(setup["setup_s"]),
                  "run_s": median(run["round_s"]),
                  "peak_rss_mb": run["peak_rss_mb"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"params {json.dumps(run['params'], sort_keys=True)}")
    print(f"  rounds {len(run['round_s'])}: "
          + " ".join(f"{t:.3f}" for t in run["round_s"]) + " s")
    print("  set-ups: " + " ".join(f"{t:.3f}" for t in setup["setup_s"]) + " s")
    print("  round cpu_s (reference only): "
          + " ".join(f"{t:.3f}" for t in run["cpu_s"]) + f" s on {os.cpu_count()} cores")
    if trace:
        print(f"  traced round wall time: median {median(run['round_s']):.4f} s")
    for name, m in metrics.items():
        print(f"  {name} {m['value']} {m['unit']}")
    for name, digest in run["digests"].items():
        print(f"  digest {name}: {digest}")
    for msg in list(run["errors"].items()) + run["wrong"]:
        print(f"  FAILED {msg}")
    if run["unsteady_reports"]:
        print(f"  reports differ between rounds: {run['unsteady_reports']}")
    return {"correct": not run["wrong"] and not run["unsteady_reports"],
            "attempted": run["attempted"], "failed": run["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cobsig" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: {ROOT} is not a cobsig checkout (no src/cobsig)", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload != "all":
        result = run_workload(bench, args.workload, args.seed, args.seconds, args.trace)
    else:
        results = {w: run_workload(bench, w, args.seed, args.seconds, args.trace)
                   for w in names}
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": v for w, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
