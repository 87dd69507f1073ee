"""One benchmark phase in a fresh process: set-up or the timed rounds.

    python3 worker.py setup WORKLOAD DIR SEED TRACE
    python3 worker.py run   WORKLOAD DIR SEED SECONDS TRACE

``run.py`` starts this with cobsig's sources on PYTHONPATH and the BLAS and
OpenMP thread counts set to 1.  Both phases first warm up on the tiny
version of the workload (imports, chord templates), untimed.  The last line
of standard output is a JSON object with the phase's measurements.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS

#: Set-ups repeat until both counts are reached; set-up time is their median.
SETUP_MIN_REPEATS, SETUP_MIN_S = 3, 4.0


def _warm_up(workload, work_dir: Path, seed: int) -> None:
    warm = work_dir / "warm"
    warm.mkdir(exist_ok=True)
    params = workload.setup(warm, seed, tiny=True)
    for _, call in workload.ops(warm, params):
        try:
            call()
        except Exception:  # the tiny meshes only warm the code paths up
            pass


def setup_phase(workload, work_dir: Path, seed: int, trace: bool) -> dict:
    _warm_up(workload, work_dir, seed)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    times, layers = [], []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_S:
        gc.collect()
        if tracer:
            tracer.reset()
        start = time.perf_counter()
        params = workload.setup(work_dir, seed, tiny=False)
        times.append(time.perf_counter() - start)
        if tracer:
            layers.append(tracer.snapshot())
    (work_dir / "params.json").write_text(json.dumps(params))
    if tracer:
        tracer.write_spans(work_dir / "setup.spans.jsonl")
    return {"setup_s": times, "layers": layers}


def run_phase(workload, work_dir: Path, seed: int, seconds: float,
              trace: bool) -> dict:
    params = json.loads((work_dir / "params.json").read_text())
    _warm_up(workload, work_dir, seed)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()

    op_names = [name for name, _ in workload.ops(work_dir, params)]
    round_s, cpu_s, layers, records = [], [], [], []
    errors = {}
    while not round_s or sum(round_s) < seconds:
        ops = workload.ops(work_dir, params)
        gc.collect()
        if tracer:
            tracer.reset()
        outputs = {}
        cpu0, start = time.process_time(), time.perf_counter()
        for name, call in ops:
            try:
                outputs[name] = call()
            except Exception as exc:  # counted as a failed operation
                errors.setdefault(name, f"{type(exc).__name__}: {exc}")
        round_s.append(time.perf_counter() - start)
        cpu_s.append(time.process_time() - cpu0)
        if tracer:
            layers.append(tracer.snapshot())
        records.append({name: workload.summary(name, out, params)
                        for name, out in outputs.items()})
        del outputs, ops

    # checks, after the timed phase
    attempted = failed = 0
    wrong = []
    digests = {}
    for rnd in records:
        for name in op_names:
            attempted += 1
            rec = rnd.get(name)
            if rec is None:
                failed += 1
                continue
            fails = workload.check(name, rec, params)
            if fails:
                failed += 1
                wrong.append(f"{name}: {'; '.join(fails)}")
            digests.setdefault(name, set()).add(rec["digest"])
    unsteady = sorted(n for n, d in digests.items() if len(d) > 1)
    if tracer:
        tracer.write_spans(work_dir / "run.spans.jsonl")
    return {
        "round_s": round_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "wrong": sorted(set(wrong)),
        "unsteady_reports": unsteady,
        "digests": {n: sorted(d)[0] for n, d in sorted(digests.items())},
        "layers": layers,
        "params": params,
    }


def main(argv) -> None:
    phase, name, work_dir, seed = argv[0], argv[1], Path(argv[2]), int(argv[3])
    workload = WORKLOADS[name]
    if phase == "setup":
        out = setup_phase(workload, work_dir, seed, argv[4] == "1")
    else:
        out = run_phase(workload, work_dir, seed, float(argv[4]), argv[5] == "1")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
