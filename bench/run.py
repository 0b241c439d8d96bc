"""Benchmark of the subquad-bsde toolkit: three workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload run-ladder-bins --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload oracle-poly-picard --held-out --trace 1

Each run is a closed loop with one client: repetitions of the workload run one
after another, each in a fresh single-threaded Python process (``rep.py``,
BLAS pinned to ``BLAS_THREADS``), until ``--seconds`` is used up, with at
least ``MIN_ROUNDS`` rounds.  ``--trace 0`` reports the medians over untraced
repetitions of

    wall_s       seconds in the timed section
    setup_s      seconds from process start until the inputs are ready
    peak_rss_mb  peak resident set of the repetition's process

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see ``tracer.layer_metrics``), plus
``trace.overhead_s``, traced minus untraced median ``wall_s``.

Every repetition checks its outputs (gates in ``workloads.py``); every
repetition after the first must produce byte-identical outputs, and traced
repetitions identical counters.  Each gate is one operation;
``fail_fraction`` = failed / attempted.  The last stdout line is the JSON
result; the full record, with the environment and seeds, is written to
``.bench_runs/<workload>-seed<seed>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BLAS_THREADS = 1             # one client, one thread: steadier than sharing two cores
MIN_ROUNDS = 2               # the reproducibility gate needs two untraced repetitions
HARD_LIMIT_S = 150.0         # stop starting repetitions past this, whatever --seconds says
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)   # rep.py stamps the same clock


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def _repetition(workload: str, seed: int, trace: int, out: Path, run_id: str,
                timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "rep.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--out", str(out), "--run-id", run_id]
    started = _now()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"run_id": run_id, "trace": trace, "elapsed_s": _now() - started,
                "gates": [(f"repetition finished within {timeout:.0f} s", False)]}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"run_id": run_id, "trace": trace,
                  "gates": [(f"repetition exited with code {proc.returncode}", False)]}
    if proc.returncode != 0 or not all(ok for _, ok in record["gates"]):
        sys.stderr.write(proc.stderr)
    record["elapsed_s"] = _now() - started
    if "ready" in record:
        record["setup_s"] = record["ready"] - started
    return record


def _gates(reps: list[dict], counter_names) -> list[tuple[str, bool]]:
    gates = [(f"{r['run_id']}: {name}", ok) for r in reps for name, ok in r["gates"]]
    digests = [r for r in reps if "digest" in r]
    gates += [(f"{r['run_id']}: outputs byte-identical to {digests[0]['run_id']}",
               r["digest"] == digests[0]["digest"]) for r in digests[1:]]
    traced = [r for r in reps if "layers" in r]
    counters = [{k: r["layers"][k] for k in counter_names} for r in traced]
    gates += [(f"{r['run_id']}: counters identical to {traced[0]['run_id']}", c == counters[0])
              for r, c in zip(traced[1:], counters[1:])]
    return gates


def main() -> int:
    from tracer import COUNTERS
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--held-out", action="store_true",
                    help="use the workload's reserved seed instead of --seed")
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    wl = WORKLOADS[args.workload]
    seed = wl.held_out_seed if args.held_out else args.seed

    run_dir = ROOT / ".bench_runs" / f"{wl.name}-seed{seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    modes = (0, 1) if args.trace else (0,)
    reps: list[dict] = []
    start = _now()
    while True:
        rounds = len(reps) // len(modes)
        if rounds >= MIN_ROUNDS:
            per_round = statistics.median(r["elapsed_s"] for r in reps) * len(modes)
            used = _now() - start
            if used + per_round > min(args.seconds, HARD_LIMIT_S):
                break
        for mode in modes:
            k = len(reps)
            run_id = f"{wl.name}-s{seed}-r{k}-{'traced' if mode else 'untraced'}"
            timeout = max(10.0, HARD_LIMIT_S + 20.0 - (_now() - start))
            reps.append(_repetition(wl.name, seed, mode, run_dir / f"rep{k}", run_id, timeout))
    elapsed = _now() - start

    gates = _gates(reps, COUNTERS)
    failed = [name for name, ok in gates if not ok]
    untraced = [r for r in reps if r["trace"] == 0 and "wall_s" in r]
    traced = [r for r in reps if "layers" in r]
    if not untraced or (args.trace and not traced):
        print(f"bench: no repetition of {wl.name} completed; failures: {failed}", file=sys.stderr)
        return 1

    def median(rs, key):
        return statistics.median(r[key] for r in rs)

    if args.trace:
        metrics = {k: {"value": statistics.median(r["layers"][k] for r in traced),
                       "unit": COUNTERS.get(k, "s")} for k in traced[0]["layers"]}
        metrics["trace.overhead_s"] = {"value": median(traced, "wall_s") - median(untraced, "wall_s"),
                                       "unit": "s"}
        counted = traced
    else:
        metrics = {k: {"value": median(untraced, k), "unit": u} for k, u in E2E_UNITS.items()}
        counted = untraced

    env = {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
           **untraced[0]["versions"], "commit": _commit(), "seeds": untraced[0]["seeds"],
           "held_out": args.held_out, "paths": wl.paths}
    result = {"correct": not failed, "attempted": len(gates), "failed": len(failed),
              "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(
        {"workload": wl.name, "seed": seed, "trace": args.trace, "env": env,
         "elapsed_s": elapsed, "failures": failed, **result, "repetitions": reps}, indent=1))

    print(f"bench {wl.name}: seed {seed}{' (held out)' if args.held_out else ''}, "
          f"trace {args.trace}, {len(reps)} repetitions in {elapsed:.1f} s")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:10s} median of {len(counted)} runs")
    print(f"  {'fail_fraction':28s} {len(failed) / len(gates):14.6g} {'ratio':10s} "
          f"{len(failed)} of {len(gates)} operations over {len(reps)} runs")
    for name in failed:
        print(f"  FAILED {name}")
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  record {run_dir.relative_to(ROOT)}/result.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    if not (SRC / "subquad_bsde" / "__init__.py").is_file():
        sys.exit("bench: the toolkit sources (src/subquad_bsde) are not in this checkout")
    os.environ.update({"PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                                   os.environ.get("PYTHONPATH")])),
                       "PYTHONDONTWRITEBYTECODE": "1",
                       # Peak RSS repeats to a fraction of a percent only with fixed string
                       # hashing (dict layouts) and without huge pages, which come and go
                       # with the machine's free memory.
                       "PYTHONHASHSEED": "0", "NUMPY_MADVISE_HUGEPAGE": "0",
                       **{v: str(BLAS_THREADS) for v in ("OPENBLAS_NUM_THREADS",
                                                         "OMP_NUM_THREADS", "MKL_NUM_THREADS")}})
    sys.path.insert(0, str(SRC))
    sys.exit(main())
