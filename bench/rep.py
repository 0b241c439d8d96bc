"""One repetition of one workload, in a fresh process: setup, timed section, gates.

Started by ``run.py``, which stamps CLOCK_MONOTONIC just before starting this
process; the ``ready`` stamp printed here closes the setup interval, so
setup covers interpreter start, imports and input construction.  Prints one
JSON record as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)   # shared by all processes of the machine


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--run-id", required=True)
    args = ap.parse_args()

    import numpy
    import scipy

    from tracer import Tracer, instrument, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    record = {"run_id": args.run_id, "trace": args.trace,
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    tracer = Tracer(args.run_id) if args.trace else None
    try:
        with instrument(tracer) if tracer else contextlib.nullcontext():
            inputs = wl.setup(args.seed, wl.paths, str(out))
            record["ready"] = _now()
            record["seeds"] = inputs["seeds"]
            started = time.perf_counter()
            outputs = wl.run(inputs)
            record["wall_s"] = time.perf_counter() - started
        record["gates"] = [(name, bool(ok)) for name, ok in wl.gates(inputs, outputs)]
        record["digest"] = wl.digest(inputs, outputs)
        if tracer:
            tracer.dump(out / "spans.json")
            record["layers"] = layer_metrics(tracer.spans)
    except Exception:                     # noqa: BLE001 - a raising operation is a failed one
        traceback.print_exc()
        record["gates"] = [("repetition raised " + traceback.format_exc(limit=1).splitlines()[-1],
                            False)]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
