"""One pass of one workload, in its own process (started by run.py).

Protocol on stdout: the line ``READY`` once set-up (imports, inputs,
golden outputs) is done, then, after the ops, one JSON line with the op
records. Anything the library prints goes to stderr instead.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR \
        [--trace-out FILE.npz] [--setup-only]
"""

import argparse
import contextlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", default=None, help="trace the pass and write its spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracer import Tracer

    prepared = workloads.prepare(args.workload, args.seed, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer(workloads.PACKAGE).install() if args.trace_out else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            ops = workloads.run(prepared, tracer)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    for op in ops:
        del op["outputs"]
    record = {
        "wall_s": wall,
        "ops": ops,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {
            "python": platform.python_version(),
            "numpy": workloads.np.__version__,
            "wiretap_exponents": workloads.PACKAGE.__version__,
        },
    }
    if tracer is not None:
        tracer.write_spans(args.trace_out)
        record["per_layer"] = tracer.metrics()
        record["spans"] = len(tracer.span_start)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
