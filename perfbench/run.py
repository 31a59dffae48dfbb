"""Benchmark of the wiretap_exponents package: four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout; the package is imported from its
``src/``. A run of one workload repeats passes over the workload's
fixed op set (inputs from the seed), each pass in a fresh
single-threaded process, while the next pass is predicted to end within
``--seconds``; at least MIN_PASSES, and exactly one when traced. Before
the passes, set-up-only processes are started so that ``setup_s`` is a
median of several.

An op's latency is the fastest of its repetitions across passes, and
``wall_s`` is the sum of those latencies. Neighbours on a shared
machine only ever slow a process down, by up to 40 % in phases from
seconds to minutes; the fastest repetition of each op, taken one pass
apart, is the reading they disturb least, though no reading escapes a
phase that outlasts the run. Separate processes keep any in-process
cache from serving a repeat.

With ``--trace 0`` the last stdout line holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced pass. ``all`` runs
every workload untraced and traced, prints both, the tracing overhead
and the run's stamp, and writes ``perfbench/out/BENCH_all-seed<N>.json``.
The full record of every run goes to ``perfbench/out/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("figures_all", "point_queries", "capacity_scan", "ensemble_cert")
SETUP_SAMPLES = 3
MIN_PASSES = 2  # every op gets at least two readings, one pass apart
PASS_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}
# The end-to-end metrics of BENCHMARK.json, bound-checked on every
# workload. The op percentiles are printed but not declared there: on
# the workloads with 5 to 12 ops each is one op's reading, and across
# ten runs they spread by up to 0.29 of their median.
DECLARED_END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


class PassError(RuntimeError):
    pass


def _git_commit():
    # Read .git directly: no git process, and nothing above the checkout.
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _spawn(workload, seed, index, trace_out=None, setup_only=False):
    """Start one worker; returns its record plus the set-up time seen from here."""
    workdir = OUT_DIR / "work" / f"{workload}-s{seed}-{index}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter()
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        shutil.rmtree(workdir, ignore_errors=True)
    if ready.strip() != "READY" or proc.returncode != 0:
        raise PassError(f"{workload} worker {index} exited with {proc.returncode} "
                        f"(killed if it ran past {PASS_TIMEOUT_S} s)")
    record = {} if setup_only else json.loads(rest.strip().splitlines()[-1])
    record["setup_s"] = t_ready - t0
    return record


def run_workload(workload, seed, seconds, trace):
    """All passes of one run; returns the full report."""
    setup = [_spawn(workload, seed, f"setup{i}", setup_only=True)["setup_s"] for i in range(SETUP_SAMPLES)]
    passes, errors = [], []
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    t_begin = time.perf_counter()
    while True:
        trace_out = OUT_DIR / f"spans-{workload}-seed{seed}.npz" if trace else None
        try:
            passes.append(_spawn(workload, seed, f"pass{len(passes) + len(errors)}", trace_out=trace_out))
        except PassError as exc:
            print(f"FAILED {exc}", file=sys.stderr)
            errors.append(str(exc))
        done = len(passes) + len(errors)
        elapsed = time.perf_counter() - t_begin
        if trace or (done >= MIN_PASSES and elapsed * (done + 1) / done > seconds):
            break
    if not passes:
        raise PassError("no pass completed: " + "; ".join(errors))

    ops = [op for p in passes for op in p["ops"]]
    fastest = {}
    for op in ops:
        fastest[op["id"]] = min(fastest.get(op["id"], op["latency_s"]), op["latency_s"])
    latencies_ms = [t * 1000.0 for t in fastest.values()]
    devs = [op["max_abs_dev"] for op in ops if op["max_abs_dev"] is not None]
    attempted = len(ops) + len(errors)
    failed = sum(1 for op in ops if op["failures"]) + len(errors)
    end_to_end = {
        "setup_s": statistics.median(setup + [p["setup_s"] for p in passes]),
        "wall_s": sum(fastest.values()),
        # The upper middle rank for an even count, so that the value is
        # one op's latency: figures_all has six ~1 ms closed-form figures
        # and six BSC figures of 0.3 s and up.
        "op_p50_ms": statistics.median_high(latencies_ms),
        "op_p90_ms": statistics.quantiles(latencies_ms, n=10)[-1],
        "peak_rss_mb": max(p["peak_rss_kb"] for p in passes) / 1024.0,
    }
    report = {
        "workload": workload,
        "trace": trace,
        "stamp": {
            "seed": seed,
            "seconds": seconds,
            "git_commit": _git_commit(),
            "nproc": len(os.sched_getaffinity(0)),
            **passes[0]["versions"],
        },
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_ratio": failed / attempted,
        "max_abs_dev": max(devs) if devs else None,
        "golden_compared": len(devs),
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_samples_s": setup + [p["setup_s"] for p in passes],
        "op_latency_samples": len(latencies_ms),
        "op_latency_ms": {op_id: t * 1000.0 for op_id, t in fastest.items()},
        "end_to_end": end_to_end,
        "failures": [f"{op['id']}: {f}" for op in ops for f in op["failures"]] + errors,
    }
    if trace:
        report["per_layer"] = passes[0]["per_layer"]
        report["per_layer"]["traced_wall_s"] = end_to_end["wall_s"]
        report["spans"] = passes[0]["spans"]
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=2))
    return report


def _print_report(report):
    s = report["stamp"]
    print(f"# {report['workload']} seed={s['seed']} commit={s['git_commit'][:12]} python={s['python']} "
          f"numpy={s['numpy']} nproc={s['nproc']} passes={report['passes']} ops={report['op_latency_samples']}")
    dev = report["max_abs_dev"]
    print(f"  ops_failed_ratio = {report['ops_failed_ratio']:.6g} ({report['failed']}/{report['attempted']})")
    print(f"  max_abs_dev      = {'n/a' if dev is None else f'{dev:.6g}'} "
          f"(over {report['golden_compared']} ops with golden outputs)")
    for name, value in report["end_to_end"].items():
        print(f"  {name:<16} = {value:.6g} {END_TO_END_UNITS[name]}")
    for name, value in report.get("per_layer", {}).items():
        print(f"  {name:<44} = {value:.6g}")
    for failure in report["failures"][:20]:
        print(f"  FAILED {failure}")


def _result_line(report, trace):
    if trace:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in report["per_layer"].items()}
    else:
        metrics = {k: {"value": report["end_to_end"][k], "unit": END_TO_END_UNITS[k]} for k in DECLARED_END_TO_END}
    return json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def run_all(seed, seconds):
    summary = {}
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, trace=False)
        traced = run_workload(workload, seed, seconds, trace=True)
        _print_report(plain)
        _print_report(traced)
        overhead = traced["end_to_end"]["wall_s"] - plain["end_to_end"]["wall_s"]
        print(f"  tracing overhead = {overhead:.6g} s (traced wall_s minus untraced wall_s)")
        summary[workload] = {"untraced": plain, "traced": traced, "tracing_overhead_s": overhead}
    path = OUT_DIR / f"BENCH_all-seed{seed}.json"
    path.write_text(json.dumps(summary, indent=2))
    print(f"# wrote {path.relative_to(ROOT)}")
    return all(r["untraced"]["correct"] and r["traced"]["correct"] for r in summary.values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wiretap_exponents" / "__init__.py").is_file():
        print(f"error: no wiretap_exponents package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            return 0 if run_all(args.seed, args.seconds) else 3
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_report(report)
    print(_result_line(report, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
