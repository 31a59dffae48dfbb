"""Record the golden outputs the benchmark diffs every run against.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Runs one pass of each workload at the default seed and writes
``perfbench/golden/``: the figure CSVs as the CLI emits them, and one
JSON file per other workload. Re-record only for a change that is meant
to move outputs, and state the change and its size where it lands.
"""

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def record(workload):
    golden = {"seed": workloads.DEFAULT_SEED, "fixed": {}, "seeded": {}}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        prepared = workloads.prepare(workload, workloads.DEFAULT_SEED, tmp)
        prepared["golden"] = None
        ops = workloads.run(prepared)
        failures = [f"{op['id']}: {f}" for op in ops for f in op["failures"]]
        if failures:
            raise SystemExit("refusing to record goldens from failing ops:\n" + "\n".join(failures))
        if workload == "figures_all":
            target = workloads.GOLDEN_DIR / "figures"
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(prepared["inputs"]["out_dir"], target)
            return
    for op in ops:
        # Round-trip through JSON so the stored values are exactly what
        # a later run compares against.
        outputs = json.loads(json.dumps(op["outputs"]))
        for part in ("fixed", "seeded"):
            if part in outputs:
                golden[part][op["id"]] = outputs[part]
    path = workloads.GOLDEN_DIR / f"{workload}.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv):
    names = argv or list(workloads.PREPARE)
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        record(name)
        print(f"recorded {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
