"""The four benchmark workloads: seeded inputs, ops, checks and golden diffs.

A workload run is a sequence of passes over the same inputs; each pass
is one process. For a pass, ``prepare`` builds every input from the
seed and loads the golden outputs (this is the set-up the benchmark
times), and ``run`` issues the ops one after another (a closed loop
with one caller) and checks each one.

Inputs for ``point_queries`` and ``capacity_scan`` are jittered copies
of a fixed set of random templates: each seed gives new inputs, so no
cache can carry work from one seed to the next, while the mix of fast
and slow optimizer paths stays the same from seed to seed. With fully
fresh draws per seed, the median op latency spread by 0.3 of its value
across five seeds, because it falls between latency modes.

Importing this module imports ``wiretap_exponents``; the worker puts the
checkout's ``src/`` on the path first.
"""

import itertools
import json
import math
import time
import zlib
from pathlib import Path

import numpy as np

import wiretap_exponents
from wiretap_exponents import cli, figures, secrecy_metrics
from wiretap_exponents import DiscreteChannel, ExponentQuery, WiretapPair, reliability_optimum, secrecy_optimum

PACKAGE = wiretap_exponents
HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"

DEFAULT_SEED = 0  # the goldens for seed-dependent outputs are recorded at this seed
TEMPLATE_SEED = 13070608
JITTER = 0.05  # log-normal sigma applied to every template parameter

# Outputs compared with the golden files: exponents, rates, capacities,
# bounds and measures to VALUE_TOL; optimizer locations (argmax rho, r,
# s, the capacity-achieving laws), which are flat directions of the
# objective, to ARGMAX_TOL.
VALUE_TOL = 1e-9
ARGMAX_TOL = 1e-6
ARGMAX_KEYS = frozenset(
    {"rho", "r", "s", "argmax_rho", "argmax_r", "argmax_s", "input_law", "aux_channel"}
)
SLACK_TOL = 1e-12  # certification slacks, as the ensemble CLI checks them
MEASURE_TOL = 1e-10  # secrecy-measure inequalities, as documented in secrecy_metrics
# 17 rate points per curve, not the CLI default of 33: a 33-point pass
# takes 20-26 s here, too long for two passes in one run, and its
# single-pass wall time spread by 30 % across runs.
FIGURE_POINTS = 17
POINT_QUERY_BLOCKS = 5  # 5 blocks x 21 queries = 105 queries per pass
MC_SAMPLES = 20_000
# (n, M, L, eps_y, eps_z, q1): every spec is within the exact-enumeration limits.
ENSEMBLE_GRID = (
    (8, 2, 2, 0.10, 0.30, 0.50),
    (8, 4, 2, 0.05, 0.25, 0.40),
    (6, 2, 3, 0.10, 0.30, 0.50),
    (5, 2, 4, 0.10, 0.25, 0.45),
    (4, 8, 1, 0.05, 0.20, 0.50),
)

_perf = time.perf_counter


# -- numeric helpers --------------------------------------------------------
def _mutual_information(q, rows):
    # Used only to place the query rates relative to the channel's
    # information; the library computes its own.
    marginal = q @ rows
    joint = q[:, None] * rows
    mask = joint > 0.0
    ratio = rows[mask] / np.broadcast_to(marginal, rows.shape)[mask]
    return float(np.sum(joint[mask] * np.log(ratio)))


def _normalize_rows(a):
    return a / a.sum(axis=-1, keepdims=True)


def _random_rows(rng, nin, nout):
    return _normalize_rows(0.7 * rng.dirichlet(np.ones(nout), size=nin) + 0.3 * np.eye(nin, nout))


def _jitter(rng, a):
    return np.asarray(a) * np.exp(JITTER * rng.standard_normal(np.shape(a)))


def _rng(seed, workload):
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


# -- outputs and golden comparison ------------------------------------------
def flatten(doc, prefix=""):
    """Nested dicts/lists to {"a/b/0": leaf}."""
    if isinstance(doc, dict):
        out = {}
        for k, v in doc.items():
            out.update(flatten(v, f"{prefix}{k}/"))
        return out
    if isinstance(doc, (list, tuple)):
        out = {}
        for i, v in enumerate(doc):
            out.update(flatten(v, f"{prefix}{i}/"))
        return out
    return {prefix.rstrip("/"): doc}


def compare(outputs, golden):
    """(max absolute deviation, failures) of flat outputs against a golden."""
    failures = []
    dev = 0.0
    if outputs.keys() != golden.keys():
        missing = sorted(golden.keys() - outputs.keys())[:3]
        extra = sorted(outputs.keys() - golden.keys())[:3]
        return math.inf, [f"output fields differ from golden (missing {missing}, extra {extra})"]
    for key, want in golden.items():
        got = outputs[key]
        numeric = isinstance(want, (int, float)) and not isinstance(want, bool)
        if numeric and isinstance(got, (int, float)) and not isinstance(got, bool):
            d = abs(float(got) - float(want))
            if math.isnan(d):
                d = math.inf
            dev = max(dev, d)
            tol = ARGMAX_TOL if ARGMAX_KEYS.intersection(key.split("/")) else VALUE_TOL
            if d > tol:
                failures.append(f"{key}: {got!r} deviates from golden {want!r} by {d:.3g} (tolerance {tol:g})")
        elif got != want:
            dev = math.inf
            failures.append(f"{key}: {got!r} differs from golden {want!r}")
    return dev, failures


def _finite_nonnegative(name, x, failures):
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x >= 0.0):
        failures.append(f"{name} is not a finite nonnegative number: {x!r}")


def load_golden(workload):
    """{"seed": int, "fixed": {op_id: outputs}, "seeded": {op_id: outputs}} or None.

    "fixed" outputs do not depend on the seed and are compared on every
    run; "seeded" ones are compared only at the seed they were recorded
    at. The figure goldens are the CLI's CSV files themselves.
    """
    if workload == "figures_all":
        files = sorted((GOLDEN_DIR / "figures").glob("*.csv"))
        if not files:
            return None
        fixed = {}
        for f in files:
            op_id = f.name.split("_", 1)[0]
            fixed.setdefault(op_id, {})[f.name] = _parse_csv(f.read_text(encoding="utf-8"))
        return {"seed": None, "fixed": fixed, "seeded": {}}
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


# -- figures_all ------------------------------------------------------------
def _parse_csv(text):
    doc = {"header": [], "rows": []}
    columns = None
    for line in text.splitlines():
        if line.startswith("#"):
            doc["header"].append(line)
        elif columns is None:
            columns = line.split(",")
            doc["columns"] = columns
        elif line:
            doc["rows"].append({c: (float(v) if v else "") for c, v in zip(columns, line.split(","))})
    return doc


def _prepare_figures_all(seed, workdir):
    # The figure scenarios are fixed; the seed changes nothing here.
    return {"out_dir": workdir / "figures", "manifest": workdir / "figures_manifest.json"}


def _run_figures_all(inputs, seed, golden, tracer):
    out_dir, manifest_path = inputs["out_dir"], inputs["manifest"]
    argv = [
        "figures", "--which", "all", "--points", str(FIGURE_POINTS),
        "--out-dir", str(out_dir), "--out", str(manifest_path),
    ]
    # Each figure is one op: an op starts when the CLI enters
    # figure_data for it and ends when the next figure starts.
    marks = []
    inner = figures.figure_data

    def marked(fig_id, *args, **kwargs):
        marks.append((fig_id, _perf()))
        return inner(fig_id, *args, **kwargs)

    figures.figure_data = marked
    error = None
    t0 = _perf()
    try:
        code = _call(tracer, "figures --which all", cli.main, argv)
    except Exception as exc:  # an op failure, reported per figure below
        code, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        t_end = _perf()
        figures.figure_data = inner
    starts = dict(marks)
    order = [fig_id for fig_id, _ in marks]
    manifest = json.loads(manifest_path.read_text(encoding="utf-8")) if manifest_path.is_file() else {"figures": {}}
    results = []
    for fig_id in figures.FIGURE_IDS:
        failures = []
        if error is not None:
            failures.append(error)
        elif code != cli.EXIT_OK:
            failures.append(f"figures CLI exited with {code}")
        if fig_id in starts:
            i = order.index(fig_id)
            start = t0 if i == 0 else starts[fig_id]
            end = starts[order[i + 1]] if i + 1 < len(order) else t_end
        else:
            start = end = t_end
            failures.append("figure was never computed")
        entry = manifest["figures"].get(str(fig_id))
        outputs = {}
        if entry is None:
            failures.append("figure missing from the manifest")
        else:
            if not entry["ok"]:
                bad = [k for k, v in entry["checks"].items() if not v["ok"]]
                failures.append(f"shape_report failed: {bad}")
            for fname in entry["files"]:
                doc = _parse_csv((out_dir / fname).read_text(encoding="utf-8"))
                for row in doc["rows"]:
                    for col in ("rate", "exponent"):
                        x = row.get(col)
                        if not (isinstance(x, float) and math.isfinite(x)):
                            failures.append(f"{fname}: non-finite {col} {x!r}")
                    if isinstance(row.get("exponent"), float) and row["exponent"] < -1e-12:
                        failures.append(f"{fname}: negative exponent {row['exponent']!r}")
                outputs[fname] = doc
        results.append(_result(f"fig{fig_id}", end - start, failures, {"fixed": outputs}, golden, seed))
    return results


# -- point_queries ----------------------------------------------------------
def _point_query_templates():
    # One block: for each k, three plain queries with a binding cost
    # cap, two plain with slack, and one binary-prefix query of each
    # kind: 2/7 with a prefix, 4/7 binding. Slack queries take the probe
    # shortcut and are the fastest; with exactly half of them the median
    # latency would sit on the gap between the slack and binding modes.
    rng = np.random.default_rng([TEMPLATE_SEED, 1])
    kinds = ((False, True), (False, False), (False, True), (False, False), (False, True), (True, True),
             (True, False))
    templates = []
    for _ in range(POINT_QUERY_BLOCKS):
        for k in (2, 3, 4):
            for aux, binding in kinds:
                templates.append({
                    "k": k,
                    "aux": aux,
                    "binding": binding,
                    "bob": _random_rows(rng, k, k),
                    "eve": 0.5 * _random_rows(rng, k, k) + 0.5 / k,
                    "costs": rng.uniform(0.5, 2.0, k),
                    "q": rng.dirichlet(np.ones(2 if aux else k)),
                    "prefix": rng.dirichlet(np.ones(k), size=2) if aux else None,
                    "slack": rng.uniform(0.1, 0.5),
                    "frac_b": rng.uniform(0.05, 0.8),
                    "frac_e": rng.uniform(0.8, 1.6),
                })
    return templates


def _prepare_point_queries(seed, workdir):
    rng = _rng(seed, "point_queries")
    queries = []
    for i, t in enumerate(_point_query_templates()):
        bob = _normalize_rows(_jitter(rng, t["bob"]))
        eve = _normalize_rows(_jitter(rng, t["eve"]))
        costs = _jitter(rng, t["costs"])
        q = _normalize_rows(_jitter(rng, t["q"]))
        if t["aux"]:
            prefix = _normalize_rows(_jitter(rng, t["prefix"]))
            q_x = q @ prefix
            expected_cost = float(q @ (prefix @ costs))
        else:
            prefix = None
            q_x = q
            expected_cost = float(q @ costs)
        slack = 0.0 if t["binding"] else float(_jitter(rng, t["slack"])) * float(costs.max() - costs.min())
        queries.append({
            "id": f"q{i}",
            "bob": bob, "eve": eve, "costs": costs, "q": q, "prefix": prefix,
            "gamma": expected_cost + slack,
            "rate_b": float(_jitter(rng, t["frac_b"])) * _mutual_information(q_x, bob),
            "rate_e": float(_jitter(rng, t["frac_e"])) * _mutual_information(q_x, eve),
        })
    return {"queries": queries}


def _point_query(spec):
    pair = WiretapPair(DiscreteChannel(spec["bob"]), DiscreteChannel(spec["eve"]))
    aux = DiscreteChannel(spec["prefix"]) if spec["prefix"] is not None else None
    query = ExponentQuery(pair, spec["q"], spec["costs"], spec["gamma"], spec["rate_b"], spec["rate_e"], aux=aux)
    return reliability_optimum(query), secrecy_optimum(query)


def _run_point_queries(inputs, seed, golden, tracer):
    results = []
    for spec in inputs["queries"]:
        failures = []
        outputs = {}
        t0 = _perf()
        try:
            optima = _call(tracer, spec["id"], _point_query, spec)
        except Exception as exc:
            optima = None
            failures.append(f"{type(exc).__name__}: {exc}")
        latency = _perf() - t0
        if optima is not None:
            for side, opt in zip(("reliability", "secrecy"), optima):
                outputs[side] = {"value": opt.value, "raw": opt.raw, "rho": opt.rho, "r": opt.r, "s": opt.s}
                _finite_nonnegative(f"{side} exponent", opt.value, failures)
                for name in ("r", "s"):
                    _finite_nonnegative(f"{side} tilt {name}", getattr(opt, name), failures)
                if not (math.isfinite(opt.raw) and 0.0 <= opt.rho <= 1.0):
                    failures.append(f"{side}: raw {opt.raw!r} or rho {opt.rho!r} out of range")
        results.append(_result(spec["id"], latency, failures, {"seeded": outputs}, golden, seed))
    return results


# -- capacity_scan ----------------------------------------------------------
def _capacity_templates():
    # One config per (k, degraded). Degraded pairs are more capable, so
    # the capacity search runs over input laws; the others are built to
    # fail the more-capable test on the letters {0, 1}, so it runs the
    # auxiliary-channel search.
    #
    # Cost caps: with a binding cap the projected-gradient input search
    # (k >= 3) does up to 60 alternating projections per step, and its
    # time swung between 3.5 and 13 s per config from seed to seed, so
    # only the k = 2 degraded pair (1-D search) has a binding cap and
    # the larger degraded pairs get a cap no law exceeds. Non-degraded
    # caps sit between the mean and the largest cost, so the auxiliary
    # search, which starts near the uniform law, has feasible points.
    rng = np.random.default_rng([TEMPLATE_SEED, 2])
    templates = []
    for k, degraded in itertools.product((2, 3, 4, 5), (True, False)):
        templates.append({
            "k": k,
            "degraded": degraded,
            "cap_rule": ("binding" if k == 2 else "slack") if degraded else "above_mean",
            "bob": _random_rows(rng, k, k),
            "mix": _random_rows(rng, k, k),
            "shared": rng.dirichlet(np.ones(k)),
            "costs": rng.uniform(0.5, 2.0, k),
            "cap": rng.uniform(0.2, 0.5),
        })
    return templates


def _capacity_pair(rng, t):
    k = t["k"]
    bob = _normalize_rows(_jitter(rng, t["bob"]))
    mix = _normalize_rows(_jitter(rng, t["mix"]))
    if t["degraded"]:
        return bob, bob @ mix
    # Letters 0 and 1 are nearly indistinguishable to bob and clear to eve.
    shared = _normalize_rows(_jitter(rng, t["shared"]))
    bob[0] = bob[1] = shared
    eve = 0.5 * mix + 0.5 / k
    eve[0] = _normalize_rows(0.1 * eve[0] + np.eye(k)[0])
    eve[1] = _normalize_rows(0.1 * eve[1] + np.eye(k)[1])
    return bob, eve


def _prepare_capacity_scan(seed, workdir):
    rng = _rng(seed, "capacity_scan")
    configs = []
    for i, t in enumerate(_capacity_templates()):
        bob, eve = _capacity_pair(rng, t)
        costs = _jitter(rng, t["costs"])
        cap = float(_jitter(rng, t["cap"]))
        if t["cap_rule"] == "binding":
            gamma = float(costs.min() + cap * (costs.mean() - costs.min()))
        elif t["cap_rule"] == "slack":
            gamma = float(1.1 * costs.max())
        else:
            gamma = float(costs.mean() + cap * (costs.max() - costs.mean()))
        op_id = f"c{i}.k{t['k']}{'.degraded' if t['degraded'] else ''}"
        path = workdir / f"capacity_{i}.json"
        path.write_text(json.dumps({"bob": bob.tolist(), "eve": eve.tolist(), "costs": costs.tolist(), "gamma": gamma}))
        configs.append({
            "id": op_id,
            "config": path,
            "out": workdir / f"capacity_{i}_out.json",
            "degraded": t["degraded"],
        })
    return {"configs": configs}


def _run_capacity_scan(inputs, seed, golden, tracer):
    results = []
    for spec in inputs["configs"]:
        failures = []
        outputs = {}
        # The local searches keep the CLI's default seed: their
        # iteration counts, and so their times, move with it.
        argv = ["capacity", "--config", str(spec["config"]), "--out", str(spec["out"])]
        t0 = _perf()
        try:
            code = _call(tracer, spec["id"], cli.main, argv)
        except Exception as exc:
            code = None
            failures.append(f"{type(exc).__name__}: {exc}")
        latency = _perf() - t0
        if code is not None and code != cli.EXIT_OK:
            failures.append(f"capacity CLI exited with {code}")
        elif code is not None:
            outputs = json.loads(spec["out"].read_text(encoding="utf-8"))
            _finite_nonnegative("capacity", outputs["value_nats"], failures)
            law = np.asarray(outputs["input_law"], dtype=float)
            if not (np.all(np.isfinite(law)) and np.all(law >= -1e-12) and abs(law.sum() - 1.0) <= 1e-9):
                failures.append(f"input law is not a distribution: {law.tolist()}")
            if outputs["more_capable"] != spec["degraded"]:
                failures.append(f"more_capable is {outputs['more_capable']} for a pair built with degraded={spec['degraded']}")
            if outputs["heuristic_lower_bound"] == outputs["more_capable"]:
                failures.append("heuristic flag does not match the search that ran")
            if not math.isfinite(outputs["min_info_gap"]):
                failures.append(f"min_info_gap is {outputs['min_info_gap']!r}")
        results.append(_result(spec["id"], latency, failures, {"seeded": outputs}, golden, seed))
    return results


# -- ensemble_cert ----------------------------------------------------------
def _kron_power(a, n):
    out = a
    for _ in range(n - 1):
        out = np.kron(out, a)
    return out


def _prepare_ensemble_cert(seed, workdir):
    rng = _rng(seed, "ensemble_cert")
    specs = []
    for i, (n, m, l, eps_y, eps_z, q1) in enumerate(ENSEMBLE_GRID):
        # One random codebook per spec: M messages of L codewords drawn
        # i.i.d. from q^n; message m's output law at the tap is the mean
        # of W_eve^n(.|c) over its L codewords.
        q = np.array([1.0 - q1, q1])
        w_eve = np.array([[1.0 - eps_z, eps_z], [eps_z, 1.0 - eps_z]])
        q_n = _kron_power(q, n)
        w_n = _kron_power(w_eve, n)
        codewords = rng.choice(q_n.size, size=(m, l), p=q_n / q_n.sum())
        specs.append({
            "id": f"n{n}.M{m}.L{l}.ey{eps_y:g}.ez{eps_z:g}.q{q1:g}",
            "argv": [
                "ensemble", "--n", str(n), "--M", str(m), "--L", str(l),
                "--eps-y", repr(eps_y), "--eps-z", repr(eps_z), "--q1", repr(q1),
                "--mc-samples", str(MC_SAMPLES), "--seed", str(int(rng.integers(2**31))),
                "--out", str(workdir / f"ensemble_{i}.json"),
            ],
            "out": workdir / f"ensemble_{i}.json",
            "laws": w_n[codewords].mean(axis=1),
            "target": q_n @ w_n,
        })
    return {"specs": specs}


def _ensemble_op(spec):
    code = cli.main(spec["argv"])
    slacks = secrecy_metrics.inequality_slacks(secrecy_metrics.OutputEnsemble(spec["laws"], spec["target"]))
    return code, slacks


def _run_ensemble_cert(inputs, seed, golden, tracer):
    results = []
    for spec in inputs["specs"]:
        failures = []
        fixed, seeded = {}, {}
        t0 = _perf()
        try:
            code, slacks = _call(tracer, spec["id"], _ensemble_op, spec)
        except Exception as exc:
            code = slacks = None
            failures.append(f"{type(exc).__name__}: {exc}")
        latency = _perf() - t0
        if code is not None and code != cli.EXIT_OK:
            failures.append(f"ensemble CLI exited with {code}")
        elif code is not None:
            report = json.loads(spec["out"].read_text(encoding="utf-8"))
            mc = report.pop("monte_carlo")
            for name, slack in report["slacks"].items():
                if not slack >= -SLACK_TOL:
                    failures.append(f"certification slack {name} = {slack!r}")
            for what in ("error", "divergence"):
                gap = abs(mc[what] - report[f"exact_{what}"])
                if not gap <= 6.0 * mc[f"{what}_stderr"] + 1e-12:
                    failures.append(f"Monte Carlo {what} is {gap:.3g} from the exact value")
            for name in ("pinsker", "triangle", "split_triangle"):
                if not slacks[name] >= -MEASURE_TOL:
                    failures.append(f"secrecy-measure slack {name} = {slacks[name]!r}")
            if not abs(slacks["divergence_split_residual"]) <= MEASURE_TOL:
                failures.append(f"divergence split residual {slacks['divergence_split_residual']!r}")
            fixed = report
            seeded = {"monte_carlo": mc, "measure_slacks": slacks}
        results.append(_result(spec["id"], latency, failures, {"fixed": fixed, "seeded": seeded}, golden, seed))
    return results


# -- shared -----------------------------------------------------------------
def _call(tracer, op_id, fn, *args):
    return fn(*args) if tracer is None else tracer.op(op_id, fn, *args)


def _result(op_id, latency, failures, outputs, golden, seed):
    """One op's record; diffs its outputs against the golden entry."""
    dev = None
    if golden is not None and not failures:
        dev = 0.0
        for part in ("fixed", "seeded"):
            if part not in outputs or (part == "seeded" and golden["seed"] != seed):
                continue
            want = golden[part].get(op_id)
            if want is not None:
                d, f = compare(flatten(outputs[part]), flatten(want))
                dev = max(dev, d)
                failures = failures + f
    return {"id": op_id, "latency_s": latency, "failures": failures, "max_abs_dev": dev, "outputs": outputs}


PREPARE = {
    "figures_all": _prepare_figures_all,
    "point_queries": _prepare_point_queries,
    "capacity_scan": _prepare_capacity_scan,
    "ensemble_cert": _prepare_ensemble_cert,
}
RUN = {
    "figures_all": _run_figures_all,
    "point_queries": _run_point_queries,
    "capacity_scan": _run_capacity_scan,
    "ensemble_cert": _run_ensemble_cert,
}


def prepare(workload, seed, workdir):
    """Set-up of one pass: inputs from the seed plus the golden outputs."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    return {
        "workload": workload,
        "seed": seed,
        "inputs": PREPARE[workload](seed, workdir),
        "golden": load_golden(workload),
    }


def run(prepared, tracer=None):
    """Issue every op of the pass in order; returns one record per op."""
    return RUN[prepared["workload"]](prepared["inputs"], prepared["seed"], prepared["golden"], tracer)
