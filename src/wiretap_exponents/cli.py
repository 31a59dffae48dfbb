"""Command-line front end.

Subcommands map one-to-one onto the library modules: ``capacity``,
``exponents`` and ``tradeoff`` read a JSON channel config, ``poisson``
and ``gaussian`` take their parameters as flags, ``ensemble`` runs the
exact small-block certification, ``figures`` writes the reference curve
families, and ``selftest`` runs the invariant battery.

Exit codes: 0 success, 1 usage error, 2 precondition violation
(bad parameters or config), 3 property failure (a structural check or
certified bound failed). Output is deterministic for a fixed command
line: no timestamps, fixed default seeds, 17-significant-digit floats.
"""

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import ensemble_sim
from . import figures as figmod
from . import gaussian_wiretap as gw
from . import poisson_wiretap as pw
from .channel_core import DiscreteChannel, WiretapPair, load_wiretap_config
from .exponent_engine import (
    MECHANISMS,
    ExponentQuery,
    rate_windows,
    reliability_curve,
    secrecy_capacity,
    secrecy_curve,
    tradeoff_scenarios,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_PROPERTY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(x):
    return format(float(x), ".17g")


CSV_COLUMNS = ("rate", "exponent", "argmax_rho", "argmax_r", "argmax_s")


def _curve_rows(curve):
    """One row of floats per point, in CSV_COLUMNS order; None where the curve records no argmax."""
    argmax = [curve.meta.get(name) for name in CSV_COLUMNS[2:]]
    return [
        [float(curve.rates[i]), float(curve.exponents[i])] + [None if col is None else float(col[i]) for col in argmax]
        for i in range(len(curve))
    ]


def curve_to_csv(curve, header_lines=()):
    lines = [f"# {h}" for h in header_lines]
    lines.append(",".join(CSV_COLUMNS))
    lines += [",".join("" if v is None else _fmt(v) for v in row) for row in _curve_rows(curve)]
    return "\n".join(lines) + "\n"


def curve_to_json(curve):
    return {"meta": dict(curve.meta), "points": [dict(zip(CSV_COLUMNS, row)) for row in _curve_rows(curve)]}


def read_curve_csv(path):
    """Re-read an emitted CSV; returns (rates, exponents) as float arrays."""
    rates, exps = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("rate,"):
                continue
            parts = line.split(",")
            rates.append(float(parts[0]))
            exps.append(float(parts[1]))
    return np.array(rates), np.array(exps)


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit_json(payload, out):
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _emit_curves(named_curves, args, context):
    header = [f"version {__version__}", f"params {json.dumps(context, sort_keys=True)}"]
    if args.format == "json":
        payload = {"version": __version__, "params": context}
        payload.update({name: curve_to_json(c) for name, c in named_curves})
        _emit_json(payload, args.out)
        return
    if args.out is None:
        chunks = [curve_to_csv(c, header + [f"curve {name}"]) for name, c in named_curves]
        sys.stdout.write("\n".join(chunks))
        return
    base = Path(args.out)
    for name, curve in named_curves:
        target = base if len(named_curves) == 1 else base.with_name(f"{base.stem}_{name}{base.suffix or '.csv'}")
        target.write_text(curve_to_csv(curve, header + [f"curve {name}"]), encoding="utf-8")


def _query_from_config(cfg, rate_b=0.0, rate_e=0.0):
    if cfg["q"] is None:
        raise ValueError("this command requires \"q\" in the config")
    return ExponentQuery(cfg["pair"], cfg["q"], cfg["costs"], cfg["gamma"], rate_b=rate_b, rate_e=rate_e)


def cmd_capacity(args):
    cfg = load_wiretap_config(args.config)
    result = secrecy_capacity(cfg["pair"], cfg["costs"], cfg["gamma"], aux_dim=args.aux_dim, seed=args.seed)
    payload = {
        "value_nats": result.value,
        "input_law": result.input_law.tolist(),
        "more_capable": result.more_capable,
        "heuristic_lower_bound": result.heuristic,
        "min_info_gap": result.min_info_gap,
    }
    if result.aux is not None:
        payload["aux_channel"] = result.aux.rows.tolist()
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_exponents(args):
    cfg = load_wiretap_config(args.config)
    query = _query_from_config(cfg)
    f_rates, h_rates = rate_windows(query, args.points, margin=0.02)
    curves = [
        ("reliability", reliability_curve(query, f_rates)),
        ("secrecy", secrecy_curve(query, h_rates)),
    ]
    context = {"config": str(args.config), "gamma": query.gamma, "q": query.q.tolist()}
    _emit_curves(curves, args, context)
    return EXIT_OK


def cmd_tradeoff(args):
    cfg = load_wiretap_config(args.config)
    query = _query_from_config(cfg)
    sweep = [float(x) for x in args.sweep.split(",") if x.strip()]
    scenarios = tradeoff_scenarios(query, args.mechanism, sweep, points=args.points)
    payload = {"version": __version__, "mechanism": args.mechanism, "scenarios": []}
    all_ok = True
    for sc in scenarios:
        all_ok &= sc.ok
        payload["scenarios"].append(
            {
                "label": sc.label,
                "ok": sc.ok,
                "checks": {k: {"ok": ok, "slack": slack} for k, (ok, slack) in sc.checks.items()},
                "reliability": curve_to_json(sc.reliability),
                "secrecy": curve_to_json(sc.secrecy),
            }
        )
    _emit_json(payload, args.out)
    return EXIT_OK if all_ok else EXIT_PROPERTY


def cmd_poisson(args):
    params = pw.PoissonWiretapParams(args.Ay, args.Az, args.ly, args.lz, args.gamma)
    if args.action == "capacity":
        cap = pw.capacity(params)
        _emit_json(
            {
                "value_nats_per_second": cap.value,
                "q_star": cap.q_star,
                "q_capped": cap.q_capped,
                "residual": cap.residual,
            },
            args.out,
        )
        return EXIT_OK
    if args.q is None:
        raise ValueError("poisson curves need --q")
    if args.action == "curves":
        curves = list(zip(("reliability", "secrecy"), pw.curves(params, args.q, points=args.points)))
        context = {"Ay": args.Ay, "Az": args.Az, "ly": args.ly, "lz": args.lz, "gamma": args.gamma, "q": args.q}
        _emit_curves(curves, args, context)
        return EXIT_OK
    # concat
    if args.a is None or args.b is None:
        raise ValueError("poisson concat needs --a and --b")
    plus = pw.concatenate_params(params, pw.ConcatenationParams(args.a, args.b))
    cap = pw.capacity(plus)
    curves = list(zip(("reliability_prefixed", "secrecy_prefixed"), pw.curves(plus, args.q, points=args.points)))
    context = {
        "Ay": args.Ay, "Az": args.Az, "ly": args.ly, "lz": args.lz,
        "gamma": args.gamma, "q": args.q, "a": args.a, "b": args.b,
        "transformed": {
            "Ay": plus.peak_bob, "Az": plus.peak_eve,
            "ly": plus.dark_bob, "lz": plus.dark_eve, "gamma": plus.gamma,
        },
        "capacity_nats_per_second": cap.value,
    }
    _emit_curves(curves, args, context)
    return EXIT_OK


def cmd_gaussian(args):
    params = gw.GaussianWiretapParams(args.Ay, args.Az, args.sy, args.sz, args.gamma)
    if args.action == "capacity":
        r_param, r_expl = gw.critical_rates(params)
        _emit_json(
            {
                "value_nats": gw.capacity(params),
                "snr_bob": params.snr_bob,
                "snr_eve": params.snr_eve,
                "critical_rate_parametric": r_param,
                "critical_rate_explicit": r_expl,
            },
            args.out,
        )
        return EXIT_OK
    name = f"{args.action}_{args.variant}"
    curve = figmod.gaussian_curve(params, args.action, args.variant, args.points)
    context = {"Ay": args.Ay, "Az": args.Az, "sy": args.sy, "sz": args.sz, "gamma": args.gamma, "variant": args.variant}
    _emit_curves([(name, curve)], args, context)
    return EXIT_OK


def _slacks_hold(slacks, tol=1e-12):
    """True when every slack is at least -tol; a NaN slack fails."""
    return all(v >= -tol for v in slacks)


def _failing_checks(checks):
    """Names of the shape-report checks whose flag is not set."""
    return [name for name, (flag, _) in checks.items() if not flag]


def cmd_ensemble(args):
    pair = WiretapPair(DiscreteChannel.bsc(args.eps_y), DiscreteChannel.bsc(args.eps_z))
    spec = ensemble_sim.EnsembleSpec(pair, args.n, args.M, args.L, [1.0 - args.q1, args.q1])
    # Monte Carlo first, so a bad sample count fails before the exact enumeration.
    monte_carlo = {}
    if args.mc_samples:
        err_mc, err_se = ensemble_sim.mc_ensemble_error(spec, args.mc_samples, args.seed)
        div_mc, div_se = ensemble_sim.mc_ensemble_divergence(spec, args.mc_samples, args.seed)
        monte_carlo["monte_carlo"] = {
            "error": err_mc, "error_stderr": err_se,
            "divergence": div_mc, "divergence_stderr": div_se,
        }
    report = {**ensemble_sim.certification_report(spec), **monte_carlo}
    _emit_json(report, args.out)
    return EXIT_OK if _slacks_hold(report["slacks"].values()) else EXIT_PROPERTY


def cmd_figures(args):
    ids = list(figmod.FIGURE_IDS) if args.which == "all" else [int(args.which)]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"version": __version__, "figures": {}}
    all_ok = True
    for fig_id in ids:
        data = figmod.figure_data(fig_id, points=args.points)
        files = []
        for name, curve in data.curves:
            fname = f"fig{fig_id}_{name}.csv"
            header = [
                f"version {__version__}",
                f"figure {fig_id}",
                f"curve {name}",
                f"params {json.dumps(dict(data.params), sort_keys=True)}",
            ]
            (out_dir / fname).write_text(curve_to_csv(curve, header), encoding="utf-8")
            files.append(fname)
        checks = figmod.shape_report(data)
        ok = not _failing_checks(checks)
        all_ok &= ok
        manifest["figures"][str(fig_id)] = {
            "files": files,
            "ok": ok,
            "checks": {k: {"ok": flag, "detail": detail} for k, (flag, detail) in checks.items()},
        }
    _emit_json(manifest, args.out)
    return EXIT_OK if all_ok else EXIT_PROPERTY


def _selftest_cases(seed, fast):
    """Yield (name, callable) pairs; each calls a library check and returns (ok, detail)."""
    from . import secrecy_metrics as sm
    from .channel_core import concatenate, mutual_information
    from .exponent_engine import reliability_zero_rate, secrecy_zero_rate

    rng = np.random.default_rng(seed)

    def check_channel_invariants():
        gaps = []
        for _ in range(30):
            aux, ch = (DiscreteChannel(rng.dirichlet(np.ones(k), size=2)) for k in (2, 3))
            q = rng.dirichlet(np.ones(2))
            gaps.append(mutual_information(q @ aux.rows, ch) - mutual_information(q, concatenate(aux, ch)))
        return _slacks_hold(gaps, tol=1e-10), f"min data-processing gap {min(gaps):.2e}"

    def check_lattice():
        count = 100 if fast else 400
        for _ in range(count):
            m = int(rng.integers(1, 9))
            k = int(rng.integers(2, 9))
            members = rng.dirichlet(np.ones(k), size=m)
            target = rng.dirichlet(np.ones(k))
            slacks = sm.inequality_slacks(sm.OutputEnsemble(members, target))
            if not _slacks_hold((slacks["pinsker"], slacks["triangle"], slacks["split_triangle"]), tol=1e-10):
                return False, f"slacks {slacks}"
        return True, f"{count} ensembles"

    def check_zero_crossings():
        query = figmod.bsc_query()
        gap_b = abs(reliability_zero_rate(query) - query.mutual_information("bob"))
        gap_e = abs(secrecy_zero_rate(query) - query.mutual_information("eve"))
        return gap_b < 1e-5 and gap_e < 1e-5, f"gaps {gap_b:.2e}, {gap_e:.2e}"

    def check_ensemble_bounds():
        for n in (2, 3):
            for m in (1, 2):
                for l in (1, 2):
                    for eps in (0.1, 0.3):
                        pair = WiretapPair(DiscreteChannel.bsc(eps), DiscreteChannel.bsc(eps))
                        spec = ensemble_sim.EnsembleSpec(pair, n, m, l, [0.5, 0.5])
                        slacks = ensemble_sim.certification_report(spec)["slacks"]
                        if not _slacks_hold(slacks.values()):
                            return False, f"slacks {slacks} at n={n}, M={m}, L={l}, eps={eps}"
        return True, "bounds hold"

    def check_poisson():
        residual = pw.capacity(figmod.poisson_params()).residual
        return residual < 1e-12, f"residual {residual:.2e}"

    def check_gaussian():
        # critical_rates raises when its two rates are out of order.
        for a in np.linspace(1e-3, 100.0, 1000):
            gw.critical_rates(gw.GaussianWiretapParams(1.0, 1.0, 1.0 / math.sqrt(a), 1.0 / math.sqrt(a), 1.0))
        try:
            gw.GaussianWiretapParams(1.0, 2.0, 1.0, 0.1, 1.0)
        except ValueError:
            return True, "critical rates ordered over 1000 SNRs"
        return False, "degradedness violation not rejected"

    def check_figures():
        ids = (5, 8, 10, 11) if fast else figmod.FIGURE_IDS
        for fig_id in ids:
            failing = _failing_checks(figmod.shape_report(figmod.figure_data(fig_id, points=17)))
            if failing:
                return False, f"figure {fig_id}: {', '.join(failing)}"
        return True, f"figures {ids}"

    yield "channel_invariants", check_channel_invariants
    yield "secrecy_measure_lattice", check_lattice
    yield "exponent_zero_crossings", check_zero_crossings
    yield "ensemble_bound_certification", check_ensemble_bounds
    yield "poisson_capacity", check_poisson
    yield "gaussian_identities", check_gaussian
    yield "figure_shapes", check_figures


def cmd_selftest(args):
    failures = 0
    for name, fn in _selftest_cases(args.seed, args.fast):
        try:
            ok, detail = fn()
        except Exception as exc:  # surface, keep running the rest
            ok, detail = False, f"exception: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{'OK' if failures == 0 else 'FAILED'} ({failures} failing)")
    return EXIT_OK if failures == 0 else EXIT_PROPERTY


SHARED_FLAGS = {
    "out": {"default": None, "help": "output path (default: stdout)"},
    "format": {"choices": ("csv", "json"), "default": "csv"},
    "seed": {"type": int, "default": 0},
    "points": {"type": int, "default": 33},
}


@functools.cache  # one parser per process: parse_args leaves it unchanged, and building it costs ~2 ms
def build_parser():
    parser = _Parser(prog="wiretap-exponents", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fn, *flags):
        for flag in flags:
            p.add_argument(f"--{flag}", **SHARED_FLAGS[flag])
        p.set_defaults(fn=fn)

    p = sub.add_parser("capacity", help="secrecy capacity from a channel config")
    p.add_argument("--config", required=True)
    p.add_argument("--aux-dim", type=int, default=2)
    common(p, cmd_capacity, "out", "seed")

    p = sub.add_parser("exponents", help="reliability and secrecy curves from a channel config")
    p.add_argument("--config", required=True)
    common(p, cmd_exponents, "out", "format", "points")

    p = sub.add_parser("tradeoff", help="tradeoff scenario sweeps")
    p.add_argument("--config", required=True)
    p.add_argument("--mechanism", required=True, choices=MECHANISMS)
    p.add_argument("--sweep", required=True, help="comma-separated sweep values")
    common(p, cmd_tradeoff, "out", "points")

    p = sub.add_parser("poisson", help="Poisson wiretap capacity and curves")
    p.add_argument("action", choices=("capacity", "curves", "concat"))
    p.add_argument("--Ay", type=float, required=True)
    p.add_argument("--Az", type=float, required=True)
    p.add_argument("--ly", type=float, required=True)
    p.add_argument("--lz", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    common(p, cmd_poisson, "out", "format", "points")

    p = sub.add_parser("gaussian", help="Gaussian wiretap capacity and curves")
    p.add_argument("action", choices=("capacity", "reliability", "secrecy"))
    p.add_argument("--variant", choices=("forward", "gallager"), default="forward")
    p.add_argument("--Ay", type=float, required=True)
    p.add_argument("--Az", type=float, required=True)
    p.add_argument("--sy", type=float, required=True)
    p.add_argument("--sz", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    common(p, cmd_gaussian, "out", "format", "points")

    p = sub.add_parser("ensemble", help="exact small-block ensemble certification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--eps-y", type=float, required=True)
    p.add_argument("--eps-z", type=float, required=True)
    p.add_argument("--q1", type=float, default=0.5)
    p.add_argument("--mc-samples", type=int, default=0)
    common(p, cmd_ensemble, "out", "seed")

    p = sub.add_parser("figures", help="emit the reference figure curve data")
    p.add_argument("--which", default="all", help="figure id 2..13 or 'all'")
    p.add_argument("--out-dir", default="figures_out")
    common(p, cmd_figures, "out", "points")

    p = sub.add_parser("selftest", help="run the invariant battery")
    p.add_argument("--fast", action="store_true")
    common(p, cmd_selftest, "seed")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "points", 2) < 2:
            raise ValueError(f"--points must be at least 2, got {args.points}")
        return args.fn(args)
    except ValueError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
