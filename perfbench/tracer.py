"""Per-layer tracing of the wiretap_exponents package, from outside it.

The tracer wraps module attributes and methods of the package (nothing
under ``src/`` is edited) and measures, per layer, the number of calls
and the self time: the span's duration minus the time covered by the
traced calls it made. It is installed only for traced runs; untraced
runs execute the package unmodified.

Three kinds of wrapper exist:

* span: a timed frame recorded as a span (name, start, end, parent,
  op). Layers with children (tilt search, rho search, solvers, ...)
  are spans.
* leaf: a timed call with no traced children, aggregated into call
  count and time only. The hot innermost calls (one E0 evaluation,
  one mutual information) are leaves, because recording millions of
  spans would cost more memory than the whole workload.
* count: a call counter with no timing (evaluator builds, info-gap
  evaluations of the more-capable scan, multisets enumerated).

Solver objective evaluations are counted by wrapping the objective
passed to the outermost solver call; solvers that call one another
directly (``scan_then_golden_max`` -> ``golden_max``) share one count.
"""

import importlib
import itertools
import time
from array import array

import numpy as np

_perf = time.perf_counter

# (layer name, [attribute path, ...]); a path is "module:attr" or
# "module:Class.method", relative to the package.
SPAN_LAYERS = (
    ("cli", ["cli:main"]),
    ("figures.figure_data", ["figures:figure_data"]),
    ("figures.shape_report", ["figures:shape_report"]),
    ("exponent_engine.optimize", ["exponent_engine:_optimize"]),
    ("exponent_engine.tilt_search", ["exponent_engine:_max_over_tilts"]),
    (
        "exponent_engine.capacity_search",
        [
            "exponent_engine:secrecy_capacity",
            "exponent_engine:_best_input_binary",
            "exponent_engine:_best_input_gradient",
            "exponent_engine:_aux_search",
        ],
    ),
    ("channel_core.more_capable", ["channel_core:is_more_capable"]),
    ("ensemble_sim.likelihood_table", ["ensemble_sim:_likelihood_table"]),
    ("ensemble_sim.exact_error", ["ensemble_sim:exact_ensemble_error"]),
    ("ensemble_sim.exact_divergence", ["ensemble_sim:exact_ensemble_divergence"]),
    (
        "ensemble_sim.bounds",
        ["ensemble_sim:error_bound", "ensemble_sim:divergence_bounds", "ensemble_sim:holder_gap"],
    ),
    (
        "ensemble_sim.monte_carlo",
        ["ensemble_sim:mc_ensemble_error", "ensemble_sim:mc_ensemble_divergence"],
    ),
    ("secrecy_metrics.inequality_slacks", ["secrecy_metrics:inequality_slacks"]),
)
SOLVER_FUNCTIONS = ("golden_max", "scan_then_golden_max", "golden_min", "bisect_root", "bisect_boundary")
LEAF_LAYERS = (
    ("exponent_engine.e0", "exponent_engine:_E0Evaluator.__call__"),
    ("channel_core.mutual_information", "channel_core:mutual_information"),
)
COUNT_LAYERS = (
    ("exponent_engine.evaluator_builds", "exponent_engine:_E0Evaluator.__init__"),
    ("channel_core.more_capable.grid_points", "channel_core:_info_gap"),
)
# Every public function of the two closed-form modules is one layer each.
MODULE_LAYERS = ("poisson_wiretap", "gaussian_wiretap")


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("e0_per_optimum"):
        return "calls/optimum"
    return "count"


PER_LAYER_NAMES = (
    "exponent_engine.e0.calls", "exponent_engine.e0.self_s", "exponent_engine.e0_per_optimum",
    "exponent_engine.evaluator_builds", "exponent_engine.optimize.calls", "exponent_engine.optimize.self_s",
    "exponent_engine.tilt_search.calls", "exponent_engine.tilt_search.self_s",
    "exponent_engine.tilt_search.probe_hit_ratio", "solvers.objective_evals", "solvers.self_s",
    "channel_core.more_capable.grid_points", "channel_core.more_capable.self_s",
    "channel_core.mutual_information.calls", "channel_core.mutual_information.self_s",
    "exponent_engine.capacity_search.self_s", "ensemble_sim.likelihood_table.calls",
    "ensemble_sim.likelihood_table.self_s", "ensemble_sim.exact_error.self_s",
    "ensemble_sim.exact_divergence.self_s", "ensemble_sim.divergence_multisets", "ensemble_sim.bounds.self_s",
    "ensemble_sim.monte_carlo.self_s", "secrecy_metrics.inequality_slacks.calls",
    "secrecy_metrics.inequality_slacks.self_s", "figures.figure_data.self_s", "figures.shape_report.self_s",
    "poisson_wiretap.self_s", "gaussian_wiretap.self_s", "cli.self_s", "traced_wall_s",
)
PER_LAYER_UNITS = {name: _unit(name) for name in PER_LAYER_NAMES}

# A tilt search that returns the origin after at most this many E0
# evaluations took the probe shortcut (v00 plus up to three probes).
PROBE_MAX_E0 = 4


class Tracer:
    """Installs the wrappers, collects counts, self times and spans."""

    def __init__(self, package):
        self._modules = {
            name: importlib.import_module(f"{package.__name__}.{name}")
            for name in (
                "cli", "figures", "exponent_engine", "channel_core", "ensemble_sim",
                "secrecy_metrics", "solvers", "poisson_wiretap", "gaussian_wiretap",
            )
        }
        # The package namespace re-exports functions, so it is patched too.
        self._bindings = list(self._modules.values()) + [package]
        self._restore = []
        self.names = []
        self._name_ids = {}
        self.calls = []
        self.self_s = []
        # One frame per open span: [child time, is solver, e0 count at entry].
        self._stack = [[0.0, False, 0]]
        self._span_ids = [-1]
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op_ids = []
        self._op = -1
        self._e0_calls = [0]
        self.counters = {
            "solvers.objective_evals": 0,
            "exponent_engine.tilt_search.probe_hits": 0,
            "exponent_engine.optimize.e0_calls": 0,
            "ensemble_sim.divergence_multisets": 0,
        }

    # -- bookkeeping -------------------------------------------------
    def _layer(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._name_ids[name]

    def _resolve(self, path):
        mod_name, attr = path.split(":")
        owner = self._modules[mod_name]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        return owner, attr

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, original, wrapper):
        # Package modules import helpers by name, so a function can be
        # bound in several module namespaces; replace every binding.
        for mod in self._bindings:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    # -- wrappers ----------------------------------------------------
    def _span_wrapper(self, name, fn, solver=False, on_exit=None):
        layer = self._layer(name)
        stack, span_ids = self._stack, self._span_ids
        calls, self_s = self.calls, self.self_s
        s_name, s_parent, s_op = self.span_name, self.span_parent, self.span_op
        s_start, s_end = self.span_start, self.span_end
        e0 = self._e0_calls
        counters = self.counters
        tracer = self

        def wrapper(*args, **kwargs):
            if solver and not stack[-1][1]:
                args = (tracer._counted(args[0]),) + args[1:]
            frame = [0.0, solver, e0[0]]
            idx = len(s_start)
            s_name.append(layer)
            s_parent.append(span_ids[-1])
            s_op.append(tracer._op)
            s_start.append(0.0)
            s_end.append(0.0)
            stack.append(frame)
            span_ids.append(idx)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                span_ids.pop()
                dur = t1 - t0
                stack[-1][0] += dur
                calls[layer] += 1
                self_s[layer] += dur - frame[0]
                s_start[idx] = t0
                s_end[idx] = t1
            if on_exit is not None:
                on_exit(result, e0[0] - frame[2], counters)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, f):
        counters = self.counters

        def counted(*args):
            counters["solvers.objective_evals"] += 1
            return f(*args)

        return counted

    def _leaf_wrapper(self, name, fn, stats):
        layer = self._layer(name)
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            t0 = _perf()
            result = fn(*args, **kwargs)
            dt = _perf() - t0
            stack[-1][0] += dt
            calls[layer] += 1
            self_s[layer] += dt
            if stats is not None:
                stats[0] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        layer = self._layer(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / remove ----------------------------------------------
    def install(self):
        def tilt_exit(result, e0_calls, counters):
            _, r_star, s_star = result
            if e0_calls <= PROBE_MAX_E0 and r_star == 0.0 and s_star == 0.0:
                counters["exponent_engine.tilt_search.probe_hits"] += 1

        def optimize_exit(result, e0_calls, counters):
            counters["exponent_engine.optimize.e0_calls"] += e0_calls

        hooks = {"exponent_engine.tilt_search": tilt_exit, "exponent_engine.optimize": optimize_exit}
        for name, paths in SPAN_LAYERS:
            for path in paths:
                owner, attr = self._resolve(path)
                original = getattr(owner, attr)
                self._patch_everywhere(original, self._span_wrapper(name, original, on_exit=hooks.get(name)))
        solvers = self._modules["solvers"]
        for attr in SOLVER_FUNCTIONS:
            original = getattr(solvers, attr)
            self._patch_everywhere(original, self._span_wrapper("solvers", original, solver=True))
        for name, path in LEAF_LAYERS:
            owner, attr = self._resolve(path)
            original = getattr(owner, attr)
            stats = self._e0_calls if name == "exponent_engine.e0" else None
            wrapper = self._leaf_wrapper(name, original, stats)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                self._patch_everywhere(original, wrapper)
        for name, path in COUNT_LAYERS:
            owner, attr = self._resolve(path)
            original = getattr(owner, attr)
            wrapper = self._count_wrapper(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                self._patch_everywhere(original, wrapper)
        for mod_name in MODULE_LAYERS:
            mod = self._modules[mod_name]
            for attr, value in list(vars(mod).items()):
                if callable(value) and getattr(value, "__module__", None) == mod.__name__ and not isinstance(value, type):
                    self._patch(mod, attr, self._span_wrapper(mod_name, value))
        self._patch_multisets()
        return self

    def _patch_multisets(self):
        # exact_ensemble_divergence iterates
        # itertools.combinations_with_replacement through its module's
        # ``itertools`` binding; a proxy counts the multisets it yields.
        ens = self._modules["ensemble_sim"]
        counters = self.counters

        def counting_cwr(iterable, r):
            for combo in itertools.combinations_with_replacement(iterable, r):
                counters["ensemble_sim.divergence_multisets"] += 1
                yield combo

        class _ItertoolsProxy:
            combinations_with_replacement = staticmethod(counting_cwr)

            def __getattr__(self, attr):
                return getattr(itertools, attr)

        self._patch(ens, "itertools", _ItertoolsProxy())

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- ops and results -----------------------------------------------
    def op(self, op_id, fn, *args):
        """Run one benchmark op as a root span named ``bench.op``."""
        self._op = len(self.op_ids)
        self.op_ids.append(op_id)
        try:
            return self._span_wrapper("bench.op", fn)(*args)
        finally:
            self._op = -1

    def layer(self, name):
        """(calls, self seconds) of one layer; zeros if it never ran."""
        i = self._name_ids.get(name)
        return (0, 0.0) if i is None else (self.calls[i], self.self_s[i])

    def metrics(self):
        """The per-layer metric values named in BENCHMARK.json."""
        def calls(name):
            return self.layer(name)[0]

        def self_s(name):
            return self.layer(name)[1]

        c = self.counters
        optimize_calls = calls("exponent_engine.optimize")
        tilt_calls = calls("exponent_engine.tilt_search")
        module_self = {m: self_s(m) for m in MODULE_LAYERS}
        return {
            "exponent_engine.e0.calls": calls("exponent_engine.e0"),
            "exponent_engine.e0.self_s": self_s("exponent_engine.e0"),
            "exponent_engine.e0_per_optimum": (
                c["exponent_engine.optimize.e0_calls"] / optimize_calls if optimize_calls else 0.0
            ),
            "exponent_engine.evaluator_builds": calls("exponent_engine.evaluator_builds"),
            "exponent_engine.optimize.calls": optimize_calls,
            "exponent_engine.optimize.self_s": self_s("exponent_engine.optimize"),
            "exponent_engine.tilt_search.calls": tilt_calls,
            "exponent_engine.tilt_search.self_s": self_s("exponent_engine.tilt_search"),
            "exponent_engine.tilt_search.probe_hit_ratio": (
                c["exponent_engine.tilt_search.probe_hits"] / tilt_calls if tilt_calls else 0.0
            ),
            "solvers.objective_evals": c["solvers.objective_evals"],
            "solvers.self_s": self_s("solvers"),
            "channel_core.more_capable.grid_points": calls("channel_core.more_capable.grid_points"),
            "channel_core.more_capable.self_s": self_s("channel_core.more_capable"),
            "channel_core.mutual_information.calls": calls("channel_core.mutual_information"),
            "channel_core.mutual_information.self_s": self_s("channel_core.mutual_information"),
            "exponent_engine.capacity_search.self_s": self_s("exponent_engine.capacity_search"),
            "ensemble_sim.likelihood_table.calls": calls("ensemble_sim.likelihood_table"),
            "ensemble_sim.likelihood_table.self_s": self_s("ensemble_sim.likelihood_table"),
            "ensemble_sim.exact_error.self_s": self_s("ensemble_sim.exact_error"),
            "ensemble_sim.exact_divergence.self_s": self_s("ensemble_sim.exact_divergence"),
            "ensemble_sim.divergence_multisets": c["ensemble_sim.divergence_multisets"],
            "ensemble_sim.bounds.self_s": self_s("ensemble_sim.bounds"),
            "ensemble_sim.monte_carlo.self_s": self_s("ensemble_sim.monte_carlo"),
            "secrecy_metrics.inequality_slacks.calls": calls("secrecy_metrics.inequality_slacks"),
            "secrecy_metrics.inequality_slacks.self_s": self_s("secrecy_metrics.inequality_slacks"),
            "figures.figure_data.self_s": self_s("figures.figure_data"),
            "figures.shape_report.self_s": self_s("figures.shape_report"),
            "poisson_wiretap.self_s": module_self["poisson_wiretap"],
            "gaussian_wiretap.self_s": module_self["gaussian_wiretap"],
            "cli.self_s": self_s("cli"),
        }

    def write_spans(self, path):
        """Write every recorded span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            layer_names=np.array(self.names),
            op_ids=np.array(self.op_ids, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
