"""Reference parameter sets and curve builders for the twelve standard figures.

Each figure id (2 through 13) maps to a fixed scenario: binary symmetric
pairs for 2-7, the Poisson pair for 8, 9, and 12, the Gaussian pair for
10, 11, and 13. ``figure_data`` evaluates the underlying curves from the
fixed parameters, and ``shape_report`` runs the structural checks each
figure is expected to satisfy (monotone and convex exponent curves, the
reliability/secrecy crossing where the windows overlap, figure 9's
orderings under the prefix) and adds the checks that figures 2-7 carry
from their tradeoff sweep (orderings under rate shifts, rate exchange,
concatenation and cost changes).
"""

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import gaussian_wiretap as gw
from . import poisson_wiretap as pw
from .channel_core import DiscreteChannel, WiretapPair, _checked, _frozen_mapping, _Value
from .exponent_engine import ExponentCurve, ExponentQuery, _knot_difference, ordered_curves, tradeoff_scenarios

BSC_SETUP = {
    "eps_bob": 0.1,
    "eps_eve": 0.3,
    "costs": (1.0, 2.0),
    "gamma": 1.4,
    "q_on": 0.4,
}
POISSON_SETUP = {
    "peak_bob": 12.0,
    "peak_eve": 5.0,
    "dark_bob": 0.5,
    "dark_eve": 1.5,
    "gamma": 0.5,
    "q_on": 0.38,
}
GAUSSIAN_SETUP = {
    "gain_bob": 1.0,
    "gain_eve": 0.5,
    "noise_bob": 0.5,
    "noise_eve": 0.8,
    "gamma": 0.5,
}

FIGURE_IDS = tuple(range(2, 14))

CONVEXITY_TOL = 1e-7
MONOTONE_TOL = 1e-9


@dataclass(frozen=True)
class FigureData(_Value):
    """One figure's parameters, its (name, ExponentCurve) pairs, and the checks of its sweep.

    ``checks`` maps "<scenario label>/<check>" to (ok, slack). Both mappings are read-only and take no
    part in the hash.
    """

    fig_id: int
    params: MappingProxyType = _checked(_frozen_mapping, hash=False)
    curves: tuple = _checked(tuple, default=())
    checks: MappingProxyType = _checked(_frozen_mapping, default=None, hash=False)

    def curve(self, name):
        for n, c in self.curves:
            if n == name:
                return c
        raise KeyError(name)


def bsc_query():
    s = BSC_SETUP
    pair = WiretapPair(DiscreteChannel.bsc(s["eps_bob"]), DiscreteChannel.bsc(s["eps_eve"]))
    return ExponentQuery(pair, [1.0 - s["q_on"], s["q_on"]], s["costs"], s["gamma"])


def poisson_params():
    s = POISSON_SETUP
    return pw.PoissonWiretapParams(s["peak_bob"], s["peak_eve"], s["dark_bob"], s["dark_eve"], s["gamma"])


def gaussian_params():
    s = GAUSSIAN_SETUP
    return gw.GaussianWiretapParams(s["gain_bob"], s["gain_eve"], s["noise_bob"], s["noise_eve"], s["gamma"])


@functools.lru_cache(maxsize=1)
def _bsc_sweep(mechanism, sweep, points):
    # The last sweep is kept: figures 6 and 7, drawn one after the other, show the two sides of one sweep.
    return tuple(tradeoff_scenarios(bsc_query(), mechanism, list(sweep), points=points))


def _scenario_figure(fig_id, params, mechanism, sweep, points, keep=""):
    """The curves and checks of one tradeoff sweep; ``keep`` keeps one side by its name prefix."""
    curves, checks = [], {}
    for sc in _bsc_sweep(mechanism, tuple(sweep), points):
        curves += [(f"reliability_{sc.label}", sc.reliability), (f"secrecy_{sc.label}", sc.secrecy)]
        checks.update({f"{sc.label}/{name}": result for name, result in sc.checks.items()})
    curves = [(n, c) for n, c in curves if n.startswith(keep)]
    checks = {n: result for n, result in checks.items() if n.partition("/")[2].startswith(keep)}
    return FigureData(fig_id, dict(BSC_SETUP, **params), curves, checks)


def gaussian_curve(params, side, variant, points):
    """One Gaussian exponent variant over its side's standard rate window."""
    if side == "reliability":
        cap = 0.5 * math.log1p(params.snr_bob)
        rates = np.linspace(0.02 * cap, 0.98 * cap, points)
        fn = gw.reliability_forward_tilt if variant == "forward" else gw.reliability_gallager
    else:
        floor = 0.5 * math.log1p(params.snr_eve)
        rates = np.linspace(1.001 * floor, floor + 0.35, points)
        fn = gw.secrecy_forward_tilt if variant == "forward" else gw.secrecy_gallager_type
    return ExponentCurve(rates, [fn(params, float(r)) for r in rates], {"function": f"{side}_{variant}"})


def _gaussian_curves(side, points):
    # Figure curves are named by the form of the formula: the forward
    # tilt is parametric for reliability and explicit for secrecy.
    forms = ("parametric", "explicit") if side == "reliability" else ("explicit", "parametric")
    params = gaussian_params()
    return [
        (f"{side}_{form}", gaussian_curve(params, side, variant, points))
        for form, variant in zip(forms, ("forward", "gallager"))
    ]


def _poisson_pair_curves(params, points, suffix=""):
    curves = pw.curves(params, POISSON_SETUP["q_on"], points=points)
    return [(f"{side}{suffix}", curve) for side, curve in zip(("reliability", "secrecy"), curves)]


def figure_data(fig_id, points=33):
    """Curve data for one figure id; raises on an unknown id."""
    if fig_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {fig_id}; valid ids are {list(FIGURE_IDS)}")
    if fig_id == 2:
        return _scenario_figure(2, {}, "rate_shift", [], points)
    if fig_id == 3:
        return _scenario_figure(3, {"delta": 0.05}, "rate_exchange", [0.05], points)
    if fig_id == 4:
        return _scenario_figure(4, {"eps_aux": 0.025}, "concatenate", [0.025], points)
    if fig_id == 5:
        return _scenario_figure(5, {"deltas": (0.05,)}, "rate_shift", [0.05], points)
    if fig_id in (6, 7):
        caps = [1.0, 1.2, 1.4]
        keep = "reliability" if fig_id == 6 else "secrecy"
        return _scenario_figure(fig_id, {"caps": tuple(caps)}, "cost_change", caps, points, keep)
    if fig_id in (8, 12):
        return FigureData(fig_id, dict(POISSON_SETUP), _poisson_pair_curves(poisson_params(), points))
    if fig_id == 9:
        params = poisson_params()
        plus = pw.concatenate_params(params, pw.ConcatenationParams(0.98, 0.02))
        curves = _poisson_pair_curves(params, points) + _poisson_pair_curves(plus, points, "_prefixed")
        return FigureData(9, dict(POISSON_SETUP, a=0.98, b=0.02), curves)
    if fig_id == 10:
        return FigureData(10, dict(GAUSSIAN_SETUP), _gaussian_curves("reliability", points))
    if fig_id == 11:
        return FigureData(11, dict(GAUSSIAN_SETUP), _gaussian_curves("secrecy", points))
    # fig 13: all four Gaussian curves together
    return FigureData(
        13, dict(GAUSSIAN_SETUP), _gaussian_curves("reliability", points) + _gaussian_curves("secrecy", points)
    )


def _monotone(values, decreasing):
    d = -np.diff(values) if decreasing else np.diff(values)
    return bool(np.all(d >= -MONOTONE_TOL)), float(np.min(d))


def _convex(curve):
    """Chord slopes must be nondecreasing; valid for uneven rate spacing."""
    if len(curve) < 3:
        return True, 0.0
    slopes = np.diff(curve.exponents) / np.diff(curve.rates)
    d = np.diff(slopes)
    scale = np.maximum(1.0, np.abs(slopes[:-1]))
    rel = d / scale
    return bool(np.all(rel >= -CONVEXITY_TOL)), float(np.min(rel))


def _curves_cross(f_curve, h_curve):
    """(crosses, margin): the curves intersect on overlapping rates; no overlap gives (False, -inf).

    They cross when f - h at the knots (``_knot_difference``) takes both signs or zero, so when the
    margin min(max(f - h), max(h - f)), the least shift of one curve that undoes the crossing, is >= 0.
    """
    diff = _knot_difference(f_curve, h_curve)
    margin = float(min(diff.max(), -diff.min())) if diff.size else -math.inf
    return margin >= 0.0, margin


def shape_report(data):
    """Structural checks for one figure, with its sweep's checks; returns {check: (ok, detail)}."""
    checks = {}
    for name, curve in data.curves:
        vals = curve.exponents
        if name.startswith("reliability"):
            flat = bool(np.all(vals <= 1e-12))
            if not flat:
                checks[f"{name}_nonincreasing"] = _monotone(vals, decreasing=True)
            checks[f"{name}_convex"] = _convex(curve)
        elif name.startswith("secrecy"):
            checks[f"{name}_nondecreasing"] = _monotone(vals, decreasing=False)
            checks[f"{name}_convex"] = _convex(curve)
    if data.fig_id in (5, 8, 9, 12):
        # Each of these figures lists its base reliability/secrecy pair first.
        (_, f_curve), (_, h_curve) = data.curves[:2]
        checks["curves_cross"] = _curves_cross(f_curve, h_curve)
    if data.fig_id == 9:
        checks["concat_reliability_drops"] = ordered_curves(
            data.curve("reliability"), data.curve("reliability_prefixed")
        )
        checks["concat_secrecy_rises"] = ordered_curves(data.curve("secrecy_prefixed"), data.curve("secrecy"))
    checks.update(data.checks)
    return checks
