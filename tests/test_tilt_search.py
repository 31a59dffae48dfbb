"""The tilt search against the two-branch search it replaced, call for call.

``_oracle_max_over_tilts`` is the former ``exponent_engine._max_over_tilts``
kept verbatim, with a merged branch for queries without a prefix and a
coordinate-ascent branch for prefix queries. The single search must make
the same E0 calls, (kappa, r, s) in the same order and with the same bits,
and return the same (value, r*, s*) on every query and order.
"""

import numpy as np
import pytest

from wiretap_exponents import DiscreteChannel, ExponentQuery, WiretapPair, figures
from wiretap_exponents.channel_core import lifted_cost
from wiretap_exponents.exponent_engine import _E0Evaluator, _max_over_tilts, _swept_queries
from wiretap_exponents.solvers import scan_then_golden_max

_PROBE_STEP = 1e-7


def _oracle_max_over_tilts(ev, kappa, caps, merged):
    r_max, s_max = caps
    if merged:
        t_cap = r_max + s_max
        if t_cap <= 0.0:
            return ev(kappa, 0.0, 0.0), 0.0, 0.0
        h = min(_PROBE_STEP, 0.5 * t_cap)
        v00 = ev(kappa, 0.0, 0.0)
        if ev(kappa, h, 0.0) <= v00:
            return v00, 0.0, 0.0
        t_star, val = scan_then_golden_max(
            lambda t: ev(kappa, t, 0.0), 0.0, t_cap, scan_points=9, tol=1e-9
        )
        return val, t_star, 0.0
    if r_max <= 0.0 and s_max <= 0.0:
        return ev(kappa, 0.0, 0.0), 0.0, 0.0
    v00 = ev(kappa, 0.0, 0.0)
    hr = min(_PROBE_STEP, 0.5 * r_max) if r_max > 0.0 else 0.0
    hs = min(_PROBE_STEP, 0.5 * s_max) if s_max > 0.0 else 0.0
    if (
        (hr == 0.0 or ev(kappa, hr, 0.0) <= v00)
        and (hs == 0.0 or ev(kappa, 0.0, hs) <= v00)
        and (hr == 0.0 or hs == 0.0 or ev(kappa, hr, hs) <= v00)
    ):
        return v00, 0.0, 0.0

    r_star = s_star = 0.0
    val = v00
    for _ in range(3):
        if r_max > 0.0:
            r_star, val = scan_then_golden_max(
                lambda r: ev(kappa, r, s_star), 0.0, r_max, scan_points=7, tol=1e-8
            )
        if s_max > 0.0:
            s_star, val = scan_then_golden_max(
                lambda s: ev(kappa, r_star, s), 0.0, s_max, scan_points=7, tol=1e-8
            )
    return val, r_star, s_star


def _hex(values):
    return tuple(float(v).hex() for v in values)


class _Recorder:
    """An evaluator that logs every call's (kappa, r, s) bits."""

    def __init__(self, query, side):
        self._ev = _E0Evaluator(query, side)
        self.calls = []

    def __call__(self, kappa, r, s):
        self.calls.append(_hex((kappa, r, s)))
        return self._ev(kappa, r, s)


def _assert_same_search(query, side, kappas, caps=None):
    caps = query.tilt_caps if caps is None else caps
    merged = query.aux is None
    for kappa in kappas:
        new, old = _Recorder(query, side), _Recorder(query, side)
        got = _max_over_tilts(new, kappa, caps, merged)
        want = _oracle_max_over_tilts(old, kappa, caps, merged)
        assert _hex(got) == _hex(want), (kappa, caps)
        assert new.calls == old.calls, (kappa, caps)
        assert new.calls


def _random_query(rng, k, prefixed, costs_kind):
    # A k-letter pair, the tap a noisier copy of the legitimate channel, optionally behind a
    # prefix from 2 or 3 letters. A binding cap equals the input law's expected cost, a slack
    # one lies above it, and flat costs (one value for every letter) give zero tilt caps.
    rows = 0.9 * rng.dirichlet(np.ones(k), size=k) + 0.1 / k
    pair = WiretapPair(DiscreteChannel(rows), DiscreteChannel(0.5 * rows + 0.5 / k))
    costs = np.full(k, 1.5) if costs_kind == "flat" else rng.uniform(0.5, 2.0, size=k)
    aux = DiscreteChannel(rng.dirichlet(np.ones(k), size=int(rng.integers(2, 4)))) if prefixed else None
    cost_on_q = costs if aux is None else lifted_cost(aux, costs)
    q = rng.dirichlet(np.ones(len(cost_on_q)))
    gamma = float(q @ cost_on_q) + (rng.uniform(0.05, 0.5) if costs_kind == "slack" else 0.0)
    return ExponentQuery(pair, q, costs, gamma, aux=aux)


@pytest.mark.parametrize("prefixed", [False, True], ids=["merged", "prefix"])
@pytest.mark.parametrize("costs_kind", ["binding", "slack", "flat"])
@pytest.mark.parametrize("seed", range(4))
def test_random_queries_make_the_same_calls_and_return_the_same_optimum(seed, costs_kind, prefixed):
    rng = np.random.default_rng([seed, prefixed])
    query = _random_query(rng, int(rng.integers(2, 5)), prefixed, costs_kind)
    rhos = rng.uniform(0.0, 1.0, size=3)
    _assert_same_search(query, "bob", 1.0 + rhos)
    _assert_same_search(query, "eve", 1.0 - rhos)


@pytest.mark.parametrize("prefixed", [False, True], ids=["merged", "prefix"])
@pytest.mark.parametrize("caps", [(0.0, 0.0), (0.0, 3.0), (2.0, 0.0), (1e-7, 1e-7), (4.0, 0.5)])
def test_every_cap_pattern_makes_the_same_calls(caps, prefixed):
    # Caps of either tilt at zero, or below two probe steps, on binding queries with interior optima.
    rng = np.random.default_rng(7)
    query = _random_query(rng, 3, prefixed, "binding")
    _assert_same_search(query, "eve", (0.95, 0.5, 0.1), caps)
    _assert_same_search(query, "bob", (1.05, 1.5, 2.0), caps)


def test_figure_4_queries_make_the_same_calls():
    # Figure 4's base query and its prefix query (aux = BSC(0.025)), at the orders the envelope tests use.
    base = figures.bsc_query()
    [(_, prefixed, _, _)] = _swept_queries(base, "concatenate", [0.025])
    for query in (prefixed, base):
        _assert_same_search(query, "eve", (0.95, 0.8, 0.6, 0.3))
        _assert_same_search(query, "bob", (1.05, 1.3, 1.6, 2.0))
