"""Bit-identity of the memoised E0 evaluator against the plain one it replaced.

``_oracle_lse`` and ``_OracleE0Evaluator`` are the evaluator without the
term memos or the two-term log-sum-exp fast path, kept verbatim as the
oracle: every value of ``exponent_engine._E0Evaluator`` must have the
same bits, and every non-finite value must raise the same error.
"""

import inspect
import itertools
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from wiretap_exponents import DiscreteChannel, ExponentQuery, WiretapPair, cli
from wiretap_exponents import exponent_engine as engine
from wiretap_exponents.channel_core import lifted_cost
from wiretap_exponents.exponent_engine import _E0Evaluator, _lse, _lse2

GOLDEN_FIGURES = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "figures"
# E0 evaluations of `figures --which 4 --points 17` from a cold envelope cache.
FIGURE_4_E0_CALLS = 294_366

_NEG_INF = float("-inf")


def _oracle_lse(vals):
    if not vals:
        return _NEG_INF
    m = max(vals)
    if m == _NEG_INF:
        return _NEG_INF
    return m + math.log(sum(math.exp(v - m) for v in vals))


class _OracleE0Evaluator:
    def __init__(self, query, side):
        channel = query.pair.bob if side == "bob" else query.pair.eve
        gamma = query.gamma
        costs = query.costs
        q = query.q
        if query.aux is None:
            # terms[y] = [(log q(x), log W(y|x), gamma - c(x))] over supported x
            terms = []
            for y in range(channel.num_outputs):
                col = []
                for x in range(channel.num_inputs):
                    if q[x] > 0.0 and channel.rows[x, y] > 0.0:
                        col.append((math.log(q[x]), math.log(channel.rows[x, y]), gamma - costs[x]))
                terms.append(col)
            self._plain_terms = terms
            self._aux_terms = None
        else:
            aux = query.aux
            cbar = query.input.costs
            vx = []
            for v in range(aux.num_inputs):
                if q[v] <= 0.0:
                    vx.append(None)
                    continue
                per_y = []
                for y in range(channel.num_outputs):
                    col = []
                    for x in range(channel.num_inputs):
                        p = aux.rows[v, x] * channel.rows[x, y]
                        if p > 0.0:
                            col.append((math.log(p), gamma - costs[x]))
                    per_y.append(col)
                vx.append((math.log(q[v]), gamma - cbar[v], per_y))
            self._plain_terms = None
            self._aux_terms = vx
            self._num_outputs = channel.num_outputs
        self._offset = 0.0
        self._offset = self(1.0, 0.0, 0.0)

    def __call__(self, kappa, r, s):
        if self._plain_terms is not None:
            t = r + s
            outer = []
            for col in self._plain_terms:
                ly = _oracle_lse([lq + lw / kappa + t * dc for (lq, lw, dc) in col])
                if ly > _NEG_INF:
                    outer.append(kappa * ly)
        else:
            outer = []
            for y in range(self._num_outputs):
                vs = []
                for entry in self._aux_terms:
                    if entry is None:
                        continue
                    lq, dcb, per_y = entry
                    lx = _oracle_lse([lwp + kappa * r * dc for (lwp, dc) in per_y[y]])
                    if lx > _NEG_INF:
                        vs.append(lq + s * dcb + lx / kappa)
                ly = _oracle_lse(vs)
                if ly > _NEG_INF:
                    outer.append(kappa * ly)
        val = -_oracle_lse(outer) - self._offset
        if not math.isfinite(val):
            raise RuntimeError(
                f"non-finite exponent base (kappa={kappa}, r={r}, s={s}); tilt arguments out of range"
            )
        return val


def _bits(x):
    return float(x).hex()


def _law(rng, k, zero_prob):
    # A law on k letters with some entries exactly zero (never all of them).
    w = rng.exponential(size=k) * (rng.random(k) >= zero_prob)
    if not w.any():
        w[rng.integers(k)] = 1.0
    return w / w.sum()


def _channel(rng, k, m):
    return DiscreteChannel(np.array([_law(rng, m, 0.3) for _ in range(k)]))


def _random_query(rng, prefixed):
    k = int(rng.integers(2, 5))
    m = int(rng.integers(2, 5))
    pair = WiretapPair(_channel(rng, k, m), _channel(rng, k, m))
    costs = rng.uniform(0.0, 2.0, size=k) * (rng.random(k) >= 0.2)
    aux = _channel(rng, int(rng.integers(1, 5)), k) if prefixed else None
    v_dim = k if aux is None else aux.num_inputs
    q = _law(rng, v_dim, 0.3)
    cost_on_v = costs if aux is None else lifted_cost(aux, costs)
    # A binding cap half the time, so interior tilts are exercised.
    gamma = float(q @ cost_on_v) + (0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 0.5)))
    return ExponentQuery(pair, q, costs, gamma, aux=aux)


def _outcome(ev, kappa, r, s):
    try:
        return _bits(ev(kappa, r, s))
    except RuntimeError as exc:
        return ("RuntimeError", str(exc))


def _arguments(rng, count):
    # Interleaved (kappa, r, s) with repeats, so the kappa and (kappa, r) memos both hit and miss.
    kappas = [1.0, 1.5, 2.0, 0.5, 1e-3, float(rng.uniform(0.05, 2.0))]
    tilts = [0.0, -0.0, 1e-7, 0.3, 2.5, 40.0, float(rng.uniform(0.0, 5.0))]
    args = []
    for _ in range(count):
        kappa, r = args[-1][:2] if args and rng.random() < 0.5 else (rng.choice(kappas), rng.choice(tilts))
        args.append((float(kappa), float(r), float(rng.choice(tilts))))
    return args


@pytest.mark.parametrize("prefixed", [False, True], ids=["plain", "prefix"])
@pytest.mark.parametrize("seed", range(12))
def test_evaluator_bit_identical_to_oracle(seed, prefixed):
    rng = np.random.default_rng(1000 * seed + prefixed)
    for _ in range(4):
        query = _random_query(rng, prefixed)
        for side in ("bob", "eve"):
            fast, oracle = _E0Evaluator(query, side), _OracleE0Evaluator(query, side)
            assert _bits(fast._offset) == _bits(oracle._offset)
            for kappa, r, s in _arguments(rng, 80):
                assert _outcome(fast, kappa, r, s) == _outcome(oracle, kappa, r, s), (kappa, r, s)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("prefixed", [False, True], ids=["plain", "prefix"])
def test_non_finite_values_raise_the_oracle_error(prefixed):
    rng = np.random.default_rng(7 + prefixed)
    raised = 0
    for _ in range(6):
        query = _random_query(rng, prefixed)
        for side in ("bob", "eve"):
            fast, oracle = _E0Evaluator(query, side), _OracleE0Evaluator(query, side)
            for kappa, r, s in itertools.product((0.5, 1.5), (0.0, 1e300, math.inf), (0.0, 1e300, math.inf)):
                expected = _outcome(oracle, kappa, r, s)
                assert _outcome(fast, kappa, r, s) == expected, (kappa, r, s)
                raised += isinstance(expected, tuple)
    assert raised > 0


# Channels with zeros, so a sum has one, two or three terms (or none).
_EDGE_CHANNELS = {
    "bsc": [[0.9, 0.1], [0.1, 0.9]],
    "z": [[1.0, 0.0], [0.2, 0.8]],
    "erasure": [[0.7, 0.3, 0.0], [0.0, 0.4, 0.6]],
    "ternary": [[0.6, 0.4], [0.0, 1.0], [0.3, 0.7]],
    "ternary_zeros": [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.2, 0.3, 0.5]],
}


def _edge_queries():
    # Binary and mixed pairs, with and without a prefix (one with a zero),
    # a uniform q and one with a zero, unit and 1.5e8 cost steps, binding
    # and slack caps. With 1e300 tilts, the 1.5e8 steps overflow the terms.
    for bob, eve in (("bsc", "z"), ("z", "erasure"), ("ternary", "ternary_zeros")):
        pair = WiretapPair(DiscreteChannel(_EDGE_CHANNELS[bob]), DiscreteChannel(_EDGE_CHANNELS[eve]))
        k = pair.num_inputs
        prefixes = (None, np.eye(k), [[1.0 / k] * k, [1.0] + [0.0] * (k - 1)])
        for scale, prefix in itertools.product((1.0, 1.5e8), prefixes):
            costs = scale * np.arange(k, dtype=float)
            aux = None if prefix is None else DiscreteChannel(prefix)
            v = k if aux is None else aux.num_inputs
            laws = (np.full(v, 1.0 / v), np.array([0.0] + [1.0 / (v - 1)] * (v - 1)))
            for q, slack in itertools.product(laws, (0.0, scale)):
                gamma = float(q @ (costs if aux is None else lifted_cost(aux, costs))) + slack
                yield ExponentQuery(pair, q, costs, gamma, aux=aux)


def _oracle_levels():
    # The four _oracle_lse calls of the oracle's __call__ by line: merged column, inner x-sum, outer v-sum, y-sum.
    lines, start = inspect.getsourcelines(_OracleE0Evaluator.__call__)
    sites = [start + i for i, line in enumerate(lines) if "_oracle_lse(" in line]
    assert len(sites) == 4
    return dict(zip(sites, ("merged", "inner", "outer", "final")))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_edge_queries_match_the_oracle_at_extreme_orders_and_tilts(monkeypatch):
    levels, sizes, fallbacks = _oracle_levels(), set(), set()
    plain = _oracle_lse

    def recording(vals):
        level = levels[sys._getframe(1).f_lineno]
        sizes.add((level, len(vals)))
        if len(vals) == 2 and not math.isfinite(max(vals)):
            fallbacks.add(level)
        return plain(vals)

    monkeypatch.setitem(globals(), "_oracle_lse", recording)
    kappas = (1e-310, 1e-300, 1e-3, 1.0, 1.999, 2.0)
    tilts = (0.0, 1.0, 1e300)
    raised = 0
    for query in _edge_queries():
        for side in ("bob", "eve"):
            fast, oracle = _E0Evaluator(query, side), _OracleE0Evaluator(query, side)
            for kappa, r, s in itertools.product(kappas, tilts, tilts):
                expected = _outcome(oracle, kappa, r, s)
                assert _outcome(fast, kappa, r, s) == expected, (query, side, kappa, r, s)
                raised += isinstance(expected, tuple)
    # Every level sums one, two and three terms, and takes the non-finite fallback of a two-term sum.
    assert {(level, n) for level in levels.values() for n in (1, 2, 3)} <= sizes
    assert fallbacks == set(levels.values())
    assert raised > 0


_LSE_CASES = [
    [],
    [0.0],
    [-3.5],
    [_NEG_INF],
    [0.25, -1.75],
    [-1.75, 0.25],
    [0.5, 0.5],
    [-0.0, 0.0],
    [_NEG_INF, -2.0],
    [-2.0, _NEG_INF],
    [_NEG_INF, _NEG_INF],
    [math.inf, 1.0],
    [1.0, math.inf],
    [math.inf, math.inf],
    [math.inf, _NEG_INF],
    [_NEG_INF, math.inf],
    [_NEG_INF, math.nan],
    [math.nan, _NEG_INF],
    [math.nan, 1.0],
    [1.0, math.nan],
    [-745.0, 0.0],
    [0.1, 0.2, 0.3],
    [0.3, 0.3, 0.3],
    [_NEG_INF, 0.3, _NEG_INF],
    [_NEG_INF, _NEG_INF, _NEG_INF],
    [-50.0, 1e-3, 2.0, -0.5],
]


@pytest.mark.parametrize("vals", _LSE_CASES, ids=repr)
def test_lse_bit_identical_to_oracle(vals):
    assert _bits(_lse(list(vals))) == _bits(_oracle_lse(list(vals)))


def test_lse_two_terms_bit_identical_on_random_pairs():
    rng = np.random.default_rng(3)
    pairs = rng.normal(scale=rng.choice([1e-3, 1.0, 30.0, 800.0], size=(20000, 1)), size=(20000, 2)).tolist()
    pairs += [[a, a] for a, _ in pairs[:500]]
    for pair in pairs:
        assert _bits(_lse(pair)) == _bits(_lse2(*pair)) == _bits(_oracle_lse(pair)), pair


def test_lse2_bit_identical_to_oracle_on_special_pairs():
    # The order of the two floats decides max([a, b]) when one is NaN.
    specials = [_NEG_INF, -745.0, -1.0, -0.0, 0.0, 1e-300, 2.5, 1e308, math.inf, math.nan]
    for a, b in itertools.product(specials, repeat=2):
        assert _bits(_lse2(a, b)) == _bits(_oracle_lse([a, b])), (a, b)


def test_figure_4_matches_its_golden_csvs_with_the_same_e0_calls(tmp_path, monkeypatch, capsys):
    # Figure 4's prefix curve moves past the benchmark's argmax tolerance on
    # a last-bit change of E0, so its CSVs are compared byte for byte.
    calls = 0
    plain_call = _E0Evaluator.__call__

    def counted(self, kappa, r, s):
        nonlocal calls
        calls += 1
        return plain_call(self, kappa, r, s)

    monkeypatch.setattr(_E0Evaluator, "__call__", counted)
    engine._cached_envelope.cache_clear()
    assert cli.main(["figures", "--which", "4", "--points", "17", "--out-dir", str(tmp_path)]) == 0
    files = sorted(p.name for p in tmp_path.glob("fig4_*.csv"))
    assert files == sorted(p.name for p in GOLDEN_FIGURES.glob("fig4_*.csv"))
    assert len(files) == 4
    for name in files:
        assert (tmp_path / name).read_bytes() == (GOLDEN_FIGURES / name).read_bytes(), name
    assert calls == FIGURE_4_E0_CALLS
    engine._cached_envelope.cache_clear()


def test_shared_evaluator_is_bit_identical_under_threads():
    # Threads interleave calls on one evaluator; a memo key read apart from its table would mix orders.
    rng = np.random.default_rng(11)
    queries = [_random_query(rng, prefixed) for prefixed in (False, True)]
    expected = []
    for query in queries:
        oracle = _OracleE0Evaluator(query, "eve")
        args = _arguments(rng, 1000)
        expected.append((_E0Evaluator(query, "eve"), [(a, _outcome(oracle, *a)) for a in args]))
    mismatches = []

    def worker(seed):
        order = np.random.default_rng(seed)
        for ev, cases in expected:
            for i in order.permutation(len(cases)):
                args, want = cases[i]
                if _outcome(ev, *args) != want:
                    mismatches.append(args)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
