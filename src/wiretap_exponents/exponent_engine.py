"""Cost-tilted error and resolvability exponents for finite-alphabet wiretap pairs.

The two building blocks are generalized Gallager functions with two
exponential cost tilts:

* ``gallager_e0`` (order 1+rho, legitimate channel) drives the
  reliability exponent: the best exponential decay rate of the decoding
  error probability at a total rate R_B + R_E.
* ``resolvability_e0`` (order 1-rho, tapped channel) drives the secrecy
  exponent: the decay rate of the divergence between the eavesdropper's
  output and the target output law at resolvability rate R_E.

Both accept an optional auxiliary prefix channel (V -> X); without one
the input plays both roles and the two tilts merge into a single one.
Rates and exponents are in nats per channel use throughout this module.

The supremum over (rho, r, s) is taken by a coarse scan followed by
golden-section refinement in each variable; the objective is concave in
rho for fixed tilts and concave in each tilt separately, and the scan
step guards the nesting against surprises. The inner maximum over the
tilts does not depend on the rate, so it is memoised per rate-free
(query, side), by that side's ``_E0Evaluator``, and shared by every rate,
curve and caller.
"""

import functools
import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .channel_core import (
    CostedInput,
    DiscreteChannel,
    WiretapPair,
    _binary_gap_optimum,
    _channel_pair,
    _checked,
    _cost_vector,
    _divergences,
    _finite_float,
    _frozen_array,
    _frozen_mapping,
    _info_gap,
    _simplex_gap_optimum,
    _Value,
    _whole_number,
    concatenate,
    is_more_capable,
    lifted_cost,
    mutual_information,
)
from .solvers import bisect_boundary, scan_then_golden_max

RHO_EPS = 1e-9
TILT_CAP_SCALE = 50.0
ZERO_RATE_THRESHOLD = 1e-15
ZERO_RATE_TOL = 1e-9
TRADEOFF_TOL = 1e-9
_NEG_INF = float("-inf")
# Starts, and steps per start, of the auxiliary capacity search.
AUX_STARTS = 6
AUX_ITERS = 250


def _bits(a):
    # An array by its shape and bytes: content equality for hashing.
    return None if a is None else (a.shape, a.tobytes())


def _rate(value, name):
    # Adding 0.0 turns -0.0 into 0.0, so a negative zero keys no second envelope.
    rate = _finite_float(value, name) + 0.0
    if rate < 0.0:
        raise ValueError("rates must be nonnegative")
    return rate


@dataclass(frozen=True, eq=False)
class ExponentQuery(_Value):
    """Everything an exponent evaluation needs: channels, input, costs, rates.

    ``q`` lives on the auxiliary alphabet V when ``aux`` is given and on
    the channel input alphabet X otherwise. ``costs`` is always the
    per-letter cost on X; with an auxiliary channel the input constraint
    is checked against the lifted cost, which is equivalent to checking
    the induced X distribution. ``input`` is the checked law with its
    cost on q's alphabet.

    Queries are equal when their content is: both channels' rows, ``q``,
    ``costs``, ``aux`` rows, ``gamma`` and the two rates, floats compared
    by their bits (-0.0 is stored as 0.0). The content key and its hash,
    ``tilt_caps`` (r's on the costs of X, s's on the lifted costs of V) and
    a rated query's twin with both rates 0, ``_rate_free`` (else None), the
    evaluator cache's key, are computed once, when the query is built.
    """

    pair: WiretapPair
    q: np.ndarray
    costs: np.ndarray
    gamma: float
    rate_b: float = _checked(_rate, "rate_b", default=0.0)
    rate_e: float = _checked(_rate, "rate_e", default=0.0)
    aux: DiscreteChannel | None = None
    input: CostedInput = field(init=False, repr=False)
    tilt_caps: tuple = field(init=False, repr=False)
    _rate_free: "ExponentQuery | None" = field(init=False, repr=False)
    _key: tuple = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def _validate(self):
        costs = _cost_vector(self.costs, self.pair.num_inputs)
        if self.aux is not None:
            if self.aux.num_outputs != self.pair.num_inputs:
                raise ValueError("auxiliary channel outputs must match the channel input alphabet")
            cost_on_v = lifted_cost(self.aux, costs)
        else:
            cost_on_v = costs
        law = CostedInput(self.q, cost_on_v, _finite_float(self.gamma, "cost cap") + 0.0)
        object.__setattr__(self, "q", law.probs)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "gamma", law.gamma)
        object.__setattr__(self, "input", law)
        # _tilt_cap refuses a cost spread whose cap is not a float.
        object.__setattr__(self, "tilt_caps", (_tilt_cap(costs), _tilt_cap(law.costs)))
        rated = self.rate_b != 0.0 or self.rate_e != 0.0
        object.__setattr__(self, "_rate_free", replace(self, rate_b=0.0, rate_e=0.0) if rated else None)
        key = self._content()
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def _content(self):
        aux_rows = None if self.aux is None else self.aux.rows
        arrays = (self.pair.bob.rows, self.pair.eve.rows, self.q, self.costs, aux_rows)
        return (*map(_bits, arrays), self.gamma.hex(), self.rate_b.hex(), self.rate_e.hex())

    def __eq__(self, other):
        if not isinstance(other, ExponentQuery):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def with_rates(self, rate_b=None, rate_e=None):
        return replace(
            self,
            rate_b=self.rate_b if rate_b is None else rate_b,
            rate_e=self.rate_e if rate_e is None else rate_e,
        )

    def effective_channel(self, side):
        """Channel seen from the query input: concatenated when aux is present."""
        ch = self.pair.bob if side == "bob" else self.pair.eve
        return concatenate(self.aux, ch) if self.aux is not None else ch

    def mutual_information(self, side):
        return mutual_information(self.q, self.effective_channel(side))


def _lse(vals):
    if len(vals) == 2:
        return _lse2(*vals)
    m = max(vals, default=_NEG_INF)
    return m if m == _NEG_INF else m + math.log(sum(math.exp(v - m) for v in vals))


def _lse2(a, b):
    """``_lse([a, b])`` bit for bit, from the two floats."""
    hi, lo = (b, a) if b > a else (a, b)  # hi is max([a, b])
    if math.isfinite(hi):
        # The general sum's first step 0 + exp(hi - hi) is exactly 1.0, and a two-term add commutes.
        return hi + math.log(1.0 + math.exp(lo - hi))
    # -inf, inf or NaN: the general sum, in the order (a, b).
    return hi if hi == _NEG_INF else hi + math.log(math.exp(a - hi) + math.exp(b - hi))


def _lse_lines(out, terms):
    """Source lines that set ``out`` to ``_lse([*terms])`` bit for bit.

    Two terms must be names: their sum is ``_lse2`` inline. Of the two,
    the larger is finite when it is below inf and, being larger, above
    -inf; a tie or a NaN leaves the first, which must pass both tests.
    """
    if len(terms) != 2:
        return [f"{out} = _lse([{', '.join(terms)}])"]
    a, b = terms
    return [
        f"if {b} > {a}:",
        f"    {out} = {b} + log(1.0 + exp({a} - {b})) if {b} < inf else _lse2({a}, {b})",
        "else:",
        f"    {out} = {a} + log(1.0 + exp({b} - {a})) if neg_inf < {a} < inf else _lse2({a}, {b})",
    ]


def _y_sum_lines(names):
    """Lines that set ``z`` to ``_lse`` of ``kappa * l`` over the y-sum names l, every term summed."""
    terms = [f"kappa * {name}" for name in names]
    if len(terms) != 2:
        return _lse_lines("z", terms)
    return [f"o0 = {terms[0]}", f"o1 = {terms[1]}", *_lse_lines("z", ["o0", "o1"])]


def _merged_kernel_lines(counts):
    # Floats per term (q, w, d) = (log q(x), log W(y|x), gamma - c(x)); memo (kappa, a...) with a = q + w / kappa.
    n = range(sum(counts))
    memo = ", ".join(f"a{i}" for i in n)
    head = [
        f"{''.join(f'q{i}, w{i}, d{i}, ' for i in n)}= floats",
        f"memo = (None,) * {len(n) + 1}",
        "def kernel(kappa, r, s):",
        "    nonlocal memo",
        f"    key, {memo} = memo",
        "    if key != kappa:",
        *(f"        a{i} = q{i} + w{i} / kappa" for i in n),
        f"        memo = (kappa, {memo})",
        "    t = r + s",
    ]
    body, sums, i = [], [], 0
    for y, count in enumerate(counts):
        if count:
            terms = [f"x{j}" for j in range(i, i + count)]
            body += [f"x{j} = a{j} + t * d{j}" for j in range(i, i + count)] + _lse_lines(f"ly{y}", terms)
            sums.append(f"ly{y}")
            i += count
    body += _y_sum_lines(sums)
    return head + [f"    {line}" for line in body]


def _prefix_kernel_lines(counts):
    # Floats per v (g, h) = (log q(v), gamma - cbar(v)), then per inner term
    # (p, d) = (log aux(x|v) W(y|x), gamma - c(x)). Memo (kappa, r, c...):
    # c = the inner x-sum over kappa per (y, v); a -inf one is kept, as it adds exactly 0.0 to the v-sum.
    vs, xs = range(len(counts[0])), range(sum(map(sum, counts)))
    sums = [(y, v, n) for y, row in enumerate(counts) for v, n in enumerate(row) if n]
    m = range(len(sums))
    memo = ", ".join(f"c{j}" for j in m)
    head = [
        f"{''.join(f'g{v}, h{v}, ' for v in vs)}{''.join(f'p{i}, d{i}, ' for i in xs)}= floats",
        f"memo = (None,) * {len(m) + 2}",
        "def kernel(kappa, r, s):",
        "    nonlocal memo",
        f"    key_kappa, key_r, {memo} = memo",
        "    if key_kappa != kappa or key_r != r:",
        "        kr = kappa * r",
    ]
    inner, i = [], 0
    for j, (_, _, n) in enumerate(sums):
        terms = [f"x{k}" for k in range(i, i + n)]
        inner += [f"x{k} = p{k} + kr * d{k}" for k in range(i, i + n)] + _lse_lines(f"lx{j}", terms)
        inner.append(f"c{j} = lx{j} / kappa")
        i += n
    inner.append(f"memo = (kappa, r, {memo})")
    used = sorted({v for _, v, _ in sums})
    body, outer = [f"e{v} = g{v} + s * h{v}" for v in used], []
    for y in range(len(counts)):
        row = [(v, j) for j, (y_, v, _) in enumerate(sums) if y_ == y]
        if row:
            body += [f"u{j} = e{v} + c{j}" for v, j in row] + _lse_lines(f"ly{y}", [f"u{j}" for _, j in row])
            outer.append(f"ly{y}")
    body += _y_sum_lines(outer)
    return head + [f"        {line}" for line in inner] + [f"    {line}" for line in body]


# Compiled kernels kept, one per (prefixed, support pattern), least recently used first out.
KERNEL_CACHE_SIZE = 256


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _kernel_binder(prefixed, counts):
    """Compile the straight-line E0 kernel of one support pattern and return its binder.

    ``counts`` holds term counts only, so the source is built from integers
    and no float is formatted into it. ``bind(floats, offset)`` takes an
    evaluator's floats as one flat tuple and returns its kernel, a closure
    over them and a one-entry memo: ``kernel(kappa, r, s)`` is E0 less the
    offset, and raises ``RuntimeError`` where that is not finite.
    """
    lines = (_prefix_kernel_lines if prefixed else _merged_kernel_lines)(counts) + [
        "    val = -z - offset",
        "    if neg_inf < val < inf:",
        "        return val",
        '    raise RuntimeError(',
        '        f"non-finite exponent base (kappa={kappa}, r={r}, s={s}); tilt arguments out of range"',
        "    )",
        "return kernel",
    ]
    source = "\n".join(["def bind(floats, offset):", *(f"    {line}" for line in lines)])
    namespace = {"_lse": _lse, "_lse2": _lse2, "exp": math.exp, "log": math.log, "inf": math.inf, "neg_inf": _NEG_INF}
    exec(compile(source, f"<E0 kernel {'prefixed' if prefixed else 'merged'} {counts}>", "exec"), namespace)
    return namespace["bind"]


class _E0Evaluator:
    """Precomputed log-domain evaluator for one channel side of a query.

    Evaluation runs entirely in log space (log-sum-exp at every level),
    so extreme tilt arguments degrade gracefully instead of overflowing.
    The order-1 untilted value is mathematically zero (the sums telescope
    to total probability), so it is subtracted as a normalization: the
    rho = 0 collapse is then exact and rates past the zero crossing give
    an exact zero exponent.

    The nested sums run as straight-line code, compiled once per support
    pattern (``_kernel_binder``): the term count of each y column without
    a prefix, the inner x-term count of each (y, v) with one. Each
    evaluator binds its own floats to a compiled kernel. A sum of two
    terms, at each of the four levels (merged column, inner x-sum, outer
    v-sum, y-sum), is the closed form of ``_lse2`` inline; any other
    length goes to ``_lse``. Every sum takes all of its terms: a -inf
    term adds exactly 0.0, and a NaN (from an overflow to inf) carries
    through to the final finite check, which raises.

    A one-entry memo keeps what a tilt search repeats at one order: the
    terms ``log q(x) + log W(y|x) / kappa`` keyed on kappa without a prefix,
    the inner x-sums per (y, v) keyed on (kappa, r) with one. It is replaced
    as one tuple, so concurrent callers can at worst repeat work. Every
    float is the formula's, summed in the same order, so every value is
    bit-identical to the plain nested log-sum-exp.

    It also owns its side's rate-free tilt envelope (``tilt_optimum``), so
    one evaluator per rate-free (query, side), cached by
    ``_cached_envelope``, serves every rate, curve and caller.
    """

    def __init__(self, query, side):
        rows = (query.pair.bob if side == "bob" else query.pair.eve).rows
        q = query.q
        support = [i for i in range(len(q)) if q[i] > 0.0]
        # gamma - c as Python floats: the bits numpy gives, and faster to add.
        dcs = (query.gamma - query.costs).tolist()
        outputs = range(rows.shape[1])
        if query.aux is None:
            # cols[y] = [(log q(x), log W(y|x), gamma - c(x))] over supported x
            cols = [
                [(math.log(q[x]), math.log(rows[x, y]), dcs[x]) for x in support if rows[x, y] > 0.0] for y in outputs
            ]
            counts = tuple(map(len, cols))
            floats = [f for col in cols for term in col for f in term]
        else:
            # cols[y][v] = [(log aux(x|v) W(y|x), gamma - c(x))] over x, for supported v
            def col(v, y):
                return [(math.log(p), dcs[x]) for x, p in enumerate(query.aux.rows[v] * rows[:, y]) if p > 0.0]

            dcbs = (query.gamma - query.input.costs).tolist()
            cols = [[col(v, y) for v in support] for y in outputs]
            counts = tuple(tuple(map(len, row)) for row in cols)
            floats = [f for v in support for f in (math.log(q[v]), dcbs[v])]
            floats += [f for row in cols for c in row for term in c for f in term]
        bind, floats = _kernel_binder(query.aux is not None, counts), tuple(floats)
        # The offset is the evaluator's own value at (1, 0, 0): bound at 0 to find it, then bound.
        self._offset = 0.0
        self._kernel = bind(floats, 0.0)
        self._offset = self(1.0, 0.0, 0.0)
        self._kernel = bind(floats, self._offset)
        self._caps = query.tilt_caps
        self._merged = query.aux is None
        self._memo = {}

    def __call__(self, kappa, r, s):
        return self._kernel(kappa, r, s)

    def tilt_optimum(self, kappa):
        """(max over tilts of E0 at kappa, r*, s*), memoised per kappa.

        The search is deterministic in kappa, so a hit is exactly what a fresh search computes. The memo
        is cleared at ENVELOPE_MEMO_SIZE entries; concurrent callers can at worst repeat a search.
        """
        hit = self._memo.get(kappa)
        if hit is None:
            if len(self._memo) >= ENVELOPE_MEMO_SIZE:
                self._memo.clear()
            hit = self._memo[kappa] = _max_over_tilts(self, kappa, self._caps, self._merged)
        return hit


def _check_rho(rho, secrecy):
    # Reliability takes rho in [0, 1], secrecy rho in (0, 1).
    if not (0.0 < rho < 1.0 if secrecy else 0.0 <= rho <= 1.0):
        raise ValueError(f"rho must be in {'(0, 1)' if secrecy else '[0, 1]'}, got {rho}")


def _kappa(side, rho):
    # The tilt order: 1 + rho on bob's side, 1 - rho on eve's.
    return 1.0 + rho if side == "bob" else 1.0 - rho


def _tilted_e0(side, rho, query, r, s):
    _check_rho(rho, secrecy=side == "eve")
    r, s = _finite_float(r, "tilt r"), _finite_float(s, "tilt s")
    if r < 0.0 or s < 0.0:
        raise ValueError("tilt parameters must be nonnegative")
    return _envelope(query, side)(_kappa(side, rho), r, s)


def gallager_e0(rho, query, r=0.0, s=0.0):
    """Cost-tilted Gallager function of order 1+rho for the legitimate channel."""
    return _tilted_e0("bob", rho, query, r, s)


def resolvability_e0(rho, query, r=0.0, s=0.0):
    """Cost-tilted resolvability exponent base of order 1-rho for the tapped channel."""
    return _tilted_e0("eve", rho, query, r, s)


@dataclass(frozen=True)
class ExponentOptimum(_Value):
    """Optimizer output for one rate point."""

    value: float
    raw: float
    rho: float
    r: float
    s: float


def _tilt_cap(costs):
    # TILT_CAP_SCALE over the cost spread, or 0 when every cost is equal; ValueError when that is not a float.
    spread = float(costs.max() - costs.min())
    cap = TILT_CAP_SCALE / spread if spread > 0.0 else 0.0
    if cap == math.inf:
        raise ValueError(f"cost spread {spread!r} is too small for a finite tilt cap")
    return cap


_PROBE_STEP = 1e-7


def _max_over_tilts(ev, kappa, caps, merged):
    # The negated objective is a nest of log-sum-exps of affine maps of
    # (r, s), hence convex: the objective is jointly concave in the
    # tilts. A probe step away from the origin therefore certifies an
    # origin optimum (up to O(step^2) curvature error) and skips the
    # nested search, which is the common case: whenever the input law
    # meets the cost cap the tilt gradient at the origin is nonpositive.
    r_max, s_max = caps
    sweeps, scan_points, tol = 3, 7, 1e-8
    if merged:
        # Without a prefix E0 depends on r + s only: one tilt t = r + s,
        # reported as r, searched in one finer sweep.
        r_max, s_max = r_max + s_max, 0.0
        sweeps, scan_points, tol = 1, 9, 1e-9
    v00 = ev(kappa, 0.0, 0.0)
    # A zero cap gives a zero step, which probes nothing: with both caps zero the origin is returned at once.
    hr, hs = min(_PROBE_STEP, 0.5 * r_max), min(_PROBE_STEP, 0.5 * s_max)
    if (
        (hr == 0.0 or ev(kappa, hr, 0.0) <= v00)
        and (hs == 0.0 or ev(kappa, 0.0, hs) <= v00)
        and (hr == 0.0 or hs == 0.0 or ev(kappa, hr, hs) <= v00)
    ):
        return v00, 0.0, 0.0

    # Joint concavity and smoothness make coordinate ascent converge to
    # the global tilt optimum, but the prefix sweep count is fixed at three
    # and three do not always get there: on figure 4's prefix query (aux =
    # BSC(0.025)) they stop short, leaving eve's envelope low by up to
    # 2e-4. Sweeping to convergence is ROADMAP item 4, which re-records
    # figure 4's golden outputs.
    r_star = s_star = 0.0
    val = v00
    for _ in range(sweeps):
        if r_max > 0.0:
            r_star, val = scan_then_golden_max(
                lambda r: ev(kappa, r, s_star), 0.0, r_max, scan_points=scan_points, tol=tol
            )
        if s_max > 0.0:
            s_star, val = scan_then_golden_max(
                lambda s: ev(kappa, r_star, s), 0.0, s_max, scan_points=scan_points, tol=tol
            )
    return val, r_star, s_star


# At most this many (query, side) evaluators are kept, least recently
# used first out, each with at most ENVELOPE_MEMO_SIZE memoised kappas
# (about 150 bytes each): under 20 MB in all.
ENVELOPE_CACHE_SIZE = 32
ENVELOPE_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=ENVELOPE_CACHE_SIZE)
def _cached_envelope(query, side):
    """The one evaluator, with its tilt envelope, of a rate-free (query, side)."""
    return _E0Evaluator(query, side)


def _envelope(query, side):
    """The shared evaluator of (query, side), keyed on the rate-free query; at most ENVELOPE_CACHE_SIZE are kept."""
    return _cached_envelope(query._rate_free or query, side)


def _optimize(query, side, rate):
    """sup over rho of the signed exponent objective at one rate."""
    tilt_optimum = _envelope(query, side).tilt_optimum
    sign = -1.0 if side == "bob" else 1.0

    def objective(rho):
        return tilt_optimum(_kappa(side, rho))[0] + sign * rho * rate

    lo, hi = (0.0, 1.0) if side == "bob" else (RHO_EPS, 1.0 - RHO_EPS)
    rho_star, raw = scan_then_golden_max(objective, lo, hi, scan_points=17, tol=1e-10)
    # A memo hit, or after a memo clear the same floats again: the tilt search is deterministic in kappa.
    _, r_star, s_star = tilt_optimum(_kappa(side, rho_star))
    return ExponentOptimum(max(raw, 0.0), raw, rho_star, r_star, s_star)


def reliability_optimum(query):
    """Reliability exponent at rate_b + rate_e with optimizer diagnostics."""
    return _optimize(query, "bob", query.rate_b + query.rate_e)


def secrecy_optimum(query):
    """Secrecy exponent at rate_e with optimizer diagnostics."""
    return _optimize(query, "eve", query.rate_e)


def reliability_exponent(query):
    """Best exponential decay rate of Bob's decoding error at rate_b + rate_e.

    Zero at and beyond the mutual information of the effective channel;
    positive, decreasing, and convex below it.
    """
    return reliability_optimum(query).value


def secrecy_exponent(query):
    """Best decay rate of the eavesdropper divergence at resolvability rate rate_e.

    Zero at and below the tapped channel's mutual information; positive,
    increasing, and convex above it.
    """
    return secrecy_optimum(query).value


@dataclass(frozen=True, eq=False)
class ExponentCurve(_Value):
    """Ordered (rate, exponent) samples with optimizer diagnostics.

    Rates and exponents must be finite, rates strictly increasing and
    exponents nonnegative (within 1e-12); ``meta`` carries the function
    name, parameters, and per-point argmax values of (rho, r, s) plus the
    raw unclamped objective, as a read-only mapping whose list values are
    stored as tuples.
    """

    rates: np.ndarray = _checked(_frozen_array, "rates")
    exponents: np.ndarray = _checked(_frozen_array, "exponents")
    meta: MappingProxyType | None = _checked(_frozen_mapping, default=None)

    def _validate(self):
        rates, exponents = self.rates, self.exponents
        if rates.ndim != 1 or rates.shape != exponents.shape:
            raise ValueError("rates and exponents must be matching 1-D arrays")
        if rates.size >= 2 and np.any(np.diff(rates) <= 0.0):
            raise ValueError("rates must be strictly increasing")
        if np.any(exponents < -1e-12):
            raise ValueError("exponents must be nonnegative")

    def __len__(self):
        return int(self.rates.size)


def _curve(query, side, rates, name, offset=0.0):
    rates = np.asarray(rates, dtype=np.float64)
    if not np.all(np.isfinite(rates + offset)):
        raise ValueError("rates must be finite")
    opts = [_optimize(query, side, float(rate) + offset) for rate in rates]
    meta = {
        "function": name,
        "offset": offset,
        "gamma": query.gamma,
        "q": query.q.tolist(),
        "argmax_rho": [opt.rho for opt in opts],
        "argmax_r": [opt.r for opt in opts],
        "argmax_s": [opt.s for opt in opts],
        "raw": [opt.raw for opt in opts],
        "tilt_caps": query.tilt_caps,
    }
    return ExponentCurve(rates, [opt.value for opt in opts], meta)


def reliability_curve(query, rates):
    """Reliability exponent sampled over total rates (nats per use)."""
    return _curve(query, "bob", rates, "reliability")


def secrecy_curve(query, rates):
    """Secrecy exponent sampled over resolvability rates (nats per use)."""
    return _curve(query, "eve", rates, "secrecy")


def reliability_zero_rate(query):
    """Rate at which the reliability exponent vanishes.

    Located by bisection on the rate axis with a near-machine positivity
    threshold; agrees with the effective channel's mutual information to
    roughly the square root of the threshold times the curvature.
    """
    info = query.mutual_information("bob")
    if info <= 0.0:
        return 0.0
    hi = 1.05 * info + 0.01
    # bisect_boundary's first test is rate 0, where it returns 0.0 if the exponent vanishes there already.
    return bisect_boundary(
        lambda rate: _optimize(query, "bob", rate).value < ZERO_RATE_THRESHOLD, 0.0, hi, tol=ZERO_RATE_TOL
    )


def secrecy_zero_rate(query):
    """Largest rate at which the secrecy exponent is still zero."""
    info = query.mutual_information("eve")
    hi = 1.05 * info + 0.01
    if _optimize(query, "eve", hi).value <= ZERO_RATE_THRESHOLD:
        return hi
    return bisect_boundary(
        lambda rate: _optimize(query, "eve", rate).value > ZERO_RATE_THRESHOLD, 0.0, hi, tol=ZERO_RATE_TOL
    )


@dataclass(frozen=True, eq=False)
class CapacityResult(_Value):
    """Secrecy capacity search outcome.

    ``heuristic`` marks values that are lower bounds from a local search
    over an auxiliary alphabet (pairs that are not more capable). Without
    it the value is a scan certificate for two letters; for more letters
    it is one local ascent of the gap, a certificate only where the gap is
    concave (less-noisy pairs, van Dijk 1997).
    """

    value: float = _checked(_finite_float, "capacity value")
    input_law: np.ndarray = _checked(_frozen_array, "input law")
    aux: DiscreteChannel | None
    more_capable: bool
    heuristic: bool
    min_info_gap: float = _checked(_finite_float, "min info gap")


def _feasible_binary_interval(costs, gamma):
    c0, c1 = float(costs[0]), float(costs[1])
    if min(c0, c1) > gamma:
        raise ValueError(f"cost cap {gamma} below the cheapest letter cost {min(c0, c1)}")
    if c1 == c0:
        return 0.0, 1.0
    if c1 > c0:
        return 0.0, min(1.0, (gamma - c0) / (c1 - c0))
    return max(0.0, (c0 - gamma) / (c0 - c1)), 1.0


def _best_input_binary(pair, costs, gamma):
    lo, hi = _feasible_binary_interval(costs, gamma)
    return _binary_gap_optimum(pair.bob.rows, pair.eve.rows, lo, hi, 1.0)


def _best_input_gradient(pair, costs, gamma):
    return _simplex_gap_optimum(pair.bob.rows, pair.eve.rows, costs, gamma, 1.0)


def _softmax(logits):
    # Over the last axis.
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _aux_search(pair, costs, gamma, aux_dim, seed):
    """Local search over (input law on V, auxiliary channel V->X).

    Softmax parametrization keeps both simplexes valid; infeasible cost
    points are skipped, so the returned value is a feasible lower bound.
    When no sampled point meets the cap (it sits at or just above the
    cheapest cost), every V letter is sent to a cheapest letter, which
    meets any allowed cap, with gap 0.
    """
    k = pair.num_inputs
    rng = np.random.default_rng(seed)
    # The effective channels V->Y and V->Z: one broadcast product when the pair is stacked.
    channels = _channel_pair(pair.bob.rows, pair.eve.rows)
    stacked = isinstance(channels, np.ndarray)

    def decode(theta):
        return _softmax(theta[:aux_dim]), _softmax(theta[aux_dim:].reshape(aux_dim, k))

    def value(theta):
        qv, rows = decode(theta)
        if float(qv @ rows @ costs) > gamma + 1e-12:
            return -math.inf
        return _info_gap(qv, rows @ channels if stacked else (rows @ channels[0], rows @ channels[1]))

    dim = aux_dim + aux_dim * k
    best = (-math.inf, None, None)
    for _ in range(AUX_STARTS):
        theta = rng.normal(scale=0.5, size=dim)
        val = value(theta)
        step = 0.5
        for _ in range(AUX_ITERS):
            cand = theta + rng.normal(scale=step, size=dim)
            v = value(cand)
            if v > val:
                theta, val = cand, v
            else:
                step *= 0.95
                if step < 1e-4:
                    break
        if val > best[0]:
            best = (val, *decode(theta))
    if best[1] is None:
        rows = np.zeros((aux_dim, k))
        rows[:, int(np.argmin(costs))] = 1.0
        return 0.0, np.full(aux_dim, 1.0 / aux_dim), rows
    return best


def secrecy_capacity(pair, costs, gamma, aux_dim=2, seed=0):
    """Largest rate with both vanishing error and vanishing divergence.

    For more-capable pairs the optimization runs over input laws only
    (exhaustive 1-D scan on binary alphabets, otherwise projected
    gradient ascent on the exact gradient from the best law of the
    check's simplex grid within the cap). Otherwise a local
    search over an auxiliary alphabet of size ``aux_dim`` produces a
    lower bound flagged as heuristic. By the support lemma |V| <= |X|
    suffices without a cost (Csiszar and Korner 1978; El Gamal and Kim
    2011, Thm 22.1) and the one cost constraint can add one letter; a
    smaller ``aux_dim`` searches fewer channels, still a lower bound.
    ``seed`` drives only that auxiliary search.

    Costs must be finite, nonnegative and one per input letter, the cap
    ``gamma`` finite and at least the cheapest cost, and ``aux_dim`` a
    whole number of at least 1 (for every pair); otherwise ValueError.
    """
    aux_dim = _whole_number(aux_dim, "auxiliary alphabet size")
    if aux_dim < 1:
        raise ValueError(f"auxiliary alphabet size must be at least 1, got {aux_dim}")
    costs = _cost_vector(costs, pair.num_inputs)
    gamma = _finite_float(gamma, "cost cap")
    if gamma < costs.min():
        raise ValueError(f"cost cap {gamma} below the cheapest letter cost {costs.min()}")
    mc = is_more_capable(pair)
    if mc.holds:
        if pair.num_inputs == 2:
            q, best = _best_input_binary(pair, costs, gamma)
        else:
            q, best = _best_input_gradient(pair, costs, gamma)
        return CapacityResult(float(max(best, 0.0)), q, None, True, False, mc.min_gap)
    best, qv, rows = _aux_search(pair, costs, gamma, aux_dim, seed)
    return CapacityResult(float(max(best, 0.0)), qv, DiscreteChannel(rows), False, True, mc.min_gap)


@dataclass(frozen=True)
class TradeoffScenario(_Value):
    """One swept scenario: paired exponent curves plus structural checks.

    ``checks`` is a read-only mapping of check names to (ok, worst_slack); a
    failed check is reported here rather than raised, so callers can render
    the report. It takes no part in the hash.
    """

    label: str
    reliability: ExponentCurve
    secrecy: ExponentCurve
    checks: MappingProxyType = _checked(_frozen_mapping, default=None, hash=False)

    @property
    def ok(self):
        return all(flag for flag, _ in self.checks.values())


def rate_windows(query, points, margin):
    """Reliability and secrecy rate grids of ``points`` rates each.

    Reliability spans [margin, 1 - margin] times Bob's mutual information.
    Secrecy starts at 1 + margin times Eve's and reaches past the
    reliability zero, so paired curves show their crossing.
    """
    info_b = query.mutual_information("bob")
    if not info_b > 0.0:
        raise ValueError(f"Bob's mutual information {info_b} at this input law is not positive: no rate window")
    info_e = query.mutual_information("eve")
    f_rates = np.linspace(margin * info_b, (1.0 - margin) * info_b, points)
    h_hi = min(info_e + 1.0, max(2.0 * info_e, 1.02 * info_b))
    h_rates = np.linspace((1.0 + margin) * info_e, h_hi, points)
    return f_rates, h_rates


def _knot_difference(f, h):
    """f - h, exact at the knots of either curve inside the overlap of their rate windows, in rate order."""
    rates = np.sort(np.concatenate((f.rates, h.rates)))
    rates = rates[(rates >= max(f.rates[0], h.rates[0])) & (rates <= min(f.rates[-1], h.rates[-1]))]
    return np.interp(rates, f.rates, f.exponents) - np.interp(rates, h.rates, h.exponents)


def ordered_curves(hi, lo):
    """(ok, slack): ``hi >= lo`` to TRADEOFF_TOL on the overlap of the two rate windows.

    The slack is the minimum of ``_knot_difference``: pointwise on a shared rate grid, exact for the
    piecewise-linear curves on different grids. Windows that do not overlap give (False, -inf).
    """
    diff = _knot_difference(hi, lo)
    slack = float(diff.min()) if diff.size else _NEG_INF
    return slack >= -TRADEOFF_TOL, slack


# Per mechanism: the reference each swept scenario is checked against
# ("base", "previous" scenario, or "previous swept" one, so that the first
# swept scenario has no checks), then the name and direction of the
# reliability check and of the secrecy check. A curve that "rises" lies
# on or above its reference, one that "falls" on or below it, and an
# "identical" one equals it bit for bit.
SWEEP_CHECKS = {
    "rate_shift": (
        "previous",
        ("reliability_nonincreasing_in_shift", "falls"),
        ("secrecy_nondecreasing_in_shift", "rises"),
    ),
    "rate_exchange": ("base", ("reliability_invariant", "identical"), ("secrecy_nondecreasing_in_shift", "rises")),
    "concatenate": ("base", ("reliability_drops", "falls"), ("secrecy_rises", "rises")),
    "cost_change": (
        "previous swept",
        ("reliability_nondecreasing_in_cap", "rises"),
        ("secrecy_nonincreasing_in_cap", "falls"),
    ),
}
MECHANISMS = tuple(SWEEP_CHECKS)


def _sweep_check(direction, curve, reference):
    if direction == "identical":
        diff = float(np.max(np.abs(curve.exponents - reference.exponents)))
        return diff == 0.0, -diff
    if direction == "rises":
        return ordered_curves(curve, reference)
    return ordered_curves(reference, curve)


def _swept_queries(query, mechanism, sweep):
    """(label, query, reliability rate offset, secrecy rate offset) per sweep value."""
    if mechanism == "rate_shift":
        return [(f"shift+{delta:g}", query, delta, delta) for delta in sweep]
    if mechanism == "rate_exchange":
        return [(f"exchange+{delta:g}", query, 0.0, delta) for delta in sweep]
    rates = {"rate_b": query.rate_b, "rate_e": query.rate_e}
    if mechanism == "concatenate":
        if query.pair.num_inputs != 2 or query.aux is not None:
            raise ValueError("concatenation sweeps are defined for binary non-concatenated queries")
        p1 = float(query.q[1])
        swept = []
        for eps in sweep:
            a, b = 1.0 - eps, eps
            if a == b:
                raise ValueError("a crossover-0.5 prefix sends every input law to (0.5, 0.5), so no law on V induces q")
            qv1 = (p1 - b) / (a - b)
            if not 0.0 <= qv1 <= 1.0:
                raise ValueError(f"input law q(1)={p1} is not reachable through a crossover-{eps} prefix")
            aux = DiscreteChannel.bsc(eps)
            q_plus = ExponentQuery(query.pair, [1.0 - qv1, qv1], query.costs, query.gamma, aux=aux, **rates)
            swept.append((f"prefix_bsc_{eps:g}", q_plus, 0.0, 0.0))
        return swept
    if query.pair.num_inputs != 2:
        raise ValueError("cost_change sweeps re-fit the input law and need binary inputs")
    caps = list(sweep)
    if sorted(caps) != caps:
        raise ValueError("cost_change sweep must be ascending")
    swept = []
    for cap in caps:
        q_fit, _ = _best_input_binary(query.pair, query.costs, cap)
        swept.append((f"cap_{cap:g}", ExponentQuery(query.pair, q_fit, query.costs, cap, **rates), 0.0, 0.0))
    return swept


def tradeoff_scenarios(query, mechanism, sweep, points=21):
    """Generate paired exponent curves under one of four control mechanisms.

    * ``rate_shift``: move the resolvability rate by each offset in the
      sweep while the coding rate stays put; reliability drops, secrecy
      rises.
    * ``rate_exchange``: trade coding rate for resolvability rate at a
      fixed sum; the reliability curve must be bit-identical while the
      secrecy curve shifts.
    * ``concatenate``: prefix a binary symmetric auxiliary channel with
      each crossover in the sweep, holding the induced input law fixed;
      reliability can only fall and secrecy only rise.
    * ``cost_change``: re-fit the info-gap-maximizing input to each cost
      cap in the ascending sweep; reliability is nondecreasing and
      secrecy nonincreasing in the cap at fixed rates.

    Every swept scenario carries the two checks of ``SWEEP_CHECKS``; the
    orderings are ``ordered_curves`` on the shared rate grids, so they
    compare the curves pointwise. Returns a list of TradeoffScenario; the first entry
    is the baseline.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}; expected one of {MECHANISMS}")
    swept = _swept_queries(query, mechanism, sweep)
    f_rates, h_rates = rate_windows(query, points, margin=0.05)
    reference, (f_name, f_dir), (h_name, h_dir) = SWEEP_CHECKS[mechanism]

    def scenario(label, qy, ref=None, f_offset=0.0, h_offset=0.0):
        f = _curve(qy, "bob", f_rates, "reliability", offset=f_offset)
        h = _curve(qy, "eve", h_rates, "secrecy", offset=h_offset)
        checks = {}
        if ref is not None:
            checks = {
                f_name: _sweep_check(f_dir, f, ref.reliability),
                h_name: _sweep_check(h_dir, h, ref.secrecy),
            }
        return TradeoffScenario(label, f, h, checks)

    scenarios = [scenario("base", query)]
    for i, (label, qy, f_offset, h_offset) in enumerate(swept):
        ref = {"base": scenarios[0], "previous": scenarios[-1], "previous swept": scenarios[-1] if i else None}
        scenarios.append(scenario(label, qy, ref[reference], f_offset, h_offset))
    return scenarios
