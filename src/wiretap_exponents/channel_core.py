"""Finite-alphabet channel and cost primitives.

Row-stochastic transition matrices, cost-constrained input distributions,
mutual information, channel concatenation, and a numerical more-capable
check. Everything here is immutable after construction and all operations
are pure functions, so concurrent use needs no coordination. Every value
type of the package derives from ``_Value``, declared here.

Alphabets in this package are tiny (at most 16 letters), so probabilities
are stored as dense row-major float64 matrices.
"""

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from types import MappingProxyType

import numpy as np

from .solvers import bisect_boundary, golden_max

PROB_TOL = 1e-12
MORE_CAPABLE_TOL = 1e-9
# The binary more-capable and capacity scans: this many grid laws, scored in one stacked call.
BINARY_SCAN_POINTS = 1001
# A gap scored in a stack differs from its one-law value by a few ulps of its
# terms: at most 4.4e-16 over 400 random pairs with up to 16 outputs, and below
# 1e-12 even where every log is at the float range's end (|log| <= 745).
STACK_DRIFT = 1e-12
# The k > 2 more-capable grid, scored SIMPLEX_BLOCK laws per array pass.
SIMPLEX_RESOLUTION = 24
SIMPLEX_BUDGET = 150_000
SIMPLEX_BLOCK = 256
# Steps of the k > 2 gap search, and the largest lam and lam * cost that _project_feasible forms.
GRADIENT_ITERS = 2000
LAM_COST_MAX = 1e300
_TINY = np.finfo(np.float64).tiny


def _frozen_array(values, name="array"):
    """A read-only float64 copy of ``values``; rejects NaN, inf, None and what is not numbers."""
    if values is None:  # numpy would read it as NaN
        raise ValueError(f"{name} must be an array of numbers, got None")
    try:
        a = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # a ragged nesting, a string, an int past the float range
        raise ValueError(f"{name} must be an array of numbers ({exc})") from exc
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite, got {a}")
    a.flags.writeable = False
    return a


def _finite_float(value, name="value"):
    """``value`` as a float; rejects NaN, inf and what is not a number."""
    try:
        x = float(value)
    except TypeError as exc:
        raise ValueError(f"{name} must be a number, got {value!r}") from exc
    except OverflowError as exc:
        raise ValueError(f"{name} must be finite, got an int past the float range") from exc
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def _whole_number(value, name):
    """``value`` as an int; rejects a float that is not a whole number (NaN and inf included)."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be a finite whole number, got {value}")
    return int(value)


def _frozen_mapping(mapping):
    """A read-only copy of ``mapping`` (None reads as empty) whose list values are stored as tuples."""
    return MappingProxyType({k: tuple(v) if isinstance(v, list) else v for k, v in (mapping or {}).items()})


def _checked(check, *args, **options):
    """A ``_Value`` field that the constructor stores as ``check(value, *args)``; ``options`` go to ``field``."""
    return field(metadata={"check": (check, args)}, **options)


@functools.cache
def _layout(cls):
    # A value type's constructor arguments, and its checked fields with their checks, in field order.
    declared = fields(cls)
    checks = [(f.name, *f.metadata["check"]) for f in declared if "check" in f.metadata]
    return [f.name for f in declared if f.init], checks


def _rebuild(self):
    # Pickle and deepcopy go through the constructor, which checks the copy and
    # freezes it again. A read-only mapping does not pickle: it goes back as a dict.
    args = (getattr(self, name) for name in _layout(type(self))[0])
    return type(self), tuple(dict(a) if isinstance(a, MappingProxyType) else a for a in args)


class _Value:
    """Base of every value type: a frozen dataclass, built and copied one way.

    The constructor stores each ``_checked`` field as its check's result, in
    field order, then runs ``_validate`` for the rules that span fields.
    Pickle and deepcopy rebuild through the constructor.
    """

    def __post_init__(self):
        for name, check, args in _layout(type(self))[1]:
            object.__setattr__(self, name, check(getattr(self, name), *args))
        self._validate()

    def _validate(self):
        """The rules that span fields; a type with any overrides this."""

    __reduce__ = _rebuild


def _laws(values, name="distribution", ndim=1):
    """A read-only, finite float64 copy of one law (ndim 1) or a non-empty stack of laws (ndim 2).

    Every entry must lie in [0, 1] and every law must sum to 1, both within PROB_TOL.
    """
    a = _frozen_array(values, name)
    if a.ndim != ndim or a.size == 0:
        raise ValueError(f"{name} must be a non-empty {ndim}-D array, got shape {a.shape}")
    if (a < -PROB_TOL).any() or (a > 1.0 + PROB_TOL).any():
        raise ValueError(f"{name} has entries outside [0, 1]: {a}")
    sums = a.sum(axis=-1)
    if (np.abs(sums - 1.0) > PROB_TOL).any():
        raise ValueError(f"{name} must sum to 1 within {PROB_TOL} in every law, got sums {sums}")
    return a


def _cost_vector(costs, k):
    """Per-letter costs as a read-only vector of length k; rejects NaN, inf and negative costs."""
    costs = _frozen_array(costs, "costs")
    if costs.shape != (k,):
        raise ValueError(f"costs length does not match the input alphabet: shape {costs.shape}, {k} letters")
    if np.any(costs < 0.0):
        raise ValueError("costs must be nonnegative")
    return costs


@dataclass(frozen=True, eq=False)
class DiscreteChannel(_Value):
    """A discrete memoryless channel W(output | input).

    Parameters
    ----------
    rows : array_like, shape (num_inputs, num_outputs)
        Conditional probabilities; every row must sum to 1 within 1e-12
        and every entry must lie in [0, 1].
    """

    rows: np.ndarray = _checked(_laws, "channel matrix", 2)

    @property
    def num_inputs(self):
        return self.rows.shape[0]

    @property
    def num_outputs(self):
        return self.rows.shape[1]

    @classmethod
    def bsc(cls, eps):
        """Binary symmetric channel with crossover probability eps."""
        if not 0.0 <= eps <= 1.0:
            raise ValueError(f"crossover probability must be in [0, 1], got {eps}")
        return cls([[1.0 - eps, eps], [eps, 1.0 - eps]])

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n))

    def __repr__(self):
        return f"DiscreteChannel({self.rows.tolist()})"


@dataclass(frozen=True, eq=False)
class CostedInput(_Value):
    """Input distribution with a per-letter cost and an average-cost cap.

    The constructor rejects inputs whose expected cost exceeds the cap
    ``gamma`` (beyond a 1e-12 slack); downstream exponent formulas assume
    the constraint holds.
    """

    probs: np.ndarray = _checked(_laws, "input distribution")
    costs: np.ndarray = _checked(_frozen_array, "costs")
    gamma: float = _checked(_finite_float, "cost cap")

    def _validate(self):
        _cost_vector(self.costs, self.probs.shape[0])  # one cost per letter, none negative
        if self.gamma < 0.0:
            raise ValueError(f"cost cap must be nonnegative, got {self.gamma}")
        if self.expected_cost > self.gamma + PROB_TOL:
            raise ValueError(f"expected cost {self.expected_cost} exceeds cap {self.gamma}")

    @property
    def expected_cost(self):
        return float(self.probs @ self.costs)


@dataclass(frozen=True)
class WiretapPair(_Value):
    """A pair of channels sharing one input: ``bob`` legitimate, ``eve`` tapped."""

    bob: DiscreteChannel
    eve: DiscreteChannel

    def _validate(self):
        if self.bob.num_inputs != self.eve.num_inputs:
            raise ValueError(
                f"channels must share the input alphabet: {self.bob.num_inputs} vs {self.eve.num_inputs}"
            )

    @property
    def num_inputs(self):
        return self.bob.num_inputs


def _mutual_informations(q, rows):
    """I(q, W) in nats for one law (shape (k,)) or a stack of laws (shape (n, k)); unvalidated, q >= 0, sum 1.

    One law may also take a stack of channels (shape (c, k, m)), each
    scored with the bits of its own call.

    When every channel entry is at least the least normal float, so is
    every output marginal qW(y) >= min_x W(y|x) of a law that sums to 1,
    and every ratio W(y|x) / qW(y) is finite and positive, so no term
    needs a mask: a letter with q(x) = 0 gives a signed-zero term, which
    changes no nonzero sum, and the maximum with 0.0 turns a -0.0 sum
    into +0.0. Those are the bits of ``_masked_informations``, which
    scores every other channel (zero, tiny, below-zero or NaN entries).
    A law with an entry below zero would make a negative joint, which
    only the mask leaves out: every search law is at least zero, and
    ``mutual_information``, whose checked law may dip below zero within
    PROB_TOL, calls the masked kernel.

    numpy multiplies one law and a stack through different BLAS routines,
    so a law's value in a stack can differ from its own in the last bit.
    """
    marginal = (q @ rows)[..., None, :]
    if not np.minimum.reduce(rows, axis=None) >= _TINY:
        return _masked_informations(q, rows, marginal)
    ratio = rows / marginal
    np.log(ratio, out=ratio)
    ratio *= q[..., :, None] * rows
    return np.maximum(np.add.reduce(ratio.reshape(ratio.shape[:-2] + (-1,)), axis=-1), 0.0)


def _masked_informations(q, rows, marginal):
    """``_mutual_informations`` for any law and channel within PROB_TOL of the simplex.

    ``marginal`` is the output law qW with an axis for the input letter,
    ``(q @ rows)[..., None, :]``.

    A term counts only where its joint mass q(x) W(y|x) is positive. There
    the ratio W(y|x) / qW(y) is positive: the output marginal is at least
    the joint, unless an entry below zero (within PROB_TOL) pulls it to
    zero or below, and then W(y|x) is divided by 1 instead. A ratio that
    would overflow (a subnormal marginal) takes the term as joint * (log W
    - log qW). Every other ratio is set to 1, whose term is +0.0. No
    division by zero, overflow or log of zero or of a negative number
    happens, so no floating-point state needs silencing. The terms are
    summed in row-major order, the order the values of this package were
    recorded with.
    """
    joint = q[..., :, None] * rows
    mask = joint > 0.0
    denominator = np.where(mask & (marginal > 0.0), marginal, 1.0)
    # W / d rounds to inf exactly when W >= d 2^1024 (compared scaled), so only for a subnormal d.
    if subnormal := np.minimum.reduce(denominator, axis=None) < _TINY:
        over = rows * 2.0**-60 >= denominator * 2.0**964
        tiny_marginals = denominator[over]
        denominator[over] = 1.0
    ratio = rows / denominator
    ratio[~mask] = 1.0
    np.log(ratio, out=ratio)
    if subnormal:
        ratio[over] -= np.log(tiny_marginals)
    ratio *= joint
    return np.maximum(np.add.reduce(ratio.reshape(ratio.shape[:-2] + (-1,)), axis=-1), 0.0)


def _divergences(rows, ref):
    """D(row || ref) in nats for one law or each of a stack; unvalidated, zeros in ref floored at the least normal."""
    # One work array updated in place: a fresh array per step cost ensemble_sim's block loops 20x the page faults.
    positive = rows > 0.0
    terms = np.where(positive, rows, 1.0)
    np.log(terms, out=terms)
    terms -= np.log(np.maximum(ref, _TINY))
    terms *= rows
    terms[~positive] = 0.0
    return terms.sum(axis=-1)


def mutual_information(q, channel):
    """Mutual information I(q, W) in nats between input q and the channel output.

    Terms with W(y|x) = 0 contribute zero. Both laws are checked, so an
    output marginal is positive wherever the joint mass is.
    """
    q = _laws(q, "input distribution")
    W = channel.rows
    if q.shape[0] != W.shape[0]:
        raise ValueError(f"input dimension {q.shape[0]} does not match channel inputs {W.shape[0]}")
    # A checked law may hold entries just below zero (within PROB_TOL): the masked kernel leaves them out.
    return float(_masked_informations(q, W, (q @ W)[None, :]))


def concatenate(aux, channel):
    """Prepend an auxiliary channel: (aux: V->X) then (channel: X->Y) gives V->Y."""
    if aux.num_outputs != channel.num_inputs:
        raise ValueError(
            f"auxiliary outputs {aux.num_outputs} do not match channel inputs {channel.num_inputs}"
        )
    return DiscreteChannel(aux.rows @ channel.rows)


def lifted_cost(aux, costs):
    """Pull a per-letter cost on X back through an auxiliary channel V->X.

    The lifted cost keeps expectations intact: for any input law q on V,
    E_q[lifted] equals the expected original cost of the induced X.
    """
    return aux.rows @ _cost_vector(costs, aux.num_outputs)


@dataclass(frozen=True, eq=False)
class MoreCapableResult(_Value):
    """Outcome of the numerical more-capable scan."""

    holds: bool = _checked(bool)
    worst_input: np.ndarray = _checked(_frozen_array, "worst input")
    min_gap: float = _checked(_finite_float, "min gap")

    def __bool__(self):
        return self.holds


def _channel_pair(bob_rows, eve_rows):
    """The channels of ``_info_gap``: one (2, k, m) stack when the output alphabets match, else (bob, eve).

    A search builds it once and passes it to every gap it scores.
    """
    if bob_rows.shape == eve_rows.shape:
        return np.array((bob_rows, eve_rows))
    return bob_rows, eve_rows


def _info_gap(q, channels):
    """I(q, W_bob) - I(q, W_eve) for one law or a stack of laws; unvalidated, q >= 0.

    ``channels`` is ``_channel_pair(bob, eve)``. One law on a stack is one
    kernel call, with the bits of two. A stack of laws, whose arrays
    outweigh a call's overhead, or channels with different output
    alphabets take a call per channel.
    """
    if q.ndim == 1 and isinstance(channels, np.ndarray):
        info = _mutual_informations(q, channels)
        return info[0] - info[1]
    bob_rows, eve_rows = channels
    return _mutual_informations(q, bob_rows) - _mutual_informations(q, eve_rows)


def _binary_gap_optimum(bob, eve, lo, hi, sign):
    """(law, gap) at the binary law [1 - t, t], t in [lo, hi], maximising sign * gap; sign -1.0 finds the minimum.

    ``solvers.scan_then_golden_max`` with the scan scored in one stacked
    call, and the same bits. The grid holds the same floats. A stacked
    value can differ from its one-law value in the last bits, so every
    cell within STACK_DRIFT of the stacked best is re-scored one law at a
    time, and the first best of those is the scan's first best; golden
    section then scores the bracket ends one law at a time too.
    """
    channels = _channel_pair(bob, eve)

    def gap(t):
        return sign * _info_gap(np.array([1.0 - t, t]), channels)

    if hi <= lo:
        t_star, best = lo, gap(lo)
    else:
        n = BINARY_SCAN_POINTS
        ts = lo + (hi - lo) * np.arange(n) / (n - 1)
        stacked = sign * _info_gap(np.stack([1.0 - ts, ts], axis=1), channels)
        near = np.flatnonzero(stacked >= stacked.max() - STACK_DRIFT)
        # A NaN gap makes the best NaN, and no cell is near it: then every cell is re-scored.
        k = max(near if near.size else range(n), key=lambda i: gap(float(ts[i])))
        t_star, best = golden_max(gap, float(ts[max(k - 1, 0)]), float(ts[min(k + 1, n - 1)]), tol=1e-12)
    return np.array([1.0 - t_star, t_star]), sign * best


def _simplex_resolution(k):
    # Largest r <= SIMPLEX_RESOLUTION (24 up to k = 6) whose C(r + k - 1, k - 1) grid points fit the budget.
    fits = [r for r in range(1, SIMPLEX_RESOLUTION + 1) if math.comb(r + k - 1, k - 1) <= SIMPLEX_BUDGET]
    return max(fits, default=1)


def _simplex_blocks(k, r):
    # The laws with entries in {0, 1/r, ..., 1}, SIMPLEX_BLOCK rows at a time, in
    # lexicographic order: stars and bars, bar positions from itertools.combinations.
    bars = itertools.combinations(range(r + k - 1), k - 1)
    while chunk := list(itertools.islice(bars, SIMPLEX_BLOCK)):
        cuts = np.array(chunk, dtype=np.int64).reshape(len(chunk), k - 1)
        yield (np.diff(cuts, axis=1, prepend=-1, append=r + k - 1) - 1) / r


def _grid_optimum(channels, sign, costs, gamma):
    # The first grid law within the cap maximising sign * gap, scored in array blocks; (law, gap).
    k = channels[0].shape[0]
    best_law, best = None, -math.inf
    for laws in _simplex_blocks(k, _simplex_resolution(k)):
        laws = laws[laws @ costs <= gamma]
        if laws.size:
            gaps = sign * _info_gap(laws, channels)
            i = int(np.argmax(gaps))
            if gaps[i] > best:
                best_law, best = laws[i], gaps[i]
    return best_law, sign * best


def _project_simplex(v):
    # Euclidean projection onto the probability simplex (sort-based).
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, len(v) + 1)
    cond = u - (css - 1.0) / idx > 0
    k = idx[cond][-1]
    tau = (css[k - 1] - 1.0) / k
    return np.maximum(v - tau, 0.0)


def _project_feasible(v, costs, gamma):
    """Euclidean projection of v onto {q in the simplex : costs . q <= gamma}; needs gamma >= min(costs).

    It is the simplex projection of v - lam * costs for the least lam >= 0
    meeting the cap (KKT); the cost falls as lam grows, so lam is bisected
    on [0, hi], past which only the cheapest letters keep mass. If lam
    stops short at LAM_COST_MAX still over the cap, the law is that limit.
    """
    q = _project_simplex(v)
    spread = costs - costs.min()
    if q @ costs <= gamma or not (spread > 0.0).any():
        return q
    # Python floats: a quotient past the float range is inf, not a warning.
    hi = float(v.max() - v.min() + 1.0) / float(spread[spread > 0.0].min())
    bound = LAM_COST_MAX / max(float(costs.max()), 1.0)
    capped = hi > bound
    hi = min(hi, bound)
    lam = bisect_boundary(lambda lam: _project_simplex(v - lam * costs) @ costs <= gamma, 0.0, hi, tol=1e-15 * hi)
    q = _project_simplex(v - lam * costs)
    if capped and q @ costs > gamma:
        cheapest = costs == costs.min()
        q = np.zeros_like(v)
        q[cheapest] = _project_simplex(v[cheapest])
    return q


def _gap_gradient(q, bob, eve):
    """Exact gradient in q of I(q, W_bob) - I(q, W_eve): D(W_bob(.|x) || qW_bob) - D(W_eve(.|x) || qW_eve).

    A zero output marginal has its log floored at the smallest normal
    float, so the gradient stays finite on the simplex boundary.
    """
    return _divergences(bob, q @ bob) - _divergences(eve, q @ eve)


def _simplex_gap_optimum(bob, eve, costs, gamma, sign):
    """(law, gap) maximising sign * gap over the laws q with costs . q <= gamma; sign -1.0 finds the minimum.

    The search for three or more letters: the simplex grid's first best
    law within the cap, then projected gradient ascent of sign * gap from
    it. A step that raises sign * gap is taken and the next one doubled;
    any other step is halved, until the step falls below 1e-12 or
    GRADIENT_ITERS steps are spent. Zero costs with gamma 0 search the
    whole simplex, every projection the plain simplex one.
    """
    channels = _channel_pair(bob, eve)
    q, val = _grid_optimum(channels, sign, costs, gamma)
    step, grad = 0.25, sign * _gap_gradient(q, bob, eve)
    for _ in range(GRADIENT_ITERS):
        q_new = _project_feasible(q + step * grad, costs, gamma)
        val_new = _info_gap(q_new, channels)
        if sign * val_new > sign * val:
            q, val, grad = q_new, val_new, sign * _gap_gradient(q_new, bob, eve)
            step *= 2.0
        else:
            step *= 0.5
            if step < 1e-12:
                break
    return q, val


def is_more_capable(pair):
    """Check I(q, W_bob) >= I(q, W_eve) over a grid of input laws.

    Binary inputs are scanned exhaustively on a 1-D grid and the worst
    point is refined by golden section, which is exhaustive to tolerance.
    Larger alphabets use a simplex grid of at most SIMPLEX_BUDGET points
    (resolution 1/24 up to 6 letters, coarser beyond), then projected
    gradient descent from the worst grid point (``_simplex_gap_optimum``,
    the capacity's search too); that is a heuristic certificate, not a
    proof.

    Returns a MoreCapableResult carrying the minimizing input found.
    """
    k, bob, eve = pair.num_inputs, pair.bob.rows, pair.eve.rows
    if k == 2:
        worst, gap = _binary_gap_optimum(bob, eve, 0.0, 1.0, -1.0)
    else:
        worst, gap = _simplex_gap_optimum(bob, eve, np.zeros(k), 0.0, -1.0)
    return MoreCapableResult(gap >= -MORE_CAPABLE_TOL, worst, gap)


_CONFIG_KEYS = {"bob", "eve", "costs", "gamma", "q"}


def _json_number(value, name):
    # An int or a float, never a bool: float() and numpy would also take a bool, a numeric string or null.
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def _json_array(value, name):
    # Every entry of nested lists, at any depth, is a number. A value that is not a list (null, an object,
    # a numpy array) is left to the key's own check, and so is a numpy array inside a list.
    if isinstance(value, list):
        for i, item in enumerate(value):
            (_json_array if isinstance(item, (list, np.ndarray)) else _json_number)(item, f"{name}[{i}]")


def parse_wiretap_config(doc):
    """Parse the JSON wiretap description used by the CLI.

    Expected keys: "bob" and "eve" (row-stochastic matrices), "costs",
    "gamma", and optionally "q". Unknown keys are rejected. Returns a
    dict with DiscreteChannel / array / float values.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a wiretap config must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = {"bob", "eve", "costs", "gamma"} - set(doc)
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    for key in ("bob", "eve", "costs", "q"):
        _json_array(doc.get(key), key)
    channels = []
    for key in ("bob", "eve"):
        try:
            channels.append(DiscreteChannel(doc[key]))
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc
    bob, eve = channels
    if eve.num_inputs != bob.num_inputs:
        raise ValueError(f"eve: {eve.num_inputs} input letters, bob has {bob.num_inputs}")
    pair = WiretapPair(bob, eve)
    costs = _cost_vector(doc["costs"], pair.num_inputs)
    gamma = _finite_float(_json_number(doc["gamma"], "gamma"), "gamma")
    out = {"pair": pair, "costs": costs, "gamma": gamma, "q": None}
    if "q" in doc:
        out["q"] = _laws(doc["q"], "q")
        if out["q"].shape != (pair.num_inputs,):
            raise ValueError(f"q: {out['q'].shape[0]} entries for {pair.num_inputs} input letters")
    return out


def load_wiretap_config(path):
    """``parse_wiretap_config`` of the JSON file at ``path``; ValueError when it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc.strerror}") from exc
    return parse_wiretap_config(doc)
