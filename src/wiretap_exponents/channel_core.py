"""Finite-alphabet channel and cost primitives.

Row-stochastic transition matrices, cost-constrained input distributions,
mutual information, channel concatenation, and a numerical more-capable
check. Everything here is immutable after construction and all operations
are pure functions, so concurrent use needs no coordination.

Alphabets in this package are tiny (at most 16 letters), so probabilities
are stored as dense row-major float64 matrices.
"""

import itertools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .solvers import golden_min, scan_then_golden_max

PROB_TOL = 1e-12
MORE_CAPABLE_TOL = 1e-9
BINARY_SCAN_POINTS = 1001  # the binary more-capable and capacity scans
# The k > 2 more-capable grid, scored SIMPLEX_BLOCK laws per array pass.
SIMPLEX_RESOLUTION = 24
SIMPLEX_BUDGET = 150_000
SIMPLEX_BLOCK = 256


def _frozen_array(values, name="array"):
    """A read-only float64 copy of ``values``; rejects NaN and inf."""
    a = np.array(values, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite, got {a}")
    a.flags.writeable = False
    return a


def _finite_float(value, name="value"):
    """``value`` as a float; rejects NaN and inf."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def _whole_number(value, name):
    """``value`` as an int; rejects a float that is not a whole number (NaN and inf included)."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be a finite whole number, got {value}")
    return int(value)


def _rebuild(self):
    # Pickle and deepcopy go through the constructor, which validates the
    # copy and freezes its arrays again.
    return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


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
class DiscreteChannel:
    """A discrete memoryless channel W(output | input).

    Parameters
    ----------
    rows : array_like, shape (num_inputs, num_outputs)
        Conditional probabilities; every row must sum to 1 within 1e-12
        and every entry must lie in [0, 1].
    """

    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", _laws(self.rows, "channel matrix", ndim=2))

    __reduce__ = _rebuild

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
class CostedInput:
    """Input distribution with a per-letter cost and an average-cost cap.

    The constructor rejects inputs whose expected cost exceeds the cap
    ``gamma`` (beyond a 1e-12 slack); downstream exponent formulas assume
    the constraint holds.
    """

    probs: np.ndarray
    costs: np.ndarray
    gamma: float

    def __post_init__(self):
        probs = _laws(self.probs, "input distribution")
        costs = _cost_vector(self.costs, probs.shape[0])
        gamma = _finite_float(self.gamma, "cost cap")
        if gamma < 0.0:
            raise ValueError(f"cost cap must be nonnegative, got {gamma}")
        expected = float(probs @ costs)
        if expected > gamma + PROB_TOL:
            raise ValueError(f"expected cost {expected} exceeds cap {gamma}")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "gamma", gamma)

    __reduce__ = _rebuild

    @property
    def expected_cost(self):
        return float(self.probs @ self.costs)


@dataclass(frozen=True)
class WiretapPair:
    """A pair of channels sharing one input: ``bob`` legitimate, ``eve`` tapped."""

    bob: DiscreteChannel
    eve: DiscreteChannel

    def __post_init__(self):
        if self.bob.num_inputs != self.eve.num_inputs:
            raise ValueError(
                f"channels must share the input alphabet: {self.bob.num_inputs} vs {self.eve.num_inputs}"
            )

    @property
    def num_inputs(self):
        return self.bob.num_inputs


def _mutual_informations(q, rows):
    """I(q, W) in nats for one law (shape (k,)) or a stack of laws (shape (n, k)); unvalidated.

    numpy multiplies one law and a stack through different BLAS routines,
    so a law's value in a stack can differ from its own in the last bit.
    """
    marginal = (q @ rows)[..., None, :]
    joint = q[..., :, None] * rows
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(joint > 0.0, rows / np.where(marginal > 0.0, marginal, 1.0), 1.0)
        terms = np.where(joint > 0.0, joint * np.log(ratio), 0.0)
    return np.maximum(terms.reshape(terms.shape[:-2] + (-1,)).sum(axis=-1), 0.0)


def _divergences(rows, ref):
    """D(row || ref) in nats for one law or each of a stack; unvalidated, zeros in ref floored at the least normal."""
    # One work array updated in place: a fresh array per step cost ensemble_sim's block loops 20x the page faults.
    positive = rows > 0.0
    terms = np.where(positive, rows, 1.0)
    np.log(terms, out=terms)
    terms -= np.log(np.maximum(ref, np.finfo(np.float64).tiny))
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
    return float(_mutual_informations(q, W))


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
class MoreCapableResult:
    """Outcome of the numerical more-capable scan."""

    holds: bool
    worst_input: np.ndarray
    min_gap: float

    def __post_init__(self):
        object.__setattr__(self, "holds", bool(self.holds))
        object.__setattr__(self, "worst_input", _frozen_array(self.worst_input, "worst input"))
        object.__setattr__(self, "min_gap", _finite_float(self.min_gap, "min gap"))

    __reduce__ = _rebuild

    def __bool__(self):
        return self.holds


def _info_gap(q, bob_rows, eve_rows):
    """I(q, W_bob) - I(q, W_eve) for one law or a stack of laws; unvalidated."""
    return _mutual_informations(q, bob_rows) - _mutual_informations(q, eve_rows)


def _binary_gap_optimum(bob, eve, lo, hi, sign):
    """(law, gap) at the binary law [1 - t, t], t in [lo, hi], maximising sign * gap; sign -1.0 finds the minimum."""
    t_star, best = scan_then_golden_max(
        lambda t: sign * _info_gap(np.array([1.0 - t, t]), bob, eve), lo, hi, scan_points=BINARY_SCAN_POINTS, tol=1e-12
    )
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


def _grid_minimum(bob, eve):
    # The first minimum of the gap over the simplex grid, scored in array blocks.
    worst, gap = None, math.inf
    for laws in _simplex_blocks(bob.shape[0], _simplex_resolution(bob.shape[0])):
        gaps = _info_gap(laws, bob, eve)
        i = int(np.argmin(gaps))
        if gaps[i] < gap:
            worst, gap = laws[i], gaps[i]
    return worst, gap


def is_more_capable(pair):
    """Check I(q, W_bob) >= I(q, W_eve) over a grid of input laws.

    Binary inputs are scanned exhaustively on a 1-D grid and the worst
    point is refined by golden section, which is exhaustive to tolerance.
    Larger alphabets use a simplex grid of at most SIMPLEX_BUDGET points
    (resolution 1/24 up to 6 letters, coarser beyond) plus local
    refinement; that is a heuristic certificate, not a proof.

    Returns a MoreCapableResult carrying the minimizing input found.
    """
    k, bob, eve = pair.num_inputs, pair.bob.rows, pair.eve.rows
    if k == 2:
        worst, gap = _binary_gap_optimum(bob, eve, 0.0, 1.0, -1.0)
    else:
        # Heuristic for >2 letters: simplex sweep, then coordinate golden
        # refinement around the worst grid point, until a sweep lowers
        # nothing (a later sweep would repeat its searches), at most three.
        worst, gap = _grid_minimum(bob, eve)
        for _ in range(3):
            start = gap
            for i, j in itertools.permutations(range(k), 2):
                budget = worst[i] + worst[j]
                if budget <= 0.0:
                    continue

                def moved(t):
                    q = worst.copy()
                    q[i], q[j] = t, budget - t
                    return q

                t_star, g = golden_min(lambda t: _info_gap(moved(t), bob, eve), 0.0, budget, tol=1e-10)
                if g < gap:
                    worst, gap = moved(t_star), g
            if gap == start:
                break
    return MoreCapableResult(gap >= -MORE_CAPABLE_TOL, worst, gap)


_CONFIG_KEYS = {"bob", "eve", "costs", "gamma", "q"}


def parse_wiretap_config(doc):
    """Parse the JSON wiretap description used by the CLI.

    Expected keys: "bob" and "eve" (row-stochastic matrices), "costs",
    "gamma", and optionally "q". Unknown keys are rejected. Returns a
    dict with DiscreteChannel / array / float values.
    """
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = {"bob", "eve", "costs", "gamma"} - set(doc)
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    bob = DiscreteChannel(doc["bob"])
    eve = DiscreteChannel(doc["eve"])
    pair = WiretapPair(bob, eve)
    costs = _cost_vector(doc["costs"], pair.num_inputs)
    out = {"pair": pair, "costs": costs, "gamma": _finite_float(doc["gamma"], "gamma"), "q": None}
    if "q" in doc:
        out["q"] = _laws(doc["q"], "q")
        if out["q"].shape != (pair.num_inputs,):
            raise ValueError("q length does not match the input alphabet")
    return out


def load_wiretap_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_wiretap_config(json.load(fh))
