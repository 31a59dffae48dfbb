"""Closed-form exponents and capacity for the discretized Poisson wiretap channel.

The physical model: the sender keys a photon rate between 0 and a peak
(A_y toward the receiver, A_z toward the tap), each direction adding a
dark-current background rate. Slicing time into width-delta bins and
thresholding the counts gives a binary-input binary-output pair whose
crossover probabilities are linear in delta; all public quantities here
are the delta -> 0 limits and are expressed per second, never per
channel use. The duty cycle (fraction of time the source is on) is the
cost, capped by gamma.

Degradedness of the pair requires a stronger signal and a smaller
dark-to-peak ratio for the legitimate receiver; the constructor rejects
parameter sets without it (with at least one strict inequality), since
every formula below leans on the induced concavity.

Both sides evaluate one form at tilt order kappa = 1 + rho, with rho
positive for reliability and negative for secrecy: the exponent base
``peak (q + s - g(kappa)^kappa)``, its rho-derivative as the paired rate,
and the curve point ``(rate, base - rho * rate)``.

Evaluations use the algebraic form
``((1-q) s^(1/k) + q (1+s)^(1/k))^k`` rather than the equivalent
ratio form with (1 + 1/s) factors: it stays finite and continuous all
the way to s = 0 (zero dark current), with the convention
s^a * log(s) -> 0. Its inner sum is taken in the log domain, so small
tilt orders k do not overflow.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .channel_core import CostedInput, DiscreteChannel, WiretapPair, _finite_float, _frozen_array, _rebuild
from .exponent_engine import ExponentCurve, RHO_EPS
from .solvers import bisect_root

# The secrecy curves stop at this rho; its rates grow without bound as rho -> 1.
SECRECY_RHO_MAX = 0.9


@dataclass(frozen=True)
class PoissonWiretapParams:
    """Peak rates, dark currents, and the duty-cycle cap of a Poisson pair."""

    peak_bob: float
    peak_eve: float
    dark_bob: float
    dark_eve: float
    gamma: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _finite_float(getattr(self, f.name), f.name))
        peak_bob, peak_eve = self.peak_bob, self.peak_eve
        dark_bob, dark_eve, gamma = self.dark_bob, self.dark_eve, self.gamma
        if peak_bob <= 0.0 or peak_eve <= 0.0:
            raise ValueError("peak rates must be positive")
        if dark_bob < 0.0 or dark_eve < 0.0:
            raise ValueError("dark currents must be nonnegative")
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"duty-cycle cap must be in [0, 1], got {gamma}")
        # Ratio comparison is cross-multiplied with a relative tolerance so
        # that mathematically equal ratios are not split by rounding.
        lhs = dark_bob * peak_eve
        rhs = dark_eve * peak_bob
        ratio_tol = 1e-12 * max(1.0, abs(rhs))
        if peak_bob < peak_eve or lhs > rhs + ratio_tol:
            raise ValueError(
                "degradedness requires peak_bob >= peak_eve and "
                f"dark_bob/peak_bob <= dark_eve/peak_eve, got peaks ({peak_bob}, {peak_eve}) "
                f"and dark currents ({dark_bob}, {dark_eve})"
            )
        if peak_bob == peak_eve and abs(lhs - rhs) <= ratio_tol:
            raise ValueError("the two channels are identical; need one strict inequality")

    @property
    def s_bob(self):
        return self.dark_bob / self.peak_bob

    @property
    def s_eve(self):
        return self.dark_eve / self.peak_eve


@dataclass(frozen=True, eq=False)
class DiscretizedPoisson:
    """Binary wiretap pair produced by time slicing, plus its cost data."""

    pair: WiretapPair
    costs: np.ndarray
    gamma: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "costs", _frozen_array(self.costs, "costs"))
        object.__setattr__(self, "gamma", _finite_float(self.gamma, "gamma"))
        object.__setattr__(self, "delta", _finite_float(self.delta, "delta"))

    __reduce__ = _rebuild

    def make_input(self, q_on):
        """CostedInput turning a duty probability into a binary input law."""
        return CostedInput([1.0 - q_on, q_on], self.costs, self.gamma)


def discretize(params, delta):
    """Slice time into width-delta bins, giving a binary wiretap pair.

    Transition probabilities are linear in delta (the single-count
    thresholding limit); delta must be small enough that they stay at
    most 1. The per-letter cost is the input bit itself.
    """
    delta = float(delta)
    if delta <= 0.0:
        raise ValueError("bin width must be positive")
    rows = []
    for peak, dark in ((params.peak_bob, params.dark_bob), (params.peak_eve, params.dark_eve)):
        p0 = dark * delta
        p1 = (peak + dark) * delta
        if p1 > 1.0 or p0 > 1.0:
            raise ValueError(f"bin width {delta} gives a transition probability above 1")
        rows.append([[1.0 - p0, p0], [1.0 - p1, p1]])
    pair = WiretapPair(DiscreteChannel(rows[0]), DiscreteChannel(rows[1]))
    return DiscretizedPoisson(pair, np.array([0.0, 1.0]), params.gamma, delta)


def _log_tilted_mean(q, s, kappa):
    # log g(kappa), g = (1-q) s^(1/kappa) + q (1+s)^(1/kappa), and the shares
    # of its two terms, in the log domain: (1+s)^(1/kappa) overflows as
    # kappa -> 0. log g is -inf when g = 0 (q = 0 and s = 0).
    logs = (
        math.log1p(-q) + math.log(s) / kappa if q < 1.0 and s > 0.0 else -math.inf,
        math.log(q) + math.log1p(s) / kappa if q > 0.0 else -math.inf,
    )
    top = max(logs)
    if top == -math.inf:
        return top, (0.0, 0.0)
    log_g = top + math.log(sum(math.exp(a - top) for a in logs))
    return log_g, tuple(math.exp(a - log_g) for a in logs)


def _check_duty(params, q):
    if not 0.0 <= q <= params.gamma:
        raise ValueError(f"duty probability must be in [0, {params.gamma}], got {q}")


def _check_rho(rho, secrecy):
    # Reliability takes rho in [0, 1], secrecy rho in (0, 1).
    if not (0.0 < rho < 1.0 if secrecy else 0.0 <= rho <= 1.0):
        raise ValueError(f"rho must be in {'(0, 1)' if secrecy else '[0, 1]'}, got {rho}")


def _exponent_base(peak, s, q, rho):
    # peak (q + s - g(kappa)^kappa) at kappa = 1 + rho; rho < 0 is the secrecy side.
    kappa = 1.0 + rho
    return peak * (q + s - math.exp(kappa * _log_tilted_mean(q, s, kappa)[0]))


def _rate(peak, s, q, rho):
    # d/drho of the exponent base at kappa = 1 + rho:
    # peak g^kappa (part / (g kappa) - log g), where dg/dkappa = -part / kappa^2
    # with part = (1-q) s^(1/k) log s + q (1+s)^(1/k) log(1+s). part / g is the
    # share-weighted mean of log s and log(1+s), and s^a log s -> 0 at s = 0.
    kappa = 1.0 + rho
    log_g, (share_off, share_on) = _log_tilted_mean(q, s, kappa)
    if log_g == -math.inf:
        return 0.0
    mean_log = (share_off * math.log(s) if s > 0.0 else 0.0) + share_on * math.log1p(s)
    return peak * math.exp(kappa * log_g) * (mean_log / kappa - log_g)


def reliability_exponent(params, q, rho):
    """Per-second decoding-error exponent base at tilt order 1 + rho."""
    _check_duty(params, q)
    _check_rho(rho, secrecy=False)
    return _exponent_base(params.peak_bob, params.s_bob, q, rho)


def secrecy_exponent(params, q, rho):
    """Per-second divergence exponent base at tilt order 1 - rho."""
    _check_duty(params, q)
    _check_rho(rho, secrecy=True)
    return _exponent_base(params.peak_eve, params.s_eve, q, -rho)


def reliability_rate(params, q, rho):
    """Total rate (nats/second) paired with rho on the reliability curve.

    This is the rho-derivative of the reliability exponent base; the
    curve point at parameter rho sits at this rate.
    """
    _check_duty(params, q)
    _check_rho(rho, secrecy=False)
    return _rate(params.peak_bob, params.s_bob, q, rho)


def secrecy_rate(params, q, rho):
    """Resolvability rate (nats/second) paired with rho on the secrecy curve."""
    _check_duty(params, q)
    _check_rho(rho, secrecy=True)
    return _rate(params.peak_eve, params.s_eve, q, -rho)


def _information_rate(peak, s, q):
    # Per-second mutual information of the sliced channel in the delta->0 limit.
    first = 0.0 if s == 0.0 else (1.0 - q) * s * math.log(s)
    if q + s <= 0.0:
        return 0.0
    return peak * (-(q + s) * math.log(q + s) + q * (1.0 + s) * math.log1p(s) + first)


def bob_zero_rate(params, q):
    """Rate at which the reliability curve reaches zero exponent."""
    _check_duty(params, q)
    return _information_rate(params.peak_bob, params.s_bob, q)


def eve_zero_rate(params, q):
    """Rate at which the secrecy curve leaves zero exponent."""
    _check_duty(params, q)
    return _information_rate(params.peak_eve, params.s_eve, q)


def _parametric_curve(peak, s, q, rhos, name):
    # The point at signed rho is (rate, base - rho * rate) on either side.
    rates = [_rate(peak, s, q, float(r)) for r in rhos]
    exps = [_exponent_base(peak, s, q, float(r)) - float(r) * rate for r, rate in zip(rhos, rates)]
    meta = {"function": name, "q": q, "argmax_rho": np.abs(rhos).tolist()}
    return ExponentCurve(rates, np.maximum(exps, 0.0), meta)


def reliability_curve(params, q, points=60):
    """Parametric reliability curve swept over rho in [0, 1], per second.

    Decreasing and convex, reaching zero exactly at ``bob_zero_rate``.
    """
    _check_duty(params, q)
    rhos = np.linspace(1.0, 0.0, points)
    return _parametric_curve(params.peak_bob, params.s_bob, q, rhos, "reliability_per_second")


def secrecy_curve(params, q, points=60):
    """Parametric secrecy curve swept over rho in (0, SECRECY_RHO_MAX], per second.

    Increasing and convex, leaving zero exactly at ``eve_zero_rate``.
    """
    _check_duty(params, q)
    rhos = -np.linspace(RHO_EPS, SECRECY_RHO_MAX, points)
    return _parametric_curve(params.peak_eve, params.s_eve, q, rhos, "secrecy_per_second")


def information_gap(params, q):
    """Per-second mutual-information gap between the two receivers at duty q.

    Defined on all of [0, 1]; the duty cap only matters when maximizing.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"duty probability must be in [0, 1], got {q}")
    return _information_rate(params.peak_bob, params.s_bob, q) - _information_rate(
        params.peak_eve, params.s_eve, q
    )


def _gap_derivative(params, q):
    ay, az = params.peak_bob, params.peak_eve
    sy, sz = params.s_bob, params.s_eve
    dy = -math.log(q + sy) - 1.0 + (1.0 + sy) * math.log1p(sy) - (0.0 if sy == 0.0 else sy * math.log(sy))
    dz = math.log(q + sz) + 1.0 - (1.0 + sz) * math.log1p(sz) + (0.0 if sz == 0.0 else sz * math.log(sz))
    return ay * dy + az * dz


@dataclass(frozen=True)
class PoissonCapacity:
    """Capacity report: value in nats/second plus solver diagnostics."""

    value: float
    q_star: float
    q_capped: float
    residual: float


def capacity(params):
    """Per-second secrecy capacity of the pair.

    The information gap is strictly concave in the duty probability and
    vanishes at 0 and 1, so its derivative has a unique root in (0, 1);
    the root is found by bisection and then capped by the duty-cycle
    limit.
    """
    lo, hi = 1e-12, 1.0 - 1e-12
    f_lo = _gap_derivative(params, lo)
    f_hi = _gap_derivative(params, hi)
    if not (f_lo > 0.0 > f_hi):
        raise RuntimeError(
            f"gap derivative lost its bracket: f({lo})={f_lo}, f({hi})={f_hi}"
        )
    q_star, _ = bisect_root(lambda q: _gap_derivative(params, q), lo, hi, tol=1e-16)
    residual = abs(_gap_derivative(params, q_star))
    q_capped = min(q_star, params.gamma)
    return PoissonCapacity(information_gap(params, q_capped), q_star, q_capped, residual)


@dataclass(frozen=True)
class ConcatenationParams:
    """Binary auxiliary prefix: on-probabilities a (input on) and b (input off)."""

    a: float
    b: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _finite_float(getattr(self, f.name), f.name))
        if not (0.0 <= self.b < self.a <= 1.0):
            raise ValueError(f"need 0 <= b < a <= 1, got a={self.a}, b={self.b}")

    def channel(self):
        return DiscreteChannel([[1.0 - self.b, self.b], [1.0 - self.a, self.a]])


def concatenate_params(params, conc):
    """Parameters of the pair seen through a binary prefix channel.

    The prefix attenuates both peaks by a factor a - b and adds b times
    the peak to each dark current; the result is again a degraded
    Poisson pair. The duty cap transforms to (gamma - b) / (a - b),
    clipped at 1 when the original cap exceeds a (the constraint is then
    inactive). Requires gamma >= b.
    """
    if params.gamma < conc.b:
        raise ValueError(f"duty cap {params.gamma} below the prefix floor b={conc.b}")
    scale = conc.a - conc.b
    gamma_plus = min(1.0, (params.gamma - conc.b) / scale)
    return PoissonWiretapParams(
        scale * params.peak_bob,
        scale * params.peak_eve,
        conc.b * params.peak_bob + params.dark_bob,
        conc.b * params.peak_eve + params.dark_eve,
        gamma_plus,
    )


def concatenated_capacity(params, conc):
    return capacity(concatenate_params(params, conc))


def concatenated_curves(params, conc, q, points=60):
    """Reliability and secrecy curves of the prefixed pair at duty q on the prefix input."""
    plus = concatenate_params(params, conc)
    return reliability_curve(plus, q, points=points), secrecy_curve(plus, q, points=points)
