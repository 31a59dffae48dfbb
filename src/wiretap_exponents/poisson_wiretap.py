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
``peak (q + s - g^kappa)``, g = (1-q) s^(1/kappa) + q (1+s)^(1/kappa),
its rho-derivative as the paired rate, and the curve point
``(rate, base - rho * rate)``. ``_point`` takes all of them from one
identity. With P the shares of g's two terms, Q = (q, 1-q) the duty law
and l = log(P/Q), q + s = g^kappa E_P[e^(rho l)], so the rate is
``peak g^kappa D(P||Q)`` and the curve exponent
``peak g^kappa E_P[e^(rho l) - 1 - rho l]``: sums of nonnegative terms,
each in Loader's deviance form near l = 0, with no difference of large
terms at any s, q or rho. At rho = 0 the rate is the information rate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel_core import CostedInput, DiscreteChannel, WiretapPair, _checked, _finite_float, _frozen_array, _Value
from .exponent_engine import ExponentCurve, RHO_EPS, _check_rho
from .solvers import bisect_root

# The secrecy curves stop at this rho; its rates grow without bound as rho -> 1.
SECRECY_RHO_MAX = 0.9


@dataclass(frozen=True)
class PoissonWiretapParams(_Value):
    """Peak rates, dark currents, and the duty-cycle cap of a Poisson pair."""

    peak_bob: float = _checked(_finite_float, "peak_bob")
    peak_eve: float = _checked(_finite_float, "peak_eve")
    dark_bob: float = _checked(_finite_float, "dark_bob")
    dark_eve: float = _checked(_finite_float, "dark_eve")
    gamma: float = _checked(_finite_float, "gamma")

    def _validate(self):
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
class DiscretizedPoisson(_Value):
    """Binary wiretap pair produced by time slicing, plus its cost data."""

    pair: WiretapPair
    costs: np.ndarray = _checked(_frozen_array, "costs")
    gamma: float = _checked(_finite_float, "gamma")
    delta: float = _checked(_finite_float, "delta")

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


def _check_duty(params, q):
    if not 0.0 <= q <= params.gamma:
        raise ValueError(f"duty probability must be in [0, {params.gamma}], got {q}")


def _point(peak, s, q, rho):
    # (curve exponent, rate) at kappa = 1 + rho, rho < 0 on the secrecy side; see the module docstring. With
    # e = (s/(1+s))^(1/kappa) = exp(-u), g = (1+s)^(1/kappa) mix, mix = q + (1-q) e = 1 - a and the shares
    # P = (q, (1-q) e) / mix, whose log ratios to Q are log_on and log_off; P_on - q = q a / mix.
    if q == 0.0 or q == 1.0:  # P = Q
        return 0.0, 0.0
    kappa = 1.0 + rho
    u = math.log1p(1.0 / s) / kappa if s > 0.0 else math.inf
    e, a = math.exp(-u), -(1.0 - q) * math.expm1(-u)
    mix = 1.0 - a if a <= 0.5 else q + (1.0 - q) * e
    log_on = -math.log1p(-a) if a <= 0.5 else -math.log(mix)
    log_off = -math.log1p(q * math.expm1(u)) if u < 709.0 else log_on - u  # expm1 overflows past 709.78
    on, off, diff = q / mix, (1.0 - q) * e / mix, q * a / mix
    g_kappa = (1.0 + s) * mix**kappa
    # g^kappa P e^(rho l) is q (1+s) on and (1-q) s off.
    exponent = _tilt_term(q * (1.0 + s), g_kappa * on, rho * log_on)
    exponent += _tilt_term((1.0 - q) * s, g_kappa * off, rho * log_off)
    return peak * exponent, peak * g_kappa * (_deviance(on, q, diff, log_on) + _deviance(off, 1.0 - q, -diff, log_off))


def _tilt_term(total, share, y):
    # share (e^y - 1 - y) >= 0 given total = share e^y: total - share (1 + y) where |y| > 1, so that share e^y
    # never overflows, else the deviance d(1, e^y).
    if share == 0.0:
        return total
    if abs(y) > 1.0:
        return total - share * (1.0 + y)
    return share * _deviance(1.0, math.exp(y), -math.expm1(y), -y)


def reliability_exponent(params, q, rho):
    """Per-second decoding-error exponent base at tilt order 1 + rho."""
    _check_duty(params, q)
    _check_rho(rho, secrecy=False)
    exponent, rate = _point(params.peak_bob, params.s_bob, q, rho)
    return exponent + rho * rate


def secrecy_exponent(params, q, rho):
    """Per-second divergence exponent base at tilt order 1 - rho."""
    _check_duty(params, q)
    _check_rho(rho, secrecy=True)
    exponent, rate = _point(params.peak_eve, params.s_eve, q, -rho)
    return exponent - rho * rate


def reliability_rate(params, q, rho):
    """Total rate (nats/second) paired with rho on the reliability curve.

    This is the rho-derivative of the reliability exponent base; the
    curve point at parameter rho sits at this rate.
    """
    _check_duty(params, q)
    _check_rho(rho, secrecy=False)
    return _point(params.peak_bob, params.s_bob, q, rho)[1]


def secrecy_rate(params, q, rho):
    """Resolvability rate (nats/second) paired with rho on the secrecy curve."""
    _check_duty(params, q)
    _check_rho(rho, secrecy=True)
    return _point(params.peak_eve, params.s_eve, q, -rho)[1]


def _deviance(x, m, diff, log_ratio):
    # x log(x/m) - x + m >= 0 (Loader's form), given diff = x - m and log_ratio = log(x/m) exactly: near x = m it
    # is diff v + 2x (v^3/3 + v^5/5 + ...) with v = diff / (x + m), so no two large terms cancel.
    v = diff / (x + m)
    if abs(v) >= 0.1:
        return (x * log_ratio if x > 0.0 else 0.0) - diff
    total, term = diff * v, 2.0 * x * v
    for j in range(3, 41, 2):  # |v| < 0.1: 19 terms reach 1e-38 of the first
        term *= v * v
        total += term / j
    return total


def bob_zero_rate(params, q):
    """Rate at which the reliability curve reaches zero exponent."""
    _check_duty(params, q)
    return _point(params.peak_bob, params.s_bob, q, 0.0)[1]


def eve_zero_rate(params, q):
    """Rate at which the secrecy curve leaves zero exponent."""
    _check_duty(params, q)
    return _point(params.peak_eve, params.s_eve, q, 0.0)[1]


def _parametric_curve(peak, s, q, rhos, name):
    if q == 0.0:
        raise ValueError("duty probability q = 0 puts every curve point at rate 0; curves need q in (0, gamma]")
    exps, rates = zip(*(_point(peak, s, q, float(r)) for r in rhos))
    if np.any(np.diff(rates) <= 0.0):  # ExponentCurve's check, with the curve and the cause named
        raise ValueError(
            f"{name} rates must be strictly increasing, got {list(rates)}: at peak {peak} and dark-to-peak"
            f" ratio {s} they round to equal values"
        )
    meta = {"function": name, "q": q, "argmax_rho": np.abs(rhos).tolist()}
    return ExponentCurve(rates, exps, meta)


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


def curves(params, q, points=60):
    """The (reliability, secrecy) curve pair at duty q, ``points`` points each."""
    return reliability_curve(params, q, points=points), secrecy_curve(params, q, points=points)


def information_gap(params, q):
    """Per-second mutual-information gap between the two receivers at duty q.

    Defined on all of [0, 1]; the duty cap only matters when maximizing.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"duty probability must be in [0, 1], got {q}")
    return _point(params.peak_bob, params.s_bob, q, 0.0)[1] - _point(params.peak_eve, params.s_eve, q, 0.0)[1]


def _rate_slope(s, q):
    # d/dq of the information rate per unit peak, q d(1+s, q+s) + (1-q) d(s, q+s), with d the deviance.
    log_off = -math.log1p(q / s) if s > 0.0 else -math.inf
    return _deviance(1.0 + s, q + s, 1.0 - q, math.log1p((1.0 - q) / (q + s))) - _deviance(s, q + s, -q, log_off)


def _gap_derivative(params, q):
    return params.peak_bob * _rate_slope(params.s_bob, q) - params.peak_eve * _rate_slope(params.s_eve, q)


@dataclass(frozen=True)
class PoissonCapacity(_Value):
    """Capacity report: value in nats/second plus solver diagnostics."""

    value: float = _checked(_finite_float, "capacity value")
    q_star: float = _checked(_finite_float, "q_star")
    q_capped: float = _checked(_finite_float, "q_capped")
    residual: float = _checked(_finite_float, "residual")


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
    if math.isnan(f_lo) or math.isnan(f_hi):
        # Both peak terms overflowed, with opposite signs: the parameters leave the float range.
        raise ValueError(f"gap derivative does not fit a float: f({lo})={f_lo}, f({hi})={f_hi}")
    if not (f_lo > 0.0 > f_hi):
        # The derivative falls strictly from positive to negative on (0, 1): rounding swamped it.
        raise ValueError(f"gap derivative does not resolve q at these magnitudes: f({lo})={f_lo}, f({hi})={f_hi}")
    q_star, _ = bisect_root(lambda q: _gap_derivative(params, q), lo, hi, tol=1e-16)
    residual = abs(_gap_derivative(params, q_star))
    q_capped = min(q_star, params.gamma)
    return PoissonCapacity(information_gap(params, q_capped), q_star, q_capped, residual)


@dataclass(frozen=True)
class ConcatenationParams(_Value):
    """Binary auxiliary prefix: on-probabilities a (input on) and b (input off)."""

    a: float = _checked(_finite_float, "a")
    b: float = _checked(_finite_float, "b")

    def _validate(self):
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
