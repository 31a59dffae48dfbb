"""Closed-form capacity and exponents for the scalar Gaussian wiretap channel.

Both receivers see an attenuated input plus independent Gaussian noise;
the input is average-power limited, and with a Gaussian input at full
power everything reduces to the two effective SNRs ``snr_bob`` and
``snr_eve``. Degradedness (noise-to-attenuation ratio no worse for the
legitimate receiver) and two positive SNRs that fit a float are required
at construction time.

Four exponent formulas are provided, two per side, differing in the
anchoring of the exponential power tilt: the forward-tilt variants
weight by exp(s * (cap - cost)), Gallager's classical variants by
exp(s * (cost - cap)), and the two choices land the tilt optimum on
opposite sides of a shared expression.

* ``reliability_forward_tilt``: parametric in rho with a linear segment
  below the critical rate ``critical_rates()[0]``.
* ``reliability_gallager``: explicit in beta = exp(2R), valid above the
  critical rate ``critical_rates()[1]``, with a fixed-beta linear branch
  below it.
* ``secrecy_forward_tilt``: the same explicit beta form evaluated at
  beta = exp(2 R_E), valid from the tapped channel's capacity rate up.
* ``secrecy_gallager_type``: parametric in rho, same validity range.

Rates and exponents are nats per channel use. The explicit beta form is
shared by one reliability and one secrecy variant. It is evaluated from
the rate in u = 1/beta, so it stays finite at every rate. Both parametric
variants evaluate one parametric form, the reliability one at +rho and
the secrecy one at -rho.
"""

import math
from dataclasses import dataclass

from .channel_core import _checked, _finite_float, _Value
from .solvers import bisect_root

CRITICAL_TOL = 1e-12


@dataclass(frozen=True)
class GaussianWiretapParams(_Value):
    """Attenuations, noise deviations, and the power cap of a Gaussian pair."""

    gain_bob: float = _checked(_finite_float, "gain_bob")
    gain_eve: float = _checked(_finite_float, "gain_eve")
    noise_bob: float = _checked(_finite_float, "noise_bob")
    noise_eve: float = _checked(_finite_float, "noise_eve")
    gamma: float = _checked(_finite_float, "gamma")

    def _validate(self):
        if min(self.gain_bob, self.gain_eve, self.noise_bob, self.noise_eve, self.gamma) <= 0.0:
            raise ValueError("gains, noise deviations, and the power cap must be positive")
        ratio_bob, ratio_eve = self.noise_bob / self.gain_bob, self.noise_eve / self.gain_eve
        if ratio_bob > ratio_eve:
            raise ValueError(
                f"degradedness requires noise_bob/gain_bob <= noise_eve/gain_eve, got {ratio_bob} > {ratio_eve}"
            )
        for name in ("snr_bob", "snr_eve"):
            try:
                snr = getattr(self, name)
            except (OverflowError, ZeroDivisionError):  # a gain or noise square left the float range
                snr = math.inf
            if not 0.0 < snr < math.inf:
                raise ValueError(f"{name} = gain^2 * gamma / noise^2 is 0 or does not fit a float")

    @property
    def snr_bob(self):
        return self.gain_bob**2 * self.gamma / self.noise_bob**2

    @property
    def snr_eve(self):
        return self.gain_eve**2 * self.gamma / self.noise_eve**2


def capacity(params):
    """Secrecy capacity in nats per use: half log-SNR-gap of the two receivers."""
    return 0.5 * math.log1p(params.snr_bob) - 0.5 * math.log1p(params.snr_eve)


def _explicit_form(snr, rate):
    """Shared explicit exponent form at a positive rate, in u = exp(-2 * rate) in (0, 1).

    It is the form in beta = exp(2 * rate) = 1/u with beta factored out of
    the log argument, so no term overflows at any finite rate. With
    a = snr (1 - u) and root = sqrt(1 + 4 / a), the log argument
    1 - a (root - 1) / 2 is taken as 4 / (a (root + 1)^2), its value with
    no subtraction: at a large SNR the difference cancels to rounding
    noise, which can be negative. It is guarded anyway. The first term
    snr ((1 + u) - (1 - u) root) / 4 cancels the same way and is taken as
    snr u / 2 - 1 / (root + 1), since a (root - 1) = 4 / (root + 1).
    """
    if not rate > 0.0:
        raise ValueError(f"rate must be positive, got {rate}")
    u = math.exp(-2.0 * rate)
    a = snr * (1.0 - u)
    root = math.sqrt(1.0 + 4.0 / a)
    first = 0.5 * snr * u - 1.0 / (root + 1.0)
    inside = 4.0 / (a * (root + 1.0) ** 2)
    if inside <= 0.0:
        raise RuntimeError(f"log argument {inside} not positive at snr={snr}, rate={rate}")
    return first + 0.5 * math.log(inside) + rate


def _gallager_form(snr, beta):
    """The shared form in its textbook variable beta = exp(2 * rate) > 1."""
    if beta <= 1.0:
        raise ValueError(f"beta must exceed 1, got {beta}")
    return _explicit_form(snr, 0.5 * math.log(beta))


def _parametric_rate(snr, rho):
    """Rate of the shared parametric form: reliability at +rho, secrecy at -rho."""
    return 0.5 * math.log1p(snr / (1.0 + rho)) - rho * snr / (2.0 * (1.0 + rho) * (1.0 + rho + snr))


def _parametric_exponent(snr, rho):
    """Exponent of the shared parametric form: reliability at +rho, secrecy at -rho."""
    return rho * rho * snr / (2.0 * (1.0 + rho) * (1.0 + rho + snr))


def _critical_beta(snr):
    """beta = exp(2 * rate) at the explicit variant's critical rate."""
    return 0.5 * (1.0 + 0.5 * snr + math.sqrt(1.0 + 0.25 * snr * snr))


def critical_rates(params):
    """The two critical rates (parametric variant, explicit variant) for the main channel.

    The parametric one never exceeds the explicit one.
    """
    a = params.snr_bob
    r_param = _parametric_rate(a, 1.0)
    r_expl = 0.5 * math.log(_critical_beta(a))
    if r_param > r_expl + CRITICAL_TOL:
        raise AssertionError(f"critical rates out of order: {r_param} > {r_expl}")
    return r_param, r_expl


def _check_total_rate(params, rate):
    cap = 0.5 * math.log1p(params.snr_bob)
    if not 0.0 <= rate <= cap + 1e-12:
        raise ValueError(f"total rate must be in [0, {cap}], got {rate}")
    return cap


def _invert_monotone(f, target, lo, hi, decreasing):
    f_lo, f_hi = f(lo), f(hi)
    if decreasing and not f_lo >= f_hi:
        raise RuntimeError("rate map is not decreasing on the bracket")
    if not decreasing and not f_hi >= f_lo:
        raise RuntimeError("rate map is not increasing on the bracket")
    root, _ = bisect_root(lambda x: f(x) - target, lo, hi, tol=1e-12)
    return root


def reliability_forward_tilt(params, rate):
    """Reliability exponent, parametric variant, at total rate R_B + R_E.

    Above its critical rate the exponent follows the parametric curve
    (the rate map is inverted by bisection); below it the curve
    continues as the line of slope -1 through its point at rho = 1.
    """
    cap = _check_total_rate(params, rate)
    a = params.snr_bob
    r_crit, _ = critical_rates(params)
    if rate < r_crit:
        return _parametric_exponent(a, 1.0) + r_crit - rate
    rate = min(rate, cap)
    rho = _invert_monotone(lambda r: _parametric_rate(a, r), rate, 0.0, 1.0, decreasing=True)
    return _parametric_exponent(a, rho)


def reliability_gallager(params, rate):
    """Reliability exponent, explicit variant, at total rate R_B + R_E."""
    cap = _check_total_rate(params, rate)
    a = params.snr_bob
    _, r_crit = critical_rates(params)
    if rate >= r_crit:
        return _explicit_form(a, min(rate, cap))
    beta = _critical_beta(a)
    return (
        1.0
        - beta
        + 0.5 * a
        + 0.5 * math.log(beta - 0.5 * a)
        + 0.5 * math.log(beta)
        - rate
    )


def _check_secrecy_rate(params, rate_e):
    rate_e = _finite_float(rate_e, "resolvability rate")
    floor = 0.5 * math.log1p(params.snr_eve)
    if rate_e < floor - 1e-12:
        raise ValueError(f"resolvability rate must be at least {floor}, got {rate_e}")
    return max(rate_e, floor)


def secrecy_forward_tilt(params, rate_e):
    """Secrecy exponent, explicit variant, at resolvability rate R_E."""
    rate_e = _check_secrecy_rate(params, rate_e)
    return _explicit_form(params.snr_eve, rate_e)


def secrecy_gallager_type(params, rate_e):
    """Secrecy exponent, parametric variant, at resolvability rate R_E."""
    rate_e = _check_secrecy_rate(params, rate_e)
    a = params.snr_eve
    hi = 1.0 - 1e-12
    if _parametric_rate(a, -hi) < rate_e:
        raise ValueError(f"resolvability rate {rate_e} beyond the invertible range")
    rho = _invert_monotone(lambda r: _parametric_rate(a, -r), rate_e, 0.0, hi, decreasing=False)
    return _parametric_exponent(a, -rho)
