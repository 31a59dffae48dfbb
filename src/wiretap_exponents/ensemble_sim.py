"""Exact random-coding ensemble averages at tiny block lengths.

For binary-alphabet wiretap pairs and block lengths up to 8 this module
enumerates, with no sampling error, the expected maximum-likelihood
decoding error over a codebook of M*L i.i.d. codewords and the expected
divergence between the output law of one L-codeword subcode and the
target output law. The exact values certify the exponential upper
bounds evaluated by ``error_bound`` and ``divergence_bounds``.

Decoding ties are broken toward the lower codeword index, which keeps
the enumeration deterministic; any fixed tie rule keeps the bounds
valid. Costs play no role here: the trivial cost (c identically 1 with
cap 1) makes every codeword feasible, so the bound formulas are
evaluated untilted. Divergences are in nats.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel_core import WiretapPair, _as_prob_vector, _frozen_array, _rebuild
from .exponent_engine import ExponentQuery, _envelope
from .solvers import scan_then_golden_max

MAX_BLOCK = 8
MAX_CODEBOOK = 8
MAX_DIVERGENCE_WORK = 1 << 25


def _whole_number(value, name):
    # is_integer() is False for NaN and inf as well.
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be a finite whole number, got {value}")
    return int(value)


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """Parameters of one exact-enumeration run.

    ``n`` is the block length, ``M`` the message count, ``L`` the number
    of codewords per message (the stochastic encoder's dice), ``q`` the
    single-letter input law. Enumeration cost explodes with n and M*L,
    so n <= 8 and M*L <= 8 are hard limits.
    """

    pair: WiretapPair
    n: int
    M: int
    L: int
    q: np.ndarray

    def __post_init__(self):
        pair = self.pair
        if pair.bob.num_inputs != 2 or pair.bob.num_outputs != 2 or pair.eve.num_outputs != 2:
            raise ValueError("exact enumeration supports binary-input binary-output pairs only")
        n, M, L = (_whole_number(getattr(self, name), name) for name in ("n", "M", "L"))
        if not 1 <= n <= MAX_BLOCK:
            raise ValueError(f"block length must be in [1, {MAX_BLOCK}], got {n}")
        if M < 1 or L < 1 or M * L > MAX_CODEBOOK:
            raise ValueError(f"need M, L >= 1 with M*L <= {MAX_CODEBOOK}, got M={M}, L={L}")
        q = _as_prob_vector(_frozen_array(self.q, "input distribution"), "input distribution")
        if q.shape != (2,):
            raise ValueError("input distribution must be binary")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "q", q)

    __reduce__ = _rebuild


def _pattern_counts(c, y, n):
    # Counts of the four (input bit, output bit) patterns along the block.
    mask = (1 << n) - 1
    n11 = bin(c & y).count("1")
    n10 = bin(c & ~y & mask).count("1")
    n01 = bin(~c & y & mask).count("1")
    n00 = n - n11 - n10 - n01
    return n00, n01, n10, n11


def _likelihood_table(channel, n):
    """W^n(y | c) for all codewords c and outputs y, as a 2^n x 2^n array.

    Built from pattern counts with pow, so two blocks with the same
    pattern profile get bitwise-identical likelihoods; ML ties are then
    exact rather than float accidents.
    """
    w = channel.rows
    size = 1 << n
    table = np.empty((size, size))
    for c in range(size):
        for y in range(size):
            n00, n01, n10, n11 = _pattern_counts(c, y, n)
            table[c, y] = (
                w[0, 0] ** n00 * w[0, 1] ** n01 * w[1, 0] ** n10 * w[1, 1] ** n11
            )
    return table


def _block_input_probs(q, n):
    size = 1 << n
    probs = np.empty(size)
    for c in range(size):
        ones = bin(c).count("1")
        probs[c] = q[1] ** ones * q[0] ** (n - ones)
    return probs


def exact_ensemble_error(spec):
    """Expected ML decoding error, averaged over codebooks and codewords.

    All M*L codewords are decoded individually; a decode to any other
    codeword counts as an error, ties resolving to the lower index. The
    expectation over i.i.d. codebooks is computed in closed form: for a
    transmitted codeword with likelihood t at output y, an independent
    competitor beats it with the probability mass above t (plus the mass
    at t for competitors with lower index).
    """
    n, M, L = spec.n, spec.M, spec.L
    ml = M * L
    if ml == 1:
        return 0.0
    lk = _likelihood_table(spec.pair.bob, n)
    qn = _block_input_probs(spec.q, n)
    size = 1 << n
    correct = 0.0
    for y in range(size):
        col = lk[:, y]
        uniq, inv = np.unique(col, return_inverse=True)
        mass = np.zeros(uniq.size)
        np.add.at(mass, inv, qn)
        above = np.concatenate([np.cumsum(mass[::-1])[::-1][1:], [0.0]])
        p_gt = above[inv]
        p_eq = mass[inv]
        survive_late = np.maximum(1.0 - p_gt, 0.0)
        survive_early = np.maximum(1.0 - p_gt - p_eq, 0.0)
        weight = qn * col
        for j in range(1, ml + 1):
            correct += float(np.sum(weight * survive_early ** (j - 1) * survive_late ** (ml - j)))
    return max(1.0 - correct / ml, 0.0)


def _divergence_work(n, L):
    return math.comb((1 << n) + L - 1, L) * (1 << n)


def exact_ensemble_divergence(spec):
    """Expected divergence of one subcode's output law from the target.

    The target is the tapped channel's output under the i.i.d. input
    law. Subcodes are exchangeable, so only the first is enumerated:
    every multiset of L codewords, weighted by its multinomial
    probability, contributes D(mixture || target).
    """
    n, L = spec.n, spec.L
    if _divergence_work(n, L) > MAX_DIVERGENCE_WORK:
        raise ValueError(f"divergence enumeration too large for n={n}, L={L}")
    lk = _likelihood_table(spec.pair.eve, n)
    qn = _block_input_probs(spec.q, n)
    target = qn @ lk
    support = [c for c in range(1 << n) if qn[c] > 0.0]
    fact_l = math.factorial(L)
    total = 0.0
    for combo in itertools.combinations_with_replacement(support, L):
        weight = fact_l
        prev, run = None, 0
        for c in combo:
            weight *= qn[c]
            if c == prev:
                run += 1
            else:
                if run > 1:
                    weight /= math.factorial(run)
                prev, run = c, 1
        if run > 1:
            weight /= math.factorial(run)
        mixture = lk[list(combo), :].sum(axis=0) / L
        mask = mixture > 0.0
        div = float(np.sum(mixture[mask] * (np.log(mixture[mask]) - np.log(target[mask]))))
        total += weight * max(div, 0.0)
    return total


def _untilted_e0(spec, side):
    """kappa -> E0 of one side at zero tilts, from the shared envelope.

    The trivial cost (c identically 1 with cap 1) has zero tilt caps, so
    the envelope's tilt search returns the untilted value exactly.
    """
    envelope = _envelope(ExponentQuery(spec.pair, spec.q, np.ones(2), 1.0), side)
    return lambda kappa: envelope(kappa)[0]


def _psi(rho, channel, q):
    """Resolvability exponent base using the exact output law as reference."""
    w = channel.rows
    marginal = q @ w
    total = 0.0
    for z in range(w.shape[1]):
        if marginal[z] <= 0.0:
            continue
        num = float(q @ (w[:, z] ** (1.0 + rho)))
        total += num * marginal[z] ** (-rho)
    return -math.log(total)


def error_bound(spec):
    """Exponential upper bound on the expected decoding error."""
    e0 = _untilted_e0(spec, "bob")
    log_ml = math.log(spec.M * spec.L)

    def neg_exponent(rho):
        return spec.n * e0(1.0 + rho) - rho * log_ml

    _, best = scan_then_golden_max(neg_exponent, 0.0, 1.0, scan_points=17, tol=1e-12)
    return 2.0 * math.exp(-best)


def divergence_bounds(spec):
    """The two exponential upper bounds on the expected divergence.

    Returns (psi_bound, phi_bound); the psi form is never worse, the phi
    form is the one with a closed single-letter development.
    """
    n, L = spec.n, spec.L
    e0 = _untilted_e0(spec, "eve")
    log_l = math.log(L)

    def psi_neg(rho):
        return n * _psi(rho, spec.pair.eve, spec.q) + math.log(rho) + rho * log_l

    def phi_neg(rho):
        return n * e0(1.0 - rho) + math.log(rho) + rho * log_l

    _, best_psi = scan_then_golden_max(psi_neg, 1e-6, 1.0, scan_points=33, tol=1e-12)
    _, best_phi = scan_then_golden_max(phi_neg, 1e-6, 1.0 - 1e-9, scan_points=33, tol=1e-12)
    return 2.0 * math.exp(-best_psi), 2.0 * math.exp(-best_phi)


def holder_gap(spec, rho):
    """psi(rho) - phi(-rho) for the tapped channel; nonnegative for rho in (0,1)."""
    return _psi(rho, spec.pair.eve, spec.q) - _untilted_e0(spec, "eve")(1.0 - rho)


def mc_ensemble_error(spec, samples=100_000, seed=0):
    """Monte Carlo estimate of the ensemble error; returns (mean, stderr).

    Codebooks are sampled; the error probability of each sampled codebook
    is then computed exactly over outputs, so the only noise is across
    codebooks.
    """
    n, M, L = spec.n, spec.M, spec.L
    ml = M * L
    rng = np.random.default_rng(seed)
    lk = _likelihood_table(spec.pair.bob, n)
    qn = _block_input_probs(spec.q, n)
    size = 1 << n
    idx = rng.choice(size, size=(samples, ml), p=qn)
    err = np.zeros(samples)
    for y in range(size):
        cols = lk[idx, y]
        best = np.argmax(cols, axis=1)
        sent_mass = cols.sum(axis=1)
        win_mass = cols[np.arange(samples), best]
        err += (sent_mass - win_mass) / ml
    return float(err.mean()), float(err.std(ddof=1) / math.sqrt(samples))


def mc_ensemble_divergence(spec, samples=100_000, seed=0):
    """Monte Carlo estimate of the subcode divergence; returns (mean, stderr)."""
    n, L = spec.n, spec.L
    rng = np.random.default_rng(seed)
    lk = _likelihood_table(spec.pair.eve, n)
    qn = _block_input_probs(spec.q, n)
    target = qn @ lk
    idx = rng.choice(1 << n, size=(samples, L), p=qn)
    mixtures = lk[idx, :].mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(mixtures > 0.0, np.log(np.where(mixtures > 0.0, mixtures, 1.0)) - np.log(target), 0.0)
    divs = np.sum(mixtures * logs, axis=1)
    return float(divs.mean()), float(divs.std(ddof=1) / math.sqrt(samples))


def certification_report(spec):
    """Exact values, bounds, and slacks in one dict (the CLI's JSON payload)."""
    exact_err = exact_ensemble_error(spec)
    bound_err = error_bound(spec)
    exact_div = exact_ensemble_divergence(spec)
    bound_psi, bound_phi = divergence_bounds(spec)
    rho_grid = np.linspace(0.05, 0.95, 19)
    min_holder = min(holder_gap(spec, float(r)) for r in rho_grid)
    return {
        "n": spec.n,
        "M": spec.M,
        "L": spec.L,
        "exact_error": exact_err,
        "bound_error": bound_err,
        "exact_divergence": exact_div,
        "bound_psi": bound_psi,
        "bound_phi": bound_phi,
        "slacks": {
            "error": bound_err - exact_err,
            "divergence_psi": bound_psi - exact_div,
            "divergence_phi": bound_phi - exact_div,
            "holder_min_gap": min_holder,
        },
    }
