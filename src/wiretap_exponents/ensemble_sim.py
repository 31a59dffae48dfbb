"""Exact random-coding ensemble averages at tiny block lengths.

For binary-alphabet wiretap pairs and block lengths up to 8 this module
enumerates, with no sampling error, the expected maximum-likelihood
decoding error over a codebook of M*L i.i.d. codewords and the expected
divergence between the output law of one L-codeword subcode and the
target output law. The exact values certify the exponential upper
bounds evaluated by ``error_bound`` and ``divergence_bounds``.

W^n and q^n are products of per-letter terms, so every averaged quantity
is unchanged when the n letters of every codeword and of the output are
permuted together (the method of types). A subcode's divergence is
therefore evaluated once per joint type, the multiset of its n column
patterns, and an output's share of the error once per output weight.

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

from .channel_core import WiretapPair, _checked, _divergences, _laws, _Value, _whole_number
from .exponent_engine import ExponentQuery, reliability_optimum, resolvability_e0
from .solvers import scan_then_golden_max

MAX_BLOCK = 8
MAX_CODEBOOK = 8
MAX_DIVERGENCE_WORK = 1 << 25
# Likelihood doubles gathered per pass (512 KB) by the blocked Monte Carlo
# error and subcode divergence loops; see _block_rows.
GATHER_BUDGET = 1 << 16


@dataclass(frozen=True, eq=False)
class EnsembleSpec(_Value):
    """Parameters of one exact-enumeration run.

    ``n`` is the block length, ``M`` the message count, ``L`` the number
    of codewords per message (the stochastic encoder's dice), ``q`` the
    single-letter input law. Enumeration cost explodes with n and M*L,
    so n <= 8 and M*L <= 8 are hard limits.
    """

    pair: WiretapPair
    n: int = _checked(_whole_number, "n")
    M: int = _checked(_whole_number, "M")
    L: int = _checked(_whole_number, "L")
    q: np.ndarray = _checked(_laws, "input distribution")

    def _validate(self):
        pair, n, M, L = self.pair, self.n, self.M, self.L
        if pair.bob.num_inputs != 2 or pair.bob.num_outputs != 2 or pair.eve.num_outputs != 2:
            raise ValueError("exact enumeration supports binary-input binary-output pairs only")
        if not 1 <= n <= MAX_BLOCK:
            raise ValueError(f"block length must be in [1, {MAX_BLOCK}], got {n}")
        if M < 1 or L < 1 or M * L > MAX_CODEBOOK:
            raise ValueError(f"need M, L >= 1 with M*L <= {MAX_CODEBOOK}, got M={M}, L={L}")
        if self.q.shape != (2,):
            raise ValueError("input distribution must be binary")


def _popcounts(n):
    # Number of ones in each n-bit block 0 .. 2^n - 1.
    return sum((np.arange(1 << n) >> bit) & 1 for bit in range(n))


def _powers(p, n):
    # p ** k for k = 0..n through Python's pow (the C library's), not a
    # vectorised numpy power that may round differently.
    return np.array([float(p) ** k for k in range(n + 1)])


def _likelihood_table(channel, n):
    """W^n(y | c) for all codewords c and outputs y, as a 2^n x 2^n array.

    Every entry is the same ordered product of four per-letter powers
    indexed by the block's pattern counts, so two blocks with the same
    pattern profile get bitwise-identical likelihoods; ML ties are then
    exact rather than float accidents.
    """
    w = channel.rows
    ones = _popcounts(n)
    n11 = ones[np.bitwise_and.outer(np.arange(1 << n), np.arange(1 << n))]
    n10, n01 = ones[:, None] - n11, ones - n11
    return (
        _powers(w[0, 0], n)[n - n11 - n10 - n01] * _powers(w[0, 1], n)[n01]
        * _powers(w[1, 0], n)[n10] * _powers(w[1, 1], n)[n11]
    )


def _block_input_probs(q, n):
    ones = _popcounts(n)
    return _powers(q[1], n)[ones] * _powers(q[0], n)[n - ones]


def exact_ensemble_error(spec):
    """Expected ML decoding error, averaged over codebooks and codewords.

    All M*L codewords are decoded individually; a decode to any other
    codeword counts as an error, ties resolving to the lower index. The
    expectation over i.i.d. codebooks is computed in closed form: for a
    transmitted codeword with likelihood t at output y, an independent
    competitor beats it with the probability mass above t (plus the mass
    at t for competitors with lower index). An output's share depends on
    its weight w only (permuting the letters of y permutes its likelihood
    column bitwise), so the closed form runs once per weight, on the
    output with ones in its first w letters, counted C(n, w) times.
    """
    ml = spec.M * spec.L
    if ml == 1:
        return 0.0
    n = spec.n
    lk = _likelihood_table(spec.pair.bob, n)
    qn = _block_input_probs(spec.q, n)
    correct = 0.0
    for w in range(n + 1):
        col = lk[:, (1 << w) - 1]
        uniq, inv = np.unique(col, return_inverse=True)
        mass = np.zeros(uniq.size)
        np.add.at(mass, inv, qn)
        above = np.concatenate([np.cumsum(mass[::-1])[::-1][1:], [0.0]])
        p_gt = above[inv]
        p_eq = mass[inv]
        survive_late = np.maximum(1.0 - p_gt, 0.0)
        survive_early = np.maximum(1.0 - p_gt - p_eq, 0.0)
        weight = qn * col
        share = 0.0
        for j in range(1, ml + 1):
            share += float(np.sum(weight * survive_early ** (j - 1) * survive_late ** (ml - j)))
        correct += math.comb(n, w) * share
    return max(1.0 - correct / ml, 0.0)


def _divergence_work(n, L):
    return math.comb((1 << n) + L - 1, L) * (1 << n)


def _block_rows(width, outputs):
    # Rows of ``idx`` per pass: each gathers width likelihood rows of
    # ``outputs`` doubles, within GATHER_BUDGET; at least 32 rows, since
    # width <= MAX_CODEBOOK and outputs <= 2^MAX_BLOCK.
    return GATHER_BUDGET // (width * outputs)


def _type_codes(idx, n):
    """One uint64 per row of ``idx`` (codewords of n bits, at most 8 per row): its joint type.

    Letter k of a row has the column pattern sum_j (bit k of idx[i, j]) << j,
    one byte. The n patterns of each row are sorted and packed into one
    uint64. Equal codes mean one row is a coordinate permutation of the
    other, applied to every codeword at once, so the two subcodes have
    the same divergence.
    """
    codewords = idx.astype(np.uint8, copy=False)
    letters = np.arange(n, dtype=np.uint8)[:, None]
    # patterns[k]: letter k of every row; 8 bytes a row, as many as one int64 codeword index.
    patterns = np.zeros((8, len(idx)), dtype=np.uint8)
    for j in range(idx.shape[1]):
        patterns[:n] |= ((codewords[:, j] >> letters) & 1) << j
    # Odd-even transposition sort: n rounds of compare-exchange of neighbouring letters.
    for rnd in range(n):
        for k in range(rnd % 2, n - 1, 2):
            low = np.minimum(patterns[k], patterns[k + 1])
            np.maximum(patterns[k], patterns[k + 1], out=patterns[k + 1])
            patterns[k] = low
    return np.ascontiguousarray(patterns.T).view(np.uint64)[:, 0]


def _type_divergences(lk, target, idx, n):
    """_subcode_divergences of every row of ``idx``, evaluated once per joint type (its first row)."""
    _, first, inverse = np.unique(_type_codes(idx, n), return_index=True, return_inverse=True)
    return _subcode_divergences(lk, target, idx[first])[inverse]


def _subcode_divergences(lk, target, idx):
    """D(mean of lk[idx[i]] || target) for each row i, in blocks of rows within the gather budget.

    ``idx`` holds codewords of positive input mass only, so the target is positive wherever a mixture is.
    """
    divs = np.empty(len(idx))
    step = _block_rows(idx.shape[1], lk.shape[1])
    for start in range(0, len(idx), step):
        rows = slice(start, start + step)
        divs[rows] = _divergences(lk[idx[rows]].mean(axis=1), target)
    return divs


def exact_ensemble_divergence(spec):
    """Expected divergence of one subcode's output law from the target.

    The target is the tapped channel's output under the i.i.d. input
    law. Subcodes are exchangeable, so only the first is enumerated:
    every multiset of L codewords, weighted by its multinomial
    probability, contributes D(mixture || target), summed in
    enumeration order. The divergence is evaluated once per joint type
    of the enumerated rows (see _type_codes), at most C(n + 2^L - 1, n).
    """
    n, L = spec.n, spec.L
    if _divergence_work(n, L) > MAX_DIVERGENCE_WORK:
        raise ValueError(f"divergence enumeration too large for n={n}, L={L}")
    lk = _likelihood_table(spec.pair.eve, n)
    qn = _block_input_probs(spec.q, n)
    support = np.flatnonzero(qn > 0.0).tolist()
    multisets = itertools.chain.from_iterable(itertools.combinations_with_replacement(support, L))
    idx = np.fromiter(multisets, dtype=np.uint8).reshape(-1, L)
    # Multinomial weights L! prod q(c) / prod (multiplicity)!, each
    # factorial divided out where its run of equal entries ends.
    fact = np.array([float(math.factorial(k)) for k in range(L + 1)])
    weight, run = np.full(len(idx), fact[L]), np.zeros(len(idx), dtype=np.intp)
    for j in range(L):
        same = idx[:, j] == idx[:, j - 1] if j else False
        weight = weight * qn[idx[:, j]] / np.where(same, 1.0, fact[run])
        run = np.where(same, run + 1, 1)
    divs = np.maximum(_type_divergences(lk, qn @ lk, idx, n), 0.0)
    return float(np.cumsum(weight / fact[run] * divs)[-1])


def _trivial_cost_query(spec):
    # The trivial cost (c identically 1 with cap 1) has zero tilt caps, so
    # every optimum of this query is untilted: its envelope is E0 at r = s = 0.
    return ExponentQuery(spec.pair, spec.q, np.ones(2), 1.0)


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
    """Exponential upper bound 2 exp(-n E_r(log(ML)/n)) on the expected decoding error.

    E_r is the untilted random-coding exponent, ``reliability_optimum`` at rate log(ML)/n.
    """
    rate = math.log(spec.M * spec.L) / spec.n
    return 2.0 * math.exp(-spec.n * reliability_optimum(_trivial_cost_query(spec).with_rates(rate)).raw)


def divergence_bounds(spec):
    """The two exponential upper bounds on the expected divergence.

    Returns (psi_bound, phi_bound); the psi form is never worse, the phi
    form is the one with a closed single-letter development.
    """
    n, L = spec.n, spec.L
    query = _trivial_cost_query(spec)
    log_l = math.log(L)

    def psi_neg(rho):
        return n * _psi(rho, spec.pair.eve, spec.q) + math.log(rho) + rho * log_l

    def phi_neg(rho):
        return n * resolvability_e0(rho, query) + math.log(rho) + rho * log_l

    _, best_psi = scan_then_golden_max(psi_neg, 1e-6, 1.0, scan_points=33, tol=1e-12)
    _, best_phi = scan_then_golden_max(phi_neg, 1e-6, 1.0 - 1e-9, scan_points=33, tol=1e-12)
    return 2.0 * math.exp(-best_psi), 2.0 * math.exp(-best_phi)


def holder_gap(spec, rho):
    """psi(rho) - phi(-rho) for the tapped channel; nonnegative for rho in (0, 1), ValueError outside."""
    phi = resolvability_e0(rho, _trivial_cost_query(spec))  # first, so rho is checked before _psi runs
    return _psi(rho, spec.pair.eve, spec.q) - phi


def _mc_draws(spec, channel, samples, seed, width):
    """W^n of ``channel``, q^n, and samples x width codewords drawn i.i.d. from q^n; needs samples >= 2."""
    samples = _whole_number(samples, "samples")
    if samples < 2:
        raise ValueError(f"Monte Carlo needs at least 2 samples for a standard error, got {samples}")
    lk = _likelihood_table(channel, spec.n)
    qn = _block_input_probs(spec.q, spec.n)
    return lk, qn, np.random.default_rng(seed).choice(1 << spec.n, size=(samples, width), p=qn)


def _output_totals(lost):
    # Row sums of (rows, outputs) in output order, the order of a running
    # total: numpy reduces axis 0 of the C-contiguous transpose row after
    # row. A single row would be one contiguous sum, which numpy adds
    # pairwise from 8 terms, so it keeps the running total.
    if len(lost) == 1:
        return np.cumsum(lost, axis=1)[:, -1]
    return np.ascontiguousarray(lost.T).sum(axis=0)


def mc_ensemble_error(spec, samples=100_000, seed=0):
    """Monte Carlo estimate of the ensemble error; returns (mean, stderr).

    Codebooks are sampled; the error probability of each sampled codebook
    is then computed exactly over outputs, as (1/ML) sum_y (sum_c W^n(y|c)
    - max_c W^n(y|c)), so the only noise is across codebooks. Codebooks
    are handled in blocks of rows within the gather budget. Needs at
    least 2 samples.
    """
    ml = spec.M * spec.L
    lk, _, idx = _mc_draws(spec, spec.pair.bob, samples, seed, ml)
    err = np.empty(len(idx))
    step = _block_rows(ml, lk.shape[1])
    for start in range(0, len(idx), step):
        rows = slice(start, start + step)
        g = lk[idx[rows].T]  # (ML, rows, 2^n): codeword c of each sampled codebook
        # The sent mass in numpy's row-sum order: sequential below 8 terms,
        # its pairwise tree at 8 (MAX_CODEBOOK).
        if ml == 8:
            sent = ((g[0] + g[1]) + (g[2] + g[3])) + ((g[4] + g[5]) + (g[6] + g[7]))
        else:
            sent = g.sum(axis=0)
        err[rows] = _output_totals((sent - g.max(axis=0)) / ml)
    return float(err.mean()), float(err.std(ddof=1) / math.sqrt(len(err)))


def mc_ensemble_divergence(spec, samples=100_000, seed=0):
    """Monte Carlo estimate of the subcode divergence; returns (mean, stderr); needs at least 2 samples.

    Each sampled subcode's divergence is evaluated once per joint type (see _type_codes).
    """
    lk, qn, idx = _mc_draws(spec, spec.pair.eve, samples, seed, spec.L)
    divs = _type_divergences(lk, qn @ lk, idx, spec.n)
    return float(divs.mean()), float(divs.std(ddof=1) / math.sqrt(len(divs)))


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
