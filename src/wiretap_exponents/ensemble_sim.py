"""Exact random-coding ensemble averages at tiny block lengths.

For binary-alphabet wiretap pairs and block lengths up to 8 this module
enumerates, with no sampling error, the expected maximum-likelihood
decoding error over a codebook of M*L i.i.d. codewords and the expected
divergence between the output law of one L-codeword subcode and the
target output law. The exact values certify the exponential upper
bounds evaluated by ``error_bound`` and ``divergence_bounds``.

W^n and q^n are products of per-letter terms, so every averaged quantity
is unchanged when the n letters of every codeword and of the output are
permuted together (the method of types), and a subcode's divergence also
when its codewords are. Its expectation is therefore a sum over the
multisets of its codewords or of its n column patterns, whichever are
fewer; a divergence is evaluated once per joint type up to codeword
order, and an output's share of the error once per output weight.

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
from .exponent_engine import ExponentQuery, _lse, reliability_optimum, resolvability_e0
from .solvers import scan_then_golden_max

MAX_BLOCK = 8
MAX_CODEBOOK = 8
MAX_DIVERGENCE_WORK = 1 << 25
# Table entries gathered per pass by the blocked Monte Carlo error (uint8 ranks,
# 64 KB) and subcode divergence (likelihood doubles, 512 KB) loops; see _block_rows.
GATHER_BUDGET = 1 << 16
# Equal buckets of [0, 1) that a codeword draw reads its index from; see _draw_codewords.
DRAW_BUCKETS = 1 << 12


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
    # Number of ones in each n-bit block 0 .. 2^n - 1, as uint8.
    return sum((np.arange(1 << n, dtype=np.uint16) >> bit) & 1 for bit in range(n)).astype(np.uint8)


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
    ones, blocks = _popcounts(n), np.arange(1 << n, dtype=np.uint16)
    n11 = ones[np.bitwise_and.outer(blocks, blocks)]  # uint8 counts; every difference below is >= 0
    n10, n01 = ones[:, None] - n11, ones - n11
    # ((P00 P01) P10) P11, built in place.
    table = _powers(w[0, 0], n)[n - n11 - n10 - n01]
    table *= _powers(w[0, 1], n)[n01]
    table *= _powers(w[1, 0], n)[n10]
    table *= _powers(w[1, 1], n)[n11]
    return table


def _block_input_probs(q, n):
    ones = _popcounts(n)
    return _powers(q[1], n)[ones] * _powers(q[0], n)[n - ones]


def _weight_columns(lk, n):
    """The likelihood table's distinct entries, ascending, and the ranks of its n + 1 columns y = 2^w - 1 (column w).

    Permuting the letters of y permutes its column, so those columns hold every value (at most C(n + 3, 3) = 165).
    """
    values, ranks = np.unique(lk[:, (1 << np.arange(n + 1)) - 1], return_inverse=True)
    return values, ranks.reshape(len(lk), n + 1)


def _rank_table(lk, n):
    """The likelihood table ``lk`` as its distinct entries (see _weight_columns) and uint8 ranks with values[ranks] == lk.

    Equal entries share a rank, so ML ties stay exact, and a row's rank histogram depends only on its codeword's weight.
    """
    values = _weight_columns(lk, n)[0]
    ranks = np.zeros(lk.shape, dtype=np.uint8)
    for v in values[1:]:
        ranks += lk >= v
    return values, ranks


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
    ml, n = spec.M * spec.L, spec.n
    if ml == 1:
        return 0.0
    values, columns = _weight_columns(_likelihood_table(spec.pair.bob, n), n)
    qn = _block_input_probs(spec.q, n)
    correct = 0.0
    for w in range(n + 1):
        inv = columns[:, w]
        mass = np.bincount(inv, weights=qn, minlength=len(values))
        above = np.concatenate([np.cumsum(mass[::-1])[::-1][1:], [0.0]])
        p_gt, p_eq = above[inv], mass[inv]
        survive_late = np.maximum(1.0 - p_gt, 0.0)
        survive_early = np.maximum(1.0 - p_gt - p_eq, 0.0)
        weight = qn * values[inv]
        share = 0.0
        for j in range(1, ml + 1):
            share += float(np.sum(weight * survive_early ** (j - 1) * survive_late ** (ml - j)))
        correct += math.comb(n, w) * share
    return max(1.0 - correct / ml, 0.0)


def _block_rows(width, outputs):
    # Rows of ``idx`` per pass: each gathers width table rows of ``outputs`` entries, within
    # GATHER_BUDGET; at least 32 rows, since width <= MAX_CODEBOOK and outputs <= 2^MAX_BLOCK.
    return GATHER_BUDGET // (width * outputs)


def _letter_patterns(idx, n):
    """The bit transposition of each row of ``idx`` (at most 8 entries of n bits), as (8, rows) uint8.

    Row k < n is the pattern sum_j (bit k of idx[:, j]) << j of letter k; rows n.. are zero.
    """
    entries, letters = idx.astype(np.uint8, copy=False), np.arange(n, dtype=np.uint8)[:, None]
    patterns = np.zeros((8, len(idx)), dtype=np.uint8)
    for j in range(idx.shape[1]):
        patterns[:n] |= ((entries[:, j] >> letters) & 1) << j
    return patterns


def _type_codes(idx, n):
    """One uint64 per row of ``idx`` (codewords of n bits, at most 8 per row): its joint type.

    The row's n letter patterns (see _letter_patterns), sorted and packed.
    Equal codes mean one row is a coordinate permutation of the other,
    applied to every codeword at once: the same divergence.
    """
    patterns = _letter_patterns(idx, n)
    # Odd-even transposition sort: n rounds of compare-exchange of neighbouring letters.
    for rnd in range(n):
        for k in range(rnd % 2, n - 1, 2):
            low = np.minimum(patterns[k], patterns[k + 1])
            np.maximum(patterns[k], patterns[k + 1], out=patterns[k + 1])
            patterns[k] = low
    return np.ascontiguousarray(patterns.T).view(np.uint64)[:, 0]


def _type_divergences(lk, target, idx, n):
    """_subcode_divergences of every row of ``idx``, evaluated once per type code (its first row)."""
    idx = np.sort(idx, axis=1)  # so rows equal up to codeword order as well as letter order share a code
    _, first, inverse = np.unique(_type_codes(idx, n), return_index=True, return_inverse=True)
    return _subcode_divergences(lk, target, idx[first])[inverse]


def _subcode_divergences(lk, target, idx):
    """D(mean of lk[idx[i]] || target) for each row i, in blocks of rows within the gather budget.

    ``idx`` holds codewords whose letters have positive mass, so the target is positive wherever a mixture is.
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
    law. Subcodes are exchangeable, so only the first is enumerated: its
    L x n matrix of i.i.d. bits, whose divergence is unchanged when its
    rows or its columns are permuted, along the side with fewer multisets
    (n columns of law q^L where C(2^L + n - 1, n) < C(2^n + L - 1, L),
    else L codewords of law q^n). Each multiset, weighted by its
    multinomial probability, contributes D(mixture || target); math.fsum
    adds them. See _type_divergences for the rows evaluated.
    """
    n, L = spec.n, spec.L
    columns, codewords = math.comb((1 << L) + n - 1, n), math.comb((1 << n) + L - 1, L)
    if min(columns, codewords) << n > MAX_DIVERGENCE_WORK:  # multisets enumerated, times 2^n outputs each
        raise ValueError(f"divergence enumeration too large for n={n}, L={L}")
    lk, qn = _likelihood_table(spec.pair.eve, n), _block_input_probs(spec.q, n)
    by_columns = columns < codewords
    m, probs = (n, _block_input_probs(spec.q, L)) if by_columns else (L, qn)
    support = np.flatnonzero(probs > 0.0).tolist()
    multisets = itertools.chain.from_iterable(itertools.combinations_with_replacement(support, m))
    items = np.fromiter(multisets, dtype=np.uint8).reshape(-1, m)
    # Multinomial weights m! prod probs(item) / prod (multiplicity)!, each
    # factorial divided out where its run of equal entries ends.
    fact = np.array([float(math.factorial(k)) for k in range(m + 1)])
    weight, run = np.full(len(items), fact[m]), np.zeros(len(items), dtype=np.intp)
    for j in range(m):
        same = items[:, j] == items[:, j - 1] if j else False
        weight = weight * probs[items[:, j]] / np.where(same, 1.0, fact[run])
        run = np.where(same, run + 1, 1)
    # Column multisets become rows of codewords by the same bit transposition.
    idx = _letter_patterns(items, L)[:L].T if by_columns else items
    divs = np.maximum(_type_divergences(lk, qn @ lk, idx, n), 0.0)
    return math.fsum((weight / fact[run] * divs).tolist())


def _trivial_cost_query(spec):
    # The trivial cost (c identically 1 with cap 1) has zero tilt caps, so
    # every optimum of this query is untilted: its envelope is E0 at r = s = 0.
    return ExponentQuery(spec.pair, spec.q, np.ones(2), 1.0)


def _psi(rho, channel, q):
    """Resolvability exponent base using the exact output law as reference.

    -log sum_z num_z marginal_z^(-rho), num_z = sum_x q(x) W(z|x)^(1+rho), in the log domain:
    marginal_z^(-rho) overflows at a subnormal marginal. A num_z that underflows to 0 is dropped.
    """
    w = channel.rows
    marginal = q @ w
    nums = [float(q @ (w[:, z] ** (1.0 + rho))) for z in range(w.shape[1])]
    return -_lse([math.log(num) - rho * math.log(m) for num, m in zip(nums, marginal.tolist()) if num > 0.0])


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


def _draw_codewords(rng, qn, shape):
    """``rng.choice(qn.size, size=shape, p=qn)`` element for element, as uint8 (qn.size <= 2^MAX_BLOCK).

    The same cdf, uniforms and index (the count of cdf entries <= u). Of
    DRAW_BUCKETS equal buckets of [0, 1), ``first`` counts the cdf entries
    <= a bucket's lower edge and ``last`` those below its upper edge; where
    they agree, that is the index of every u in the bucket, and only the
    other u are searched. Scaling by a power of two is exact.
    """
    cdf = qn.cumsum()
    cdf /= cdf[-1]
    u = rng.random(shape)
    u *= DRAW_BUCKETS
    cdf *= DRAW_BUCKETS
    first = cdf.searchsorted(np.arange(DRAW_BUCKETS), side="right").astype(np.uint8)
    last = cdf.searchsorted(np.arange(1, DRAW_BUCKETS + 1), side="left").astype(np.uint8)
    bucket = u.astype(np.uint16)
    idx = first[bucket]
    step = (first != last)[bucket]
    idx[step] = cdf.searchsorted(u[step], side="right")
    return idx


def _mc_draws(spec, channel, samples, seed, width):
    """W^n of ``channel``, q^n, and samples x width uint8 codewords drawn i.i.d. from q^n; needs samples >= 2."""
    samples = _whole_number(samples, "samples")
    if samples < 2:
        raise ValueError(f"Monte Carlo needs at least 2 samples for a standard error, got {samples}")
    lk, qn = _likelihood_table(channel, spec.n), _block_input_probs(spec.q, spec.n)
    return lk, qn, _draw_codewords(np.random.default_rng(seed), qn, (samples, width))


def _row_counts(a, size):
    # np.bincount of each row of ``a`` (integers below size), as (rows, size).
    return np.bincount((a + size * np.arange(len(a))[:, None]).ravel(), minlength=size * len(a)).reshape(-1, size)


def mc_ensemble_error(spec, samples=100_000, seed=0):
    """Monte Carlo estimate of the ensemble error; returns (mean, stderr).

    Codebooks are sampled; the error probability of each sampled codebook
    is then computed exactly over outputs, as (1/ML) sum_y (sum_c W^n(y|c)
    - max_c W^n(y|c)), so the only noise is across codebooks. Over the
    table's values v_k (see _rank_table) that is (1/ML) sum_k (H_k - m_k)
    v_k, H the sum of the codewords' weight histograms and m_k the count
    of outputs whose largest rank is k: integer coefficients, so nothing
    cancels. Codebooks go in blocks within the gather budget; needs >= 2 samples.
    """
    ml, n = spec.M * spec.L, spec.n
    lk, _, idx = _mc_draws(spec, spec.pair.bob, samples, seed, ml)
    values, ranks = _rank_table(lk, n)
    size, weights = len(values), _popcounts(n)
    hist = _row_counts(ranks[(1 << np.arange(n + 1)) - 1], size)
    err = np.empty(len(idx))
    step = _block_rows(ml, lk.shape[1])
    for start in range(0, len(idx), step):
        books = idx[start:start + step]
        best = np.take(ranks, books.T, axis=0).max(axis=0)  # (rows, 2^n): each output's largest rank
        counts = _row_counts(weights[books], n + 1) @ hist - _row_counts(best, size)
        err[start:start + step] = counts @ values / ml
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
