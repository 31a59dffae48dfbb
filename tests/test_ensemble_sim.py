import itertools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import Budget
from wiretap_exponents import DiscreteChannel, WiretapPair, cli
from wiretap_exponents import ensemble_sim as es
from wiretap_exponents import exponent_engine as engine
from wiretap_exponents.solvers import scan_then_golden_max

try:
    import mpmath
except ImportError:  # the 40-digit reference test skips without it
    mpmath = None


def pair(eps_b=0.1, eps_e=0.3):
    return WiretapPair(DiscreteChannel.bsc(eps_b), DiscreteChannel.bsc(eps_e))


class TestSpecValidation:
    def test_limits_enforced(self):
        with pytest.raises(ValueError):
            es.EnsembleSpec(pair(), 9, 1, 1, [0.5, 0.5])
        with pytest.raises(ValueError):
            es.EnsembleSpec(pair(), 4, 4, 4, [0.5, 0.5])
        with pytest.raises(ValueError):
            es.EnsembleSpec(pair(), 4, 0, 1, [0.5, 0.5])

    @pytest.mark.parametrize(
        "n, M, L", [(2.7, 1, 1), (math.inf, 1, 1), (3, math.nan, 1), (3, 1, 1.5), (3, 1, -math.inf), (10**400, 1, 1)]
    )
    def test_counts_must_be_finite_whole_numbers(self, n, M, L):
        with pytest.raises(ValueError):
            es.EnsembleSpec(pair(), n, M, L, [0.5, 0.5])

    def test_binary_only(self):
        tri = DiscreteChannel(np.ones((2, 3)) / 3)
        with pytest.raises(ValueError):
            es.EnsembleSpec(WiretapPair(DiscreteChannel.bsc(0.1), tri), 2, 1, 1, [0.5, 0.5])


class TestExactError:
    def test_single_codeword_never_errs(self):
        spec = es.EnsembleSpec(pair(), 3, 1, 1, [0.5, 0.5])
        assert es.exact_ensemble_error(spec) == 0.0

    def test_noiseless_collision_value(self):
        # two uniform codewords over a noiseless channel: they collide with
        # probability 1/4, and the tie rule then fails the second message,
        # giving (1/4) * (1/2) = 1/8
        spec = es.EnsembleSpec(pair(0.0, 0.3), 2, 2, 1, [0.5, 0.5])
        assert es.exact_ensemble_error(spec) == pytest.approx(0.125, abs=1e-15)
        # large-sample Monte Carlo cross-check of the same value
        mc, se = es.mc_ensemble_error(spec, samples=1_000_000, seed=7)
        assert abs(mc - 0.125) <= 3.0 * se

    def test_monte_carlo_agrees(self):
        spec = es.EnsembleSpec(pair(), 3, 2, 2, [0.5, 0.5])
        exact = es.exact_ensemble_error(spec)
        mc, se = es.mc_ensemble_error(spec, samples=100_000, seed=1)
        assert abs(exact - mc) <= 4.0 * se

    def test_skewed_input_law(self):
        spec = es.EnsembleSpec(pair(), 2, 2, 1, [0.9, 0.1])
        exact = es.exact_ensemble_error(spec)
        mc, se = es.mc_ensemble_error(spec, samples=100_000, seed=3)
        assert abs(exact - mc) <= 4.0 * se


class TestExactDivergence:
    def test_point_mass_input_matches_target(self):
        # with a deterministic input law every codeword is identical and the
        # subcode output equals the target exactly
        spec = es.EnsembleSpec(pair(), 3, 1, 2, [1.0, 0.0])
        assert es.exact_ensemble_divergence(spec) == pytest.approx(0.0, abs=1e-15)

    def test_monte_carlo_agrees(self):
        spec = es.EnsembleSpec(pair(), 3, 2, 2, [0.5, 0.5])
        exact = es.exact_ensemble_divergence(spec)
        mc, se = es.mc_ensemble_divergence(spec, samples=100_000, seed=2)
        assert abs(exact - mc) <= 4.0 * se

    def test_nonincreasing_in_subcode_size(self):
        values = [
            es.exact_ensemble_divergence(es.EnsembleSpec(pair(), 3, 1, L, [0.5, 0.5]))
            for L in (1, 2, 4, 8)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_subcode_divergences_are_the_written_out_formula_bit_for_bit(self, n, L):
        step = es._block_rows(L, 1 << n)

        def written_out(lk, target, idx):
            divs = np.empty(len(idx))
            for start in range(0, len(idx), step):
                rows = slice(start, start + step)
                mixtures = lk[idx[rows]].mean(axis=1)
                positive = mixtures > 0.0
                with np.errstate(divide="ignore", invalid="ignore"):
                    logs = np.where(positive, np.log(np.where(positive, mixtures, 1.0)) - np.log(target), 0.0)
                divs[rows] = np.sum(mixtures * logs, axis=1)
            return divs

        rng = np.random.default_rng([n, L])
        for eps, q1 in ((0.0, 0.5), (0.2, 0.5), (0.1, 0.1)):
            spec = es.EnsembleSpec(pair(0.1, eps), n, 1, L, [1.0 - q1, q1])
            lk = es._likelihood_table(spec.pair.eve, n)
            qn = es._block_input_probs(spec.q, n)
            # At least 1500 subcodes, and always two blocks of the helper and a partial one.
            idx = rng.choice(1 << n, size=(max(1500, 2 * step + 7), L), p=qn)
            target = qn @ lk
            assert np.array_equal(es._subcode_divergences(lk, target, idx), written_out(lk, target, idx))

    @pytest.mark.parametrize("samples", [1, 0, -3, 2.5])
    def test_monte_carlo_needs_two_samples(self, samples):
        spec = es.EnsembleSpec(pair(), 3, 2, 2, [0.5, 0.5])
        for estimate in (es.mc_ensemble_error, es.mc_ensemble_divergence):
            with pytest.raises(ValueError):
                estimate(spec, samples)

    def test_work_guard(self):
        # Past MAX_DIVERGENCE_WORK on both sides: 490,314 column multisets at (8, 4), times 256 outputs.
        for L in (4, 8):
            spec = es.EnsembleSpec(pair(), 8, 1, L, [0.5, 0.5])
            with pytest.raises(ValueError, match="too large"):
                es.exact_ensemble_divergence(spec)


def block_law(rows, n, c):
    # W^n(. | c) by an explicit product over the n letters, output blocks
    # in the same bit order as the module's (bit k of an index is letter k).
    return np.array([
        math.prod(rows[(c >> k) & 1][(y >> k) & 1] for k in range(n)) for y in range(1 << n)
    ])


def block_prob(q, n, c):
    return math.prod(q[(c >> k) & 1] for k in range(n))


ORACLE_CASES = [
    # (n, M, L, eps, q1): tiny blocks, eps = 0 for exact ties, a skewed law
    (2, 2, 1, 0.0, 0.5),
    (2, 1, 3, 0.0, 0.2),
    (2, 2, 2, 0.1, 0.5),
    (3, 3, 1, 0.2, 0.3),
    (3, 1, 2, 0.0, 0.8),
    (2, 2, 2, 0.3, 0.1),
]


class TestBruteForceOracles:
    """Exact values against sums over every ordered codebook or tuple."""

    @pytest.mark.parametrize("n, M, L, eps, q1", ORACLE_CASES)
    def test_error_matches_ml_decoding_of_every_codebook(self, n, M, L, eps, q1):
        # A BSC with eps < 1/2 decodes ML by Hamming distance, so ties are
        # decided on integers here; the lower index wins them.
        spec = es.EnsembleSpec(pair(eps, 0.3), n, M, L, [1.0 - q1, q1])
        q, rows, ml = spec.q, spec.pair.bob.rows, M * L
        laws = [block_law(rows, n, c) for c in range(1 << n)]
        total = 0.0
        for book in itertools.product(range(1 << n), repeat=ml):
            weight = math.prod(block_prob(q, n, c) for c in book)
            for y in range(1 << n):
                dist = [bin(c ^ y).count("1") for c in book]
                decoded = dist.index(min(dist))
                total += weight * sum(laws[c][y] for i, c in enumerate(book) if i != decoded) / ml
        assert es.exact_ensemble_error(spec) == pytest.approx(total, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("n, M, L, eps, q1", ORACLE_CASES)
    def test_divergence_matches_sum_over_ordered_tuples(self, n, M, L, eps, q1):
        # Ordered L-tuples of i.i.d. codewords need no multinomial weights.
        spec = es.EnsembleSpec(pair(0.1, eps), n, M, L, [1.0 - q1, q1])
        q, rows = spec.q, spec.pair.eve.rows
        laws = [block_law(rows, n, c) for c in range(1 << n)]
        target = sum(block_prob(q, n, c) * laws[c] for c in range(1 << n))
        total = 0.0
        for subcode in itertools.product(range(1 << n), repeat=L):
            mixture = sum(laws[c] for c in subcode) / L
            div = sum(m * math.log(m / t) for m, t in zip(mixture, target) if m > 0.0)
            total += math.prod(block_prob(q, n, c) for c in subcode) * div
        assert es.exact_ensemble_divergence(spec) == pytest.approx(total, rel=1e-12, abs=1e-15)

    def test_equal_pattern_profiles_give_bitwise_equal_likelihoods(self):
        n = 6
        rows = np.array([[0.9, 0.1], [0.37, 0.63]])
        table = es._likelihood_table(DiscreteChannel(rows), n)
        groups = {}
        for c in range(1 << n):
            for y in range(1 << n):
                profile = tuple(
                    sum(((c >> k) & 1, (y >> k) & 1) == (a, b) for k in range(n)) for a in (0, 1) for b in (0, 1)
                )
                groups.setdefault(profile, set()).add(table[c, y])
        assert len(groups) == math.comb(n + 3, 3)
        assert all(len(values) == 1 for values in groups.values())
        for c, y in ((0, 0), (5, 9), (63, 1), (42, 21)):
            assert table[c, y] == pytest.approx(block_law(rows, n, c)[y], rel=1e-14)


def _intp_likelihood_table(channel, n):
    # The table as it was before the uint8 counts and the in-place product: the bitwise oracle.
    w = channel.rows
    ones = sum((np.arange(1 << n) >> bit) & 1 for bit in range(n))
    n11 = ones[np.bitwise_and.outer(np.arange(1 << n), np.arange(1 << n))]
    n10, n01 = ones[:, None] - n11, ones - n11
    return (
        es._powers(w[0, 0], n)[n - n11 - n10 - n01] * es._powers(w[0, 1], n)[n01]
        * es._powers(w[1, 0], n)[n10] * es._powers(w[1, 1], n)[n11]
    )


class TestDrawsAndTableMatchTheOracles:
    @pytest.mark.parametrize("n", range(1, 9))
    # q1 = 0.5 puts every cdf step exactly on a bucket edge; 0 and 1 leave one codeword.
    @pytest.mark.parametrize("q1", [0.0, 1e-9, 0.15, 0.5, 0.85, 1.0])
    def test_draws_are_generator_choice_element_for_element(self, n, q1):
        qn = es._block_input_probs(np.array([1.0 - q1, q1]), n)
        for shape in ((2, 1), (1001, 3), (20000, 8)):
            for seed in (0, 1, 7919):
                got = es._draw_codewords(np.random.default_rng(seed), qn, shape)
                want = np.random.default_rng(seed).choice(1 << n, size=shape, p=qn)
                assert got.dtype == np.uint8 and got.shape == shape and np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("q1", [1e-9, 0.15, 0.5, 0.85])
    def test_draws_at_uniforms_on_and_beside_every_step_and_edge(self, n, q1):
        # Uniforms a seeded generator almost never yields: each cdf value and
        # bucket edge and their float neighbours, searched as Generator.choice does.
        qn = es._block_input_probs(np.array([1.0 - q1, q1]), n)
        cdf = qn.cumsum()
        cdf /= cdf[-1]
        points = np.concatenate([cdf[:-1], np.arange(es.DRAW_BUCKETS) / es.DRAW_BUCKETS])
        u = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
        u = u[(u >= 0.0) & (u < 1.0)]

        class Uniforms:
            def random(self, shape):
                return u.reshape(shape).copy()

        got = es._draw_codewords(Uniforms(), qn, u.shape)
        assert np.array_equal(got, cdf.searchsorted(u, side="right"))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_likelihood_table_is_the_intp_formula_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        channels = [DiscreteChannel([[1.0, 0.0], [0.3, 0.7]])]
        for _ in range(4):
            e = rng.random(2)
            channels.append(DiscreteChannel([[1.0 - e[0], e[0]], [e[1], 1.0 - e[1]]]))
        for channel in channels:
            got = es._likelihood_table(channel, n)
            want = _intp_likelihood_table(channel, n)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


# Ten binary channels for the rank table, four of them with 0 and 1 entries.
RANK_CHANNELS = [
    [[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.3, 0.7]], [[0.25, 0.75], [1.0, 0.0]],
    [[0.9, 0.1], [0.1, 0.9]], [[0.99, 0.01], [0.01, 0.99]], [[0.9, 0.1], [0.37, 0.63]], [[0.6, 0.4], [0.2, 0.8]],
    [[0.0, 1.0], [1.0, 0.0]], [[0.5, 0.5], [0.001, 0.999]],
]


class TestRankTable:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_ranks_index_the_sorted_distinct_likelihoods(self, n):
        for rows in RANK_CHANNELS:
            lk = es._likelihood_table(DiscreteChannel(rows), n)
            values, ranks = es._rank_table(lk, n)
            assert ranks.dtype == np.uint8 and ranks.shape == lk.shape
            assert values[ranks].tobytes() == lk.tobytes(), rows
            assert np.all(np.diff(values) > 0.0) and len(values) <= math.comb(n + 3, 3) <= 165, rows
            # Every codeword row has the rank histogram of the row of its weight's representative 2^w - 1.
            hists = np.array([np.bincount(row, minlength=len(values)) for row in ranks])
            weights = [bin(c).count("1") for c in range(1 << n)]
            assert np.array_equal(hists, hists[[(1 << w) - 1 for w in weights]]), rows


class TestBounds:
    def test_error_bound_holds_on_sweep(self):
        for n in (2, 3, 4):
            for m in (1, 2, 4):
                for l in (1, 2, 4):
                    if m * l > 8:
                        continue
                    for eps in (0.0, 0.1, 0.3, 0.5):
                        spec = es.EnsembleSpec(pair(eps, eps), n, m, l, [0.5, 0.5])
                        assert es.exact_ensemble_error(spec) <= es.error_bound(spec) + 1e-12

    def test_divergence_bounds_hold(self):
        spec = es.EnsembleSpec(pair(0.1, 0.3), 3, 2, 2, [0.5, 0.5])
        exact = es.exact_ensemble_divergence(spec)
        bound_psi, bound_phi = es.divergence_bounds(spec)
        assert exact <= bound_psi + 1e-12
        assert exact <= bound_phi + 1e-12
        assert bound_psi <= bound_phi + 1e-12

    def test_holder_gap_nonnegative_pointwise(self):
        spec = es.EnsembleSpec(pair(0.1, 0.3), 3, 1, 2, [0.5, 0.5])
        for rho in np.linspace(0.02, 0.98, 25):
            assert es.holder_gap(spec, float(rho)) >= -1e-12

    @pytest.mark.parametrize("rho", [0.0, 1.0, 1.5, -0.5, math.nan, math.inf])
    def test_holder_gap_rejects_rho_outside_the_open_unit_interval(self, rho):
        spec = es.EnsembleSpec(pair(0.1, 0.3), 3, 2, 2, [0.5, 0.5])
        with pytest.raises(ValueError, match="rho must be in"):
            es.holder_gap(spec, rho)

    @pytest.mark.parametrize("eps_e, q1", [(0.3, 0.5), (0.1, 0.2), (0.0, 0.7)])
    def test_bounds_equal_the_envelope_and_rho_search_bit_for_bit(self, eps_e, q1):
        # The bounds read the public optimum and E0; with the trivial cost
        # both are the shared envelope and rho search of the same query.
        for n, m, l in ((3, 2, 2), (5, 1, 4), (2, 4, 1)):
            spec = es.EnsembleSpec(pair(0.1, eps_e), n, m, l, [1.0 - q1, q1])
            query = es._trivial_cost_query(spec)
            envelope = engine._envelope(query, "eve")
            raw = engine._optimize(query, "bob", math.log(m * l) / n).raw
            assert es.error_bound(spec) == 2.0 * math.exp(-n * raw)

            def phi_neg(rho):
                return n * envelope(1.0 - rho)[0] + math.log(rho) + rho * math.log(l)

            _, best_phi = scan_then_golden_max(phi_neg, 1e-6, 1.0 - 1e-9, scan_points=33, tol=1e-12)
            assert es.divergence_bounds(spec)[1] == 2.0 * math.exp(-best_phi)
            for rho in (0.05, 0.5, 0.95):
                psi = es._psi(rho, spec.pair.eve, spec.q)
                assert es.holder_gap(spec, rho) == psi - envelope(1.0 - rho)[0]

    def test_holder_gap_zero_for_noiseless(self):
        spec = es.EnsembleSpec(pair(0.0, 0.0), 2, 1, 2, [0.5, 0.5])
        for rho in (0.25, 0.5, 0.75):
            assert es.holder_gap(spec, rho) == pytest.approx(0.0, abs=1e-12)


class TestReport:
    def test_report_fields_and_slacks(self):
        spec = es.EnsembleSpec(pair(), 3, 2, 2, [0.5, 0.5])
        report = es.certification_report(spec)
        for key in ("exact_error", "bound_error", "exact_divergence", "bound_psi", "bound_phi", "slacks"):
            assert key in report
        assert min(report["slacks"].values()) >= -1e-12


# The per-column, per-row evaluations that the type-class ones replaced,
# kept verbatim as oracles: the closed form over every output column and
# the divergence of every enumerated or sampled subcode.
def _oracle_exact_ensemble_error(spec):
    ml = spec.M * spec.L
    if ml == 1:
        return 0.0
    lk = es._likelihood_table(spec.pair.bob, spec.n)
    qn = es._block_input_probs(spec.q, spec.n)
    correct = 0.0
    for col in lk.T:
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


def _codeword_side_work(n, L):
    # Multisets of L codewords, times 2^n outputs each: the work of the codeword-side oracle below.
    return math.comb((1 << n) + L - 1, L) * (1 << n)


def _oracle_exact_ensemble_divergence(spec):
    n, L = spec.n, spec.L
    if _codeword_side_work(n, L) > es.MAX_DIVERGENCE_WORK:
        raise ValueError(f"divergence enumeration too large for n={n}, L={L}")
    lk = es._likelihood_table(spec.pair.eve, n)
    qn = es._block_input_probs(spec.q, n)
    support = np.flatnonzero(qn > 0.0).tolist()
    multisets = itertools.chain.from_iterable(itertools.combinations_with_replacement(support, L))
    idx = np.fromiter(multisets, dtype=np.intp).reshape(-1, L)
    # Multinomial weights L! prod q(c) / prod (multiplicity)!, each
    # factorial divided out where its run of equal entries ends.
    fact = np.array([float(math.factorial(k)) for k in range(L + 1)])
    weight, run = np.full(len(idx), fact[L]), np.zeros(len(idx), dtype=np.intp)
    for j in range(L):
        same = idx[:, j] == idx[:, j - 1] if j else False
        weight = weight * qn[idx[:, j]] / np.where(same, 1.0, fact[run])
        run = np.where(same, run + 1, 1)
    divs = np.maximum(es._subcode_divergences(lk, qn @ lk, idx), 0.0)
    return math.fsum((weight / fact[run] * divs).tolist())


def _oracle_mc_ensemble_divergence(spec, samples=100_000, seed=0):
    lk, qn, idx = es._mc_draws(spec, spec.pair.eve, samples, seed, spec.L)
    divs = es._subcode_divergences(lk, qn @ lk, idx)
    return float(divs.mean()), float(divs.std(ddof=1) / math.sqrt(len(divs)))


# (eps, q1): exact ties, a single-codeword support either way, a skewed law.
TYPE_SETTINGS = [(0.0, 0.5), (0.1, 0.0), (0.1, 1.0), (0.2, 0.15)]
# The error depends on M*L only and the divergences on L only, so every
# M*L <= 8 and every L <= 3 the codeword-side oracle enumerates within
# MAX_DIVERGENCE_WORK, plus (5, 2, 4) and (3, 1, 8).
ERROR_SHAPES = [(n, ml) for n in range(1, 9) for ml in range(1, 9)]
DIVERGENCE_SHAPES = [
    (n, L) for n in range(1, 9) for L in (1, 2, 3) if _codeword_side_work(n, L) <= es.MAX_DIVERGENCE_WORK
] + [(5, 4), (3, 8)]


def _coordinate_permutation(n, perm):
    # Block index c with letter k moved to letter perm[k], for every c.
    blocks = np.arange(1 << n)
    return sum(((blocks >> k) & 1) << int(perm[k]) for k in range(n))


class TestTypeClassesMatchTheOracles:
    @pytest.mark.parametrize("n, ml", ERROR_SHAPES)
    def test_exact_error(self, n, ml):
        # The oracle adds 2^n * ML terms to one running total of at most ML,
        # each addition rounding by up to half an ulp of it: that, divided
        # by ML, bounds its own rounding (8.2e-15 seen at n = 8, ML = 8).
        rounding = (1 << n) * ml * np.finfo(np.float64).eps / 2.0
        for eps, q1 in TYPE_SETTINGS:
            spec = es.EnsembleSpec(pair(eps, 0.3), n, ml, 1, [1.0 - q1, q1])
            want = _oracle_exact_ensemble_error(spec)
            assert es.exact_ensemble_error(spec) == pytest.approx(want, rel=1e-13, abs=max(rounding, 1e-15)), (eps, q1)

    @pytest.mark.parametrize("n, L", DIVERGENCE_SHAPES)
    def test_exact_divergence(self, n, L):
        for eps, q1 in TYPE_SETTINGS:
            spec = es.EnsembleSpec(pair(0.1, eps), n, 1, L, [1.0 - q1, q1])
            want = _oracle_exact_ensemble_divergence(spec)
            assert es.exact_ensemble_divergence(spec) == pytest.approx(want, rel=1e-13, abs=1e-15), (eps, q1)

    @pytest.mark.parametrize("n, L", DIVERGENCE_SHAPES)
    def test_monte_carlo_divergence(self, n, L):
        for eps, q1 in TYPE_SETTINGS:
            spec = es.EnsembleSpec(pair(0.1, eps), n, 1, L, [1.0 - q1, q1])
            seed = [n, L]
            got = es.mc_ensemble_divergence(spec, 3001, seed)
            want = _oracle_mc_ensemble_divergence(spec, 3001, seed)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), (eps, q1)


class TestTypeCodes:
    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_equal_codes_are_exactly_the_coordinate_permutation_orbits(self, n, L):
        # Every ordered L-tuple of n-bit codewords; two tuples are related
        # when one coordinate permutation, applied to each codeword, maps
        # one onto the other. The orbit's smallest tuple key names it.
        idx = np.array(list(itertools.product(range(1 << n), repeat=L)), dtype=np.intp).reshape(-1, L)
        place = (1 << n) ** np.arange(L)
        orbit = np.min(
            [_coordinate_permutation(n, perm)[idx] @ place for perm in itertools.permutations(range(n))], axis=0
        )
        codes = es._type_codes(idx, n)
        assert len(np.unique(codes)) == len(np.unique(orbit))
        pairs = np.unique(np.stack([codes, orbit.astype(np.uint64)]), axis=1)
        assert pairs.shape[1] == len(np.unique(codes))

    @pytest.mark.parametrize("n, L, dtype", [(8, 2, np.int64), (5, 4, np.uint8), (3, 8, np.int64)])
    def test_code_packs_the_rows_sorted_patterns(self, n, L, dtype):
        # 20,000 rows, more than one likelihood gather holds at these shapes.
        rng = np.random.default_rng(5)
        idx = rng.integers(0, 1 << n, size=(20_000, L)).astype(dtype)
        codes = es._type_codes(idx, n)
        assert codes.shape == (len(idx),)
        for i in rng.choice(len(idx), 300, replace=False):
            patterns = sorted(sum(((int(c) >> k) & 1) << j for j, c in enumerate(idx[i])) for k in range(n))
            assert int(codes[i]) == int.from_bytes(bytes(patterns + [0] * (8 - n)), sys.byteorder)

    @given(
        n=st.integers(1, es.MAX_BLOCK),
        L=st.integers(1, es.MAX_CODEBOOK),
        eps=st.sampled_from([0.0, 0.05, 0.3, 0.5]),
        q1=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_divergence_invariant_under_a_coordinate_permutation(self, n, L, eps, q1, seed):
        rng = np.random.default_rng(seed)
        spec = es.EnsembleSpec(pair(0.1, eps), n, 1, L, [1.0 - q1, q1])
        lk = es._likelihood_table(spec.pair.eve, n)
        qn = es._block_input_probs(spec.q, n)
        target = qn @ lk
        idx = rng.choice(1 << n, size=(1, L), p=qn)
        moved = _coordinate_permutation(n, rng.permutation(n))[idx]
        assert es._type_codes(idx, n) == es._type_codes(moved, n)
        # The mixture is permuted bitwise; the target and the sum over
        # outputs are rounded in another order, so the bound is a few
        # roundings of the summed magnitudes of the terms.
        mixture = lk[idx[0]].mean(axis=0)
        positive = mixture > 0.0
        scale = np.sum(np.abs(mixture[positive] * (np.log(mixture[positive]) - np.log(target[positive]))))
        change = abs(es._subcode_divergences(lk, target, idx)[0] - es._subcode_divergences(lk, target, moved)[0])
        assert change <= 16.0 * np.finfo(np.float64).eps * scale

    @pytest.mark.parametrize("n, L", [(8, 2), (6, 3)])
    def test_exact_divergence_evaluates_one_row_per_type(self, monkeypatch, n, L):
        # At most C(n + 2^L - 1, n) joint types (165 and 1,716 here), one
        # divergence row each, where one row per multiset is 32,896 and 45,760.
        rows = 0
        plain = es._divergences

        def counted(laws, ref):
            nonlocal rows
            rows += len(laws)
            return plain(laws, ref)

        monkeypatch.setattr(es, "_divergences", counted)
        es.exact_ensemble_divergence(es.EnsembleSpec(pair(), n, 1, L, [0.5, 0.5]))
        assert 0 < rows <= math.comb(n + (1 << L) - 1, n)


class _CountingItertools:
    """Stands in for ensemble_sim's ``itertools`` binding and counts the multisets it yields."""

    def __init__(self):
        self.multisets = 0

    def combinations_with_replacement(self, iterable, r):
        for combo in itertools.combinations_with_replacement(iterable, r):
            self.multisets += 1
            yield combo

    def __getattr__(self, attr):
        return getattr(itertools, attr)


class TestEnumerationSide:
    @pytest.mark.parametrize("n, L", [(8, 2), (6, 3), (5, 4), (4, 4), (3, 8)])
    def test_multisets_are_enumerated_along_the_smaller_side(self, monkeypatch, n, L):
        # Multisets of the L codewords or of the n column patterns of L bits, whichever are fewer.
        counting = _CountingItertools()
        monkeypatch.setattr(es, "itertools", counting)
        es.exact_ensemble_divergence(es.EnsembleSpec(pair(), n, 1, L, [0.5, 0.5]))
        assert counting.multisets == min(math.comb((1 << n) + L - 1, L), math.comb((1 << L) + n - 1, n))

    @pytest.mark.parametrize("n, L", [(6, 4), (7, 3), (7, 4), (8, 3)])
    def test_work_guard_counts_the_side_enumerated(self, n, L):
        # Past MAX_DIVERGENCE_WORK on the codeword side, within it on the column side, which is enumerated.
        assert _codeword_side_work(n, L) > es.MAX_DIVERGENCE_WORK
        value = es.exact_ensemble_divergence(es.EnsembleSpec(pair(), n, 1, L, [0.5, 0.5]))
        assert math.isfinite(value) and value > 0.0

    def test_admitted_shape_matches_the_noiseless_closed_form(self):
        # A noiseless tap and uniform codewords: the target is uniform on N = 2^n outputs and the
        # subcode's mixture is the empirical law of its L codewords, so D = log N - H(mixture).
        # Equal codewords split the L draws by a set partition with k blocks, which has
        # probability N (N - 1) ... (N - k + 1) / N^L; set partitions are restricted growth strings.
        n, L = 8, 3
        size, terms = 1 << n, []
        for labels in itertools.product(range(L), repeat=L):
            if all(labels[i] <= max(labels[:i], default=-1) + 1 for i in range(L)):
                blocks = [labels.count(b) / L for b in set(labels)]
                prob = math.prod(size - j for j in range(len(blocks))) / size**L
                terms.append(prob * (n * math.log(2.0) + sum(p * math.log(p) for p in blocks)))
        spec = es.EnsembleSpec(pair(0.1, 0.0), n, 1, L, [0.5, 0.5])
        assert es.exact_ensemble_divergence(spec) == pytest.approx(math.fsum(terms), rel=1e-13)

    def test_cli_runs_an_admitted_shape(self, tmp_path):
        out = tmp_path / "out.json"
        argv = ["ensemble", "--n", "7", "--M", "1", "--L", "4", "--eps-y", "0.1", "--eps-z", "0.3", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert math.isfinite(json.loads(out.read_text(encoding="utf-8"))["exact_divergence"])

    def test_rows_equal_up_to_codeword_order_share_a_divergence(self, monkeypatch):
        # 15,504 column multisets at (5, 4); 3,752 rows when only letter orders are merged.
        rows = 0
        plain = es._divergences

        def counted(laws, ref):
            nonlocal rows
            rows += len(laws)
            return plain(laws, ref)

        monkeypatch.setattr(es, "_divergences", counted)
        es.exact_ensemble_divergence(es.EnsembleSpec(pair(), 5, 1, 4, [0.5, 0.5]))
        assert 0 < rows <= 2997


def _mp_laws(rows):
    return [[mpmath.mpf(float(x)) for x in row] for row in rows]


def _mp_block_probs(q, width):
    # q^width of every block of width bits, bit k of a block being letter k.
    return [q[1] ** bin(b).count("1") * q[0] ** (width - bin(b).count("1")) for b in range(1 << width)]


def _mp_likelihoods(w, n):
    # W^n(y | c) indexed [c][y]: one product of per-letter powers for each count of the four letter pairs.
    ones = [bin(b).count("1") for b in range(1 << n)]
    products, table = {}, []
    for c in range(1 << n):
        table.append([])
        for y in range(1 << n):
            n11 = ones[c & y]
            counts = (n - ones[c] - ones[y] + n11, ones[y] - n11, ones[c] - n11, n11)
            if counts not in products:
                products[counts] = math.prod(w[a][b] ** k for (a, b), k in zip(((0, 0), (0, 1), (1, 0), (1, 1)), counts))
            table[c].append(products[counts])
    return table


def _mp_ordered_tuples(spec, q):
    # Every ordered L-tuple of codewords with its probability.
    qn = _mp_block_probs(q, spec.n)
    for subcode in itertools.product(range(1 << spec.n), repeat=spec.L):
        yield mpmath.fprod(qn[c] for c in subcode), subcode


def _mp_column_multisets(spec, q):
    # Every multiset of the n column patterns (L bits, law q^L) with its
    # multinomial probability, and the L codewords it transposes to.
    n, L = spec.n, spec.L
    ql = _mp_block_probs(q, L)
    for columns in itertools.combinations_with_replacement(range(1 << L), n):
        ways = math.factorial(n) // math.prod(math.factorial(columns.count(p)) for p in set(columns))
        codewords = [sum(((p >> j) & 1) << k for k, p in enumerate(columns)) for j in range(L)]
        yield ways * mpmath.fprod(ql[p] for p in columns), codewords


def _mp_expected_divergence(spec, subcodes):
    """Sum of probability * D(mixture || target) over the (probability, codewords) pairs ``subcodes(spec, q)``."""
    n, L = spec.n, spec.L
    w, q = _mp_laws(spec.pair.eve.rows), _mp_laws([spec.q])[0]
    lk = _mp_likelihoods(w, n)
    target = _mp_block_probs([q[0] * w[0][z] + q[1] * w[1][z] for z in (0, 1)], n)
    logs, divergences, total = {}, {}, mpmath.mpf(0)
    for prob, codewords in subcodes(spec, q):
        key = tuple(sorted(codewords))
        if key not in divergences:
            div = mpmath.mpf(0)
            for y in range(1 << n):
                mix = mpmath.fsum(lk[c][y] for c in key) / L
                if mix:
                    for x in (mix, target[y]):
                        logs.setdefault(x, mpmath.log(x))
                    div += mix * (logs[mix] - logs[target[y]])
            divergences[key] = div
        total += prob * divergences[key]
    return total


def _mp_mc_error(spec, samples, seed):
    """(mean, stderr) of (1/ML) sum_y (sum_c W - max_c W) over the codebooks ``_mc_draws`` draws, in mpmath."""
    ml = spec.M * spec.L
    lk, _, idx = es._mc_draws(spec, spec.pair.bob, samples, seed, ml)
    # Each output's likelihoods but one largest: the mass sent to it and lost.
    errs = [mpmath.fsum(np.sort(lk[book], axis=0)[:-1].ravel().tolist()) / ml for book in idx]
    mean = mpmath.fsum(errs) / samples
    return mean, mpmath.sqrt(mpmath.fsum((e - mean) ** 2 for e in errs) / (samples - 1) / samples)


# (bob rows, q1, samples): exact ties, a skewed law, a zero entry off a
# symmetric channel, and a nearly noiseless one whose small error the
# lost mass must not cancel. 45 samples make more than one block of
# _block_rows at n = 8 with ML >= 6; no count is a multiple of a block.
MC_REFERENCE_SETTINGS = [
    ([[1.0, 0.0], [0.0, 1.0]], 0.5, 3),
    ([[0.9, 0.1], [0.1, 0.9]], 0.85, 2),
    ([[1.0, 0.0], [0.3, 0.7]], 0.5, 5),
    ([[0.99, 0.01], [0.01, 0.99]], 0.5, 45),
]


@pytest.fixture(scope="class")
def mc_reference_budget():
    # One Budget over every case of the class; it checks the total when the last case is torn down.
    with Budget("Monte Carlo error against 40-digit mpmath at 64 shapes and 4 settings", 10.0):
        yield


class TestMonteCarloReference:
    """The Monte Carlo error against 40-digit sums over the same sampled codebooks."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("ml", range(1, 9))
    def test_monte_carlo_error_is_within_1e_15_of_a_40_digit_sum(self, mc_reference_budget, n, ml):
        pytest.importorskip("mpmath")
        # The integer counts leave only the rounding of about 165 positive
        # products, their sum, /ML and the mean: 4.2e-16 at most seen. A
        # float sum of sent minus largest mass cancels where the error is
        # small: 1.5e-14 at n = 8, ML = 2 with the nearly noiseless channel.
        with mpmath.workdps(40):
            for rows, q1, samples in MC_REFERENCE_SETTINGS:
                spec = es.EnsembleSpec(WiretapPair(DiscreteChannel(rows), DiscreteChannel.bsc(0.3)), n, ml, 1,
                                       [1.0 - q1, q1])
                seed = [n, ml, samples]
                mean, stderr = es.mc_ensemble_error(spec, samples, seed)
                if ml == 1:
                    assert (mean, stderr) == (0.0, 0.0)
                    continue
                want_mean, want_stderr = _mp_mc_error(spec, samples, seed)
                assert abs(mean - want_mean) <= 1e-15 * want_mean, (rows, q1, mean, want_mean)
                assert abs(stderr - want_stderr) <= 1e-15 * want_mean, (rows, q1, stderr, want_stderr)


class TestHighPrecisionReference:
    """The exact divergence against 40-digit sums that share no code with the library."""

    def test_exact_divergence_is_within_1e_14_of_a_40_digit_sum(self):
        pytest.importorskip("mpmath")
        # Every ordered L-tuple at tiny shapes, codeword side (2, 3), (3, 4)
        # and column side (3, 2), (4, 2); the column-pattern multinomial at
        # (8, 2) and (6, 3), 165 and 1,716 column multisets.
        cases = [(n, L, _mp_ordered_tuples) for n, L in ((2, 3), (3, 2), (4, 2), (3, 4))]
        cases += [(8, 2, _mp_column_multisets), (6, 3, _mp_column_multisets)]
        with Budget("exact divergence against 40-digit mpmath at 6 shapes and 4 settings", 20.0):
            with mpmath.workdps(40):
                for eps_z in (0.0, 0.2):
                    for q1 in (0.5, 0.15):
                        for n, L, subcodes in cases:
                            spec = es.EnsembleSpec(pair(0.1, eps_z), n, 1, L, [1.0 - q1, q1])
                            want = _mp_expected_divergence(spec, subcodes)
                            got = es.exact_ensemble_divergence(spec)
                            assert abs(got - want) <= 1e-14 * want, (n, L, eps_z, q1, got, want)
