import itertools
import math

import numpy as np
import pytest

from wiretap_exponents import DiscreteChannel, WiretapPair
from wiretap_exponents import ensemble_sim as es


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

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("ml", range(1, 9))
    def test_monte_carlo_is_the_per_output_loop_bit_for_bit(self, n, ml):
        # One pass per output y over every sampled codebook: argmax of the
        # ML likelihoods (the lower index wins a tie), their row sum, and a
        # running total of the lost mass over outputs.
        def per_output(spec, samples, seed):
            lk, _, idx = es._mc_draws(spec, spec.pair.bob, samples, seed, ml)
            err = np.zeros(samples)
            for y in range(lk.shape[1]):
                cols = lk[idx, y]
                best = np.argmax(cols, axis=1)
                sent_mass = cols.sum(axis=1)
                win_mass = cols[np.arange(samples), best]
                err += (sent_mass - win_mass) / ml
            return float(err.mean()), float(err.std(ddof=1) / math.sqrt(samples))

        # eps_y = 0 for exact likelihood ties, a skewed input law; sample
        # counts that are not a multiple of the block.
        for eps, q1 in ((0.0, 0.5), (0.1, 0.5), (0.2, 0.85)):
            spec = es.EnsembleSpec(pair(eps, 0.3), n, ml, 1, [1.0 - q1, q1])
            for samples in (2, 1001):
                seed = [n, ml, samples]
                got = es.mc_ensemble_error(spec, samples, seed)
                want = per_output(spec, samples, seed)
                assert [x.hex() for x in got] == [x.hex() for x in want]


    @pytest.mark.parametrize("n", range(1, 9))
    def test_output_totals_are_the_running_total_bit_for_bit(self, n):
        # At every block shape of the Monte Carlo loop, a full block and the
        # ragged last block of 1001 samples, with lost masses spanning many
        # magnitudes: the last column of a running total over outputs.
        rng = np.random.default_rng(n)
        for ml in range(1, es.MAX_CODEBOOK + 1):
            step = es._block_rows(ml, 1 << n)
            for rows in {step, 1001 % step, 1}:
                shape = (rows, 1 << n)
                lost = rng.random(shape) ** rng.integers(1, 3 * n + 1, size=shape) / ml
                want = np.cumsum(lost, axis=1)[:, -1]
                assert [x.hex() for x in es._output_totals(lost)] == [x.hex() for x in want]


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
        spec = es.EnsembleSpec(pair(), 8, 1, 8, [0.5, 0.5])
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
