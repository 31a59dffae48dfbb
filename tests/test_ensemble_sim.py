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

    def test_work_guard(self):
        spec = es.EnsembleSpec(pair(), 8, 1, 8, [0.5, 0.5])
        with pytest.raises(ValueError, match="too large"):
            es.exact_ensemble_divergence(spec)


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
