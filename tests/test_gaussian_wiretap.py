import math

import numpy as np
import pytest

from wiretap_exponents import gaussian_wiretap as gw


def fig_params(gamma=0.5):
    return gw.GaussianWiretapParams(1.0, 0.5, 0.5, 0.8, gamma)


class TestParams:
    def test_snr_values(self):
        p = fig_params()
        assert p.snr_bob == pytest.approx(2.0, abs=1e-15)
        assert p.snr_eve == pytest.approx(0.1953125, abs=1e-15)

    def test_degradedness_enforced(self):
        with pytest.raises(ValueError):
            gw.GaussianWiretapParams(1.0, 2.0, 1.0, 0.1, 1.0)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            gw.GaussianWiretapParams(0.0, 0.5, 0.5, 0.8, 0.5)
        with pytest.raises(ValueError):
            gw.GaussianWiretapParams(1.0, 0.5, 0.5, 0.8, 0.0)

    @pytest.mark.parametrize(
        "args",
        [
            (2.0, 1e-12, 1e-300, 1e-12, 0.5),  # noise_bob squared underflows to 0
            (1e300, 5.0, 5.0, 0.5, 0.999999),  # gain_bob squared overflows
            (1e-200, 1e-200, 1.0, 1.0, 0.5),  # both gains squared underflow: both SNRs are 0
        ],
    )
    def test_snr_outside_the_float_range_rejected(self, args):
        with pytest.raises(ValueError, match="snr_bob"):
            gw.GaussianWiretapParams(*args)


class TestCapacity:
    def test_reference_value(self):
        # direct formula evaluation: half log(3) minus half log(1.1953125)
        direct = 0.5 * math.log(3.0) - 0.5 * math.log(1.1953125)
        assert gw.capacity(fig_params()) == pytest.approx(direct, abs=1e-9)
        assert direct == pytest.approx(0.46010231559764575, abs=1e-15)

    def test_equals_snr_gap_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            gain_b = rng.uniform(0.2, 3.0)
            noise_b = rng.uniform(0.1, 2.0)
            ratio_scale = rng.uniform(1.0, 3.0)
            gain_e = rng.uniform(0.2, 3.0)
            noise_e = gain_e * (noise_b / gain_b) * ratio_scale
            gamma = rng.uniform(0.1, 4.0)
            p = gw.GaussianWiretapParams(gain_b, gain_e, noise_b, noise_e, gamma)
            lhs = gw.capacity(p)
            rhs = 0.5 * math.log1p(p.snr_bob) - 0.5 * math.log1p(p.snr_eve)
            assert lhs == pytest.approx(rhs, abs=1e-12)
            assert lhs >= -1e-15

    def test_matched_channels_zero(self):
        p = gw.GaussianWiretapParams(1.0, 1.0, 0.5, 0.5, 0.7)
        assert gw.capacity(p) == 0.0

    def test_vanishes_with_power(self):
        # capacity is linear in the cap near zero, about half the SNR gap
        p = gw.GaussianWiretapParams(1.0, 0.5, 0.5, 0.8, 1e-12)
        assert gw.capacity(p) == pytest.approx(0.0, abs=1e-11)
        assert gw.capacity(p) == pytest.approx(0.5 * (p.snr_bob - p.snr_eve), rel=1e-9)


class TestCriticalRates:
    def test_reference_values(self):
        r_param, r_expl = gw.critical_rates(fig_params())
        assert r_param == pytest.approx(0.5 * math.log(2) - 0.125, abs=1e-15)
        assert r_expl == pytest.approx(0.5 * math.log(1 + math.sqrt(2) / 2), abs=1e-15)

    def test_zero_snr_limit(self):
        p = gw.GaussianWiretapParams(1.0, 1.0, 1e6, 1e6, 1.0)
        r_param, r_expl = gw.critical_rates(p)
        assert r_param == pytest.approx(0.0, abs=1e-6)
        assert r_expl == pytest.approx(0.0, abs=1e-6)

    def test_ordering_over_sweep(self):
        for snr in np.linspace(1e-3, 100.0, 1000):
            p = gw.GaussianWiretapParams(1.0, 1.0, math.sqrt(1.0 / snr), math.sqrt(1.0 / snr), 1.0)
            r_param, r_expl = gw.critical_rates(p)
            assert r_param <= r_expl + 1e-12


class TestReliabilityForms:
    def test_zero_at_capacity_rate(self):
        p = fig_params()
        cap = 0.5 * math.log1p(p.snr_bob)
        assert gw.reliability_forward_tilt(p, cap) == pytest.approx(0.0, abs=1e-12)
        assert gw.reliability_gallager(p, cap) == pytest.approx(0.0, abs=1e-12)

    def test_branch_continuity(self):
        p = fig_params()
        r_param, r_expl = gw.critical_rates(p)
        eps = 1e-13
        assert gw.reliability_forward_tilt(p, r_param - eps) == pytest.approx(
            gw.reliability_forward_tilt(p, r_param + eps), abs=1e-10
        )
        assert gw.reliability_gallager(p, r_expl - eps) == pytest.approx(
            gw.reliability_gallager(p, r_expl + eps), abs=1e-10
        )

    def test_explicit_form_dominates(self):
        p = fig_params()
        for rate in (0.2, 0.4):
            assert gw.reliability_gallager(p, rate) > gw.reliability_forward_tilt(p, rate)

    @pytest.mark.parametrize("rate", [1.0, 6.92, 10.0, 13.0, 13.57, 13.83])
    def test_explicit_form_at_a_large_snr_matches_60_digits(self, rate):
        # snr_bob = 1.06e12, where snr ((1 + u) - (1 - u) root) / 4 cancels
        # to an absolute error near snr * 1e-16 however small the value.
        mpmath = pytest.importorskip("mpmath")
        snr = gw.GaussianWiretapParams(172.721, 0.00135165, 0.0014495, 2.97688e-07, 74.6664).snr_bob
        with mpmath.workdps(60):
            s, r = mpmath.mpf(snr), mpmath.mpf(rate)
            u = mpmath.exp(-2 * r)
            a = s * (1 - u)
            root = mpmath.sqrt(1 + 4 / a)
            ref = float(s * ((1 + u) - (1 - u) * root) / 4 + mpmath.log(1 - a * (root - 1) / 2) / 2 + r)
        got = gw._explicit_form(snr, rate)
        assert abs(got - ref) <= 1e-12 + 1e-14 * abs(ref)

    @pytest.mark.parametrize("snr", [0.5, 2.0, 1e3, 1e8, 1e15, 1e16, 1e50, 1e150, 1e300])
    def test_linear_branch_matches_60_digits(self, snr):
        # Below the explicit critical rate the exponent is 1 - d + log(d) / 2 + log(beta) / 2 - rate with
        # d = beta - snr / 2, taken as (1 + 1 / (h + snr / 2)) / 2, h = sqrt(1 + snr^2 / 4): the plain
        # difference cancels even at 60 digits from an SNR of about 1e150. The error stays within 2^-52 of
        # the exponent at rate 0 (1.85e-16 measured); from an SNR of 1e16 up it once raised at log(0).
        mpmath = pytest.importorskip("mpmath")
        p = gw.GaussianWiretapParams(1.0, 0.5, 1.0, 1.0, snr)
        r_crit = gw.critical_rates(p)[1]

        def error_and_reference(rate):
            with mpmath.workdps(60):
                a, r = mpmath.mpf(snr), mpmath.mpf(rate)
                h = mpmath.sqrt(1 + a * a / 4)
                d = (1 + 1 / (h + a / 2)) / 2
                ref = 1 - d + mpmath.log(d) / 2 + mpmath.log((1 + a / 2 + h) / 2) / 2 - r
                return float(abs(gw.reliability_gallager(p, rate) - ref)), float(ref)

        scale = error_and_reference(0.0)[1]
        for frac in (0.0, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-9):
            assert error_and_reference(frac * r_crit)[0] <= 2.0**-52 * scale, frac

    def test_rate_range_enforced(self):
        p = fig_params()
        cap = 0.5 * math.log1p(p.snr_bob)
        with pytest.raises(ValueError):
            gw.reliability_forward_tilt(p, cap + 0.01)
        with pytest.raises(ValueError):
            gw.reliability_gallager(p, -0.01)

    def test_monotone_convex_positive_inside(self):
        p = fig_params()
        cap = 0.5 * math.log1p(p.snr_bob)
        rates = np.linspace(0.01 * cap, 0.99 * cap, 60)
        for fn in (gw.reliability_forward_tilt, gw.reliability_gallager):
            vals = np.array([fn(p, float(r)) for r in rates])
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) < 0)
            assert np.all(np.diff(vals, 2) >= -1e-9)


class TestSecrecyForms:
    def test_zero_at_floor_rate(self):
        p = fig_params()
        floor = 0.5 * math.log1p(p.snr_eve)
        assert gw.secrecy_forward_tilt(p, floor) == pytest.approx(0.0, abs=1e-10)
        assert gw.secrecy_gallager_type(p, floor) == pytest.approx(0.0, abs=1e-10)

    def test_explicit_form_dominates(self):
        p = fig_params()
        for rate in (0.15, 0.3):
            assert gw.secrecy_forward_tilt(p, rate) > gw.secrecy_gallager_type(p, rate)

    def test_below_floor_rejected(self):
        p = fig_params()
        floor = 0.5 * math.log1p(p.snr_eve)
        for fn in (gw.secrecy_forward_tilt, gw.secrecy_gallager_type):
            with pytest.raises(ValueError):
                fn(p, floor * 0.9)

    @pytest.mark.parametrize("fn", [gw.secrecy_forward_tilt, gw.secrecy_gallager_type])
    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, fn, rate):
        with pytest.raises(ValueError, match="resolvability rate must be finite"):
            fn(fig_params(), rate)

    def test_monotone_convex_positive_inside(self):
        p = fig_params()
        floor = 0.5 * math.log1p(p.snr_eve)
        rates = np.linspace(floor * 1.001, floor + 0.4, 60)
        for fn in (gw.secrecy_forward_tilt, gw.secrecy_gallager_type):
            vals = np.array([fn(p, float(r)) for r in rates])
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) > 0)
            assert np.all(np.diff(vals, 2) >= -1e-9)

    def test_explicit_form_finite_where_beta_overflows(self):
        # beta = exp(2 R) overflows past R = 354.9; the form is evaluated in u = exp(-2 R) < 1 instead.
        vals = [gw.secrecy_forward_tilt(fig_params(), rate) for rate in (10.0, 100.0, 354.0, 355.0, 400.0, 1e6)]
        assert all(math.isfinite(v) for v in vals)
        assert vals == sorted(vals)


class TestDualities:
    def test_shared_form_transcription(self):
        # the explicit reliability expression evaluated at the tap's SNR and
        # beta reproduces the explicit secrecy expression; compare against a
        # literal transcription of the formula
        rng = np.random.default_rng(0)
        for _ in range(200):
            snr = rng.uniform(0.05, 10.0)
            beta = 1.0 + snr + rng.uniform(1e-3, 5.0)
            root = math.sqrt(1.0 + 4.0 * beta / (snr * (beta - 1.0)))
            literal = snr / (4.0 * beta) * ((beta + 1.0) - (beta - 1.0) * root) + 0.5 * math.log(
                beta - 0.5 * snr * (beta - 1.0) * (root - 1.0)
            )
            assert gw._explicit_form(snr, 0.5 * math.log(beta)) == pytest.approx(literal, abs=1e-12)

    def test_secrecy_equals_shared_form_at_exp_rate(self):
        p = fig_params()
        for rate in (0.12, 0.2, 0.35):
            assert gw.secrecy_forward_tilt(p, rate) == pytest.approx(
                gw._explicit_form(p.snr_eve, 0.5 * math.log(math.exp(2 * rate))), abs=1e-15
            )

    def test_parametric_forms_are_sign_flips(self):
        # the parametric secrecy expression at rho equals the parametric
        # reliability expression with rho negated and the tap SNR
        rng = np.random.default_rng(4)
        for _ in range(200):
            snr = rng.uniform(0.05, 10.0)
            rho = rng.uniform(0.01, 0.99)
            secrecy_expr = rho**2 * snr / (2 * (1 - rho) * (1 - rho + snr))
            rel_expr_flipped = (-rho) ** 2 * snr / (2 * (1 + (-rho)) * (1 + (-rho) + snr))
            assert secrecy_expr == pytest.approx(rel_expr_flipped, abs=1e-12)


class TestGridOracles:
    # dense brute-force maximization of the defining two-parameter
    # objectives; the closed forms must match the grids

    @staticmethod
    def explicit_objective(snr, beta, rho):
        return 0.5 * (
            (1 - beta) * (1 + rho) + snr + np.log(beta - snr / (1 + rho)) + rho * np.log(beta)
        )

    @staticmethod
    def explicit_objective_tap(snr, beta, rho):
        return 0.5 * (
            (1 - beta) * (1 - rho) + snr + np.log(beta - snr / (1 - rho)) - rho * np.log(beta)
        )

    def test_reliability_parametric_vs_grid(self):
        p = fig_params()
        snr = p.snr_bob
        for rate in (0.3, 0.45):
            best = -np.inf
            for rho in np.linspace(0.0, 1.0, 800):
                lo = 1 + snr / (1 + rho)
                betas = lo + np.linspace(0.0, 4.0, 800)
                best = max(best, float(np.max(self.explicit_objective(snr, betas, rho))) - rho * rate)
            assert gw.reliability_forward_tilt(p, rate) == pytest.approx(max(best, 0.0), abs=1e-5)

    def test_secrecy_explicit_vs_grid(self):
        p = fig_params()
        snr = p.snr_eve
        for rate in (0.15, 0.3):
            best = -np.inf
            for rho in np.linspace(1e-6, 1 - 1e-6, 800):
                lo = 1 + snr / (1 - rho)
                betas = lo + np.linspace(0.0, max(6.0, 3 * lo), 800)
                best = max(
                    best, float(np.max(self.explicit_objective_tap(snr, betas, rho))) + rho * rate
                )
            assert gw.secrecy_forward_tilt(p, rate) == pytest.approx(max(best, 0.0), abs=1e-5)


class TestFloatRange:
    @pytest.mark.parametrize("gamma", [1e155, 1e300])
    def test_explicit_critical_rate_is_finite_at_a_huge_snr(self, gamma):
        # 0.25 * snr^2 overflowed in the explicit critical rate past snr of about 2.7e154.
        mpmath = pytest.importorskip("mpmath")
        p = gw.GaussianWiretapParams(1.0, 0.5, 1.0, 2.0, gamma)
        with mpmath.workdps(40):
            s = mpmath.mpf(p.snr_bob)
            want = mpmath.log((1 + s / 2 + mpmath.sqrt(1 + s * s / 4)) / 2) / 2
        assert abs(gw.critical_rates(p)[1] - want) <= 1e-15 * want

    @pytest.mark.parametrize("side, gamma", [("reliability", 1e-16), ("secrecy", 1e-20)])
    def test_explicit_form_is_finite_where_exp_of_minus_2_rate_rounds_to_1(self, side, gamma):
        # The figure gains and noises; snr (1 - u) was 0 and 4 / a raised ZeroDivisionError.
        fn = gw.reliability_gallager if side == "reliability" else gw.secrecy_forward_tilt
        p = fig_params(gamma)
        floor = 0.5 * math.log1p(p.snr_eve)
        cap = 0.5 * math.log1p(p.snr_bob)
        rates = np.linspace(0.02 * cap, 0.98 * cap, 9) if side == "reliability" else floor * (1.001 + np.arange(9))
        assert math.exp(-2.0 * float(rates[0])) == 1.0
        assert all(math.isfinite(fn(p, float(rate))) for rate in rates)

    @pytest.mark.parametrize("gamma", [1e-160, 1e-300])
    def test_explicit_form_refuses_a_that_does_not_fit_a_float(self, gamma):
        # snr (1 - u) underflows, or 4 / a overflows: no float form, so ValueError (exit 2), not inf or a crash.
        p = fig_params(gamma)
        rate = 0.5 * 0.5 * math.log1p(p.snr_bob)
        with pytest.raises(ValueError, match="too small"):
            gw.reliability_gallager(p, rate)
        with pytest.raises(ValueError, match="too small"):
            gw._explicit_form(p.snr_eve, 0.5 * math.log1p(p.snr_eve))
