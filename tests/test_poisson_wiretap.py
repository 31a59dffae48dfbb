import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretap_exponents import ExponentQuery
from wiretap_exponents import poisson_wiretap as pw
from wiretap_exponents.exponent_engine import _E0Evaluator
from wiretap_exponents.solvers import golden_max


def fig_params(gamma=0.5):
    return pw.PoissonWiretapParams(12.0, 5.0, 0.5, 1.5, gamma)


class TestParams:
    def test_degradedness_enforced(self):
        with pytest.raises(ValueError):
            pw.PoissonWiretapParams(5.0, 12.0, 0.5, 1.5, 0.5)  # weaker peak for Bob
        with pytest.raises(ValueError):
            pw.PoissonWiretapParams(12.0, 5.0, 2.0, 0.1, 0.5)  # worse dark ratio for Bob
        with pytest.raises(ValueError):
            pw.PoissonWiretapParams(5.0, 5.0, 1.0, 1.0, 0.5)  # identical channels

    def test_equal_ratio_equal_scale_ok(self):
        p = pw.PoissonWiretapParams(12.0, 5.0, 12.0 * 0.1, 5.0 * 0.1, 1.0)
        assert p.s_bob == pytest.approx(p.s_eve, abs=1e-15)

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            pw.PoissonWiretapParams(12.0, 5.0, 0.5, 1.5, 1.5)


class TestDiscretize:
    def test_transition_probabilities(self):
        d = pw.discretize(fig_params(), 0.01)
        assert d.pair.bob.rows[0, 1] == pytest.approx(0.005, abs=1e-15)
        assert d.pair.bob.rows[1, 1] == pytest.approx(0.125, abs=1e-15)
        assert d.pair.eve.rows[0, 1] == pytest.approx(0.015, abs=1e-15)
        assert d.pair.eve.rows[1, 1] == pytest.approx(0.065, abs=1e-15)

    def test_zero_dark_current(self):
        p = pw.PoissonWiretapParams(12.0, 5.0, 0.0, 0.0, 0.5)
        d = pw.discretize(p, 0.01)
        assert d.pair.bob.rows[0, 1] == 0.0

    def test_linear_in_bin_width(self):
        d1 = pw.discretize(fig_params(), 0.01)
        d2 = pw.discretize(fig_params(), 0.005)
        assert d2.pair.bob.rows[0, 1] == pytest.approx(d1.pair.bob.rows[0, 1] / 2, abs=1e-18)
        assert d2.pair.bob.rows[1, 1] == pytest.approx(d1.pair.bob.rows[1, 1] / 2, abs=1e-18)

    def test_width_too_large(self):
        with pytest.raises(ValueError):
            pw.discretize(fig_params(), 0.1)

    def test_input_template(self):
        d = pw.discretize(fig_params(), 0.01)
        inp = d.make_input(0.38)
        assert inp.expected_cost == pytest.approx(0.38, abs=1e-15)
        with pytest.raises(ValueError):
            d.make_input(0.7)  # above the duty cap


class TestClosedForms:
    def test_zero_order_vanishes(self):
        params = fig_params()
        for q in (0.0, 0.2, 0.38, 0.5):
            assert pw.reliability_exponent(params, q, 0.0) == pytest.approx(0.0, abs=1e-12)
            assert pw.secrecy_exponent(params, q, 1e-12) == pytest.approx(0.0, abs=1e-10)

    def test_zero_order_vanishes_over_random_params(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            peak_b = rng.uniform(1.0, 30.0)
            peak_e = peak_b * rng.uniform(0.2, 1.0)
            ratio_b = rng.uniform(0.0, 2.0)
            ratio_e = ratio_b + rng.uniform(0.01, 2.0)
            p = pw.PoissonWiretapParams(peak_b, peak_e, ratio_b * peak_b, ratio_e * peak_e, 1.0)
            q = rng.uniform(0.0, 1.0)
            assert pw.reliability_exponent(p, q, 0.0) == pytest.approx(0.0, abs=1e-12)
            assert pw.secrecy_exponent(p, q, 1e-12) == pytest.approx(0.0, abs=1e-9)

    def test_linear_in_peak_rate(self):
        base = fig_params()
        doubled = pw.PoissonWiretapParams(24.0, 5.0, 1.0, 1.5, 0.5)  # same dark ratio
        for rho in (0.3, 0.7, 1.0):
            assert pw.reliability_exponent(doubled, 0.38, rho) == pytest.approx(
                2.0 * pw.reliability_exponent(base, 0.38, rho), rel=1e-12
            )

    def test_duty_cap_enforced(self):
        with pytest.raises(ValueError):
            pw.reliability_exponent(fig_params(), 0.6, 0.5)
        with pytest.raises(ValueError):
            pw.secrecy_exponent(fig_params(), 0.38, 1.0)

    def test_matches_sliced_channel_limit(self):
        # per-use tilted exponent of the sliced pair, divided by the bin
        # width, converges to the closed form at first order in the width
        params = fig_params()
        q = 0.38
        for rho, side, closed in [
            (0.5, "bob", pw.reliability_exponent(params, q, 0.5)),
            (0.5, "eve", pw.secrecy_exponent(params, q, 0.5)),
        ]:
            kappa = 1.0 + rho if side == "bob" else 1.0 - rho
            errs = []
            for delta in (1e-2, 1e-3):
                d = pw.discretize(params, delta)
                query = ExponentQuery(d.pair, [1 - q, q], d.costs, d.gamma)
                ev = _E0Evaluator(query, side)
                _, val = golden_max(lambda r: ev(kappa, r, 0.0), 0.0, 50.0, tol=1e-12)
                errs.append(abs(val / delta - closed))
            assert errs[1] <= errs[0] / 5.0

    def test_zero_dark_current_limit_continuous(self):
        # the closed form at tiny dark current approaches the zero-dark form
        tiny = pw.PoissonWiretapParams(12.0, 5.0, 12e-13, 5e-13 * 3, 0.5)
        zero = pw.PoissonWiretapParams(12.0, 5.0, 0.0, 0.0, 0.5)
        for rho in (0.3, 0.9):
            a = pw.reliability_exponent(tiny, 0.38, rho)
            b = pw.reliability_exponent(zero, 0.38, rho)
            assert a == pytest.approx(b, rel=1e-6)
        # analytic zero-dark value: peak * (q - q^(1+rho))
        assert pw.reliability_exponent(zero, 0.38, 1.0) == pytest.approx(
            12.0 * (0.38 - 0.38**2), abs=1e-12
        )


class TestRateMaps:
    def test_match_finite_differences(self):
        params = fig_params()
        q = 0.38
        h = 1e-6
        for rho in np.linspace(0.05, 0.95, 13):
            fd = (
                pw.reliability_exponent(params, q, rho + h)
                - pw.reliability_exponent(params, q, rho - h)
            ) / (2 * h)
            assert pw.reliability_rate(params, q, rho) == pytest.approx(fd, abs=1e-6)
            fd = -(
                pw.secrecy_exponent(params, q, rho + h)
                - pw.secrecy_exponent(params, q, rho - h)
            ) / (2 * h)
            assert pw.secrecy_rate(params, q, rho) == pytest.approx(fd, abs=1e-6)

    def test_endpoint_rates_are_information_rates(self):
        params = fig_params()
        q = 0.38
        assert pw.reliability_rate(params, q, 0.0) == pytest.approx(
            pw.bob_zero_rate(params, q), abs=1e-9
        )
        assert pw.secrecy_rate(params, q, 1e-12) == pytest.approx(
            pw.eve_zero_rate(params, q), abs=1e-9
        )

    def test_information_rate_matches_sliced_channel(self):
        from wiretap_exponents import mutual_information

        params = fig_params()
        q = 0.38
        delta = 1e-5
        d = pw.discretize(params, delta)
        per_use = mutual_information([1 - q, q], d.pair.bob)
        assert pw.bob_zero_rate(params, q) == pytest.approx(per_use / delta, rel=1e-3)

    @settings(max_examples=300, deadline=None)
    @given(s=st.floats(0.0, 1e8), q=st.floats(1e-12, 1.0))
    def test_information_rate_matches_50_digits(self, s, q):
        # (q + s) D(P||Q) at 50 digits, P = (q (1+s), (1-q) s) / (q + s) and Q = (q, 1-q). The float form
        # q (1+s) log(1+s) + (1-q) s log s - (q+s) log(q+s) cancels: at s = 1e6 its terms are 1e14 times the rate.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            ms, mq = mpmath.mpf(s), mpmath.mpf(q)
            mean = mq + ms
            exact = mq * (1 + ms) * mpmath.log((1 + ms) / mean)
            if s > 0.0:
                exact += (1 - mq) * ms * mpmath.log(ms / mean)
            exact = float(2.5 * exact)
        assert abs(pw._information_rate(2.5, s, q) - exact) <= 1e-13 * exact


    def test_large_dark_ratio_at_small_tilt_order(self):
        # (1 + s)^(1 / kappa) overflows a float at s = 2, kappa = 0.001.
        params = pw.PoissonWiretapParams(12.0, 5.0, 0.5, 10.0, 0.5)
        assert math.isfinite(pw.secrecy_exponent(params, 0.3, 0.999))
        assert math.isfinite(pw.secrecy_rate(params, 0.3, 0.999))

    @pytest.mark.parametrize("rho", [-3.0, -1e-12, 1.0 + 1e-12, math.nan])
    def test_reliability_rate_checks_rho(self, rho):
        with pytest.raises(ValueError, match="rho must be in"):
            pw.reliability_rate(fig_params(), 0.3, rho)

    @pytest.mark.parametrize("rho", [-0.5, 0.0, 1.0, math.nan])
    def test_secrecy_rate_checks_rho(self, rho):
        with pytest.raises(ValueError, match="rho must be in"):
            pw.secrecy_rate(fig_params(), 0.3, rho)

    @settings(max_examples=300, deadline=None)
    @given(
        peak_bob=st.floats(1e-3, 1e3),
        eve_share=st.floats(1e-3, 1.0),
        s_bob=st.floats(0.0, 1e3),
        s_extra=st.floats(0.0, 1e3),
        gamma=st.floats(0.0, 1.0),
        q=st.floats(-0.1, 1.1),
        rho=st.floats(-0.5, 1.5),
    )
    def test_public_forms_are_finite_or_rejected(self, peak_bob, eve_share, s_bob, s_extra, gamma, q, rho):
        # Degraded by construction: eve's peak is a share of bob's and her
        # dark-to-peak ratio is at least his.
        peak_eve = eve_share * peak_bob
        try:
            params = pw.PoissonWiretapParams(peak_bob, peak_eve, s_bob * peak_bob, (s_bob + s_extra) * peak_eve, gamma)
        except ValueError:
            return
        forms = (pw.reliability_exponent, pw.secrecy_exponent, pw.reliability_rate, pw.secrecy_rate)
        for form in forms:
            try:
                value = form(params, q, rho)
            except ValueError:
                continue
            assert math.isfinite(value), (form.__name__, value)

class TestCurves:
    def test_reliability_curve_shape(self):
        curve = pw.reliability_curve(fig_params(), 0.38, points=40)
        assert np.all(np.diff(curve.rates) > 0)
        assert np.all(np.diff(curve.exponents) < 1e-12)
        assert curve.exponents[-1] == pytest.approx(0.0, abs=1e-9)
        assert curve.rates[-1] == pytest.approx(pw.bob_zero_rate(fig_params(), 0.38), abs=1e-9)

    def test_secrecy_curve_shape(self):
        curve = pw.secrecy_curve(fig_params(), 0.38, points=40)
        assert np.all(np.diff(curve.rates) > 0)
        assert np.all(np.diff(curve.exponents) > -1e-12)
        assert curve.exponents[0] == pytest.approx(0.0, abs=1e-9)
        assert curve.rates[0] == pytest.approx(pw.eve_zero_rate(fig_params(), 0.38), abs=1e-6)

    def test_curve_points_are_the_legendre_points_of_the_public_forms(self):
        # Each point at rho is (rate, base -+ rho * rate) with the public
        # base and rate of its side, bit for bit.
        params, q = fig_params(), 0.38
        for curve_fn, base_fn, rate_fn, sign in (
            (pw.reliability_curve, pw.reliability_exponent, pw.reliability_rate, -1.0),
            (pw.secrecy_curve, pw.secrecy_exponent, pw.secrecy_rate, 1.0),
        ):
            curve = curve_fn(params, q, points=9)
            for rho, rate, exponent in zip(curve.meta["argmax_rho"], curve.rates, curve.exponents):
                assert rate == rate_fn(params, q, rho)
                assert exponent == max(base_fn(params, q, rho) + sign * rho * rate, 0.0)
        assert max(pw.secrecy_curve(params, q).meta["argmax_rho"]) == pw.SECRECY_RHO_MAX

    def test_curves_cross(self):
        f = pw.reliability_curve(fig_params(), 0.38, points=60)
        h = pw.secrecy_curve(fig_params(), 0.38, points=60)
        lo = max(f.rates[0], h.rates[0])
        hi = min(f.rates[-1], h.rates[-1])
        grid = np.linspace(lo, hi, 300)
        diff = np.interp(grid, f.rates, f.exponents) - np.interp(grid, h.rates, h.exponents)
        assert np.any(diff > 0) and np.any(diff < 0)


class TestCapacity:
    def test_residual_tiny(self):
        assert pw.capacity(fig_params()).residual < 1e-12

    def test_peaks_that_overflow_the_gap_derivative_are_rejected(self):
        with pytest.raises(ValueError, match="does not fit a float"):
            pw.capacity(pw.PoissonWiretapParams(1e308, 5e307, 0.0, 1.0, 0.5))

    def test_a_derivative_that_rounding_leaves_flat_is_rejected(self):
        # f(1e-12) and f(1 - 1e-12) both round to 0.0: the magnitudes swamp the change in q.
        with pytest.raises(ValueError, match="does not resolve q"):
            pw.capacity(pw.PoissonWiretapParams(1e-12, 1e-12, 0.5, 1e154, 1.0))

    def test_a_derivative_that_rounding_leaves_negative_at_both_ends_is_rejected(self):
        # Peaks of 1e-7 under dark currents 1 and 2 (poisson concat with a = 1e-7, b = 0): f(1e-12) and
        # f(1 - 1e-12) are rounding noise, both negative (RuntimeError "lost its bracket").
        with pytest.raises(ValueError, match="does not resolve q"):
            pw.capacity(pw.PoissonWiretapParams(1e-7, 1e-7, 1.0, 2.0, 0.0))

    def test_worst_case_ratio_analytic(self):
        for s in (0.1, 0.5, 1.0, 2.0):
            p = pw.PoissonWiretapParams(12.0, 5.0, 12.0 * s, 5.0 * s, 1.0)
            analytic = (1 + s) ** (1 + s) / (math.e * s**s) - s
            assert pw.capacity(p).q_star == pytest.approx(analytic, abs=1e-8)

    def test_zero_dark_current_values(self):
        p = pw.PoissonWiretapParams(12.0, 5.0, 0.0, 0.0, 0.5)
        cap = pw.capacity(p)
        assert cap.q_star == pytest.approx(1 / math.e, abs=1e-12)
        assert cap.value == pytest.approx(7 / math.e, abs=1e-10)

    def test_matches_dense_scan(self):
        params = fig_params()
        cap = pw.capacity(params)
        qs = np.linspace(0.0, params.gamma, 100001)
        scan = max(pw.information_gap(params, float(t)) for t in qs)
        assert cap.value == pytest.approx(scan, abs=1e-9)

    def test_duty_cap_binds(self):
        tight = fig_params(gamma=0.2)
        cap = pw.capacity(tight)
        assert cap.q_capped == 0.2
        assert cap.value == pytest.approx(pw.information_gap(tight, 0.2), abs=1e-12)

    def test_uncapped_matches_no_constraint_form(self):
        # with no duty constraint the capacity reduces to the simplified
        # expression in terms of the optimal duty alone
        p = pw.PoissonWiretapParams(12.0, 5.0, 0.5, 1.5, 1.0)
        cap = pw.capacity(p)
        ay, az, ly, lz, qs = 12.0, 5.0, 0.5, 1.5, cap.q_star
        reduced = (
            qs * (ay - az)
            + ly * math.log(ly)
            - lz * math.log(lz)
            + lz * math.log(az * qs + lz)
            - ly * math.log(ay * qs + ly)
        )
        assert cap.value == pytest.approx(reduced, abs=1e-9)

    def test_gap_vanishes_at_endpoints_and_is_concave(self):
        params = fig_params()
        assert pw.information_gap(params, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert pw.information_gap(params, 1.0) == pytest.approx(0.0, abs=1e-9)
        qs = np.linspace(0.01, 0.99, 99)
        vals = np.array([pw.information_gap(params, float(t)) for t in qs])
        assert np.all(np.diff(vals, 2) < 1e-9)


class TestConcatenation:
    def test_identity_transform(self):
        params = fig_params()
        plus = pw.concatenate_params(params, pw.ConcatenationParams(1.0, 0.0))
        assert plus.peak_bob == params.peak_bob
        assert plus.dark_bob == params.dark_bob
        assert plus.gamma == params.gamma

    def test_reference_transform_values(self):
        plus = pw.concatenate_params(fig_params(), pw.ConcatenationParams(0.98, 0.02))
        assert plus.peak_bob == pytest.approx(11.52, abs=1e-12)
        assert plus.dark_bob == pytest.approx(0.74, abs=1e-12)
        assert plus.peak_eve == pytest.approx(4.8, abs=1e-12)
        assert plus.dark_eve == pytest.approx(1.6, abs=1e-12)
        assert plus.gamma == pytest.approx(0.5, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            pw.ConcatenationParams(0.5, 0.5)
        with pytest.raises(ValueError):
            pw.concatenate_params(fig_params(gamma=0.01), pw.ConcatenationParams(0.9, 0.02))

    def test_degradedness_preserved_randomly(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            ay = rng.uniform(2, 20)
            az = ay * rng.uniform(0.2, 1.0)
            sy = rng.uniform(0.0, 1.0)
            sz = sy + rng.uniform(0.001, 1.0)
            p = pw.PoissonWiretapParams(ay, az, sy * ay, sz * az, rng.uniform(0.3, 1.0))
            b = rng.uniform(0.0, min(0.3, p.gamma))
            a = b + rng.uniform(0.05, 1.0 - b)
            plus = pw.concatenate_params(p, pw.ConcatenationParams(a, b))
            assert plus.peak_bob >= plus.peak_eve
            assert plus.s_bob <= plus.s_eve + 1e-12

    def test_identity_concat_keeps_outputs(self):
        params = fig_params()
        ident = pw.ConcatenationParams(1.0, 0.0)
        assert pw.capacity(pw.concatenate_params(params, ident)).value == pytest.approx(
            pw.capacity(params).value, abs=1e-12
        )
        f0 = pw.reliability_curve(params, 0.38, points=10)
        f1, _ = pw.curves(pw.concatenate_params(params, ident), 0.38, points=10)
        assert np.allclose(f0.exponents, f1.exponents)

    def test_prefix_orders_curves(self):
        params = fig_params()
        conc = pw.ConcatenationParams(0.98, 0.02)
        f0 = pw.reliability_curve(params, 0.38, points=50)
        h0 = pw.secrecy_curve(params, 0.38, points=50)
        f1, h1 = pw.curves(pw.concatenate_params(params, conc), 0.38, points=50)

        def ordered(hi, lo):
            a = max(hi.rates[0], lo.rates[0])
            b = min(hi.rates[-1], lo.rates[-1])
            grid = np.linspace(a, b, 200)
            return float(
                np.min(np.interp(grid, hi.rates, hi.exponents) - np.interp(grid, lo.rates, lo.exponents))
            )

        assert ordered(f0, f1) >= -1e-9  # reliability falls under the prefix
        assert ordered(h1, h0) >= -1e-9  # secrecy rises under the prefix

    def test_ordering_recheck_on_sliced_pairs(self):
        # the same ordering holds for the per-use engine exponents of the
        # sliced channels at a shared induced input law
        from wiretap_exponents import reliability_exponent, secrecy_exponent

        params = fig_params()
        delta = 1e-3
        d = pw.discretize(params, delta)
        conc = pw.ConcatenationParams(0.98, 0.02)
        aux = conc.channel()
        p_induced = 0.38
        qv1 = (p_induced - conc.b) / (conc.a - conc.b)
        base = ExponentQuery(d.pair, [1 - p_induced, p_induced], d.costs, d.gamma)
        plus = ExponentQuery(d.pair, [1 - qv1, qv1], d.costs, d.gamma, aux=aux)
        info_b = base.mutual_information("bob")
        info_e = base.mutual_information("eve")
        for f in (0.3, 0.6, 0.9):
            rate = f * info_b
            assert reliability_exponent(plus.with_rates(rate_b=rate)) <= (
                reliability_exponent(base.with_rates(rate_b=rate)) + 1e-12
            )
        for f in (1.2, 1.6, 2.0):
            rate = f * info_e
            assert secrecy_exponent(plus.with_rates(rate_e=rate)) >= (
                secrecy_exponent(base.with_rates(rate_e=rate)) - 1e-12
            )
