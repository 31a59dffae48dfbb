import copy
import dataclasses
import itertools
import math
import pickle
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretap_exponents import (
    DiscreteChannel,
    ExponentCurve,
    ExponentQuery,
    WiretapPair,
    gallager_e0,
    mutual_information,
    reliability_curve,
    reliability_exponent,
    reliability_optimum,
    reliability_zero_rate,
    resolvability_e0,
    secrecy_capacity,
    secrecy_curve,
    secrecy_exponent,
    secrecy_optimum,
    secrecy_zero_rate,
    tradeoff_scenarios,
)
from wiretap_exponents import exponent_engine as engine
from wiretap_exponents import figures
from wiretap_exponents.channel_core import lifted_cost
from wiretap_exponents.exponent_engine import (
    RHO_EPS,
    ExponentOptimum,
    _E0Evaluator,
    _max_over_tilts,
    _tilt_caps,
)
from wiretap_exponents.solvers import scan_then_golden_max


def bsc_pair(eps_b=0.1, eps_e=0.3):
    return WiretapPair(DiscreteChannel.bsc(eps_b), DiscreteChannel.bsc(eps_e))


def fig_query(rate_b=0.0, rate_e=0.0):
    # the standard binary symmetric setup: costs (1, 2), cap 1.4, q(1) = 0.4
    return ExponentQuery(bsc_pair(), [0.6, 0.4], [1.0, 2.0], 1.4, rate_b=rate_b, rate_e=rate_e)


def literal_e0_bob(rho, q, rows, costs, gamma, r, s):
    # direct transcription of the tilted sum, no log-sum-exp
    total = 0.0
    for y in range(len(rows[0])):
        inner = sum(
            q[x] * math.exp(s * (gamma - costs[x])) * rows[x][y] ** (1.0 / (1.0 + rho)) * math.exp(r * (gamma - costs[x]))
            for x in range(len(q))
        )
        total += inner ** (1.0 + rho)
    return -math.log(total)


def literal_e0_eve(rho, q, rows, costs, gamma, r, s):
    total = 0.0
    for z in range(len(rows[0])):
        inner = sum(
            q[x] * math.exp(s * (gamma - costs[x])) * rows[x][z] ** (1.0 / (1.0 - rho)) * math.exp(r * (gamma - costs[x]))
            for x in range(len(q))
        )
        total += inner ** (1.0 - rho)
    return -math.log(total)


class TestExponentBases:
    def test_zero_order_collapses(self):
        q = fig_query()
        assert abs(gallager_e0(0.0, q)) <= 1e-12
        assert abs(resolvability_e0(1e-12, q)) <= 1e-11

    def test_bob_matches_literal_evaluator(self):
        q = fig_query()
        for rho, r, s in [(1.0, 0.0, 0.0), (0.5, 0.1, 0.0), (0.25, 0.05, 0.2)]:
            lit = literal_e0_bob(rho, [0.6, 0.4], [[0.9, 0.1], [0.1, 0.9]], [1.0, 2.0], 1.4, r, s)
            assert gallager_e0(rho, q, r, s) == pytest.approx(lit, abs=1e-12)

    def test_eve_matches_literal_evaluator(self):
        q = fig_query()
        for rho, r, s in [(0.5, 0.0, 0.0), (0.3, 0.2, 0.1)]:
            lit = literal_e0_eve(rho, [0.6, 0.4], [[0.7, 0.3], [0.3, 0.7]], [1.0, 2.0], 1.4, r, s)
            assert resolvability_e0(rho, q, r, s) == pytest.approx(lit, abs=1e-12)

    def test_identity_prefix_equals_no_prefix(self):
        plain = fig_query()
        with_aux = ExponentQuery(bsc_pair(), [0.6, 0.4], [1.0, 2.0], 1.4, aux=DiscreteChannel.identity(2))
        for rho, r, s in [(0.3, 0.2, 0.1), (0.9, 0.0, 0.4), (1.0, 1.3, 0.0)]:
            assert gallager_e0(rho, with_aux, r, s) == pytest.approx(
                gallager_e0(rho, plain, r + s, 0.0), abs=1e-12
            )

    def test_eve_output_relabeling_invariance(self):
        base = fig_query()
        flipped_eve = DiscreteChannel([[0.3, 0.7], [0.7, 0.3]])
        relabeled = ExponentQuery(
            WiretapPair(DiscreteChannel.bsc(0.1), flipped_eve), [0.6, 0.4], [1.0, 2.0], 1.4
        )
        for rho in (0.2, 0.5, 0.8):
            assert resolvability_e0(rho, base) == pytest.approx(
                resolvability_e0(rho, relabeled), abs=1e-14
            )

    def test_rho_range_enforced(self):
        q = fig_query()
        with pytest.raises(ValueError):
            gallager_e0(1.5, q)
        with pytest.raises(ValueError):
            resolvability_e0(1.0, q)
        with pytest.raises(ValueError):
            resolvability_e0(0.0, q)
        with pytest.raises(ValueError):
            gallager_e0(0.5, q, r=-1.0)

    @pytest.mark.parametrize("e0", [gallager_e0, resolvability_e0])
    @pytest.mark.parametrize("tilt", ["r", "s"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_tilts_rejected(self, e0, tilt, bad):
        with pytest.raises(ValueError, match="finite"):
            e0(0.5, fig_query(), **{tilt: bad})

    def test_huge_finite_tilt_gives_a_finite_value(self):
        # The exponent base grows linearly in r, so a huge tilt is a huge finite value, not an error.
        assert math.isfinite(gallager_e0(0.5, fig_query(), r=1e300))


class TestQueryValidation:
    def test_infeasible_input_rejected(self):
        with pytest.raises(ValueError):
            ExponentQuery(bsc_pair(), [0.5, 0.5], [1.0, 2.0], 1.4)

    def test_prefix_induced_cost_checked(self):
        # q(1) = 0.4 on the prefix input induces expected cost above the cap
        aux = DiscreteChannel.bsc(0.025)
        with pytest.raises(ValueError):
            ExponentQuery(bsc_pair(), [0.6, 0.4], [1.0, 2.0], 1.4, aux=aux)
        # the reachable law just below the cap is accepted
        qv1 = (0.4 - 0.025) / 0.95
        ExponentQuery(bsc_pair(), [1 - qv1, qv1], [1.0, 2.0], 1.4, aux=aux)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            fig_query(rate_b=-0.1)

    def test_negative_x_cost_rejected_behind_a_prefix(self):
        # The lifted cost on V, (1.1, 2.55), is nonnegative, but X letter 0 costs -0.5.
        aux = DiscreteChannel([[0.5, 0.5], [0.1, 0.9]])
        with pytest.raises(ValueError, match="nonnegative"):
            ExponentQuery(bsc_pair(), [0.5, 0.5], [-0.5, 3.0], 2.0, aux=aux)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rates_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            fig_query(rate_b=bad)
        with pytest.raises(ValueError, match="finite"):
            fig_query().with_rates(rate_e=bad)


def query_variants():
    """Queries that differ from fig_query() in exactly one of the compared contents."""
    return {
        "bob": ExponentQuery(bsc_pair(0.11, 0.3), [0.6, 0.4], [1.0, 2.0], 1.4),
        "eve": ExponentQuery(bsc_pair(0.1, 0.31), [0.6, 0.4], [1.0, 2.0], 1.4),
        "q": ExponentQuery(bsc_pair(), [0.7, 0.3], [1.0, 2.0], 1.4),
        "costs": ExponentQuery(bsc_pair(), [0.6, 0.4], [1.0, 1.5], 1.4),
        "gamma": ExponentQuery(bsc_pair(), [0.6, 0.4], [1.0, 2.0], 1.6),
        "aux": ExponentQuery(bsc_pair(), [0.6, 0.4], [1.0, 2.0], 1.4, aux=DiscreteChannel.identity(2)),
        "rate_b": fig_query(rate_b=0.1),
        "rate_e": fig_query(rate_e=0.1),
    }


class TestQueryValue:
    def test_equal_content_gives_equal_queries_and_hashes(self):
        first, second = fig_query(0.1, 0.2), fig_query(0.1, 0.2)
        assert first is not second and first == second and hash(first) == hash(second)
        assert (first == first.pair) is False

    @pytest.mark.parametrize("name", query_variants())
    def test_any_one_change_makes_queries_unequal(self, name):
        assert fig_query() != query_variants()[name]

    def test_aux_rows_alone_make_queries_unequal(self):
        qv1 = (0.3 - 0.025) / 0.95
        first = ExponentQuery(bsc_pair(), [1 - qv1, qv1], [1.0, 2.0], 1.4, aux=DiscreteChannel.bsc(0.025))
        second = ExponentQuery(bsc_pair(), [1 - qv1, qv1], [1.0, 2.0], 1.4, aux=DiscreteChannel.bsc(0.05))
        assert first != second

    def test_equal_queries_share_one_envelope(self):
        engine._cached_envelope.cache_clear()
        for side in ("bob", "eve"):
            envelope = engine._envelope(fig_query(), side)
            assert engine._envelope(fig_query(), side) is envelope
            assert engine._envelope(fig_query(rate_b=0.1, rate_e=0.2), side) is envelope
            assert engine._envelope(fig_query().with_rates(rate_e=0.3), side) is envelope
        assert engine._cached_envelope.cache_info().currsize == 2

    def test_negative_zero_rates_and_cap_are_stored_as_zero(self):
        query = fig_query()
        signed = fig_query(rate_b=-0.0, rate_e=-0.0)
        assert signed == query and hash(signed) == hash(query)
        assert math.copysign(1.0, signed.rate_b) == math.copysign(1.0, signed.rate_e) == 1.0
        free = ExponentQuery(bsc_pair(), [1.0, 0.0], [0.0, 1.0], -0.0)
        assert math.copysign(1.0, free.gamma) == 1.0 and free == dataclasses.replace(free, gamma=0.0)
        engine._cached_envelope.cache_clear()
        assert engine._envelope(query.with_rates(-0.0, 0.0), "bob") is engine._envelope(query, "bob")
        assert engine._cached_envelope.cache_info().misses == 1

    def test_rated_lookup_reuses_the_checked_query(self, monkeypatch):
        # The rate-free key is a copy of the rated query, so no constructor check runs again.
        query, rated = fig_query(), fig_query(rate_b=0.1, rate_e=0.2)
        engine._cached_envelope.cache_clear()
        envelope = engine._envelope(query, "eve")
        checks = []
        plain_post_init = ExponentQuery.__post_init__
        monkeypatch.setattr(ExponentQuery, "__post_init__", lambda self: checks.append(plain_post_init(self)))
        assert engine._envelope(rated, "eve") is envelope
        assert checks == []
        assert (rated.rate_b, rated.rate_e) == (0.1, 0.2)
        assert engine._cached_envelope.cache_info().misses == 1

    def test_content_key_is_computed_once_per_query(self, monkeypatch):
        calls = []
        plain_content = ExponentQuery._content
        monkeypatch.setattr(ExponentQuery, "_content", lambda self: calls.append(1) or plain_content(self))
        query, rated, twin = fig_query(), fig_query(rate_b=0.1, rate_e=0.2), fig_query()
        assert len(calls) == 3
        engine._cached_envelope.cache_clear()
        for side in ("bob", "eve"):
            # A rated lookup still finds the zero-rate envelope.
            envelope = engine._envelope(query, side)
            assert engine._envelope(rated, side) is envelope
            assert engine._envelope(twin, side) is envelope
        assert engine._cached_envelope.cache_info().misses == 2
        assert query == twin and hash(query) == hash(twin) and query != rated
        assert len(calls) == 3
        # Every copy is a new query with its own key, computed once.
        copies = [
            dataclasses.replace(query, rate_b=0.1, rate_e=0.2),
            query.with_rates(0.1, 0.2),
            pickle.loads(pickle.dumps(rated)),
            copy.deepcopy(rated),
        ]
        assert len(calls) == 3 + len(copies)
        assert all(c == rated and hash(c) == hash(rated) for c in copies)
        assert rated.with_rates(0.0, 0.0) == query and hash(rated.with_rates(0.0, 0.0)) == hash(query)

    @pytest.mark.parametrize("bad", [-0.1, math.nan])
    def test_replace_and_with_rates_check_the_rates(self, bad):
        query = fig_query()
        for field in ("rate_b", "rate_e"):
            with pytest.raises(ValueError):
                dataclasses.replace(query, **{field: bad})
            with pytest.raises(ValueError):
                query.with_rates(**{field: bad})

    def test_replace_keeps_the_checked_input(self):
        query = dataclasses.replace(fig_query(), rate_b=0.25)
        assert query == fig_query(rate_b=0.25)
        assert query.input.probs.tolist() == [0.6, 0.4] and query.input.costs.tolist() == [1.0, 2.0]


class TestExponentValues:
    def test_zero_rate_equals_classical_gallager(self):
        # with the cost cap slack for every letter the tilt is inactive and
        # the zero-rate exponent is the classical cost-free one
        pair = bsc_pair(0.1, 0.3)
        query = ExponentQuery(pair, [0.5, 0.5], [1.0, 1.0], 2.0)
        opt = reliability_optimum(query)
        rhos = np.linspace(0.0, 1.0, 20001)
        w = np.array([[0.9, 0.1], [0.1, 0.9]])
        classical = max(
            -math.log(np.sum((0.5 * w[0] ** (1 / (1 + r)) + 0.5 * w[1] ** (1 / (1 + r))) ** (1 + r)))
            for r in rhos
        )
        assert opt.value == pytest.approx(classical, abs=1e-8)
        assert opt.r == 0.0 and opt.s == 0.0

    def test_reliability_zero_beyond_mutual_information(self):
        query = fig_query()
        info = query.mutual_information("bob")
        assert reliability_exponent(query.with_rates(rate_b=info * 1.01)) == 0.0
        assert reliability_exponent(query.with_rates(rate_b=info * 0.9)) > 0.0

    def test_secrecy_zero_below_mutual_information(self):
        query = fig_query()
        info = query.mutual_information("eve")
        assert secrecy_exponent(query.with_rates(rate_e=info * 0.99)) == 0.0
        assert secrecy_exponent(query.with_rates(rate_e=info * 1.2)) > 0.0

    def test_zero_crossings_match_mutual_information(self):
        query = fig_query()
        assert reliability_zero_rate(query) == pytest.approx(query.mutual_information("bob"), abs=1e-6)
        assert secrecy_zero_rate(query) == pytest.approx(query.mutual_information("eve"), abs=1e-6)

    def test_secrecy_increasing_in_rate(self):
        query = fig_query()
        info = query.mutual_information("eve")
        values = [secrecy_exponent(query.with_rates(rate_e=info * f)) for f in (1.2, 1.5, 2.0, 3.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_large_rate_saturates_order_parameter(self):
        opt = secrecy_optimum(fig_query(rate_e=5.0))
        assert opt.rho > 0.99
        # near saturation the exponent grows about one-for-one with rate
        v5 = secrecy_exponent(fig_query(rate_e=5.0))
        v6 = secrecy_exponent(fig_query(rate_e=6.0))
        assert v6 - v5 == pytest.approx(1.0, abs=5e-3)


class TestExponentCurve:
    def test_rates_must_increase(self):
        with pytest.raises(ValueError):
            ExponentCurve([0.1, 0.1], [0.0, 0.0])

    def test_exponents_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            ExponentCurve([0.1, 0.2], [0.0, -1e-6])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ExponentCurve([0.1, bad], [0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            ExponentCurve([0.1, 0.2], [0.0, bad])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_curves_reject_non_finite_rates(self, bad):
        with pytest.raises(ValueError, match="finite"):
            reliability_curve(fig_query(), [0.1, bad])
        with pytest.raises(ValueError, match="finite"):
            secrecy_curve(fig_query(), [bad, 0.3])
        with pytest.raises(ValueError, match="finite"):
            tradeoff_scenarios(fig_query(), "rate_shift", [bad], points=3)

    def test_curve_metadata(self):
        query = fig_query()
        rates = np.linspace(0.05, 0.3, 5)
        curve = reliability_curve(query, rates)
        assert len(curve) == 5
        assert len(curve.meta["argmax_rho"]) == 5
        assert curve.meta["function"] == "reliability"


class TestSecrecyCapacity:
    def test_identical_channels_zero(self):
        pair = bsc_pair(0.2, 0.2)
        result = secrecy_capacity(pair, [1.0, 1.0], 2.0)
        assert result.value == pytest.approx(0.0, abs=1e-12)

    def test_degraded_bsc_unconstrained(self):
        # entropy-difference value at the uniform input, from the 1-D scan
        pair = bsc_pair(0.1, 0.3)
        result = secrecy_capacity(pair, [1.0, 2.0], 2.0)
        h = lambda e: -e * math.log(e) - (1 - e) * math.log(1 - e)
        assert result.value == pytest.approx(h(0.3) - h(0.1), abs=1e-10)
        assert result.value == pytest.approx(0.2857813286634453, abs=1e-12)
        assert result.input_law[1] == pytest.approx(0.5, abs=1e-6)
        assert result.more_capable and not result.heuristic

    def test_degraded_bsc_constrained(self):
        # cap 1.2 with costs (1, 2) pins q(1) at 0.2; value from a scan oracle
        pair = bsc_pair(0.1, 0.3)
        result = secrecy_capacity(pair, [1.0, 2.0], 1.2)
        assert result.input_law[1] == pytest.approx(0.2, abs=1e-9)
        assert result.value == pytest.approx(0.19477411923075763, abs=1e-10)

    def test_reversed_pair_uses_heuristic_path(self):
        pair = bsc_pair(0.3, 0.1)  # tap strictly better: capacity is zero
        result = secrecy_capacity(pair, [1.0, 1.0], 2.0, aux_dim=2, seed=1)
        assert result.heuristic and not result.more_capable
        assert 0.0 <= result.value <= 1e-3

    def test_cap_at_the_cheapest_cost_without_more_capable_gives_zero(self):
        # No sampled auxiliary point meets a cap at the cheapest cost; the
        # point mass on the cheapest letter does, with gap 0.
        result = secrecy_capacity(bsc_pair(0.3, 0.1), [1.0, 2.0], 1.0)
        assert result.value == 0.0
        assert result.heuristic and not result.more_capable
        assert np.array_equal(result.aux.rows, [[1.0, 0.0], [1.0, 0.0]])
        assert result.input_law.sum() == pytest.approx(1.0, abs=1e-15)

    def test_ternary_more_capable_path(self):
        rows_b = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        rows_e = 0.5 * rows_b + 0.5 / 3.0
        pair = WiretapPair(DiscreteChannel(rows_b), DiscreteChannel(rows_e))
        result = secrecy_capacity(pair, [1.0, 1.0, 1.0], 2.0, seed=0)
        from wiretap_exponents import mutual_information

        uniform_gap = mutual_information(np.ones(3) / 3, pair.bob) - mutual_information(
            np.ones(3) / 3, pair.eve
        )
        assert result.value >= uniform_gap - 1e-6

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize(
        "extra_costs, negative, gamma",
        [
            pytest.param(-1, False, 2.0, id="short_costs"),
            pytest.param(1, False, 2.0, id="long_costs"),
            pytest.param(0, True, 2.0, id="negative_cost"),
            pytest.param(0, False, 0.5, id="cap_below_cheapest_cost"),
        ],
    )
    def test_bad_costs_or_cap_rejected(self, k, extra_costs, negative, gamma):
        # Every letter costs 1 unless negative; non-finite costs and caps
        # are in test_value_types' non-finite table.
        rows = np.eye(k)
        pair = WiretapPair(DiscreteChannel(rows), DiscreteChannel(0.5 * rows + 0.5 / k))
        costs = [-0.5 if negative else 1.0] + [1.0] * (k - 1 + extra_costs)
        with pytest.raises(ValueError):
            secrecy_capacity(pair, costs, gamma)

    def test_identity_bob_reaches_the_zero_marginal_boundary(self):
        # Bob's output marginal is the input law itself, so every boundary
        # point has a zero marginal and an infinite true gradient.
        eve = [[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.0, 0.0, 1.0]]
        pair = WiretapPair(DiscreteChannel.identity(3), DiscreteChannel(eve))
        for seed in range(3):
            result = secrecy_capacity(pair, [1.0, 1.0, 1.0], 2.0, seed=seed)
            assert result.value == pytest.approx(0.7215948424621532, abs=1e-9)
        grad = engine._gap_gradient(np.array([0.5, 0.5, 0.0]), pair.bob.rows, pair.eve.rows)
        assert np.all(np.isfinite(grad)) and grad[2] > 100.0

    @pytest.mark.parametrize("aux_dim", [0, -1])
    @pytest.mark.parametrize("eps_bob, eps_eve", [(0.1, 0.3), (0.3, 0.1)], ids=["more_capable", "not_more_capable"])
    def test_aux_dim_below_one_rejected(self, aux_dim, eps_bob, eps_eve):
        with pytest.raises(ValueError, match="auxiliary alphabet"):
            secrecy_capacity(bsc_pair(eps_bob, eps_eve), [1.0, 2.0], 1.4, aux_dim=aux_dim)

    @pytest.mark.parametrize("aux_dim", [2.5, math.nan, math.inf])
    @pytest.mark.parametrize("eps_bob, eps_eve", [(0.1, 0.3), (0.3, 0.1)], ids=["more_capable", "not_more_capable"])
    def test_aux_dim_must_be_a_whole_number(self, aux_dim, eps_bob, eps_eve):
        with pytest.raises(ValueError, match="auxiliary alphabet size must be a finite whole number"):
            secrecy_capacity(bsc_pair(eps_bob, eps_eve), [1.0, 2.0], 1.4, aux_dim=aux_dim)

    def test_whole_float_aux_dim_is_its_integer(self):
        pair = bsc_pair(0.3, 0.1)
        whole, integer = (secrecy_capacity(pair, [1.0, 2.0], 1.4, aux_dim=dim) for dim in (2.0, 2))
        assert whole.value == integer.value and whole.aux.rows.shape == (2, 2)

    def test_gap_gradient_is_the_written_out_formula_bit_for_bit(self):
        def written_out(q, bob, eve):
            def divergences(rows):
                marginal = np.maximum(q @ rows, np.finfo(np.float64).tiny)
                log_ratio = np.log(np.where(rows > 0.0, rows, 1.0)) - np.log(marginal)
                return np.where(rows > 0.0, rows * log_ratio, 0.0).sum(axis=1)

            return divergences(bob) - divergences(eve)

        rng = np.random.default_rng(23)
        for _ in range(500):
            k, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            # Zeros in the channels and in q, so some output marginals vanish.
            bob, eve = (rng.dirichlet(np.ones(m), size=k) * (rng.random((k, m)) < 0.7) for _ in range(2))
            q = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.7)
            assert np.array_equal(engine._gap_gradient(q, bob, eve), written_out(q, bob, eve))

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("cap", ["binding", "slack"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_degraded_input_search_oracles(self, k, cap, seed):
        rng = np.random.default_rng([k, seed])
        bob = rng.dirichlet(np.ones(k), size=k)
        eve = bob @ rng.dirichlet(np.ones(k), size=k)
        costs = rng.uniform(0.5, 2.0, k)
        gamma = costs.min() + 0.3 * (costs.mean() - costs.min()) if cap == "binding" else 1.1 * costs.max()
        pair = WiretapPair(DiscreteChannel(bob), DiscreteChannel(eve))
        result = secrecy_capacity(pair, costs, gamma)
        q = result.input_law
        assert result.more_capable and not result.heuristic
        assert q @ costs <= gamma + 1e-12
        assert result.value >= dense_grid_capacity(bob, eve, costs, gamma, 48 if k == 3 else 20)
        assert kkt_residual(q, bob, eve, costs, gamma) <= 1e-6

    def test_project_feasible_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            k = int(rng.integers(2, 6))
            v = rng.normal(scale=rng.choice([0.3, 1.0, 5.0]), size=k)
            costs = rng.uniform(0.0, 2.0, k)
            gamma = costs.min() + rng.uniform(0.0, 1.2) * (costs.max() - costs.min())
            q = engine._project_feasible(v, costs, gamma)
            assert q @ costs <= gamma + 1e-12
            assert np.abs(q - brute_force_projection(v, costs, gamma)).max() <= 1e-9


def dense_grid_capacity(bob, eve, costs, gamma, n):
    # Best information gap over the feasible laws with entries in {0, 1/n, ..., 1}.
    best = -math.inf
    for head in itertools.product(range(n + 1), repeat=len(costs) - 1):
        if sum(head) <= n:
            q = np.array([*head, n - sum(head)]) / n
            if q @ costs <= gamma:
                gap = mutual_information(q, DiscreteChannel(bob)) - mutual_information(q, DiscreteChannel(eve))
                best = max(best, gap)
    return best


def kkt_residual(q, bob, eve, costs, gamma, support_tol=1e-9):
    # KKT conditions of max gap(q) on the simplex with costs . q <= gamma:
    # g(x) - lam c(x) = nu on the support, <= nu off it, lam >= 0, and lam = 0
    # unless the cap binds. g is the central-difference gradient of the gap
    # sum_x p(x) sum_y W(y|x) log(W(y|x) / (pW)(y)), extended off the simplex.
    def info(p, rows):
        out = p @ rows
        return sum(p[x] * w * math.log(w / out[y]) for (x, y), w in np.ndenumerate(rows) if w > 0.0)

    def gap(p):
        return info(p, bob) - info(p, eve)

    h = 1e-6
    g = np.array([(gap(q + h * e) - gap(q - h * e)) / (2 * h) for e in np.eye(len(q))])
    on = q > support_tol
    if gamma - q @ costs > support_tol:
        lam, nu = 0.0, float(g[on].mean())
    else:
        lam, nu = np.linalg.lstsq(np.column_stack([-costs[on], -np.ones(on.sum())]), -g[on], rcond=None)[0]
    slack = g - lam * costs - nu
    return max(np.abs(slack[on]).max(), np.maximum(slack[~on], 0.0).max(initial=0.0), -lam)


def brute_force_projection(v, costs, gamma):
    # Nearest point over every face of the feasible set: on the face with
    # support S (and the cap active or not), the equality-constrained
    # projection solves one linear system; keep the feasible candidates.
    k = len(v)
    best, best_d = None, math.inf
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            s = list(support)
            for active in (False, True):
                rows = [np.ones(size)] + ([costs[s]] if active else [])
                A = np.array(rows)
                b = np.array([1.0] + ([gamma] if active else []))
                kkt = np.block([[np.eye(size), A.T], [A, np.zeros((len(rows), len(rows)))]])
                try:
                    sol = np.linalg.solve(kkt, np.concatenate([v[s], b]))
                except np.linalg.LinAlgError:
                    continue
                q = np.zeros(k)
                q[s] = sol[:size]
                on_face = np.allclose(A @ q[s], b, rtol=0.0, atol=1e-9)
                if on_face and q.min() >= -1e-12 and q @ costs <= gamma + 1e-12 and np.linalg.norm(q - v) < best_d:
                    best, best_d = q, np.linalg.norm(q - v)
    return best


class TestTradeoffScenarios:
    def test_rate_exchange_keeps_reliability(self):
        scenarios = tradeoff_scenarios(fig_query(), "rate_exchange", [0.05], points=7)
        moved = scenarios[1]
        ok, slack = moved.checks["reliability_invariant"]
        assert ok and slack == 0.0
        assert moved.checks["secrecy_nondecreasing_in_shift"][0]

    def test_rate_shift_orders_curves(self):
        scenarios = tradeoff_scenarios(fig_query(), "rate_shift", [0.03, 0.06], points=7)
        assert all(sc.ok for sc in scenarios)

    def test_cost_change_orders_curves(self):
        scenarios = tradeoff_scenarios(fig_query(), "cost_change", [1.0, 1.2, 1.4], points=7)
        assert all(sc.ok for sc in scenarios)
        labels = [sc.label for sc in scenarios]
        assert labels == ["base", "cap_1", "cap_1.2", "cap_1.4"]

    def test_cost_change_requires_sorted_sweep(self):
        with pytest.raises(ValueError):
            tradeoff_scenarios(fig_query(), "cost_change", [1.4, 1.2], points=5)

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError):
            tradeoff_scenarios(fig_query(), "warp", [0.1])

    def test_concatenate_unreachable_law_rejected(self):
        # a prefix with crossover 0.45 cannot reproduce q(1) = 0.4... it can;
        # crossover 0.5 is excluded upstream, so use one that truly cannot:
        # q(1)=0.02 below the floor b=0.025
        query = ExponentQuery(bsc_pair(), [0.98, 0.02], [1.0, 2.0], 1.4)
        with pytest.raises(ValueError, match="not reachable"):
            tradeoff_scenarios(query, "concatenate", [0.025], points=5)


# Every ordering check of tradeoff_scenarios at points=7, written out as
# (scenario label, check name) -> ((label, side) above, (label, side)
# below); its slack is min(above - below) on the shared rate grid.
# "reliability_invariant" is bit identity to the base curve instead.
SWEEP_ORDERINGS = {
    ("rate_shift", (0.03, 0.06)): {
        ("shift+0.03", "reliability_nonincreasing_in_shift"): (("base", "reliability"), ("shift+0.03", "reliability")),
        ("shift+0.03", "secrecy_nondecreasing_in_shift"): (("shift+0.03", "secrecy"), ("base", "secrecy")),
        ("shift+0.06", "reliability_nonincreasing_in_shift"): (
            ("shift+0.03", "reliability"), ("shift+0.06", "reliability")
        ),
        ("shift+0.06", "secrecy_nondecreasing_in_shift"): (("shift+0.06", "secrecy"), ("shift+0.03", "secrecy")),
    },
    ("rate_exchange", (0.05,)): {
        ("exchange+0.05", "reliability_invariant"): None,
        ("exchange+0.05", "secrecy_nondecreasing_in_shift"): (("exchange+0.05", "secrecy"), ("base", "secrecy")),
    },
    ("concatenate", (0.025,)): {
        ("prefix_bsc_0.025", "reliability_drops"): (("base", "reliability"), ("prefix_bsc_0.025", "reliability")),
        ("prefix_bsc_0.025", "secrecy_rises"): (("prefix_bsc_0.025", "secrecy"), ("base", "secrecy")),
    },
    ("cost_change", (1.0, 1.2, 1.4)): {
        ("cap_1.2", "reliability_nondecreasing_in_cap"): (("cap_1.2", "reliability"), ("cap_1", "reliability")),
        ("cap_1.2", "secrecy_nonincreasing_in_cap"): (("cap_1", "secrecy"), ("cap_1.2", "secrecy")),
        ("cap_1.4", "reliability_nondecreasing_in_cap"): (("cap_1.4", "reliability"), ("cap_1.2", "reliability")),
        ("cap_1.4", "secrecy_nonincreasing_in_cap"): (("cap_1.2", "secrecy"), ("cap_1.4", "secrecy")),
    },
}


@pytest.mark.parametrize("mechanism, sweep", SWEEP_ORDERINGS, ids=[m for m, _ in SWEEP_ORDERINGS])
def test_sweep_checks_are_the_pointwise_slacks(mechanism, sweep):
    scenarios = tradeoff_scenarios(fig_query(), mechanism, list(sweep), points=7)
    curves = {(sc.label, side): getattr(sc, side) for sc in scenarios for side in ("reliability", "secrecy")}
    found = {(sc.label, name): result for sc in scenarios for name, result in sc.checks.items()}
    expected = SWEEP_ORDERINGS[mechanism, sweep]
    assert set(found) == set(expected)
    base = curves["base", "reliability"].exponents
    for key, pair in expected.items():
        if pair is None:
            diff = float(np.max(np.abs(curves[key[0], "reliability"].exponents - base)))
            assert found[key] == (diff == 0.0, -diff)
            continue
        slack = float(np.min(curves[pair[0]].exponents - curves[pair[1]].exponents))
        assert found[key][1].hex() == slack.hex()
        assert found[key][0] == (slack >= -1e-9)


class TestOrderedCurves:
    def test_violation_between_grid_points_is_found(self):
        # 401 shared knots; hi sits 1e-4 above lo except at knot 201
        # (rate 0.5025), where it sits 2e-9 below. A 200-point grid over
        # [0, 1] passes 1.3e-5 from that knot, where the gap is back to +5e-7.
        rates = np.linspace(0.0, 1.0, 401)
        lo_vals = 0.5 * (1.0 - rates) ** 2 + 0.01
        hi_vals = lo_vals + 1e-4
        hi_vals[201] = lo_vals[201] - 2e-9
        ok, slack = engine.ordered_curves(ExponentCurve(rates, hi_vals), ExponentCurve(rates, lo_vals))
        assert not ok
        assert slack == float(np.min(hi_vals - lo_vals)) and slack == pytest.approx(-2e-9, rel=1e-6)

    def test_different_grids_give_the_exact_piecewise_linear_minimum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            hi = ExponentCurve(np.sort(rng.uniform(0.0, 1.0, 9)), rng.uniform(0.5, 1.0, 9))
            lo = ExponentCurve(np.sort(rng.uniform(0.2, 1.2, 13)), rng.uniform(0.0, 1.0, 13))
            a, b = max(hi.rates[0], lo.rates[0]), min(hi.rates[-1], lo.rates[-1])
            if b < a:
                continue
            _, slack = engine.ordered_curves(hi, lo)
            dense = np.union1d(np.linspace(a, b, 20001), [r for r in np.r_[hi.rates, lo.rates] if a <= r <= b])
            gap = np.interp(dense, hi.rates, hi.exponents) - np.interp(dense, lo.rates, lo.exponents)
            assert slack == pytest.approx(gap.min(), abs=1e-15)

    def test_crossing_between_grid_points_is_found(self):
        # The 401-knot pair above: f crosses below h and back around knot
        # 201, between the points of a 200-point grid over [0, 1].
        rates = np.linspace(0.0, 1.0, 401)
        h_vals = 0.5 * (1.0 - rates) ** 2 + 0.01
        f_vals = h_vals + 1e-4
        f_vals[201] = h_vals[201] - 2e-9
        crosses, margin = figures._curves_cross(ExponentCurve(rates, f_vals), ExponentCurve(rates, h_vals))
        assert crosses
        assert margin == float(np.max(h_vals - f_vals)) and margin == pytest.approx(2e-9, rel=1e-6)

    def test_curves_cross_margin(self):
        falling = ExponentCurve([0.0, 0.5, 1.0], [1.0, 0.5, 0.0])
        rising = ExponentCurve([0.25, 0.75], [0.1, 0.7])
        # f - h at the knots 0.25, 0.5, 0.75: 0.65, 0.1, -0.45.
        assert figures._curves_cross(falling, rising) == (True, pytest.approx(0.45))
        above = ExponentCurve([0.25, 0.75], [0.9, 0.9])
        assert figures._curves_cross(above, rising) == (False, pytest.approx(-0.2))
        assert figures._curves_cross(falling, ExponentCurve([2.0, 3.0], [0.0, 1.0])) == (False, -math.inf)

    def test_disjoint_windows_are_not_ordered(self):
        hi = ExponentCurve([0.0, 0.1], [1.0, 1.0])
        lo = ExponentCurve([0.2, 0.3], [0.0, 0.0])
        assert engine.ordered_curves(hi, lo) == (False, -math.inf)


def reference_optimize(query, side, rate):
    # The uncached rho search, written out: a fresh evaluator per call
    # and a full tilt search at every rho the search visits.
    ev = _E0Evaluator(query, side)
    caps = _tilt_caps(query)
    merged = query.aux is None
    sign = -1.0 if side == "bob" else 1.0
    state = {}

    def objective(rho):
        kappa = 1.0 + rho if side == "bob" else 1.0 - rho
        val, r_star, s_star = _max_over_tilts(ev, kappa, caps, merged)
        obj = val + sign * rho * rate
        state[rho] = (r_star, s_star)
        return obj

    lo, hi = (0.0, 1.0) if side == "bob" else (RHO_EPS, 1.0 - RHO_EPS)
    rho_star, raw = scan_then_golden_max(objective, lo, hi, scan_points=17, tol=1e-10)
    r_star, s_star = state[rho_star]
    return ExponentOptimum(max(raw, 0.0), raw, rho_star, r_star, s_star)


def bits(opt):
    return tuple(float(v).hex() for v in astuple(opt))


def curve_bits(curve):
    meta = curve.meta
    columns = (curve.exponents, meta["raw"], meta["argmax_rho"], meta["argmax_r"], meta["argmax_s"])
    return [tuple(float(v).hex() for v in row) for row in zip(*columns)]


def random_query(seed, k, with_aux, binding):
    # k-letter pair (the tap a noisier copy of the legitimate channel),
    # optionally behind a binary prefix; a binding cap equals the
    # expected cost of the input law, a slack one lies above it.
    rng = np.random.default_rng(seed)
    rows = 0.9 * rng.dirichlet(np.ones(k), size=k) + 0.1 / k
    pair = WiretapPair(DiscreteChannel(rows), DiscreteChannel(0.5 * rows + 0.5 / k))
    costs = rng.uniform(0.5, 2.0, size=k)
    aux = None
    cost_on_q = costs
    if with_aux:
        eps = rng.uniform(0.02, 0.2)
        aux = DiscreteChannel((1.0 - eps) * np.eye(k)[[0, k - 1]] + eps / k)
        cost_on_q = lifted_cost(aux, costs)
    q = rng.dirichlet(np.ones(len(cost_on_q)))
    gamma = float(q @ cost_on_q) + (0.0 if binding else rng.uniform(0.05, 0.5))
    return ExponentQuery(pair, q, costs, gamma, aux=aux)


def rate_grid(query, side, fractions):
    # Reliability rates below the legitimate mutual information, secrecy
    # rates above the tapped one, where both exponents are positive.
    info = query.mutual_information(side)
    scale = np.asarray(fractions)
    return info * scale if side == "bob" else info * (1.0 + scale)


class TestSharedEnvelope:
    @pytest.mark.parametrize("with_aux", [False, True])
    @pytest.mark.parametrize("binding", [False, True])
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 3),
        twentieths=st.lists(st.integers(1, 19), min_size=3, max_size=3, unique=True),
    )
    @settings(max_examples=2, deadline=None)
    def test_matches_uncached_reference_bit_for_bit(self, with_aux, binding, seed, k, twentieths):
        query = random_query(seed, k, with_aux, binding)
        fractions = sorted(n / 20 for n in twentieths[:2]) + [twentieths[2] / 20]
        engine._cached_envelope.cache_clear()
        for side, curve_fn, optimum_fn in (
            ("bob", reliability_curve, lambda r: reliability_optimum(query.with_rates(rate_b=r))),
            ("eve", secrecy_curve, lambda r: secrecy_optimum(query.with_rates(rate_e=r))),
        ):
            # The first curve runs on a cold envelope, the second on one
            # the first has warmed; the point optimum repeats a rate.
            rates = rate_grid(query, side, fractions)
            expected = [bits(reference_optimize(query, side, float(r))) for r in rates]
            assert curve_bits(curve_fn(query, rates[:2])) == expected[:2]
            assert curve_bits(curve_fn(query, rates[2:])) == expected[2:]
            assert bits(optimum_fn(float(rates[0]))) == expected[0]

    def test_cache_key_separates_rate_free_content(self):
        # Each pair differs in one rate-free input only: the cap, one
        # cost, the prefix channel's rows, or (below) the side.
        base = fig_query()
        qv1 = (0.3 - 0.025) / 0.95
        prefixed = ExponentQuery(bsc_pair(), [1 - qv1, qv1], [1.0, 2.0], 1.4, aux=DiscreteChannel.bsc(0.025))
        variants = [
            (base, ExponentQuery(bsc_pair(), [0.6, 0.4], [1.0, 2.0], 1.6)),
            (base, ExponentQuery(bsc_pair(), [0.6, 0.4], [1.0, 1.5], 1.4)),
            (prefixed, ExponentQuery(bsc_pair(), [1 - qv1, qv1], [1.0, 2.0], 1.4, aux=DiscreteChannel.bsc(0.05))),
        ]
        rate = 0.2
        for side in ("bob", "eve"):
            for first, second in variants:
                engine._cached_envelope.cache_clear()
                first_opt = engine._optimize(first, side, rate)
                second_opt = engine._optimize(second, side, rate)
                assert engine._envelope(first, side) is not engine._envelope(second, side)
                assert bits(first_opt) == bits(reference_optimize(first, side, rate))
                assert bits(second_opt) == bits(reference_optimize(second, side, rate))
        engine._cached_envelope.cache_clear()
        bob = engine._optimize(base, "bob", rate)
        eve = engine._optimize(base, "eve", rate)
        assert engine._envelope(base, "bob") is not engine._envelope(base, "eve")
        assert bits(bob) == bits(reference_optimize(base, "bob", rate))
        assert bits(eve) == bits(reference_optimize(base, "eve", rate))

    def test_cache_holds_at_most_its_bound(self):
        engine._cached_envelope.cache_clear()
        for i in range(engine.ENVELOPE_CACHE_SIZE + 8):
            gallager_e0(0.5, ExponentQuery(bsc_pair(), [0.6, 0.4], [1.0, 2.0], 1.4 + 0.01 * i))
        assert engine._cached_envelope.cache_info().currsize <= engine.ENVELOPE_CACHE_SIZE

    def test_full_memo_is_cleared_without_changing_results(self, monkeypatch):
        monkeypatch.setattr(engine, "ENVELOPE_MEMO_SIZE", 5)
        engine._cached_envelope.cache_clear()
        query = fig_query()
        rates = np.linspace(0.05, 0.3, 3)
        expected = [bits(reference_optimize(query, "bob", float(r))) for r in rates]
        assert curve_bits(reliability_curve(query, rates)) == expected
        assert len(engine._envelope(query, "bob")._memo) <= 5


def test_merged_tilt_search_at_binding_figure_cap_matches_dense_grid():
    # The BSC figure query meets its cost cap, so the tilt optimum is
    # interior on eve's side and at the origin (the probe shortcut) on
    # bob's. Every optimum lies in [0, 1), where a 20,001-point grid has a
    # point within 2.5e-5 of it: the envelope may beat the grid by the
    # curvature times about 3e-10, never fall below it.
    query = figures.bsc_query()
    engine._cached_envelope.cache_clear()
    grid = np.linspace(0.0, 1.0, 20_001)
    for side, kappas in (("eve", (0.95, 0.8, 0.6, 0.3)), ("bob", (1.05, 1.3, 1.6, 2.0))):
        envelope = engine._envelope(query, side)
        for kappa in kappas:
            value, r_star, s_star = envelope(kappa)
            best = max(envelope.evaluator(kappa, float(t), 0.0) for t in grid)
            assert s_star == 0.0
            if side == "bob":
                assert r_star == 0.0 and value == best
            else:
                assert 0.0 < r_star < 1.0
                assert 0.0 <= value - best <= 1e-10
