import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import Budget
from wiretap_exponents import channel_core
from wiretap_exponents import (
    CostedInput,
    DiscreteChannel,
    WiretapPair,
    concatenate,
    is_more_capable,
    lifted_cost,
    mutual_information,
    parse_wiretap_config,
)


def binary_entropy(eps):
    return -eps * math.log(eps) - (1 - eps) * math.log(1 - eps)


def mi_direct(q, rows):
    # independent literal evaluation of the defining double sum
    q = np.asarray(q, dtype=float)
    rows = np.asarray(rows, dtype=float)
    marg = q @ rows
    total = 0.0
    for x in range(rows.shape[0]):
        for y in range(rows.shape[1]):
            if q[x] > 0 and rows[x, y] > 0:
                total += q[x] * rows[x, y] * math.log(rows[x, y] / marg[y])
    return total


class TestChannelConstruction:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            DiscreteChannel([[0.5, 0.4], [0.1, 0.9]])
        with pytest.raises(ValueError):
            DiscreteChannel([[1.2, -0.2], [0.5, 0.5]])

    def test_bsc_shape(self):
        ch = DiscreteChannel.bsc(0.1)
        assert ch.num_inputs == 2 and ch.num_outputs == 2
        assert ch.rows[0, 1] == 0.1

    def test_immutable(self):
        ch = DiscreteChannel.bsc(0.1)
        with pytest.raises(AttributeError):
            ch.rows = None
        with pytest.raises(ValueError):
            ch.rows[0, 0] = 0.5

    def test_pair_requires_shared_input(self):
        with pytest.raises(ValueError):
            WiretapPair(DiscreteChannel.bsc(0.1), DiscreteChannel(np.ones((3, 2)) / 2))


class TestCostedInput:
    def test_expected_cost_enforced(self):
        CostedInput([0.6, 0.4], [1.0, 2.0], 1.4)  # boundary is fine
        with pytest.raises(ValueError):
            CostedInput([0.5, 0.5], [1.0, 2.0], 1.4)

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            CostedInput([0.5, 0.5], [-1.0, 2.0], 3.0)

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError):
            CostedInput([0.7, 0.4], [1.0, 1.0], 2.0)


class TestMutualInformation:
    def test_uniform_bsc(self):
        got = mutual_information([0.5, 0.5], DiscreteChannel.bsc(0.1))
        assert got == pytest.approx(math.log(2) - binary_entropy(0.1), abs=1e-12)
        assert got == pytest.approx(0.368064, abs=1e-6)

    def test_deterministic_input_is_zero(self):
        assert mutual_information([1.0, 0.0], DiscreteChannel.bsc(0.23)) == 0.0

    def test_useless_channel_is_zero(self):
        assert mutual_information([0.5, 0.5], DiscreteChannel.bsc(0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_matches_direct_sum_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rows = rng.random((3, 4)) + 1e-3
            rows /= rows.sum(axis=1, keepdims=True)
            q = rng.dirichlet(np.ones(3))
            ch = DiscreteChannel(rows)
            assert mutual_information(q, ch) == pytest.approx(mi_direct(q, rows), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mutual_information([0.5, 0.3, 0.2], DiscreteChannel.bsc(0.1))

    @pytest.mark.parametrize("q", [[math.nan, 0.5], [0.5, math.nan], [math.nan, math.nan]])
    def test_non_finite_input_law_rejected(self, q):
        with pytest.raises(ValueError, match="finite"):
            mutual_information(q, DiscreteChannel.bsc(0.1))


class TestConcatenate:
    def test_identity_prefix_is_noop(self):
        ch = DiscreteChannel.bsc(0.1)
        out = concatenate(DiscreteChannel.identity(2), ch)
        assert np.array_equal(out.rows, ch.rows)

    def test_bsc_cascade_crossover(self):
        # crossover of a cascade: e1 (1 - e2) + (1 - e1) e2
        out = concatenate(DiscreteChannel.bsc(0.025), DiscreteChannel.bsc(0.1))
        assert out.rows[0, 1] == pytest.approx(0.12, abs=1e-15)
        assert out.rows[1, 0] == pytest.approx(0.12, abs=1e-15)

    def test_total_randomization(self):
        out = concatenate(DiscreteChannel.bsc(0.5), DiscreteChannel.bsc(0.1))
        assert np.allclose(out.rows, 0.5, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            concatenate(DiscreteChannel(np.ones((2, 3)) / 3), DiscreteChannel.bsc(0.1))

    @given(
        e1=st.floats(0.0, 1.0),
        e2=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_rows_stay_stochastic(self, e1, e2):
        out = concatenate(DiscreteChannel.bsc(e1), DiscreteChannel.bsc(e2))
        assert np.all(np.abs(out.rows.sum(axis=1) - 1.0) <= 1e-12)

    @given(
        e1=st.floats(0.01, 0.49),
        e2=st.floats(0.01, 0.49),
        q1=st.floats(0.05, 0.95),
    )
    @settings(max_examples=50, deadline=None)
    def test_data_processing_inequality(self, e1, e2, q1):
        aux = DiscreteChannel.bsc(e1)
        ch = DiscreteChannel.bsc(e2)
        q = np.array([1 - q1, q1])
        induced = q @ aux.rows
        assert mutual_information(q, concatenate(aux, ch)) <= mutual_information(induced, ch) + 1e-10


class TestLiftedCost:
    def test_identity(self):
        got = lifted_cost(DiscreteChannel.identity(2), [1.0, 2.0])
        assert np.allclose(got, [1.0, 2.0])

    def test_on_off_prefix(self):
        # prefix sending the input on with probability a (input 1) or b (input 0)
        aux = DiscreteChannel([[0.98, 0.02], [0.02, 0.98]])
        got = lifted_cost(aux, [0.0, 1.0])
        assert got[1] == pytest.approx(0.98, abs=1e-15)
        assert got[0] == pytest.approx(0.02, abs=1e-15)

    def test_randomizing_prefix_averages(self):
        got = lifted_cost(DiscreteChannel.bsc(0.5), [1.0, 2.0])
        assert np.allclose(got, [1.5, 1.5])

    @given(
        q1=st.floats(0.0, 1.0),
        e=st.floats(0.0, 1.0),
        c0=st.floats(0.0, 5.0),
        c1=st.floats(0.0, 5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_expectation_preserved(self, q1, e, c0, c1):
        aux = DiscreteChannel.bsc(e)
        q = np.array([1 - q1, q1])
        costs = np.array([c0, c1])
        lifted = float(q @ lifted_cost(aux, costs))
        induced = float((q @ aux.rows) @ costs)
        assert lifted == pytest.approx(induced, abs=1e-12)


    @pytest.mark.parametrize(
        "costs", [[1.0, math.nan], [math.inf, 1.0], [-math.inf, 1.0], [1.0, -0.5], [1.0], [1.0, 2.0, 3.0]]
    )
    def test_bad_costs_rejected(self, costs):
        # Unchecked, the first four would give NaN, infinite or negative lifted costs.
        with pytest.raises(ValueError):
            lifted_cost(DiscreteChannel.bsc(0.1), costs)


def oracle_divergence(p, r):
    # D(p || r) one term at a time; a zero in r is floored at the smallest normal float.
    tiny = np.finfo(np.float64).tiny
    return sum(pi * (math.log(pi) - math.log(max(ri, tiny))) for pi, ri in zip(p, r) if pi > 0.0)


class TestDivergences:
    def test_matches_a_scalar_oracle_with_zeros(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            k, n = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            rows = rng.dirichlet(np.ones(k), size=n) * (rng.random((n, k)) < 0.7)
            ref = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.7)
            want = [oracle_divergence(row, ref) for row in rows]
            assert channel_core._divergences(rows, ref) == pytest.approx(want, rel=1e-13, abs=1e-15)
            assert channel_core._divergences(rows[0], ref) == pytest.approx(want[0], rel=1e-13, abs=1e-15)

    def test_zero_terms(self):
        # A zero row entry adds nothing, even against a zero reference; a
        # positive one against a zero reference is floored, not infinite.
        tiny = np.finfo(np.float64).tiny
        assert channel_core._divergences(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
        got = channel_core._divergences(np.array([[0.5, 0.5]]), np.array([1.0, 0.0]))
        assert got.shape == (1,) and got[0] == pytest.approx(0.5 * math.log(0.5 / tiny) + 0.5 * math.log(0.5))


class TestMoreCapable:
    def test_degraded_bsc_pair(self):
        pair = WiretapPair(DiscreteChannel.bsc(0.1), DiscreteChannel.bsc(0.3))
        result = is_more_capable(pair)
        assert result.holds
        assert result.min_gap >= -1e-9

    def test_identical_channels(self):
        pair = WiretapPair(DiscreteChannel.bsc(0.2), DiscreteChannel.bsc(0.2))
        result = is_more_capable(pair)
        assert result.holds
        assert abs(result.min_gap) <= 1e-12

    def test_swapped_pair_fails(self):
        pair = WiretapPair(DiscreteChannel.bsc(0.3), DiscreteChannel.bsc(0.1))
        result = is_more_capable(pair)
        assert not result.holds
        # the uniform input already witnesses the violation
        gap_at_uniform = mutual_information([0.5, 0.5], pair.bob) - mutual_information(
            [0.5, 0.5], pair.eve
        )
        assert result.min_gap <= gap_at_uniform + 1e-12

    def test_ternary_heuristic_runs(self):
        rows_b = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        noise = np.ones((3, 3)) / 3.0
        rows_e = 0.5 * rows_b + 0.5 * noise
        pair = WiretapPair(DiscreteChannel(rows_b), DiscreteChannel(rows_e))
        result = is_more_capable(pair)
        assert result.holds

    def test_sixteen_letters_fit_the_grid_budget(self):
        # 16 letters scan C(21, 15) = 54,264 laws at resolution 1/6, not
        # the 2.5e10 of resolution 1/24.
        rng = np.random.default_rng(16)
        bob = rng.dirichlet(np.ones(16), size=16)
        eve = bob @ rng.dirichlet(np.ones(16), size=16)
        assert channel_core._simplex_resolution(16) == 6
        with Budget("is_more_capable on a 16-letter degraded pair", 30.0):
            result = is_more_capable(WiretapPair(DiscreteChannel(bob), DiscreteChannel(eve)))
        assert result.holds


def old_simplex_grid(dim, resolution):
    # The recursive per-law enumeration that the block scan replaced.
    def rec(remaining, parts):
        if len(parts) == dim - 1:
            yield parts + [remaining]
            return
        for k in range(remaining + 1):
            yield from rec(remaining - k, parts + [k])

    for combo in rec(resolution, []):
        yield np.array(combo, dtype=np.float64) / resolution


class TestSimplexScan:
    @pytest.mark.parametrize("k", range(3, 9))
    def test_resolution_keeps_24_up_to_six_letters(self, k):
        r = channel_core._simplex_resolution(k)
        assert math.comb(r + k - 1, k - 1) <= channel_core.SIMPLEX_BUDGET
        if k <= 6:
            assert r == 24
        else:  # the next resolution would not fit
            assert math.comb(r + k, k - 1) > channel_core.SIMPLEX_BUDGET

    @pytest.mark.parametrize("k, block", [(3, None), (4, None), (5, None), (4, 7), (5, 100)])
    def test_block_scan_matches_per_law_loop(self, k, block, monkeypatch):
        # None keeps the module's block size; 325, 2,925 and 20,475 laws
        # span several blocks at any size used.
        block = block or channel_core.SIMPLEX_BLOCK
        monkeypatch.setattr(channel_core, "SIMPLEX_BLOCK", block)
        rng = np.random.default_rng(k + block)
        bob, eve = rng.dirichlet(np.ones(k), size=k), rng.dirichlet(np.ones(k), size=k)
        r = channel_core._simplex_resolution(k)
        grid = list(old_simplex_grid(k, r))
        blocks = list(channel_core._simplex_blocks(k, r))
        assert len(blocks) == -(-len(grid) // block)
        assert np.array_equal(np.vstack(blocks), grid)
        worst, gap = None, math.inf
        for q in grid:
            g = mutual_information(q, DiscreteChannel(bob)) - mutual_information(q, DiscreteChannel(eve))
            if g < gap:
                worst, gap = q, g
        got_worst, got_gap = channel_core._grid_minimum(bob, eve)
        assert np.array_equal(got_worst, worst)
        assert got_gap == pytest.approx(gap, abs=1e-15)

    @pytest.mark.parametrize("block", [1, 5, 256, 4096])
    def test_first_minimum_wins_across_blocks(self, block, monkeypatch):
        # Equal channels tie at gap 0 everywhere: the first law enumerated wins.
        monkeypatch.setattr(channel_core, "SIMPLEX_BLOCK", block)
        rows = np.random.default_rng(3).dirichlet(np.ones(4), size=4)
        worst, gap = channel_core._grid_minimum(rows, rows)
        assert np.array_equal(worst, [0.0, 0.0, 0.0, 1.0]) and gap == 0.0


class TestConfigParsing:
    def test_roundtrip(self):
        doc = {
            "bob": [[0.9, 0.1], [0.1, 0.9]],
            "eve": [[0.7, 0.3], [0.3, 0.7]],
            "costs": [1.0, 2.0],
            "gamma": 1.4,
            "q": [0.6, 0.4],
        }
        cfg = parse_wiretap_config(doc)
        assert cfg["pair"].num_inputs == 2
        assert cfg["gamma"] == 1.4
        assert np.allclose(cfg["q"], [0.6, 0.4])

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            parse_wiretap_config({"bob": [[1.0]], "eve": [[1.0]], "costs": [0.0], "gamma": 1, "zzz": 1})

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing config keys"):
            parse_wiretap_config({"bob": [[1.0]]})
