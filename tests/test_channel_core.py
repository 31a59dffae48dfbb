import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_acceptance import Budget
from wiretap_exponents import channel_core, solvers
from wiretap_exponents import exponent_engine as engine
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


def errstate_mutual_informations(q, rows):
    # The kernel as it was before the one-mask rewrite: the bitwise oracle.
    marginal = (q @ rows)[..., None, :]
    joint = q[..., :, None] * rows
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(joint > 0.0, rows / np.where(marginal > 0.0, marginal, 1.0), 1.0)
        terms = np.where(joint > 0.0, joint * np.log(ratio), 0.0)
    return np.maximum(terms.reshape(terms.shape[:-2] + (-1,)).sum(axis=-1), 0.0)


# Law masses: exact zeros, ordinary masses, and tiny ones whose joints
# underflow (1e-160 * 1e-160 is subnormal, 1e-200 * 1e-200 is zero).
TINY_MASSES = (1e-300, 1e-200, 1e-160)
MASSES = st.one_of(st.just(0.0), st.sampled_from(TINY_MASSES), st.floats(1e-3, 1.0))


@st.composite
def laws(draw, k, n=None):
    """One law of k letters, or a stack of n of them, from MASSES."""
    w = np.array(draw(st.lists(st.lists(MASSES, min_size=k, max_size=k), min_size=n or 1, max_size=n or 1)))
    for row in w:
        if row.sum() == 0.0:
            row[draw(st.integers(0, k - 1))] = 1.0
    w /= w.sum(axis=1, keepdims=True)
    return w if n else w[0]


# Least positive joint whose term joint * log(ratio) cannot underflow:
# |log(ratio)| >= 2^-53 wherever the ratio is not exactly 1.
TINY_JOINT = np.finfo(float).tiny / np.finfo(float).epsneg
# Row normalisation lifts a 1e-160 mass to 2e-160, and two of them make a
# joint of 4e-320. A joint of 1.7e-300 is normal, but the marginal sums to
# 1 - 2^-53, so its term is 1.7e-300 * 1.1e-16.
UNDERFLOWING_JOINT = (
    np.array([[0.5, 0.5, 0.0]] * 6 + [[0.0, 2e-160, 1.0]]),
    np.array([[0.0, 1.0], [2e-160, 1.0], [1.0, 0.0]]),
)
UNDERFLOWING_TERM = (
    np.array([0.16666666666666666, 0.3333333333333333, 0.4999999999999999, 1.6666666666666665e-300]),
    np.ones((4, 1)),
)


@st.composite
def kernel_cases(draw):
    # (q, rows): one law or a stack of laws on k <= 16 letters, a k x m channel.
    k, m = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    n = draw(st.sampled_from([None, 1, 2, 7]))
    return draw(laws(k, n)), draw(laws(m, k))


class TestKernelOracle:
    @given(kernel_cases())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_the_errstate_kernel(self, case):
        q, rows = case
        got = channel_core._mutual_informations(q, rows)
        # The oracle divides the masked-out entries too, and a ratio over a
        # tiny marginal overflows there before its where discards it.
        with np.errstate(over="ignore"):
            want = errstate_mutual_informations(q, rows)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(kernel_cases())
    @example(UNDERFLOWING_JOINT)
    @example(UNDERFLOWING_TERM)
    @settings(max_examples=100, deadline=None)
    def test_raises_no_floating_point_error(self, case):
        # A joint q(x) W(y|x) below TINY_JOINT underflows, or its term
        # joint * log(ratio) does, by design (the parent's kernel does the
        # same); every other floating-point condition must not occur.
        q, rows = case
        with np.errstate(under="ignore"):
            joint = q[..., :, None] * rows
        tiny = ((q[..., :, None] > 0.0) & (rows > 0.0) & (joint < TINY_JOINT)).any()
        with np.errstate(all="raise", under="ignore" if tiny else "raise"):
            channel_core._mutual_informations(q, rows)

    @pytest.mark.parametrize("case", [UNDERFLOWING_JOINT, UNDERFLOWING_TERM])
    def test_the_tiny_examples_do_underflow(self, case):
        with pytest.raises(FloatingPointError, match="underflow"), np.errstate(all="raise"):
            channel_core._mutual_informations(*case)

    def test_entries_below_zero_within_tolerance(self):
        # A validated channel may hold -1e-13; it pulls the first output's
        # marginal below zero while that output's first joint is positive.
        rows = DiscreteChannel([[1e-14, 1.0 - 1e-14], [-1e-13, 1.0 + 1e-13]]).rows
        q = np.array([0.5, 0.5])
        assert (q @ rows)[0] < 0.0 < q[0] * rows[0, 0]
        for qs in (q, np.array([q, [0.25, 0.75]])):
            got = channel_core._mutual_informations(qs, rows)
            assert got.tobytes() == errstate_mutual_informations(qs, rows).tobytes()


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


def one_law_gap_optimum(bob, eve, lo, hi, sign):
    # The binary gap optimum scanned one law at a time: the bitwise oracle of the stacked scan.
    t_star, best = solvers.scan_then_golden_max(
        lambda t: sign * channel_core._info_gap(np.array([1.0 - t, t]), bob, eve),
        lo,
        hi,
        scan_points=channel_core.BINARY_SCAN_POINTS,
        tol=1e-12,
    )
    return np.array([1.0 - t_star, t_star]), sign * best


@st.composite
def binary_intervals(draw):
    # The whole simplex, one point (lo == hi), or the interval a cost cap clips.
    kind = draw(st.sampled_from(["whole", "point", "capped"]))
    if kind == "whole":
        return 0.0, 1.0
    if kind == "point":
        t = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        return t, t
    costs = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2)))
    gamma = draw(st.floats(float(costs.min()), float(costs.max())))
    return engine._feasible_binary_interval(costs, gamma)


class TestBinaryGapScan:
    # From 5 outputs on, a stacked gap can differ from its one-law value in the last bit.
    @given(
        bob=st.integers(1, 8).flatmap(lambda m: laws(m, 2)),
        eve=st.integers(1, 8).flatmap(lambda m: laws(m, 2)),
        interval=binary_intervals(),
        sign=st.sampled_from([1.0, -1.0]),
    )
    # Equal bob rows make the gap rounding noise around 0, which a stacked scan and a one-law scan draw
    # differently: the first example moves the best cell, the second a bracket end that wins.
    @example(
        bob=np.array([[1.0, 0.0, 1e-100, 0.0]] * 2), eve=np.array([[1.0]] * 2), interval=(0.0, 1.0), sign=1.0
    )
    @example(
        bob=np.array(
            [[0.04193909236948363, 5.032971114265864e-05, 0.3106920634789839, 4.211924004797722e-06,
              0.5511703784848276, 0.047519364635717216, 0.04862455939584013]] * 2
        ),
        eve=np.array([[1.0]] * 2),
        interval=(0.0, 1.0),
        sign=1.0,
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_scan_keeps_the_one_law_bits(self, bob, eve, interval, sign):
        lo, hi = interval
        law, gap = channel_core._binary_gap_optimum(bob, eve, lo, hi, sign)
        want_law, want_gap = one_law_gap_optimum(bob, eve, lo, hi, sign)
        assert law.tobytes() == want_law.tobytes()
        assert float(gap).hex() == float(want_gap).hex()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_nan_gap_re_scores_every_cell(self, sign):
        # On [0, 1e-310] every grid law but the first has a subnormal mass, whose
        # ratio overflows in both channels: those gaps are inf - inf = NaN.
        bob, eve = np.array([[1.0, 0.0], [0.5, 0.5]]), np.array([[1.0, 0.0], [0.9, 0.1]])
        with np.errstate(over="ignore", invalid="ignore"):
            law, gap = channel_core._binary_gap_optimum(bob, eve, 0.0, 1e-310, sign)
            want_law, want_gap = one_law_gap_optimum(bob, eve, 0.0, 1e-310, sign)
        assert math.isnan(want_gap)
        assert law.tobytes() == want_law.tobytes() and float(gap).hex() == float(want_gap).hex()


def three_sweeps(bob, eve):
    # The k > 2 refinement before it stopped at its fixed point: always
    # three sweeps. Returns (worst, gap, golden searches run).
    worst, gap = channel_core._grid_minimum(bob, eve)
    searches = 0
    for _ in range(3):
        for i, j in itertools.permutations(range(len(worst)), 2):
            budget = worst[i] + worst[j]
            if budget <= 0.0:
                continue

            def moved(t):
                q = worst.copy()
                q[i], q[j] = t, budget - t
                return q

            t_star, g = solvers.golden_min(lambda t: channel_core._info_gap(moved(t), bob, eve), 0.0, budget, tol=1e-10)
            searches += 1
            if g < gap:
                worst, gap = moved(t_star), g
    return worst, gap, searches


def test_refinement_stops_at_its_fixed_point_with_the_same_bits(monkeypatch):
    # A sweep that lowers nothing leaves worst as it was, so every later
    # sweep would repeat it: stopping there keeps every bit, with fewer searches.
    searches = 0

    def counted(*args, **kwargs):
        nonlocal searches
        searches += 1
        return solvers.golden_min(*args, **kwargs)

    monkeypatch.setattr(channel_core, "golden_min", counted)
    rng = np.random.default_rng(5)
    fixed = 0
    for k, degraded in itertools.product((3, 4, 5), (True, False)):
        bob = rng.dirichlet(np.ones(k), size=k)
        eve = bob @ rng.dirichlet(np.ones(k), size=k) if degraded else rng.dirichlet(np.ones(k), size=k)
        worst, gap, oracle_searches = three_sweeps(bob, eve)
        searches = 0
        result = is_more_capable(WiretapPair(DiscreteChannel(bob), DiscreteChannel(eve)))
        assert result.min_gap.hex() == gap.hex()
        assert [x.hex() for x in result.worst_input] == [x.hex() for x in worst]
        assert searches <= oracle_searches
        fixed += searches < oracle_searches
    assert fixed > 0


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
