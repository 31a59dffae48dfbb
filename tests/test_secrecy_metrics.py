import math

import numpy as np
import pytest

from wiretap_exponents import (
    OutputEnsemble,
    divergence_distance,
    inequality_slacks,
    mean_distance_to_average,
    mutual_information_measure,
    variational_distance,
)


def rand_ensemble(rng, max_members=8, max_alphabet=8):
    m = int(rng.integers(1, max_members + 1))
    k = int(rng.integers(2, max_alphabet + 1))
    members = rng.dirichlet(np.ones(k), size=m)
    target = rng.dirichlet(np.ones(k))
    return OutputEnsemble(members, target)


class TestDivergenceDistance:
    def test_members_equal_target(self):
        e = OutputEnsemble([[0.3, 0.7], [0.3, 0.7]], [0.3, 0.7])
        assert divergence_distance(e) == 0.0

    def test_point_mass_vs_uniform(self):
        e = OutputEnsemble([[1.0, 0.0]], [0.5, 0.5])
        assert divergence_distance(e) == pytest.approx(math.log(2), abs=1e-15)

    def test_two_opposite_point_masses(self):
        e = OutputEnsemble([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        assert divergence_distance(e) == pytest.approx(math.log(2), abs=1e-15)

    def test_absolute_continuity_violation(self):
        e = OutputEnsemble([[0.5, 0.5]], [1.0, 0.0])
        with pytest.raises(ValueError, match="symbol 1"):
            divergence_distance(e)


    def test_violation_names_the_member_and_the_symbol(self):
        e = OutputEnsemble([[1.0, 0.0, 0.0], [0.5, 0.0, 0.5]], [0.5, 0.5, 0.0])
        with pytest.raises(ValueError, match="member 1 vs target at symbol 2"):
            divergence_distance(e)


class TestVariationalDistance:
    def test_members_equal_target(self):
        e = OutputEnsemble([[0.4, 0.6]], [0.4, 0.6])
        assert variational_distance(e) == 0.0

    def test_point_mass_vs_uniform(self):
        e = OutputEnsemble([[1.0, 0.0]], [0.5, 0.5])
        assert variational_distance(e) == pytest.approx(1.0, abs=1e-15)

    def test_hand_sum(self):
        e = OutputEnsemble([[0.9, 0.1], [0.5, 0.5]], [0.7, 0.3])
        # |0.2| + |-0.2| = 0.4 for each member
        assert variational_distance(e) == pytest.approx(0.4, abs=1e-15)


class TestMutualInformationMeasure:
    def test_members_equal_target(self):
        e = OutputEnsemble([[0.3, 0.7], [0.3, 0.7]], [0.3, 0.7])
        assert mutual_information_measure(e) == (0.0, 0.0)

    def test_opposite_point_masses_average_to_target(self):
        e = OutputEnsemble([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        leakage, stealth = mutual_information_measure(e)
        assert leakage == pytest.approx(math.log(2), abs=1e-12)
        assert stealth == pytest.approx(0.0, abs=1e-15)

    def test_single_member_is_pure_stealth(self):
        e = OutputEnsemble([[0.8, 0.2]], [0.5, 0.5])
        leakage, stealth = mutual_information_measure(e)
        assert leakage == 0.0
        assert stealth == pytest.approx(divergence_distance(e), abs=1e-12)


class TestMeanDistanceToAverage:
    def test_all_members_equal(self):
        e = OutputEnsemble([[0.6, 0.4], [0.6, 0.4]], [0.5, 0.5])
        assert mean_distance_to_average(e) == 0.0

    def test_opposite_point_masses(self):
        e = OutputEnsemble([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        assert mean_distance_to_average(e) == pytest.approx(1.0, abs=1e-15)

    def test_bounded_by_twice_variational(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            e = rand_ensemble(rng, max_members=3)
            assert mean_distance_to_average(e) <= 2.0 * variational_distance(e) + 1e-12


class TestInequalitySlacks:
    def test_degenerate_all_zero(self):
        e = OutputEnsemble([[0.3, 0.7]], [0.3, 0.7])
        slacks = inequality_slacks(e)
        assert slacks["divergence"] == 0.0
        assert slacks["variational"] == 0.0
        assert slacks["pinsker"] == 0.0

    def test_pinsker_slack_for_point_masses(self):
        e = OutputEnsemble([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        slacks = inequality_slacks(e)
        assert slacks["pinsker"] == pytest.approx(2 * math.log(2) - 1.0, abs=1e-12)

    def test_random_sweep_no_violations(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            slacks = inequality_slacks(rand_ensemble(rng))
            assert slacks["pinsker"] >= -1e-10
            assert slacks["triangle"] >= -1e-10
            assert slacks["split_triangle"] >= -1e-10
            assert abs(slacks["divergence_split_residual"]) <= 1e-10

    def test_measures_zero_iff_members_equal_target(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            e = rand_ensemble(rng, max_members=4, max_alphabet=4)
            div = divergence_distance(e)
            var = variational_distance(e)
            equal = bool(np.all(np.abs(e.members - e.target[None, :]) < 1e-15))
            if equal:
                assert div == pytest.approx(0.0, abs=1e-12)
                assert var == pytest.approx(0.0, abs=1e-12)
            else:
                assert div > 0.0
                assert var > 0.0

    def test_target_equal_average_collapses_measures(self):
        # when the target is the ensemble average, the divergence measure
        # is pure leakage and the variational measure is the distance to
        # the average
        rng = np.random.default_rng(3)
        for _ in range(50):
            members = rng.dirichlet(np.ones(5), size=4)
            e = OutputEnsemble(members, members.mean(axis=0))
            leakage, stealth = mutual_information_measure(e)
            assert stealth == pytest.approx(0.0, abs=1e-12)
            assert divergence_distance(e) == pytest.approx(leakage, abs=1e-10)
            assert variational_distance(e) == pytest.approx(mean_distance_to_average(e), abs=1e-12)


class TestEnsembleIO:
    def test_from_json(self):
        e = OutputEnsemble.from_json({"members": [[0.5, 0.5]], "target": [0.4, 0.6]})
        assert e.size == 1

    def test_unknown_keys(self):
        with pytest.raises(ValueError):
            OutputEnsemble.from_json({"members": [[1.0]], "target": [1.0], "extra": 0})

    def test_invalid_member(self):
        with pytest.raises(ValueError):
            OutputEnsemble([[0.5, 0.6]], [0.5, 0.5])


def scalar_kl(p, r):
    return sum(pi * (math.log(pi) - math.log(ri)) for pi, ri in zip(p, r) if pi > 0.0)


class TestAgainstScalarOracles:
    def test_slacks_are_the_public_measures(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            e = rand_ensemble(rng)
            slacks = inequality_slacks(e)
            leakage, stealth = mutual_information_measure(e)
            assert slacks["divergence"] == divergence_distance(e)
            assert slacks["variational"] == variational_distance(e)
            assert slacks["distance_to_average"] == mean_distance_to_average(e)
            assert (slacks["leakage"], slacks["stealth"]) == (leakage, stealth)

    def test_measures_match_member_by_member_sums(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            # Zeros in the members, none in the target.
            m, k = int(rng.integers(1, 12)), int(rng.integers(2, 12))
            members = rng.dirichlet(np.ones(k), size=m) * (rng.random((m, k)) < 0.8)
            members[:, 0] += 1e-3
            members /= members.sum(axis=1, keepdims=True)
            e = OutputEnsemble(members, rng.dirichlet(np.ones(k)))
            avg = [sum(col) / m for col in zip(*e.members)]
            tv = lambda p, r: sum(abs(pi - ri) for pi, ri in zip(p, r))
            kl_target = sum(scalar_kl(p, e.target) for p in e.members) / m
            assert divergence_distance(e) == pytest.approx(kl_target, rel=1e-13)
            assert variational_distance(e) == pytest.approx(sum(tv(p, e.target) for p in e.members) / m, rel=1e-13)
            assert mean_distance_to_average(e) == pytest.approx(
                sum(tv(p, avg) for p in e.members) / m, rel=1e-13, abs=1e-15
            )
            leakage, stealth = mutual_information_measure(e)
            assert leakage == pytest.approx(sum(scalar_kl(p, avg) for p in e.members) / m, rel=1e-12, abs=1e-15)
            assert stealth == pytest.approx(scalar_kl(avg, e.target), rel=1e-12, abs=1e-15)
