"""Acceptance suite: one test per acceptance criterion.

Each test enforces the stated numeric tolerance and runtime budget and
prints a single PASS line with its headline numbers (run pytest with -s
to see them).
"""

import math
import time

import numpy as np
import pytest

from wiretap_exponents import (
    DiscreteChannel,
    ExponentQuery,
    OutputEnsemble,
    WiretapPair,
    inequality_slacks,
    reliability_curve,
    reliability_exponent,
    reliability_zero_rate,
    secrecy_curve,
    secrecy_exponent,
    secrecy_zero_rate,
    tradeoff_scenarios,
)
from wiretap_exponents import ensemble_sim as es
from wiretap_exponents import figures as fm
from wiretap_exponents import gaussian_wiretap as gw
from wiretap_exponents import poisson_wiretap as pw


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.time() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.name} took {self.elapsed:.1f}s, budget {self.seconds}s"
            )
            print(f"PASS {self.name} ({self.elapsed:.1f}s)")
        return False


def test_criterion_1_secrecy_measure_lattice():
    rng = np.random.default_rng(2024)
    with Budget("criterion 1: secrecy measure lattice on 1000 random ensembles", 5.0):
        for _ in range(1000):
            m = int(rng.integers(1, 9))
            k = int(rng.integers(2, 9))
            ensemble = OutputEnsemble(rng.dirichlet(np.ones(k), size=m), rng.dirichlet(np.ones(k)))
            slacks = inequality_slacks(ensemble)
            assert abs(slacks["divergence_split_residual"]) <= 1e-10
            assert slacks["pinsker"] >= -1e-10
            assert slacks["triangle"] >= -1e-10
            assert slacks["split_triangle"] >= -1e-10


def test_criterion_2_zero_crossings_and_curve_shape():
    pair = WiretapPair(DiscreteChannel.bsc(0.1), DiscreteChannel.bsc(0.3))
    query = ExponentQuery(pair, [0.6, 0.4], [1.0, 2.0], 1.4)
    with Budget("criterion 2: zero crossings and 50-point curve shape", 30.0):
        info_b = query.mutual_information("bob")
        info_e = query.mutual_information("eve")
        gap_b = abs(reliability_zero_rate(query) - info_b)
        gap_e = abs(secrecy_zero_rate(query) - info_e)
        assert gap_b < 1e-6
        assert gap_e < 1e-6

        f = reliability_curve(query, np.linspace(0.02 * info_b, 0.98 * info_b, 50))
        assert np.all(np.diff(f.exponents) < 0)
        assert np.all(np.diff(f.exponents, 2) >= -1e-9)

        h = secrecy_curve(query, np.linspace(1.02 * info_e, 3.5 * info_e, 50))
        assert np.all(np.diff(h.exponents) > 0)
        assert np.all(np.diff(h.exponents, 2) >= -1e-9)
    print(f"  crossing gaps: reliability {gap_b:.2e}, secrecy {gap_e:.2e}")


def _lse(a, axis):
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.sum(np.exp(a - m), axis=axis))


def _grid_oracle(query, side, rate, n=200):
    """Brute-force sup over an n^3 grid of (rho, r, s), in log space."""
    w = (query.pair.bob if side == "bob" else query.pair.eve).rows
    qv = query.input.probs
    dc = query.gamma - query.costs
    r_max, s_max = query.tilt_caps
    rhos = np.linspace(0.0 if side == "bob" else 1e-9, 1.0 if side == "bob" else 1 - 1e-9, n)
    tilt = np.linspace(0.0, r_max, n)[:, None] + np.linspace(0.0, s_max, n)[None, :]
    best = -np.inf
    for rho in rhos:
        kappa = 1.0 + rho if side == "bob" else 1.0 - rho
        logs = np.stack(
            [
                np.stack([np.log(qv[x]) + np.log(w[x, y]) / kappa + tilt * dc[x] for x in range(2)])
                for y in range(2)
            ]
        )
        phi = -_lse(kappa * _lse(logs, axis=1), axis=0)
        term = -rho * rate if side == "bob" else rho * rate
        best = max(best, float(phi.max()) + term)
    return max(best, 0.0)


def test_criterion_3_optimizer_vs_grid_oracle():
    # Random binary instances with a slack cost cap, so the brute-force
    # grid holds the tilt optimum exactly (it sits at the origin grid
    # point); interior tilt optima are finer than a 200-point grid step.
    rng = np.random.default_rng(77)
    worst = 0.0
    with Budget("criterion 3: optimizer matches 200^3 grid on 10 instances", 120.0):
        for _ in range(10):
            pair = WiretapPair(
                DiscreteChannel.bsc(rng.uniform(0.05, 0.45)),
                DiscreteChannel.bsc(rng.uniform(0.05, 0.45)),
            )
            q1 = rng.uniform(0.2, 0.8)
            costs = np.sort(rng.uniform(0.5, 2.0, 2))
            gamma = costs.max() + rng.uniform(0.0, 0.5)
            query = ExponentQuery(pair, [1 - q1, q1], costs, gamma)
            rate_f = rng.uniform(0.2, 0.8) * query.mutual_information("bob")
            rate_h = rng.uniform(1.2, 2.0) * query.mutual_information("eve")
            diff_f = abs(
                reliability_exponent(query.with_rates(rate_b=rate_f))
                - _grid_oracle(query, "bob", rate_f)
            )
            diff_h = abs(
                secrecy_exponent(query.with_rates(rate_e=rate_h))
                - _grid_oracle(query, "eve", rate_h)
            )
            assert diff_f <= 1e-5
            assert diff_h <= 1e-5
            worst = max(worst, diff_f, diff_h)
    print(f"  worst optimizer-vs-grid difference: {worst:.2e}")


def test_criterion_4_exact_ensembles_certify_bounds():
    worst_slack = math.inf
    with Budget("criterion 4: exact ensemble averages never exceed the bounds", 60.0):
        for n in (2, 3, 4):
            for m in (1, 2, 4):
                for l in (1, 2, 4):
                    if m * l > 8:
                        continue
                    for eps in (0.0, 0.1, 0.3, 0.5):
                        pair = WiretapPair(DiscreteChannel.bsc(eps), DiscreteChannel.bsc(eps))
                        spec = es.EnsembleSpec(pair, n, m, l, [0.5, 0.5])
                        err = es.exact_ensemble_error(spec)
                        div = es.exact_ensemble_divergence(spec)
                        bound_err = es.error_bound(spec)
                        bound_psi, bound_phi = es.divergence_bounds(spec)
                        assert err <= bound_err + 1e-12
                        assert div <= bound_psi + 1e-12
                        assert div <= bound_phi + 1e-12
                        for rho in np.linspace(0.05, 0.95, 19):
                            assert es.holder_gap(spec, float(rho)) >= -1e-12
                        worst_slack = min(
                            worst_slack, bound_err - err, bound_psi - div, bound_phi - div
                        )
    print(f"  smallest bound slack: {worst_slack:.3e}")


def test_criterion_5_concatenation_tradeoff():
    pair = WiretapPair(DiscreteChannel.bsc(0.1), DiscreteChannel.bsc(0.3))
    query = ExponentQuery(pair, [0.6, 0.4], [1.0, 2.0], 1.4)
    with Budget("criterion 5: prefix channel lowers reliability, raises secrecy", 30.0):
        scenarios = tradeoff_scenarios(query, "concatenate", [0.025], points=21)
        prefixed = scenarios[1]
        ok_f, slack_f = prefixed.checks["reliability_drops"]
        ok_h, slack_h = prefixed.checks["secrecy_rises"]
        assert ok_f and slack_f >= -1e-9
        assert ok_h and slack_h >= -1e-9
    print(f"  ordering slacks: reliability {slack_f:.2e}, secrecy {slack_h:.2e}")


def test_criterion_6_poisson_capacity():
    with Budget("criterion 6: Poisson capacity solver", 5.0):
        params = pw.PoissonWiretapParams(12.0, 5.0, 0.5, 1.5, 0.5)
        cap = pw.capacity(params)
        assert cap.residual < 1e-12

        for s in (0.1, 0.5, 1.0, 2.0):
            p = pw.PoissonWiretapParams(12.0, 5.0, 12.0 * s, 5.0 * s, 1.0)
            analytic = (1 + s) ** (1 + s) / (math.e * s**s) - s
            assert pw.capacity(p).q_star == pytest.approx(analytic, abs=1e-8)

        zero_dark = pw.PoissonWiretapParams(12.0, 5.0, 0.0, 0.0, 0.5)
        assert pw.capacity(zero_dark).value == pytest.approx(7.0 / math.e, abs=1e-10)

        scan = max(pw.information_gap(params, float(q)) for q in np.linspace(0, 0.5, 100001))
        assert cap.value == pytest.approx(scan, abs=1e-9)
    print(f"  residual {cap.residual:.1e}, capacity {cap.value:.9f} nats/s")


def test_criterion_7_poisson_exponents_vs_sliced_oracle():
    from wiretap_exponents.exponent_engine import _E0Evaluator
    from wiretap_exponents.solvers import golden_max

    params = pw.PoissonWiretapParams(12.0, 5.0, 0.5, 1.5, 0.5)
    q = 0.38
    deltas = (1e-2, 1e-3, 1e-4)
    with Budget("criterion 7: Poisson closed forms vs sliced-channel oracle", 120.0):
        for side, rhos, closed_fn in (
            ("bob", (0.25, 0.5, 0.75, 1.0), pw.reliability_exponent),
            ("eve", (0.25, 0.5, 0.75), pw.secrecy_exponent),
        ):
            for rho in rhos:
                closed = closed_fn(params, q, rho)
                kappa = 1.0 + rho if side == "bob" else 1.0 - rho
                errs = []
                for delta in deltas:
                    sliced = pw.discretize(params, delta)
                    query = ExponentQuery(sliced.pair, [1 - q, q], sliced.costs, sliced.gamma)
                    ev = _E0Evaluator(query, side)
                    _, val = golden_max(lambda r: ev(kappa, r, 0.0), 0.0, 50.0, tol=1e-12)
                    errs.append(abs(val / delta - closed))
                # linear shrink in the bin width: a decade of delta cuts the
                # error by about a decade
                assert errs[1] <= errs[0] / 5.0
                assert errs[2] <= errs[1] / 5.0

        h = 1e-6
        worst_fd = 0.0
        for rho in np.linspace(0.05, 0.95, 19):
            fd = (
                pw.reliability_exponent(params, q, rho + h)
                - pw.reliability_exponent(params, q, rho - h)
            ) / (2 * h)
            worst_fd = max(worst_fd, abs(fd - pw.reliability_rate(params, q, rho)))
            fd = -(
                pw.secrecy_exponent(params, q, rho + h)
                - pw.secrecy_exponent(params, q, rho - h)
            ) / (2 * h)
            worst_fd = max(worst_fd, abs(fd - pw.secrecy_rate(params, q, rho)))
        assert worst_fd <= 1e-6
    print(f"  worst rate-map finite-difference gap: {worst_fd:.2e}")


def test_criterion_8_gaussian_suite():
    params = gw.GaussianWiretapParams(1.0, 0.5, 0.5, 0.8, 0.5)
    with Budget("criterion 8: Gaussian capacity, oracles, dualities", 120.0):
        # capacity against the directly evaluated formula
        direct = 0.5 * math.log(3.0) - 0.5 * math.log(1.1953125)
        assert gw.capacity(params) == pytest.approx(direct, abs=1e-9)
        assert params.snr_bob == pytest.approx(2.0, abs=1e-14)
        assert params.snr_eve == pytest.approx(0.1953125, abs=1e-14)

        # the four closed forms against dense (rho, beta) grids
        def explicit_main(snr, beta, rho):
            return 0.5 * ((1 - beta) * (1 + rho) + snr + np.log(beta - snr / (1 + rho)) + rho * np.log(beta))

        def explicit_tap(snr, beta, rho):
            return 0.5 * ((1 - beta) * (1 - rho) + snr + np.log(beta - snr / (1 - rho)) - rho * np.log(beta))

        n = 2000
        snr_b, snr_e = params.snr_bob, params.snr_eve
        for rate in (0.3, 0.45):
            best_ours = best_gall = -np.inf
            for rho in np.linspace(0.0, 1.0, n):
                pole = snr_b / (1 + rho)
                above = (1 + pole) + np.linspace(0.0, 4.0, n)
                below = np.linspace(pole + 1e-9 * (1 + pole), 1 + pole, n)
                best_ours = max(best_ours, float(np.max(explicit_main(snr_b, above, rho))) - rho * rate)
                best_gall = max(best_gall, float(np.max(explicit_main(snr_b, below, rho))) - rho * rate)
            assert gw.reliability_forward_tilt(params, rate) == pytest.approx(max(best_ours, 0.0), abs=1e-5)
            assert gw.reliability_gallager(params, rate) == pytest.approx(max(best_gall, 0.0), abs=1e-5)
        for rate in (0.15, 0.3):
            best_ours = best_gall = -np.inf
            for rho in np.linspace(1e-6, 1 - 1e-6, n):
                pole = snr_e / (1 - rho)
                above = (1 + pole) + np.linspace(0.0, max(6.0, 3 * (1 + pole)), n)
                below = np.linspace(pole + 1e-9 * (1 + pole), 1 + pole, n)
                best_ours = max(best_ours, float(np.max(explicit_tap(snr_e, above, rho))) + rho * rate)
                best_gall = max(best_gall, float(np.max(explicit_tap(snr_e, below, rho))) + rho * rate)
            assert gw.secrecy_forward_tilt(params, rate) == pytest.approx(max(best_ours, 0.0), abs=1e-5)
            assert gw.secrecy_gallager_type(params, rate) == pytest.approx(max(best_gall, 0.0), abs=1e-5)

        # critical-rate ordering over a 1000-point sweep
        for snr in np.linspace(1e-3, 100.0, 1000):
            p = gw.GaussianWiretapParams(1.0, 1.0, math.sqrt(1 / snr), math.sqrt(1 / snr), 1.0)
            r_param, r_expl = gw.critical_rates(p)
            assert r_param <= r_expl + 1e-12

        # dualities
        rng = np.random.default_rng(5)
        for _ in range(300):
            snr = rng.uniform(0.05, 10.0)
            beta = 1.0 + snr + rng.uniform(1e-3, 5.0)
            root = math.sqrt(1.0 + 4.0 * beta / (snr * (beta - 1.0)))
            literal = snr / (4 * beta) * ((beta + 1) - (beta - 1) * root) + 0.5 * math.log(
                beta - 0.5 * snr * (beta - 1) * (root - 1)
            )
            assert abs(gw._explicit_form(snr, 0.5 * math.log(beta)) - literal) <= 1e-12
            rho = rng.uniform(0.01, 0.99)
            lhs = rho**2 * snr / (2 * (1 - rho) * (1 - rho + snr))
            rhs = (-rho) ** 2 * snr / (2 * (1 + (-rho)) * (1 + (-rho) + snr))
            assert abs(lhs - rhs) <= 1e-12

        # branch continuity at both critical rates
        r_param, r_expl = gw.critical_rates(params)
        eps = 1e-13
        assert abs(
            gw.reliability_forward_tilt(params, r_param - eps)
            - gw.reliability_forward_tilt(params, r_param + eps)
        ) <= 1e-10
        assert abs(
            gw.reliability_gallager(params, r_expl - eps)
            - gw.reliability_gallager(params, r_expl + eps)
        ) <= 1e-10
    print(f"  capacity {gw.capacity(params):.9f} nats, critical rates {r_param:.6f} <= {r_expl:.6f}")


def test_criterion_9_figure_reproduction(tmp_path):
    from wiretap_exponents.cli import main as cli_main

    with Budget("criterion 9: figure data emission and shape checks", 180.0):
        code = cli_main(
            ["figures", "--which", "all", "--out-dir", str(tmp_path), "--points", "33",
             "--out", str(tmp_path / "manifest.json")]
        )
        assert code == 0
        import json

        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["figures"]) == {str(i) for i in fm.FIGURE_IDS}
        for fig_id, entry in manifest["figures"].items():
            assert entry["ok"], f"figure {fig_id} failed {entry['checks']}"
            for fname in entry["files"]:
                assert (tmp_path / fname).exists()
        # the crossing figures actually certified a crossing
        for fig_id in ("5", "8", "9", "12"):
            assert manifest["figures"][fig_id]["checks"]["curves_cross"]["ok"]
    n_files = sum(len(e["files"]) for e in manifest["figures"].values())
    print(f"  emitted {n_files} curve files for {len(manifest['figures'])} figures")
