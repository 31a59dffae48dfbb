import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_poisson_wiretap import _mp_point
from wiretap_exponents import cli, ensemble_sim, figures
from wiretap_exponents.exponent_engine import ExponentCurve, tradeoff_scenarios

CONFIG = {
    "bob": [[0.9, 0.1], [0.1, 0.9]],
    "eve": [[0.7, 0.3], [0.3, 0.7]],
    "costs": [1.0, 2.0],
    "gamma": 1.4,
    "q": [0.6, 0.4],
}


SELFTEST_CHECKS = [
    "channel_invariants",
    "secrecy_measure_lattice",
    "exponent_zero_crossings",
    "ensemble_bound_certification",
    "poisson_capacity",
    "gaussian_identities",
    "figure_shapes",
]


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "wiretap_exponents.cli", *args],
        capture_output=True,
        text=True,
    )


class TestCsvEmission:
    def test_roundtrip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        rates = np.cumsum(rng.random(20)) + 0.01
        exps = rng.random(20)
        curve = ExponentCurve(rates, exps, {"argmax_rho": list(rng.random(20))})
        path = tmp_path / "curve.csv"
        path.write_text(cli.curve_to_csv(curve))
        back_rates, back_exps = cli.read_curve_csv(path)
        assert np.array_equal(back_rates, rates)
        assert np.array_equal(back_exps, exps)

    def test_missing_diagnostics_emitted_empty(self):
        curve = ExponentCurve([0.1, 0.2], [0.5, 0.4])
        text = cli.curve_to_csv(curve)
        line = text.strip().splitlines()[-1]
        assert line.endswith(",,,")


def _csv_points(text):
    """{curve name: rows of floats (None for an empty field)} from CSV on stdout."""
    curves, name = {}, None
    for line in text.splitlines():
        if line.startswith("# curve "):
            name = line[len("# curve "):]
            curves[name] = []
        elif line and not line.startswith("#") and line != ",".join(cli.CSV_COLUMNS):
            curves[name].append([None if v == "" else float(v) for v in line.split(",")])
    return curves


def _bits(row):
    return [None if v is None else float(v).hex() for v in row]


GAUSSIAN_SETUP = ["--Ay", "1", "--Az", "0.5", "--sy", "0.5", "--sz", "0.8", "--gamma", "0.5"]
POISSON_SETUP = ["--Ay", "12", "--Az", "5", "--ly", "0.5", "--lz", "1.5", "--gamma", "0.5", "--q", "0.38"]


@pytest.mark.parametrize(
    "argv",
    [
        ["exponents", "--config", "CONFIG"],
        ["poisson", "curves", *POISSON_SETUP],
        ["poisson", "concat", *POISSON_SETUP, "--a", "0.98", "--b", "0.02"],
        ["gaussian", "reliability", "--variant", "gallager", *GAUSSIAN_SETUP],
        ["gaussian", "secrecy", *GAUSSIAN_SETUP],
    ],
    ids=["exponents", "poisson_curves", "poisson_concat", "gaussian_reliability", "gaussian_secrecy"],
)
def test_json_points_equal_the_csv_bit_for_bit(argv, config_path, capsys):
    argv = [config_path if a == "CONFIG" else a for a in argv] + ["--points", "6"]
    assert cli.main(argv) == 0
    csv = _csv_points(capsys.readouterr().out)
    assert cli.main(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert csv and set(csv) <= set(payload)
    for name, rows in csv.items():
        points = [[p[c] for c in cli.CSV_COLUMNS] for p in payload[name]["points"]]
        assert list(map(_bits, points)) == list(map(_bits, rows)) and len(rows) == 6
        if argv[0] == "gaussian":
            assert all(p[2:] == [None, None, None] for p in points)


class TestCommands:
    def test_capacity_json(self, config_path, capsys):
        code = cli.main(["capacity", "--config", config_path])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["more_capable"] is True
        assert payload["value_nats"] > 0.2

    def test_parser_is_built_once_and_survives_a_usage_error(self, config_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        fresh = run_cli(["capacity", "--config", config_path])
        assert fresh.returncode == cli.EXIT_OK
        with pytest.raises(SystemExit) as exc:
            cli.main(["capacity", "--config", config_path, "--aux-dim", "two"])
        assert exc.value.code == cli.EXIT_USAGE
        capsys.readouterr()
        assert cli.main(["capacity", "--config", config_path]) == cli.EXIT_OK
        assert capsys.readouterr().out == fresh.stdout

    def test_exponents_to_files(self, config_path, tmp_path):
        out = tmp_path / "curves.csv"
        code = cli.main(
            ["exponents", "--config", config_path, "--points", "5", "--out", str(out)]
        )
        assert code == 0
        rel = tmp_path / "curves_reliability.csv"
        sec = tmp_path / "curves_secrecy.csv"
        assert rel.exists() and sec.exists()
        rates, exps = cli.read_curve_csv(rel)
        assert rates.size == 5
        assert np.all(np.diff(exps) <= 1e-12)

    def test_deterministic_output(self, config_path, capsys):
        cli.main(["exponents", "--config", config_path, "--points", "4", "--format", "json"])
        first = capsys.readouterr().out
        cli.main(["exponents", "--config", config_path, "--points", "4", "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_poisson_capacity(self, capsys):
        code = cli.main(
            ["poisson", "capacity", "--Ay", "12", "--Az", "5", "--ly", "0.5", "--lz", "1.5", "--gamma", "0.5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["residual"] < 1e-12

    def test_poisson_capacity_at_a_large_dark_current(self, capsys):
        # At s = 1e6 the log terms of each information rate are 1e14 times the rate; a form that cancels printed
        # 9.12696123123169e-08. The 60-digit root and the gap there; a log form of the slope left q* at 0.5.
        code = cli.main(
            ["poisson", "capacity", "--Ay", "1", "--Az", "0.5", "--ly", "1e6", "--lz", "1e6", "--gamma", "1"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["q_capped"] == pytest.approx(0.49999995138891262, abs=1e-15)
        assert payload["value_nats_per_second"] == pytest.approx(9.3749945312535066e-08, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "flags",
        [
            # base - rho * rate cancelled: rates 8.5e-5 and one exponent 2.3e12 times off.
            "--Ay 1 --Az 0.5 --ly 1e4 --lz 2e4 --gamma 1 --q 0.5 --points 5",
            # The same cancellation, and the rates at a small duty: exit 2, "rates must be strictly increasing".
            "--Ay 1 --Az 0.5 --ly 1e5 --lz 1e6 --gamma 1 --q 0.5 --points 5",
            "--Ay 12 --Az 5 --ly 0.5 --lz 1.5 --gamma 0.5 --q 1e-20 --points 3",
        ],
    )
    def test_poisson_curves_match_mpmath(self, flags, capsys):
        assert cli.main(f"poisson curves {flags} --format json".split()) == 0
        payload = json.loads(capsys.readouterr().out)
        p = payload["params"]
        for name, peak, dark, sign in (("reliability", p["Ay"], p["ly"], 1.0), ("secrecy", p["Az"], p["lz"], -1.0)):
            for point in payload[name]["points"]:
                exponent, rate = _mp_point(dark / peak, p["q"], sign * point["argmax_rho"])
                assert point["rate"] == pytest.approx(peak * rate, rel=1e-12, abs=0.0)
                assert point["exponent"] == pytest.approx(peak * exponent, rel=1e-12, abs=0.0)

    def test_poisson_capacity_of_small_peaks_under_dark_currents(self, capsys):
        # s = 1e7 and 2e7: a log form of the slope left q* unresolved (exit 2). The 400-digit capacity.
        assert cli.main("poisson capacity --Ay 1e-7 --Az 1e-7 --ly 1 --lz 2 --gamma 1".split()) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value_nats_per_second"] == pytest.approx(6.2499995312500326e-16, rel=1e-12, abs=0.0)

    def test_gaussian_capacity(self, capsys):
        code = cli.main(
            ["gaussian", "capacity", "--Ay", "1", "--Az", "0.5", "--sy", "0.5", "--sz", "0.8", "--gamma", "0.5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value_nats"] == pytest.approx(0.46010231559764575, abs=1e-12)

    def test_gaussian_curve_csv(self, capsys):
        code = cli.main(
            [
                "gaussian", "reliability", "--variant", "gallager",
                "--Ay", "1", "--Az", "0.5", "--sy", "0.5", "--sz", "0.8", "--gamma", "0.5",
                "--points", "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rate,exponent" in out

    def test_gaussian_explicit_curve_at_a_large_snr(self, tmp_path):
        # snr_bob is 1.06e12: the explicit form's log argument once cancelled to a negative number here.
        out = tmp_path / "curve.csv"
        command = (
            "gaussian reliability --Ay 172.721 --Az 0.00135165 --sy 0.0014495 --sz 2.97688e-07 --gamma 74.6664"
            f" --variant gallager --points 7 --out {out}"
        )
        assert cli.main(command.split()) == 0
        rates, exps = cli.read_curve_csv(out)
        assert len(rates) == 7 and np.isfinite(rates).all() and np.isfinite(exps).all()

    @pytest.mark.parametrize("gamma", ["1e16", "1e100", "1e300"])
    def test_gaussian_linear_branch_at_a_huge_snr(self, gamma, tmp_path):
        # The explicit variant's linear branch took log(beta - snr/2), which rounds to log(0) from an SNR of 1e16.
        out = tmp_path / "curve.csv"
        flags = f"--Ay 1 --Az 0.5 --sy 0.5 --sz 0.8 --gamma {gamma} --out {out}"
        command = f"gaussian reliability --variant gallager {flags}"
        assert cli.main(command.split()) == 0
        rates, exps = cli.read_curve_csv(out)
        assert np.isfinite(rates).all() and np.isfinite(exps).all()

    @pytest.mark.parametrize(
        "action, variant, fig_id, curve",
        [
            ("reliability", "forward", 10, "reliability_parametric"),
            ("reliability", "gallager", 10, "reliability_explicit"),
            ("secrecy", "forward", 11, "secrecy_explicit"),
            ("secrecy", "gallager", 11, "secrecy_parametric"),
        ],
    )
    def test_gaussian_curve_matches_figure(self, action, variant, fig_id, curve, tmp_path):
        out = tmp_path / "curve.csv"
        setup = ["--Ay", "1", "--Az", "0.5", "--sy", "0.5", "--sz", "0.8", "--gamma", "0.5"]
        code = cli.main(["gaussian", action, "--variant", variant, *setup, "--points", "9", "--out", str(out)])
        assert code == 0
        rates, exps = cli.read_curve_csv(out)
        expected = figures.figure_data(fig_id, points=9).curve(curve)
        assert np.array_equal(rates, expected.rates)
        assert np.array_equal(exps, expected.exponents)

    def test_selftest_fast(self, capsys):
        assert cli.main(["selftest", "--fast"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == [f"PASS {name}" for name in SELFTEST_CHECKS]
        assert lines[-1] == "OK (0 failing)"

    @pytest.mark.parametrize(
        "module, attr, fake, name",
        [
            (figures, "shape_report", lambda data: {"forced": (False, "forced failure")}, "figure_shapes"),
            (ensemble_sim, "certification_report", lambda spec: {"slacks": {"error": math.nan}},
             "ensemble_bound_certification"),
        ],
        ids=["failing_shape_check", "nan_slack"],
    )
    def test_selftest_reports_a_failing_check(self, monkeypatch, capsys, module, attr, fake, name):
        monkeypatch.setattr(module, attr, fake)
        assert cli.main(["selftest", "--fast"]) == cli.EXIT_PROPERTY
        lines = capsys.readouterr().out.splitlines()
        failing = [line for line in lines if line.startswith("FAIL ")]
        assert len(failing) == 1 and failing[0].startswith(f"FAIL {name}: ")
        assert len(lines) == len(SELFTEST_CHECKS) + 1 and lines[-1] == "FAILED (1 failing)"

    def test_ensemble_report(self, capsys):
        code = cli.main(
            ["ensemble", "--n", "3", "--M", "2", "--L", "2", "--eps-y", "0.1", "--eps-z", "0.3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact_error"] <= payload["bound_error"]
        assert payload["exact_divergence"] <= payload["bound_psi"]

    def test_figures_single(self, tmp_path, capsys):
        code = cli.main(
            ["figures", "--which", "10", "--out-dir", str(tmp_path), "--points", "9"]
        )
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["figures"]["10"]["ok"] is True
        for fname in manifest["figures"]["10"]["files"]:
            assert (tmp_path / fname).exists()

    def test_capacity_at_the_cheapest_cost_of_a_reversed_pair(self, tmp_path, capsys):
        path = tmp_path / "reversed.json"
        path.write_text(json.dumps({**CONFIG, "bob": CONFIG["eve"], "eve": CONFIG["bob"], "gamma": 1.0}))
        assert cli.main(["capacity", "--config", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value_nats"] == 0.0 and payload["heuristic_lower_bound"] is True
        assert payload["aux_channel"] == [[1.0, 0.0], [1.0, 0.0]]

    def test_capacity_under_a_subnormal_cap(self, tmp_path, capsys):
        # Every feasible law holds a subnormal mass, whose ratio W / qW once overflowed in both
        # channels: the gap was inf - inf and the command exited 2 with a non-finite value.
        doc = {"bob": [[1, 0], [0.5, 0.5]], "eve": [[1, 0], [0.9, 0.1]], "costs": [0, 1], "gamma": 1e-310}
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["capacity", "--config", str(path)]) == cli.EXIT_OK
        value = json.loads(capsys.readouterr().out)["value_nats"]
        assert math.isfinite(value) and 0.0 <= value < 1e-300

    # figure -> (mechanism, sweep, side kept, its sweep checks in the manifest)
    SWEEP_FIGURES = {
        3: ("rate_exchange", [0.05], "", {"exchange+0.05/reliability_invariant",
                                          "exchange+0.05/secrecy_nondecreasing_in_shift"}),
        4: ("concatenate", [0.025], "", {"prefix_bsc_0.025/reliability_drops", "prefix_bsc_0.025/secrecy_rises"}),
        5: ("rate_shift", [0.05], "", {"shift+0.05/reliability_nonincreasing_in_shift",
                                       "shift+0.05/secrecy_nondecreasing_in_shift"}),
        6: ("cost_change", [1.0, 1.2, 1.4], "reliability", {"cap_1.2/reliability_nondecreasing_in_cap",
                                                            "cap_1.4/reliability_nondecreasing_in_cap"}),
        7: ("cost_change", [1.0, 1.2, 1.4], "secrecy", {"cap_1.2/secrecy_nonincreasing_in_cap",
                                                        "cap_1.4/secrecy_nonincreasing_in_cap"}),
    }

    @pytest.mark.parametrize("fig_id", SWEEP_FIGURES)
    def test_figure_manifest_reports_the_sweep_checks(self, fig_id, tmp_path, capsys):
        mechanism, sweep, keep, names = self.SWEEP_FIGURES[fig_id]
        assert cli.main(["figures", "--which", str(fig_id), "--out-dir", str(tmp_path), "--points", "7"]) == 0
        entry = json.loads(capsys.readouterr().out)["figures"][str(fig_id)]
        sweep_checks = {k: v for k, v in entry["checks"].items() if "/" in k}
        assert set(sweep_checks) == names
        for sc in tradeoff_scenarios(figures.bsc_query(), mechanism, sweep, points=7):
            for name, (ok, slack) in sc.checks.items():
                if name.startswith(keep):
                    assert sweep_checks[f"{sc.label}/{name}"] == {"ok": ok, "detail": slack}
        # Every other check belongs to one curve, or is the crossing.
        curves = [f[len(f"fig{fig_id}_"):-len(".csv")] for f in entry["files"]]
        per_curve = {f"{c}_{kind}" for c in curves for kind in ("convex", "nonincreasing", "nondecreasing")}
        assert set(entry["checks"]) - names <= per_curve | {"curves_cross"}

    def test_tradeoff_exchange(self, config_path, capsys):
        code = cli.main(
            [
                "tradeoff", "--config", config_path, "--mechanism", "rate_exchange",
                "--sweep", "0.05", "--points", "5",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(s["ok"] for s in payload["scenarios"])


class TestExitCodes:
    def test_usage_error_is_one(self):
        proc = run_cli(["not-a-command"])
        assert proc.returncode == 1

    def test_precondition_error_is_two(self):
        proc = run_cli(
            ["poisson", "capacity", "--Ay", "1", "--Az", "5", "--ly", "0.5", "--lz", "1.5", "--gamma", "0.5"]
        )
        assert proc.returncode == 2
        assert "precondition violation" in proc.stderr

    def test_unknown_figure_id_is_two(self, tmp_path):
        proc = run_cli(["figures", "--which", "99", "--out-dir", str(tmp_path)])
        assert proc.returncode == 2
        assert "valid ids" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["poisson", "capacity", "--Ay", "nan", "--Az", "5", "--ly", "0.5", "--lz", "1.5", "--gamma", "0.5"],
            ["poisson", "capacity", "--Ay", "12", "--Az", "5", "--ly", "inf", "--lz", "inf", "--gamma", "0.5"],
            ["gaussian", "capacity", "--Ay", "nan", "--Az", "0.5", "--sy", "0.5", "--sz", "0.8", "--gamma", "0.5"],
        ],
    )
    def test_non_finite_flag_is_two(self, argv, capsys):
        assert cli.main(argv) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            "gaussian capacity --Ay=2 --Az=1e-12 --sy=1e-300 --sz=1e-12 --gamma=0.5",
            "gaussian capacity --Ay=1e300 --Az=5 --sy=5 --sz=0.5 --gamma=0.999999",
            "gaussian reliability --Ay=1e300 --Az=5 --sy=5 --sz=0.5 --gamma=0.999999",
            "poisson capacity --Ay 1e308 --Az 5e307 --ly 0 --lz 1 --gamma 0.5",
        ],
    )
    def test_a_number_past_the_float_range_is_two(self, command, capsys):
        assert cli.main(command.split()) == 2
        assert "precondition violation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, value",
        [
            ("poisson capacity --Ay 1e-12 --Az 1e-12 --ly 0.5 --lz 1e154 --gamma 1", 2.4999999999974999497e-25),
            (
                "poisson concat --Ay 1e300 --Az 1e-300 --ly 1e308 --lz 1.5 --gamma 0.5 --q 0.38 --points 5 --a 0.98"
                " --b 0.02",
                None,
            ),
        ],
    )
    def test_a_gap_derivative_rounding_left_flat_is_resolved(self, command, value, capsys):
        # A log form of the slope rounded both bracket ends to the same number (exit 2, "does not resolve q").
        # The capacity is the 400-digit value. The prefixed pair's eve has a dark-to-peak ratio of 1.6e300, so
        # her curve rates underflow to 0 and the curves, not q*, exit 2.
        code = cli.main(command.split())
        out, err = capsys.readouterr()
        if value is None:
            assert code == 2 and "rates must be strictly increasing" in err
        else:
            assert code == 0
            assert json.loads(out)["value_nats_per_second"] == pytest.approx(value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("action", ["curves", "concat --a 0.98 --b 0.02"])
    def test_a_poisson_curve_at_duty_zero_is_two(self, action, capsys):
        # Every point of a curve at q = 0 has rate 0.
        command = f"poisson {action} --Ay 12 --Az 5 --ly 0.5 --lz 1.5 --gamma 0.5 --q 0 --points 3"
        assert cli.main(command.split()) == 2
        assert "duty probability q = 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["exponents"], ["tradeoff", "--mechanism", "rate_shift", "--sweep", "0.1"]])
    def test_an_input_law_bob_learns_nothing_from_is_two(self, argv, tmp_path, capsys):
        # q = [1, 0] sends one symbol only, so Bob's mutual information and every rate of the window are 0.
        path = tmp_path / "one_symbol.json"
        path.write_text(json.dumps({**CONFIG, "q": [1.0, 0.0]}))
        assert cli.main([*argv, "--config", str(path)]) == 2
        assert "Bob's mutual information 0.0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["capacity", "exponents"])
    def test_non_finite_config_is_two(self, command, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({**CONFIG, "gamma": float("nan")}))
        assert cli.main([command, "--config", str(path)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [2, 3])
    def test_cap_below_cheapest_cost_is_two(self, k, tmp_path, capsys):
        rows = np.eye(k)
        doc = {"bob": rows.tolist(), "eve": (0.5 * rows + 0.5 / k).tolist(), "costs": [1.0] * k, "gamma": 0.5}
        path = tmp_path / "cheap.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["capacity", "--config", str(path)]) == 2
        assert "cheapest" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["tradeoff", "--config", "c.json", "--mechanism", "rate_shift", "--sweep", "0.05", "--format", "csv"],
            ["selftest", "--out", "report.txt"],
            ["capacity", "--config", "c.json", "--points", "5"],
            ["ensemble", "--n", "3", "--M", "2", "--L", "2", "--eps-y", "0.1", "--eps-z", "0.3", "--format", "json"],
            ["figures", "--seed", "1"],
            ["gaussian", "capacity", "--Ay", "1", "--Az", "0.5", "--sy", "0.5", "--sz", "0.8", "--gamma", "0.5",
             "--seed", "1"],
        ],
    )
    def test_flag_the_command_does_not_read_is_one(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1

    @pytest.mark.parametrize("points", [0, 1])
    @pytest.mark.parametrize(
        "argv",
        [
            ["exponents", "--config", "{config}"],
            ["poisson", "curves", "--Ay", "12", "--Az", "5", "--ly", "0.5", "--lz", "1.5", "--gamma", "0.5",
             "--q", "0.38"],
            ["gaussian", "reliability", "--Ay", "1", "--Az", "0.5", "--sy", "0.5", "--sz", "0.8", "--gamma", "0.5"],
            ["figures", "--which", "10", "--out-dir", "{out}"],
            ["figures", "--which", "2", "--out-dir", "{out}"],
        ],
    )
    def test_points_below_two_is_two(self, argv, points, config_path, tmp_path, capsys):
        out_dir = tmp_path / "figures"
        argv = [a.format(config=config_path, out=out_dir) for a in argv]
        assert cli.main([*argv, "--points", str(points)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--points must be at least 2" in captured.err
        assert not out_dir.exists()

    @pytest.mark.parametrize("aux_dim", [0, -1])
    @pytest.mark.parametrize("reverse", [False, True], ids=["more_capable", "not_more_capable"])
    def test_aux_dim_below_one_is_two(self, aux_dim, reverse, tmp_path, capsys):
        doc = {**CONFIG, "bob": CONFIG["eve"], "eve": CONFIG["bob"]} if reverse else CONFIG
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["capacity", "--config", str(path), "--aux-dim", str(aux_dim)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "auxiliary alphabet size must be at least 1" in captured.err

    @pytest.mark.parametrize("samples, code", [(1, 2), (-1, 2), (2, 0), (0, 0)])
    def test_monte_carlo_sample_count(self, samples, code, capsys):
        argv = ["ensemble", "--n", "3", "--M", "2", "--L", "2", "--eps-y", "0.1", "--eps-z", "0.3"]
        assert cli.main([*argv, "--mc-samples", str(samples)]) == code
        out = capsys.readouterr().out
        if code:
            assert out == ""
        else:
            # Strict JSON: NaN and Infinity are not numbers in it.
            payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the JSON output"))
            assert ("monte_carlo" in payload) == (samples > 0)

    def test_bad_sample_count_fails_before_the_exact_enumeration(self, monkeypatch, capsys):
        def exact(spec):
            raise AssertionError("the exact certification ran before the sample count was checked")

        monkeypatch.setattr(ensemble_sim, "certification_report", exact)
        argv = ["ensemble", "--n", "3", "--M", "2", "--L", "2", "--eps-y", "0.1", "--eps-z", "0.3"]
        assert cli.main([*argv, "--mc-samples", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Monte Carlo needs at least 2 samples" in captured.err

    def test_exponents_stops_at_a_tilt_cap_of_5e9(self, tmp_path):
        # A cost spread of 1e-8 caps the tilt at 5e9 and puts its optimum past 1e9, where golden section to a
        # 1e-9 bracket cycled on brackets a few ulps wide: the command ran until it was killed.
        path = tmp_path / "spread.json"
        path.write_text(json.dumps({
            "bob": [[1.0 - 1e-8, 1e-8], [0.0, 1.0]], "eve": [[1.0, 1e-175], [0.489457390771879, 0.510542609228121]],
            "costs": [1e-8, 0.0], "gamma": 5.10542709228121e-09, "q": [0.510542609228121, 0.489457390771879],
        }))
        argv = ["exponents", "--config", str(path), "--points", "2", "--format", "json"]
        proc = subprocess.run([sys.executable, "-m", "wiretap_exponents.cli", *argv], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "Infinity" not in proc.stdout and "NaN" not in proc.stdout

    @pytest.mark.parametrize(
        "command", [["capacity"], ["exponents"], ["tradeoff", "--mechanism", "rate_shift", "--sweep", "0.1"]]
    )
    @pytest.mark.parametrize(
        "doc, message",
        [
            (5, "must be a JSON object"),
            ([[1]], "must be a JSON object"),
            (None, "must be a JSON object"),
            ({**CONFIG, "bob": {"a": 1}}, "channel matrix must be an array of numbers"),
            ({**CONFIG, "gamma": [1]}, "gamma must be a number"),
            ({**CONFIG, "gamma": None}, "gamma must be a number"),
            ({**CONFIG, "q": None}, "q must be an array of numbers"),
            ("no such file", "cannot read config"),
        ],
        ids=["number", "list", "null", "bob_object", "gamma_list", "gamma_null", "q_null", "missing_path"],
    )
    def test_malformed_config_is_two(self, command, doc, message, tmp_path, capsys):
        path = tmp_path / "config.json"
        if doc != "no such file":
            path.write_text(json.dumps(doc))
        assert cli.main([command[0], "--config", str(path), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert "precondition violation: " in err and message in err

    @pytest.mark.parametrize(
        "command", [["capacity"], ["exponents"], ["tradeoff", "--mechanism", "rate_shift", "--sweep", "0.1"]]
    )
    @pytest.mark.parametrize(
        "update, message",
        [
            ({"gamma": True}, "gamma must be a number, got True"),
            ({"gamma": "1.4"}, "gamma must be a number, got '1.4'"),
            ({"costs": ["1", "2"]}, "costs[0] must be a number, got '1'"),
            ({"costs": [True, 2.0]}, "costs[0] must be a number, got True"),
            ({"bob": [["0.9", 0.1], [0.1, 0.9]]}, "bob[0][0] must be a number, got '0.9'"),
            ({"eve": [[0.7, None], [0.3, 0.7]]}, "eve[0][1] must be a number, got None"),
            ({"q": [None, 1]}, "q[0] must be a number, got None"),
            ({"costs": [1.0, [2.0]]}, "costs must be an array of numbers"),
            ({"costs": [1.0, 10**400]}, "costs must be an array of numbers"),
            ({"gamma": 10**400}, "gamma must be finite, got an int past the float range"),
        ],
        ids=[
            "gamma_true", "gamma_string", "costs_strings", "costs_bool", "bob_string", "eve_null", "q_null", "ragged",
            "costs_int_past_float", "gamma_int_past_float",
        ],
    )
    def test_a_config_entry_that_is_not_a_float_is_two(self, command, update, message, tmp_path, capsys):
        # A bool, a numeric string or null passes float() and numpy as a number; the error names key and index,
        # as it names the key of a ragged array. An int past the float range raised OverflowError (exit 1).
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**CONFIG, **update}))
        assert cli.main([command[0], "--config", str(path), *command[1:]]) == 2
        assert f"precondition violation: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["capacity"], ["exponents"], ["tradeoff", "--mechanism", "rate_shift", "--sweep", "0.1"]]
    )
    @pytest.mark.parametrize(
        "update, message",
        [
            ({"eve": [[0.7, 0.3], [0.3, 0.7], [0.5, 0.5]]}, "eve: 3 input letters, bob has 2"),
            ({"q": [0.5, 0.3, 0.2]}, "q: 3 entries for 2 input letters"),
        ],
        ids=["eve_three_inputs", "q_three_entries"],
    )
    def test_a_size_mismatch_names_its_key_and_both_sizes(self, command, update, message, tmp_path, capsys):
        # These said 'channels must share the input alphabet: 2 vs 3' and 'q length does not match the
        # input alphabet', naming neither key nor, for q, either length.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**CONFIG, **update}))
        assert cli.main([command[0], "--config", str(path), *command[1:]]) == 2
        assert f"precondition violation: {message}" in capsys.readouterr().err

    def test_bad_config_key_is_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**CONFIG, "zzz": 1}))
        proc = run_cli(["capacity", "--config", str(path)])
        assert proc.returncode == 2


CAPACITY_PINS = json.loads((Path(__file__).with_name("capacity_pins.json")).read_text(encoding="utf-8"))["cases"]


@pytest.mark.parametrize("case", CAPACITY_PINS, ids=[case["id"] for case in CAPACITY_PINS])
def test_capacity_output_is_pinned_byte_for_byte(case, tmp_path, capsys):
    # The benchmark's capacity configs and pairs with unequal output alphabets, each
    # against the stdout recorded before the information gap was stacked into one call.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(case["config"]))
    assert cli.main(["capacity", "--config", str(path), "--aux-dim", str(case["aux_dim"])]) == cli.EXIT_OK
    assert capsys.readouterr().out == case["stdout"]
