import json
import math
import subprocess
import sys

import numpy as np
import pytest

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
        "command",
        [
            "poisson capacity --Ay 1e-12 --Az 1e-12 --ly 0.5 --lz 1e154 --gamma 1",
            "poisson concat --Ay 1e300 --Az 1e-300 --ly 1e308 --lz 1.5 --gamma 0.5 --q 0.38 --points 5 --a 0.98"
            " --b 0.02",
        ],
    )
    def test_a_gap_derivative_flat_to_rounding_is_two(self, command, capsys):
        # Both bracket ends of the derivative round to the same number, so no root can be bracketed.
        assert cli.main(command.split()) == 2
        assert "does not resolve q" in capsys.readouterr().err

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

    def test_bad_config_key_is_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**CONFIG, "zzz": 1}))
        proc = run_cli(["capacity", "--config", str(path)])
        assert proc.returncode == 2
