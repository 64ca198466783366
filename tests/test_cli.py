import pytest

import divopt.cli
from divopt.cli import main
from divopt.errors import NoBracketError

BASE = "--mu 1 --sigma 0.3 --chi 0.01 --beta 0.9 --gamma 1 --delta 0.15".split()
NEG = "--mu -1 --sigma 0.3 --chi 0.15 --beta 0.7 --gamma 1 --delta 0.15".split()

# key -> (command, model point, options as flags); the test moves the key's
# option from the flags into a config file
SWEEP = {"sweep": "chi", "from": "0.001", "to": "0.1", "count": "3"}
CONFIG_CASES = {
    "tol": ("solve", BASE, {"tol": "1e-30"}),
    "out": ("solve", BASE, {"out": "o.csv"}),
    "x_max": ("value", BASE, {"x_max": "2", "points": "5"}),
    "points": ("value", BASE, {"points": "7"}),
    "x0": ("simulate", BASE, {"x0": "0.5", "paths": "200"}),
    "paths": ("simulate", NEG, {"x0": "0.3", "paths": "100"}),
    "seed": ("simulate", BASE, {"seed": "5", "paths": "200"}),
    "horizon": ("simulate", BASE, {"horizon": "200", "paths": "200"}),
    "sweep": ("sweep", BASE, SWEEP),
    "from": ("sweep", BASE, SWEEP),
    "to": ("sweep", BASE, SWEEP),
    "count": ("sweep", BASE, SWEEP),
}


class TestSolveCommand:
    def test_baseline_summary(self, capsys):
        assert main(["solve"] + BASE) == 0
        out = capsys.readouterr().out
        assert "regime: profitable_hybrid" in out
        assert "a_p = 0.306590343145" in out
        assert "b = 1.3290615718" in out
        assert "residual" in out

    def test_negative_drift_regimes(self, capsys):
        assert main(["solve"] + NEG) == 0
        out = capsys.readouterr().out
        assert "regime: unprofitable_liquidation_finite" in out
        assert "b1 = " in out and "b2 = " in out

    def test_collapsed_window_exits_2(self, capsys):
        # beta within rounding of beta0: a solver error, not a usage error
        argv = ("solve --mu -0.9858379173182281 --sigma 1.9151294069235711 "
                "--chi 0.18269453587279255 --beta 0.7279668211388217 "
                "--gamma 0.9320279525384421 --delta 0.05641945999010134")
        assert main(argv.split()) == 2
        assert "window collapsed" in capsys.readouterr().err

    def test_missing_parameter_is_usage_error(self, capsys):
        rc = main(["solve", "--mu", "1", "--chi", "0.01", "--beta", "0.9",
                   "--gamma", "1", "--delta", "0.15"])
        assert rc == 3
        assert "--sigma" in capsys.readouterr().err

    def test_invalid_parameter_is_usage_error(self, capsys):
        rc = main(["solve", "--mu", "1", "--sigma", "-1", "--chi", "0.01",
                   "--beta", "0.9", "--gamma", "1", "--delta", "0.15"])
        assert rc == 3

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 3

    def test_boundary_flag_printed(self, capsys):
        argv = "solve --mu 0.1 --sigma 2 --chi 0.01 --beta 0.5 --gamma 1 --delta 0.15"
        assert main(argv.split()) == 0
        assert "boundary: b0_zero" in capsys.readouterr().out

    @pytest.mark.parametrize("point, regime", [
        (BASE, "profitable_hybrid"),
        (NEG, "unprofitable_liquidation_finite"),
    ])
    def test_out_writes_the_sweep_row(self, point, regime, tmp_path):
        solved, swept = tmp_path / "solve.csv", tmp_path / "sweep.csv"
        assert main(["solve"] + point + ["--out", str(solved)]) == 0
        chi = point[point.index("--chi") + 1]
        assert main(["sweep"] + point + ["--sweep", "chi", "--from", chi, "--to", chi,
                                         "--count", "2", "--out", str(swept)]) == 0
        header, row = solved.read_text().splitlines()
        sweep_header, sweep_row, _ = swept.read_text().splitlines()
        assert header == sweep_header
        assert row == "," + sweep_row.split(",", 1)[1]
        assert row.split(",")[1] == regime


@pytest.mark.parametrize("command, options", [
    ("value", ["--points", "1"]),
    ("simulate", ["--paths", "0"]),
    ("simulate", ["--paths", "3"]),  # odd, with antithetic sampling
    ("simulate", ["--paths", "2"]),  # one antithetic pair: no standard error
    ("simulate", ["--horizon", "nan"]),
    # a tolerance that is not a finite number > 0 would reject exact zeros or
    # switch the residual gate off; a non-finite grid or sweep end is no grid
    ("solve", ["--tol", "nan"]),
    ("solve", ["--tol", "-1"]),
    ("solve", ["--tol", "0"]),
    ("solve", ["--tol", "inf"]),
    ("value", ["--x-max", "nan"]),
    ("value", ["--x-max", "inf"]),
    ("sweep", ["--sweep", "chi", "--from", "nan", "--to", "0.1"]),
    ("sweep", ["--sweep", "chi", "--from", "0.001", "--to", "inf"]),
    ("simulate", ["--horizon", "1"]),  # truncates above the tolerance at delta = 0.15
])
def test_usage_error_reported_before_the_solve(command, options, monkeypatch, capsys):
    # a solve that ran would raise a solver error, which exits 2, not 3
    def no_bracket(params, tol):
        raise NoBracketError("the solve ran")

    monkeypatch.setattr(divopt.cli, "solve", no_bracket)
    assert main([command] + BASE + options) == 3
    assert "the solve ran" not in capsys.readouterr().err


class TestConfigFile:
    def test_file_supplies_parameters(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# baseline\nmu = 1\nsigma = 0.3\nchi = 0.01\nbeta = 0.9\n"
            "gamma = 1\ndelta = 0.15\n"
        )
        assert main(["solve", "--config", str(cfg)]) == 0
        assert "profitable_hybrid" in capsys.readouterr().out

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "mu = 1\nsigma = 0.3\nchi = 0.01\nbeta = 0.9\ngamma = 1\ndelta = 0.15\n"
        )
        assert main(["solve", "--config", str(cfg), "--beta", "0.5"]) == 0
        assert "profitable_periodic" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 1\nbogus = 3\n")
        assert main(["solve", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("command, key, value", [
        ("solve", "paths", "100"),  # a key of simulate
        ("simulate", "dt", "0.001"),  # the engine has no time grid
    ])
    def test_option_the_command_does_not_take_rejected(self, command, key, value, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert main([command] + NEG + ["--config", str(cfg)]) == 3
        assert main([command] + NEG + [f"--{key}", value]) == 3

    def test_quotes_and_comments(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# baseline\nmu = '1'  # drift\nsigma = \"0.3\"\n\nchi=0.01\n"
            "beta = 0.9\ngamma = 1\ndelta = 0.15\n"
        )
        assert main(["solve", "--config", str(cfg)]) == 0
        by_file = capsys.readouterr()
        assert main(["solve"] + BASE) == 0
        assert capsys.readouterr() == by_file

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu 1\n")
        assert main(["solve", "--config", str(cfg)]) == 3
        assert "expected key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("key", CONFIG_CASES)
    def test_key_reads_as_its_flag(self, key, tmp_path, monkeypatch, capsys):
        command, point, options = CONFIG_CASES[key]
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "o.csv"

        def run(options, *extra):
            flags = [f"--{k.replace('_', '-')}={v}" for k, v in options.items()]
            rc = main([command] + point + list(extra) + flags)
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            return rc, capsys.readouterr(), written

        rest = {k: v for k, v in options.items() if k != key}
        (tmp_path / "run.cfg").write_text(f"{key} = {options[key]}\n")
        by_flag = run(options)
        assert run(rest, "--config", "run.cfg") == by_flag
        assert run(rest) != by_flag  # the value moves the result, so it was read


class TestValueCommand:
    def test_grid_shape_and_boundary(self, tmp_path):
        out = tmp_path / "v.csv"
        rc = main(["value"] + BASE + ["--x-max", "10", "--points", "500",
                                      "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,V,dV,d2V"
        assert len(lines) == 501
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["value"] + BASE + ["--x-max", "5", "--points", "100"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSweepCommand:
    def test_chi_sweep_monotone_upper_barrier(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["sweep"] + BASE + ["--sweep", "chi", "--from", "0.001",
                                      "--to", "0.1", "--count", "8",
                                      "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param,regime,a_p,a_c,b,b1,b2,b0,asymptotic,error"
        b_col = [float(row.split(",")[4]) for row in lines[1:]]
        assert all(b2 > b1 for b1, b2 in zip(b_col, b_col[1:]))

    def test_requires_axis_and_range(self):
        assert main(["sweep"] + BASE + ["--from", "0.1", "--to", "0.2"]) == 3
        assert main(["sweep"] + BASE + ["--sweep", "chi"]) == 3

    @pytest.mark.parametrize("out", ["missing/s.csv", ""])
    def test_out_that_cannot_be_opened_is_usage_error(self, out, tmp_path, capsys):
        rc = main(["sweep"] + BASE + ["--sweep", "chi", "--from", "0.01", "--to", "0.02",
                                      "--count", "2", "--out", str(tmp_path / out) if out else ""])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write --out") and "Traceback" not in err

    def test_per_point_failures_recorded_not_fatal(self, tmp_path):
        # beta sweeping through 0 produces invalid parameter rows
        out = tmp_path / "s.csv"
        rc = main(["sweep"] + BASE + ["--sweep", "beta", "--from", "-0.1",
                                      "--to", "0.5", "--count", "4",
                                      "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()[1:]
        # the error column names the exception type: beta < 0 is a ConfigError
        assert any(row.split(",")[-1].startswith("ConfigError: ") for row in lines)
        assert any(row.split(",")[1] == "profitable_periodic" for row in lines)


class TestSimulateCommand:
    def test_key_value_output(self, capsys):
        rc = main(["simulate"] + NEG + ["--x0", "0.5", "--paths", "2000",
                                        "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "epv_mean=" in out and "ruin_fraction=" in out

    def test_csv_byte_stable_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate"] + NEG + ["--x0", "0.5", "--paths", "2000",
                                     "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("horizon", ["nan", "inf"])
    def test_non_finite_horizon_is_usage_error(self, horizon, capsys):
        rc = main(["simulate"] + NEG + ["--paths", "200", "--horizon", horizon])
        assert rc == 3
        assert "horizon" in capsys.readouterr().err


class TestVerifyCommand:
    def test_baseline_passes(self, capsys):
        assert main(["verify"] + BASE) == 0
        out = capsys.readouterr().out
        assert "verify: pass" in out


class TestSimulateMatchesValue:
    def test_simulated_mean_within_three_stderr_of_value(self, tmp_path, capsys):
        # negative-drift point: paths finish quickly, so full accuracy is cheap
        vcsv = tmp_path / "v.csv"
        assert main(["value"] + NEG + ["--x-max", "1", "--points", "3",
                                       "--out", str(vcsv)]) == 0
        rows = [r.split(",") for r in vcsv.read_text().splitlines()[1:]]
        exact = {float(r[0]): float(r[1]) for r in rows}
        rc = main(["simulate"] + NEG + ["--x0", "0.5", "--paths", "60000",
                                        "--seed", "7"])
        assert rc == 0
        out = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
        mean, se = float(out["epv_mean"]), float(out["epv_stderr"])
        assert abs(mean - exact[0.5]) <= 3.0 * se + 1e-3
