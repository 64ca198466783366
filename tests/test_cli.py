import pytest

from divopt.cli import main

BASE = "--mu 1 --sigma 0.3 --chi 0.01 --beta 0.9 --gamma 1 --delta 0.15".split()
NEG = "--mu -1 --sigma 0.3 --chi 0.15 --beta 0.7 --gamma 1 --delta 0.15".split()


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
                                        "--dt", "0.005", "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "epv_mean=" in out and "ruin_fraction=" in out

    def test_csv_byte_stable_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate"] + NEG + ["--x0", "0.5", "--paths", "2000",
                                     "--dt", "0.005", "--seed", "7"]
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
                                        "--dt", "0.001", "--seed", "7"])
        assert rc == 0
        out = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
        mean, se = float(out["epv_mean"]), float(out["epv_stderr"])
        assert abs(mean - exact[0.5]) <= 3.0 * se + 1e-3
