"""Tests for the command-line interface: parsing, validation, subcommands,
and the config round trip."""

import pytest

from onebit_precoding import SolverConfig
from onebit_precoding import cli
from onebit_precoding.cli import (
    WORKERS_ENV,
    CliError,
    main,
    parse_modulation,
    parse_snr,
    read_config_file,
)


def strip_timing(csv_text: str):
    rows = []
    for line in csv_text.splitlines():
        if line.startswith("#") or line.startswith("precoder,"):
            rows.append(line)
        else:
            rows.append(line.rsplit(",", 1)[0])
    return rows


class TestParsers:
    def test_modulation(self):
        assert parse_modulation("psk8") == 8
        assert parse_modulation("PSK16") == 16
        for bad in ("qam16", "psk", "psk3", "psk0", "8"):
            with pytest.raises(CliError):
                parse_modulation(bad)

    def test_snr_range(self):
        assert parse_snr("0:2:24") == tuple(float(v) for v in range(0, 25, 2))
        assert parse_snr("0:5:25") == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)

    def test_snr_list_and_scalar(self):
        assert parse_snr("0,7.5,30") == (0.0, 7.5, 30.0)
        assert parse_snr("12") == (12.0,)

    def test_snr_errors(self):
        for bad in ("0:0:10", "abc", "1:2", "5:-1:0", "10,nan", "nan,10", "-inf", "0:5:inf"):
            with pytest.raises(CliError, match="--snr"):
                parse_snr(bad)

    def test_config_file(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("# antennas = 16\nusers = 4\nnot a config line\n")
        values = read_config_file(str(path))
        assert values == {"antennas": "16", "users": "4"}

    def test_missing_config_file(self):
        with pytest.raises(CliError):
            read_config_file("/nonexistent/path")


class TestRunCommand:
    def test_no_arguments_prints_usage_and_fails(self, capsys):
        code = main(["run"])
        assert code != 0
        assert "--out" in capsys.readouterr().err

    def test_rejects_overloaded_system(self, tmp_path, capsys):
        code = main(
            ["run", "--antennas", "2", "--users", "5", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "--users" in capsys.readouterr().err

    def test_rejects_unknown_precoder(self, tmp_path, capsys):
        code = main(
            ["run", "--precoders", "zf,bogus", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_squid_is_rejected_as_unknown(self, tmp_path, capsys):
        code = main(["run", "--precoders", "squid", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "squid" in capsys.readouterr().err

    def test_small_end_to_end_run(self, tmp_path):
        out = tmp_path / "results.csv"
        code = main(
            [
                "run",
                "--antennas", "8", "--users", "2", "--block", "2",
                "--mod", "psk4", "--snr", "0,10", "--trials", "2",
                "--precoders", "zf,zf-ob", "--seed", "9",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header_rows = [l for l in lines if l.startswith("#")]
        assert any(l == "# antennas = 8" for l in header_rows)
        assert any(l == "# snr = 0,10" for l in header_rows)
        data = [l for l in lines if not l.startswith("#")]
        assert data[0].startswith("precoder,snr_db,ber,")
        assert len(data) == 1 + 2 * 2  # header + precoders x snrs

    def test_config_round_trip(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        args = [
            "run",
            "--antennas", "8", "--users", "2", "--block", "2",
            "--mod", "psk4", "--snr", "0:10:10", "--trials", "2",
            "--precoders", "zf-ob,msm", "--seed", "4",
        ]
        assert main(args + ["--out", str(first)]) == 0
        assert main(["run", "--config", str(first), "--out", str(second)]) == 0
        assert strip_timing(first.read_text()) == strip_timing(second.read_text())

    @pytest.mark.parametrize("snr", ["10,nan", "nan,10"])
    def test_rejects_non_finite_snr(self, tmp_path, capsys, snr):
        out = tmp_path / "x.csv"
        code = main(
            ["run", "--antennas", "4", "--users", "2", "--block", "2", "--trials", "2",
             "--precoders", "zf-ob", "--snr", snr, "--out", str(out)]
        )
        assert code == 2
        assert "--snr" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["-4000", "0,4000"])
    def test_rejects_out_of_range_snr(self, tmp_path, capsys, snr):
        out = tmp_path / "x.csv"
        code = main(
            ["run", "--antennas", "4", "--users", "2", "--block", "2", "--trials", "2",
             "--precoders", "zf-ob", "--snr", snr, "--out", str(out)]
        )
        assert code == 2
        point = snr.split(",")[-1]
        assert f"SNR point {point} dB is out of range" in capsys.readouterr().err
        assert not out.exists()

    def test_default_header_is_stable(self, tmp_path, monkeypatch):
        """The replay header's keys, order and default values; its solver
        entries are SolverConfig()'s own defaults."""
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        monkeypatch.setattr(cli, "run_experiment", lambda spec: [])
        out = tmp_path / "o.csv"
        assert main(["run", "--out", str(out)]) == 0
        header = [l for l in out.read_text().splitlines() if l.startswith("#")]
        assert header == [
            "# antennas = 32", "# users = 8", "# block = 100", "# power = 1.0",
            "# mod = psk8", "# snr = 0,5,10,15,20,25", "# trials = 100",
            "# precoders = falm,msm,zf-ob,zf", "# seed = 1", "# workers = 1",
            "# mu = 0.01", "# lambda0 = 0.01", "# delta = 10.0",
            "# lambda-max = 100.0", "# penalty-period = 1",
        ]
        fields = {"mu": "mu", "lambda0": "lambda0", "delta": "delta",
                  "lambda-max": "lambda_max", "penalty-period": "penalty_update_period"}
        values = dict(l[2:].split(" = ") for l in header)
        defaults = SolverConfig()
        assert {k: values[k] for k in fields} == {
            k: str(getattr(defaults, f)) for k, f in fields.items()
        }

    def test_solver_flags_reach_the_spec(self, tmp_path, monkeypatch):
        specs = []
        monkeypatch.setattr(cli, "run_experiment", lambda spec: specs.append(spec) or [])
        args = ["run", "--mu", "0.02", "--lambda-max", "50", "--penalty-period", "2",
                "--out", str(tmp_path / "o.csv")]
        assert main(args) == 0
        assert specs[0].solver == SolverConfig(mu=0.02, lambda_max=50.0, penalty_update_period=2)

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("antennas = 8\nusers = 2\nblock = 2\ntrials = 2\n"
                       "mod = psk4\nsnr = 0\nprecoders = zf\nseed = 1\n")
        out = tmp_path / "o.csv"
        code = main(["run", "--config", str(cfg), "--seed", "77", "--out", str(out)])
        assert code == 0
        assert "# seed = 77" in out.read_text().splitlines()


class TestOtherCommands:
    def test_solve_one(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code = main(
            ["solve-one", "--antennas", "4", "--users", "2", "--mod", "psk4",
             "--seed", "2", "--trace", str(trace)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "margin:" in out
        assert "penalty trace" in out
        assert trace.read_text().startswith("outer_iter,lambda,")

    def test_oracle_compare(self, capsys):
        code = main(
            ["oracle-compare", "--antennas", "1", "--users", "1", "--mod", "psk4",
             "--seeds", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "brute-force optimum" in out
        assert "/5" in out

    def test_oracle_compare_rejects_large_enumeration(self, capsys):
        assert main(["oracle-compare", "--antennas", "12", "--seeds", "1"]) == 2

    def test_verify_sep_quick(self, capsys):
        code = main(
            ["verify-sep", "--seed", "0", "--implication-draws", "20000",
             "--bound-trials", "40000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verification: PASS" in out
        assert "implication M=16" in out

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) != 0


class TestWorkers:
    """ONEBIT_PRECODING_WORKERS sets the worker count when --workers is not
    given, the flag overrides it, and the header records the resolved count."""

    def run(self, tmp_path, monkeypatch, *flags):
        specs = []
        monkeypatch.setattr(cli, "run_experiment", lambda spec: specs.append(spec) or [])
        out = tmp_path / "o.csv"
        assert main(["run", "--precoders", "zf", "--out", str(out), *flags]) == 0
        return specs[0].n_workers, out.read_text().splitlines()

    def test_environment_sets_workers(self, tmp_path, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        workers, lines = self.run(tmp_path, monkeypatch)
        assert workers == 3
        assert "# workers = 3" in lines

    def test_flag_overrides_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        workers, lines = self.run(tmp_path, monkeypatch, "--workers", "2")
        assert workers == 2
        assert "# workers = 2" in lines
