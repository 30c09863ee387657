"""Tests for the command-line interface: parsing, validation, subcommands,
and the config round trip."""

import numpy as np
import pytest

from onebit_precoding.cli import (
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
        for bad in ("0:0:10", "abc", "1:2", "5:-1:0"):
            with pytest.raises(CliError):
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
