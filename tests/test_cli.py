"""Tests for the command-line interface: parsing, validation, the results
CSV, subcommands, and the config round trip."""

import functools

import pytest

from onebit_precoding import BerRecord, SolverConfig, falm_solve
from onebit_precoding import cli
from onebit_precoding.cli import (
    CSV_COLUMNS,
    CliError,
    format_snr,
    main,
    parse_modulation,
    parse_snr,
    read_config_file,
    write_csv,
)
from onebit_precoding.sep_analysis import run_verification


# A small system, so that a solver value that slipped past validation would
# still finish quickly.
SMALL = ["--antennas", "4", "--users", "2"]
SMALL_RUN = [*SMALL, "--block", "1", "--trials", "1", "--snr", "10", "--precoders", "falm,zf-ob"]


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
        for bad in ("0:0:10", "abc", "1:2", "5:-1:0", "5:1:0", "10,nan", "nan,10", "-inf", "0:5:inf"):
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


class TestCsv:
    def test_layout_and_header(self, tmp_path):
        records = [
            BerRecord("zf", 0.0, 0.1, 0.2, 0.15, 100, 50, 5, 0, 1.234),
            BerRecord("zf", 10.0, 0.0, 0.0, 0.0, 100, 50, 5, 0, 1.234),
        ]
        path = tmp_path / "out.csv"
        write_csv(records, str(path), header={"antennas": 8, "mod": "psk4"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# antennas = 8"
        assert lines[1] == "# mod = psk4"
        assert lines[2] == ",".join(CSV_COLUMNS)
        assert lines[3].startswith("zf,0,1.0000000000e-01,2.0000000000e-01,")
        assert len(lines) == 5

    def test_snr_text_round_trips(self):
        """':g' where it reads back exactly, so default headers keep their
        form; repr where it would round."""
        assert [format_snr(s) for s in (0.0, 25.0, -5.0, 2.5)] == ["0", "25", "-5", "2.5"]
        for snr in (3.00000049, 0.1 * 3, 1e-7 + 20.0):
            assert float(format_snr(snr)) == snr
        assert format_snr(3.00000049) == "3.00000049"

    def test_record_validation(self):
        for ber, ser, rate in ((1.5, 0.2, "ber"), (0.1, -0.2, "ser")):
            with pytest.raises(ValueError, match=f"{rate} out of range"):
                BerRecord("zf", 0.0, ber, ser, 0.1, 1, 1, 1, 0, 0.0)


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

    def test_csv_lines_end_in_newline_alone(self, tmp_path):
        """Header and data lines alike end in \\n, with no \\r, and the CSV
        still replays."""
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", *SMALL, "--block", "2", "--trials", "2", "--snr", "0,10", "--precoders", "zf-ob"]
        assert main(args + ["--out", str(first)]) == 0
        assert main(["run", "--config", str(first), "--out", str(second)]) == 0
        for path in (first, second):
            assert b"\r" not in path.read_bytes()
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

    def test_replays_an_snr_that_g_would_round(self, tmp_path, monkeypatch):
        """Six significant digits would write 3.00000049 dB as 3, and the
        replay would sweep 3 dB."""
        first = tmp_path / "a.csv"
        args = [
            "run",
            "--antennas", "4", "--users", "2", "--block", "2",
            "--mod", "psk4", "--snr", "3.00000049,10", "--trials", "2",
            "--precoders", "zf-ob", "--seed", "3", "--out", str(first),
        ]
        assert main(args) == 0
        lines = first.read_text().splitlines()
        assert "# snr = 3.00000049,10" in lines
        assert [l.split(",")[1] for l in lines if l.startswith("zf-ob,")] == ["3.00000049", "10"]
        specs = []
        monkeypatch.setattr(cli, "run_experiment", lambda spec: specs.append(spec) or [])
        assert main(["run", "--config", str(first), "--out", str(tmp_path / "b.csv")]) == 0
        assert specs[0].snr_db == (3.00000049, 10.0)

    def test_default_header_is_stable(self, tmp_path, monkeypatch):
        """The replay header's keys, order and default values; its solver
        entries are SolverConfig()'s own defaults."""
        monkeypatch.setattr(cli, "run_experiment", lambda spec: [])
        out = tmp_path / "o.csv"
        assert main(["run", "--out", str(out)]) == 0
        header = [l for l in out.read_text().splitlines() if l.startswith("#")]
        assert header == [
            "# antennas = 32", "# users = 8", "# block = 100", "# power = 1.0",
            "# mod = psk8", "# snr = 0,5,10,15,20,25", "# trials = 100",
            "# precoders = falm,msm,zf-ob,zf", "# seed = 1", "# workers = 1",
            "# mu = 0.01",
        ]
        assert header[-1] == f"# mu = {SolverConfig().mu}"

    def test_solver_flags_reach_the_spec(self, tmp_path, monkeypatch):
        specs = []
        monkeypatch.setattr(cli, "run_experiment", lambda spec: specs.append(spec) or [])
        assert main(["run", "--mu", "0.02", "--out", str(tmp_path / "o.csv")]) == 0
        assert specs[0].solver == SolverConfig(mu=0.02)

    def test_replays_header_with_penalty_period(self, tmp_path):
        """Results CSVs written while the solver had a penalty-update period
        carry '# penalty-period = 1' in their header, and those written while
        the schedule was a setting carry its lines; at the values the solver
        now fixes, read as floats, they still replay."""
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        args = [
            "run",
            "--antennas", "4", "--users", "2", "--block", "2",
            "--mod", "psk4", "--snr", "0,10", "--trials", "2",
            "--precoders", "falm,zf-ob", "--seed", "5", "--out", str(first),
        ]
        assert main(args) == 0
        lines = first.read_text().splitlines()
        end = lines.index("# mu = 0.01") + 1
        assert not lines[end].startswith("#")
        retired = ["# lambda0 = 0.01", "# delta = 10.0", "# lambda-max = 1e2", "# penalty-period = 1"]
        old = lines[:end] + retired + lines[end:]
        first.write_text("\n".join(old) + "\n")
        assert main(["run", "--config", str(first), "--out", str(second)]) == 0
        assert strip_timing(second.read_text()) == strip_timing("\n".join(lines))

    @pytest.mark.parametrize(
        "line",
        ["penalty-period = 2", "lambda0 = 1", "delta = 100", "lambda-max = 1e3", "lambda0 = x",
         "delta = nan", "lambda-max = inf"],
    )
    def test_refuses_retired_key_at_another_value(self, tmp_path, capsys, line):
        """A config that set a now-fixed setting to another value would
        replay at the fixed one: exit 2, the key named, no CSV written."""
        cfg, out = tmp_path / "cfg", tmp_path / "o.csv"
        cfg.write_text(f"# {line}\n")
        assert main(["run", *SMALL_RUN, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --config sets {line}, ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, named",
        [("antenas = 8", "'antenas'; did you mean antennas?"), ("out = x.csv", "'out'"),
         ("config = other.cfg", "'config'")],
    )
    def test_refuses_unknown_key(self, tmp_path, capsys, line, named):
        """A misspelt or foreign key would leave its setting at the default
        unnoticed: exit 2, the key named with the nearest run key, no CSV."""
        cfg, out = tmp_path / "cfg", tmp_path / "o.csv"
        cfg.write_text(f"users = 2\nblock = 1\ntrials = 1\nsnr = 10\nprecoders = zf-ob\n{line}\n")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --config has unknown key {named}\n"
        assert not out.exists()

    def test_header_is_canonical_for_mod_and_precoders(self, tmp_path, monkeypatch):
        """The header writes the parsed modulation and precoder list, as it
        does the SNR points, so spellings of one run give one header."""
        monkeypatch.setattr(cli, "run_experiment", lambda spec: [])
        loose, tight = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--mod", "PSK08", "--precoders", " zf-ob , zf", "--out", str(loose)]) == 0
        assert main(["run", "--mod", "psk8", "--precoders", "zf-ob,zf", "--out", str(tight)]) == 0
        assert loose.read_text() == tight.read_text()
        assert "# precoders = zf-ob,zf" in tight.read_text().splitlines()

    @pytest.mark.parametrize(
        "flag, value, named",
        [("--precoders", "zf-ob,zf-ob", "precoder_ids repeats zf-ob"),
         ("--snr", "0,0", "snr_db repeats 0.0")],
    )
    def test_refuses_repeats(self, tmp_path, capsys, flag, value, named):
        """A repeated precoder or SNR point would only copy its own rows."""
        out = tmp_path / "o.csv"
        assert main(["run", *SMALL_RUN, flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("antennas = 8\nusers = 2\nblock = 2\ntrials = 2\n"
                       "mod = psk4\nsnr = 0\nprecoders = zf\nseed = 1\n")
        out = tmp_path / "o.csv"
        code = main(["run", "--config", str(cfg), "--seed", "77", "--out", str(out)])
        assert code == 0
        assert "# seed = 77" in out.read_text().splitlines()

    def test_config_value_is_checked_like_its_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("antennas = x\n")
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "argument --antennas: invalid int value: 'x'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_writes_the_header_of_its_flags(self, tmp_path, monkeypatch):
        """A hand-written config gives the canonical header of the same flags."""
        monkeypatch.setattr(cli, "run_experiment", lambda spec: [])
        cfg = tmp_path / "cfg"
        cfg.write_text("power = 1\nmu = 1e-2\n")
        from_config, from_flags = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", str(cfg), "--out", str(from_config)]) == 0
        assert main(["run", "--power", "1", "--mu", "1e-2", "--out", str(from_flags)]) == 0
        assert from_config.read_text() == from_flags.read_text()
        assert "# power = 1.0" in from_config.read_text().splitlines()

    def test_help_shows_the_defaults(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        assert main(["run", "--help"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(l.lstrip().startswith("--antennas ") and "(default: 32)" in l for l in lines)


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

    def test_solve_one_prints_the_lp_bound(self, capsys):
        """t* is the box LP's optimum, which bounds the one-bit margin, and
        the ratio line divides the two printed values."""
        assert main(["solve-one", "--antennas", "8", "--users", "3", "--seed", "4"]) == 0
        lines = dict(l.split(":", 1) for l in capsys.readouterr().out.splitlines())
        margin, t_star = float(lines["margin"]), float(lines["LP optimum t*"])
        assert 0 < margin <= t_star
        assert lines["margin / t*"].strip() == f"{margin / t_star:.3f}"

    def test_solve_one_counts_apg_calls_at_the_cap(self, capsys, tmp_path, monkeypatch):
        """The count agrees with the trace's per-step iterations. The default
        solve of seed 0 ends every call below the cap, so the CLI's solver
        config gets a 20-iteration cap here, which later levels reach."""
        cap = 20
        monkeypatch.setattr(cli, "SolverConfig", functools.partial(SolverConfig, apg_max_iters=cap))
        trace = tmp_path / "trace.csv"
        assert main(["solve-one", "--seed", "0", "--trace", str(trace)]) == 0
        rows = trace.read_text().splitlines()[1:]
        at_cap = sum(int(row.rsplit(",", 1)[1]) == cap for row in rows)
        assert at_cap > 0
        assert f"apg calls at cap:  {at_cap} of 5 (cap {cap})" in capsys.readouterr().out

    def test_solve_one_runtime_failure_exits_1(self, tmp_path, capsys):
        """A failure that is not a usage error, here a trace file that
        cannot be opened, exits 1 with the error printed."""
        trace = tmp_path / "missing" / "trace.csv"
        assert main(["solve-one", *SMALL, "--trace", str(trace)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_solve_one_seed_names_the_oracle_compare_instance(self, capsys, monkeypatch):
        """solve-one with oracle-compare's flags solves the instance that
        oracle-compare solves for the same seed. At seed 3, symbols drawn
        from a stream other than the channel's give another instance."""
        margins = []

        def recording_solve(instance, config=None):
            report = falm_solve(instance, config)
            margins.append(report.margin)
            return report

        monkeypatch.setattr(cli, "falm_solve", recording_solve)
        seeds = range(6)
        cli.oracle_counts(seeds, 2, 2, 4, 1.0, SolverConfig())
        monkeypatch.undo()
        capsys.readouterr()
        for seed, margin in zip(seeds, margins):
            flags = ["--antennas", "2", "--users", "2", "--mod", "psk4", "--seed", str(seed)]
            assert main(["solve-one", *flags]) == 0
            assert f"margin:            {margin:.6f}\n" in capsys.readouterr().out

    def test_oracle_margin_above_optimum_raises(self, monkeypatch):
        """A margin above the enumerated optimum is a solver or oracle
        fault, never a count."""
        monkeypatch.setattr(cli, "optimal_onebit_margin", lambda instance: -1.0)
        with pytest.raises(RuntimeError, match="seed 0: solver margin .* exceeds"):
            cli.oracle_counts(range(1), 2, 2, 4, 1.0)

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

    def test_oracle_compare_enumerates_up_to_the_oracle_limit(self, capsys):
        """The limit is optimal_onebit_margin's, N <= 8."""
        assert main(["oracle-compare", "--antennas", "8", "--users", "1", "--seeds", "1"]) == 0
        assert "/1 seeds" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, flags, named",
        [
            ("run", ["--users", "0"], "--users"),
            ("run", ["--antennas", "0"], "--antennas"),
            ("solve-one", ["--users", "0"], "--users"),
            ("solve-one", ["--antennas", "-1"], "--antennas"),
            ("solve-one", ["--antennas", "2", "--users", "5"], "--users"),
            ("oracle-compare", ["--users", "0"], "--users"),
            ("oracle-compare", ["--antennas", "0"], "--antennas"),
            ("oracle-compare", ["--antennas", "1", "--users", "3"], "--users"),
            ("oracle-compare", ["--seeds", "-3"], "--seeds"),
            ("oracle-compare", ["--seeds", "0"], "--seeds"),
            ("oracle-compare", ["--antennas", "9"], "--antennas"),
            ("oracle-compare", ["--power", "0"], "--power"),
            ("oracle-compare", ["--power", "-1"], "--power"),
            ("oracle-compare", ["--power", "nan"], "--power"),
            ("oracle-compare", ["--power", "inf"], "--power"),
            ("run", ["--block", "0"], "--block"),
            ("run", ["--trials", "0"], "--trials"),
            ("run", ["--workers", "0"], "--workers"),
            ("run", ["--mod", "psk3"], "--mod"),
            ("solve-one", ["--mod", "qam16"], "--mod"),
            ("oracle-compare", ["--mod", "psk1"], "--mod"),
            ("solve-one", ["--power", "0"], "--power"),
            ("run", ["--power", "nan"], "--power"),
            ("run", ["--seed", "-1"], "--seed"),
            ("solve-one", ["--seed", "-1"], "--seed"),
            ("verify-sep", ["--seed", "-1"], "--seed"),
            ("solve-one", [*SMALL, "--mu", "nan"], "invalid solver parameter: mu"),
            ("solve-one", [*SMALL, "--mu", "-1"], "invalid solver parameter: mu"),
            ("solve-one", [*SMALL, "--mu", "inf"], "invalid solver parameter: mu"),
            ("run", [*SMALL_RUN, "--mu", "nan"], "invalid solver parameter: mu"),
            ("run", [*SMALL_RUN, "--mu", "-1"], "invalid solver parameter: mu"),
            ("run", ["--precoders", ","], "--precoders"),
        ],
    )
    def test_rejects_bad_dimensions(self, tmp_path, capsys, command, flags, named):
        """Exit 2 with the flag or parameter named, and no CSV (results or
        trace) written."""
        out = tmp_path / "x.csv"
        dest = {"run": ["--out", str(out)], "solve-one": ["--trace", str(out)]}.get(command, [])
        assert main([command, *flags, *dest]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} ")
        assert not out.exists()

    def test_verify_sep_quick(self, capsys, monkeypatch):
        """At reduced scale: the CLI's verification run gets fewer draws."""
        quick = functools.partial(run_verification, implication_draws=20_000, bound_trials=40_000)
        monkeypatch.setattr(cli, "run_verification", quick)
        code = main(["verify-sep", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verification: PASS" in out
        assert "implication M=16" in out

    @pytest.mark.parametrize("flag", ["--implication-draws", "--bound-trials"])
    def test_verify_sep_takes_no_draw_counts(self, capsys, flag):
        assert main(["verify-sep", flag, "10"]) == 2
        assert f"unrecognized arguments: {flag} 10" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) != 0


class TestWorkers:
    """--workers, else a config file's workers, sets the worker count, and the
    header records it; no environment variable does."""

    def run(self, tmp_path, monkeypatch, *flags):
        specs = []
        monkeypatch.setattr(cli, "run_experiment", lambda spec: specs.append(spec) or [])
        out = tmp_path / "o.csv"
        assert main(["run", "--precoders", "zf", "--out", str(out), *flags]) == 0
        return specs[0].n_workers, out.read_text().splitlines()

    def test_environment_does_not_set_workers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ONEBIT_PRECODING_WORKERS", "3")
        workers, lines = self.run(tmp_path, monkeypatch)
        assert workers == 1
        assert "# workers = 1" in lines

    def test_flag_sets_workers(self, tmp_path, monkeypatch):
        workers, lines = self.run(tmp_path, monkeypatch, "--workers", "2")
        assert workers == 2
        assert "# workers = 2" in lines

    def test_config_file_sets_workers(self, tmp_path, monkeypatch):
        config = tmp_path / "config"
        config.write_text("workers = 2\n")
        workers, lines = self.run(tmp_path, monkeypatch, "--config", str(config))
        assert workers == 2
        assert "# workers = 2" in lines
