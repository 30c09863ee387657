"""Tests for the Monte-Carlo experiment engine: pairing, determinism and
error accounting."""

import dataclasses
import logging
import os

import numpy as np
import pytest

from onebit_precoding import (
    ExperimentSpec,
    SolverConfig,
    paired_streams,
    run_experiment,
)
from onebit_precoding import baselines, harness, precoding
from onebit_precoding.cli import write_csv


def make_spec(**overrides):
    base = dict(
        n_antennas=8,
        n_users=2,
        block_length=3,
        total_power=1.0,
        order=4,
        snr_db=(0.0, 10.0),
        precoder_ids=("zf-ob",),
        n_realizations=4,
        base_seed=123,
        n_workers=1,
        solver=SolverConfig(apg_max_iters=300),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def records_without_timing(records):
    return [
        (r.precoder, r.snr_db, r.ber, r.ser, r.worst_user_ber, r.bit_count,
         r.symbol_count, r.realization_count, r.failures)
        for r in records
    ]


class TestPairedStreams:
    def test_deterministic_replay(self):
        spec = make_spec()
        params = spec.system_params(10.0)
        a = paired_streams(spec.base_seed, 2, 1, params, spec.order)
        b = paired_streams(spec.base_seed, 2, 1, params, spec.order)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_channel_constant_within_realization(self):
        spec = make_spec()
        params = spec.system_params(10.0)
        h0 = paired_streams(spec.base_seed, 0, 0, params, spec.order)[0]
        h1 = paired_streams(spec.base_seed, 0, 2, params, spec.order)[0]
        np.testing.assert_array_equal(h0, h1)

    def test_streams_vary_with_indices(self):
        spec = make_spec()
        params = spec.system_params(10.0)
        _, sym0, noise0 = paired_streams(spec.base_seed, 0, 0, params, spec.order)
        _, sym1, noise1 = paired_streams(spec.base_seed, 0, 1, params, spec.order)
        assert not np.array_equal(noise0, noise1)
        h0 = paired_streams(spec.base_seed, 0, 0, params, spec.order)[0]
        h1 = paired_streams(spec.base_seed, 1, 0, params, spec.order)[0]
        assert not np.array_equal(h0, h1)

    def test_unit_noise_variance(self):
        spec = make_spec(n_users=2000)
        params = spec.system_params(0.0)
        noise = paired_streams(spec.base_seed, 0, 0, params, spec.order)[2]
        assert abs(np.mean(np.abs(noise) ** 2) - 1.0) < 0.1

    def test_draws_are_pinned(self):
        """The substream layout is part of every results CSV: a changed path
        or stream constant would silently stop old runs from replaying."""
        params = make_spec(n_antennas=4, n_users=2).system_params(10.0)
        H, symbols, noise = paired_streams(7, 3, 2, params, 8)
        assert symbols.tolist() == [1, 1]
        assert H[0, 0] == 0.8446819856260681 - 0.8285283357419755j
        assert noise[1] == 0.028134515534469665 - 1.4251233041990228j


class TestRunExperiment:
    def test_noiseless_limit_has_zero_errors(self):
        # easy loading (K << N) at essentially infinite SNR
        spec = make_spec(precoder_ids=("falm",), snr_db=(60.0,), n_realizations=2)
        records = run_experiment(spec)
        assert records[0].ber == 0.0
        assert records[0].ser == 0.0

    def test_zf_clean_at_high_snr(self):
        spec = make_spec(precoder_ids=("zf",), snr_db=(40.0,))
        records = run_experiment(spec)
        assert records[0].ber == 0.0

    def test_ber_ser_relation(self):
        spec = make_spec(
            precoder_ids=("zf-ob", "msm"),
            snr_db=(-5.0, 5.0),
            order=8,
            n_realizations=6,
        )
        bps = 3
        for r in run_experiment(spec):
            assert r.ser / bps - 1e-12 <= r.ber <= r.ser + 1e-12

    def test_record_bookkeeping(self):
        spec = make_spec()
        records = run_experiment(spec)
        assert len(records) == 2
        for r in records:
            assert r.symbol_count == spec.n_users * spec.block_length * spec.n_realizations
            assert r.bit_count == r.symbol_count * 2
            assert r.realization_count == 4
            assert r.failures == 0

    def test_deterministic_records(self):
        spec = make_spec(precoder_ids=("zf", "msm"))
        a = records_without_timing(run_experiment(spec))
        b = records_without_timing(run_experiment(spec))
        assert a == b

    def test_parallel_matches_serial(self):
        serial = make_spec(precoder_ids=("zf-ob", "msm"), n_realizations=5)
        parallel = make_spec(
            precoder_ids=("zf-ob", "msm"), n_realizations=5, n_workers=2
        )
        assert records_without_timing(run_experiment(serial)) == records_without_timing(
            run_experiment(parallel)
        )

    def test_worker_count_gives_identical_csv(self, tmp_path):
        """1 and 2 workers write the same CSV, wall_time_s aside, with FALM."""
        texts = []
        for n_workers in (1, 2):
            spec = make_spec(
                precoder_ids=("falm", "zf-ob", "msm"),
                n_realizations=3,
                n_workers=n_workers,
                solver=SolverConfig(apg_max_iters=30),
            )
            path = tmp_path / f"workers{n_workers}.csv"
            write_csv(run_experiment(spec), str(path), {})
            texts.append([line.rsplit(",", 1)[0] for line in path.read_text().splitlines()])
        assert texts[0] == texts[1]
        assert len(texts[0]) == 1 + 3 * 2

    def test_snr_monotone_for_floorless_precoder(self):
        # BER non-increasing in SNR up to Monte-Carlo noise (2 standard errors)
        spec = make_spec(
            precoder_ids=("msm",),
            snr_db=(0.0, 6.0, 12.0, 18.0),
            n_realizations=20,
            block_length=5,
        )
        records = run_experiment(spec)
        for lo, hi in zip(records, records[1:]):
            se = np.sqrt(max(lo.ber * (1 - lo.ber), 1e-12) / lo.bit_count)
            assert hi.ber <= lo.ber + 2 * se

    def test_unknown_precoder_fails_fast(self):
        for pid in ("nonesuch", "squid"):
            with pytest.raises(KeyError):
                run_experiment(make_spec(precoder_ids=(pid,)))

    def test_non_finite_channel_counts_as_failure(self, monkeypatch, caplog):
        """One NaN channel entry at t=1 costs every precoder that instance:
        all four reject the channel in check_inputs with a ValueError."""
        real_streams = harness.paired_streams

        def streams(base_seed, realization, t, params, order):
            H, symbols, noise = real_streams(base_seed, realization, t, params, order)
            if t == 1:
                H = H.copy()
                H[0, 0] = np.nan
            return H, symbols, noise

        monkeypatch.setattr(harness, "paired_streams", streams)
        spec = make_spec(
            n_antennas=4,
            n_users=2,
            block_length=3,
            n_realizations=1,
            precoder_ids=("zf", "zf-ob", "msm", "falm"),
            solver=SolverConfig(apg_max_iters=30),
        )
        with np.errstate(all="ignore"), caplog.at_level(logging.WARNING, logger=harness.__name__):
            records = run_experiment(spec)
        for r in records:
            assert r.failures == 1, r.precoder
            assert r.symbol_count == (spec.block_length - 1) * spec.n_users, r.precoder
        for pid in spec.precoder_ids:
            assert (
                f"precoder {pid} failed with ValueError on 1 of 3 symbol times "
                "of realization 0 (first at t 1); instances excluded"
            ) in caplog.messages

    def test_one_line_per_realization_of_non_finite_receptions(self, monkeypatch, caplog):
        """A precoder whose rails are NaN fails on all T=4 symbol times of
        both realizations: each realization logs one line, with the count
        and the first t, and every failure is counted."""

        def nan_rails(config):
            def precode(H, symbols, constellation, power):
                return np.full(H.shape[1], np.nan + 0j)

            return precode

        monkeypatch.setitem(baselines._REGISTRY, "nan-rails", nan_rails)
        spec = make_spec(
            n_antennas=4, n_users=2, block_length=4, precoder_ids=("nan-rails",),
            n_realizations=2,
        )
        with caplog.at_level(logging.WARNING, logger=harness.__name__):
            records = run_experiment(spec)
        assert [r.failures for r in records] == [8, 8]
        assert caplog.messages == [
            f"precoder nan-rails failed with non-finite reception on 4 of 4 symbol times "
            f"of realization {realization} (first at t 0); instances excluded"
            for realization in (0, 1)
        ]

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_failing_realization_is_named(self, monkeypatch, n_workers):
        real_streams = harness.paired_streams

        def streams(base_seed, realization, t, params, order):
            if realization == 1:
                raise ValueError("bad draw")
            return real_streams(base_seed, realization, t, params, order)

        monkeypatch.setattr(harness, "paired_streams", streams)
        spec = make_spec(n_realizations=3, n_workers=n_workers)
        with pytest.raises(RuntimeError, match=r"realization 1 failed: ValueError\('bad draw'\)"):
            run_experiment(spec)

    def test_dead_worker_is_named(self, monkeypatch):
        """A worker process that dies breaks the pool; the error names the
        first realization left without counts."""
        real_streams = harness.paired_streams

        def streams(base_seed, realization, t, params, order):
            if realization == 1:
                os._exit(1)
            return real_streams(base_seed, realization, t, params, order)

        monkeypatch.setattr(harness, "paired_streams", streams)
        spec = make_spec(n_realizations=3, n_workers=2)
        with pytest.raises(RuntimeError, match=r"realization \d+ failed: BrokenProcessPool"):
            run_experiment(spec)

    def test_zero_forcing_fails_when_users_exceed_antennas(self):
        """At K=3 > N=2 every zf and zf-ob instance is a failure; msm, which
        needs only K <= 2N, runs as usual."""
        spec = make_spec(
            n_antennas=2, n_users=3, block_length=2, n_realizations=2,
            precoder_ids=("zf", "zf-ob", "msm"),
        )
        records = run_experiment(spec)
        instances = spec.n_realizations * spec.block_length
        for r in records:
            if r.precoder == "msm":
                assert (r.failures, r.symbol_count) == (0, instances * spec.n_users)
            else:
                assert (r.failures, r.bit_count, r.symbol_count) == (instances, 0, 0)
                assert np.isnan(r.ber) and np.isnan(r.ser)

    @pytest.mark.parametrize(
        "n_workers, n_realizations, pool_size",
        [(64, 2, 2), (2, 5, 2), (3, 3, 3), (8, 1, None), (1, 4, None)],
    )
    def test_pool_sized_by_the_work(self, monkeypatch, n_workers, n_realizations, pool_size):
        """The pool gets min(workers, realizations) processes; with one, the
        sweep runs in-process. A fake pool records the size and maps serially."""
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        run_experiment(make_spec(n_workers=n_workers, n_realizations=n_realizations))
        assert sizes == ([] if pool_size is None else [pool_size])

    def test_appending_trials_keeps_earlier_counts(self):
        three = make_spec(
            precoder_ids=("zf-ob", "msm", "falm"),
            n_realizations=3,
            solver=SolverConfig(apg_max_iters=30),
        )
        five = dataclasses.replace(three, n_realizations=5)
        counts = [harness._realization_counts(five, r)[:4] for r in range(5)]
        for r in range(3):
            for got, expected in zip(harness._realization_counts(three, r)[:4], counts[r]):
                np.testing.assert_array_equal(got, expected)

        def totals(records):
            return [
                (round(r.ber * r.bit_count), round(r.ser * r.symbol_count), r.symbol_count, r.failures)
                for r in records
            ]

        bit_errors, symbol_errors, ok, failures = (
            counts[3][i] + counts[4][i] for i in range(4)
        )
        added = [
            (
                int(bit_errors[p, s].sum()),
                int(symbol_errors[p, s].sum()),
                int(ok[p]) * five.n_users,
                int(failures[p]),
            )
            for p in range(len(five.precoder_ids))
            for s in range(len(five.snr_db))
        ]
        expected = [tuple(map(sum, zip(a, b))) for a, b in zip(totals(run_experiment(three)), added)]
        assert totals(run_experiment(five)) == expected

    def test_failures_counted_and_excluded(self, monkeypatch):
        calls = {"n": 0}

        def flaky_factory(config):
            def precode(H, symbols, constellation, power):
                calls["n"] += 1
                if calls["n"] % 3 == 0:
                    raise RuntimeError("synthetic failure")
                n = H.shape[1]
                a = np.sqrt(power / (2 * n))
                return np.full(n, a + 1j * a)

            return precode

        monkeypatch.setitem(baselines._REGISTRY, "flaky", flaky_factory)
        spec = make_spec(precoder_ids=("flaky",), n_realizations=2)
        records = run_experiment(spec)
        total_instances = spec.block_length * 2
        assert records[0].failures == total_instances // 3
        expected_symbols = (total_instances - total_instances // 3) * spec.n_users
        assert records[0].symbol_count == expected_symbols


    def test_lp_failure_inside_falm_is_a_falm_failure(self, monkeypatch):
        """FALM starts from the box LP: a failed LP solve fails that
        symbol time's falm solve, and the other precoders count as before."""
        spec = make_spec(precoder_ids=("falm", "zf-ob"), n_realizations=2)
        before = run_experiment(spec)

        class InfeasibleHighs(precoding._Highs):
            def run(self):
                pass

            def getModelStatus(self):
                return precoding.HighsModelStatus.kInfeasible

        monkeypatch.setattr(precoding, "_Highs", InfeasibleHighs)
        after = run_experiment(spec)
        n = len(spec.snr_db)
        assert all(r.failures == 2 * spec.block_length and r.symbol_count == 0 for r in after[:n])
        assert records_without_timing(after[n:]) == records_without_timing(before[n:])

    def test_falm_never_calls_msm_precode(self, monkeypatch):
        """FALM solves the LP itself: a falm-only run does not go through
        msm_precode, which a profiler may count as MSM's solves."""

        def refuse(instance):
            raise AssertionError("msm_precode called")

        monkeypatch.setattr(baselines, "msm_precode", refuse)
        records = run_experiment(make_spec(precoder_ids=("falm",), n_realizations=2))
        assert [r.failures for r in records] == [0] * len(records)

    def test_one_traceback_per_precoder_and_exception_type(self, monkeypatch, caplog):
        """T=4 with K > N: zf raises on every symbol time, and a precoder
        that raises ValueError at t = 0-2 and RuntimeError at t = 3 fails on
        every one too. Each realization logs one traceback per precoder and
        exception type, with its count; every failure is counted."""

        def two_kinds(config):
            times = iter(range(4))

            def precode(H, symbols, constellation, power):
                kind = ValueError if next(times) < 3 else RuntimeError
                raise kind("synthetic failure")

            return precode

        monkeypatch.setitem(baselines._REGISTRY, "two-kinds", two_kinds)
        spec = make_spec(
            n_antennas=2, n_users=3, block_length=4, precoder_ids=("zf", "two-kinds"),
            n_realizations=2,
        )
        with caplog.at_level(logging.WARNING, logger=harness.__name__):
            records = run_experiment(spec)
        assert {r.precoder: r.failures for r in records} == {"zf": 8, "two-kinds": 8}
        logged = [
            (r.args[0], r.args[1], r.args[2], r.args[4], r.exc_info[0])
            for r in caplog.records
        ]
        assert logged == [
            (pid, kind.__name__, count, realization, kind)
            for realization in (0, 1)
            for pid, kind, count in (
                ("zf", ValueError, 4),
                ("two-kinds", ValueError, 3),
                ("two-kinds", RuntimeError, 1),
            )
        ]
        assert "4 of 4 symbol times of realization 0" in caplog.records[0].getMessage()

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_realization_counts_in_order(self, n_workers):
        spec = make_spec(precoder_ids=("zf-ob", "falm"), n_realizations=3, n_workers=n_workers,
                         solver=SolverConfig(apg_max_iters=30))
        for r, counts in enumerate(harness.realization_counts(spec)):
            for got, expected in zip(counts[:4], harness._realization_counts(spec, r)[:4]):
                np.testing.assert_array_equal(got, expected)
        assert r == 2


class TestErrorRates:
    """Rates from hand-built counts shaped (precoders, snrs, users): 2 users,
    QPSK (2 bits per symbol) and two SNR points. In realization a the
    second precoder solved no symbol time, in b the first."""

    SPEC = make_spec(n_users=2, order=4, precoder_ids=("zf-ob", "zf"))
    A = (np.array([[[3, 1], [0, 2]], [[0, 0], [0, 0]]]),
         np.array([[[2, 1], [0, 1]], [[0, 0], [0, 0]]]),
         np.array([5, 0]))
    B = (np.array([[[0, 0], [0, 0]], [[1, 0], [2, 2]]]),
         np.array([[[0, 0], [0, 0]], [[1, 0], [1, 2]]]),
         np.array([0, 4]))

    def test_pooled_counts(self):
        ber, ser, worst = harness.error_rates(self.SPEC, *self.A)
        # 5 solved symbol times: 10 symbols and 20 bits, 10 bits per user.
        np.testing.assert_array_equal(ber[0], [4 / 20, 2 / 20])
        np.testing.assert_array_equal(ser[0], [3 / 10, 1 / 10])
        np.testing.assert_array_equal(worst[0], [3 / 10, 2 / 10])
        for rate in (ber, ser, worst):
            assert rate.shape == (2, 2) and np.isnan(rate[1]).all()

    def test_stacked_counts(self):
        """A leading realization axis gives each realization its own rates."""
        stacked = [np.stack(field) for field in zip(self.A, self.B)]
        rates = harness.error_rates(self.SPEC, *stacked)
        for r, counts in enumerate((self.A, self.B)):
            for got, alone in zip(rates, harness.error_rates(self.SPEC, *counts)):
                np.testing.assert_array_equal(got[r], alone)
        ber, ser, worst = (rate[1, 1] for rate in rates)
        # 4 solved symbol times: 8 symbols and 16 bits, 8 bits per user.
        np.testing.assert_array_equal(ber, [1 / 16, 4 / 16])
        np.testing.assert_array_equal(ser, [1 / 8, 3 / 8])
        np.testing.assert_array_equal(worst, [1 / 8, 2 / 8])
        assert all(np.isnan(rate[1, 0]).all() for rate in rates)


def hand_counts(bit_errors, ok=10):
    """Per-realization counts of one precoder, one SNR point and one user."""
    return [
        harness.RealizationCounts(
            np.array([[[e]]]), np.array([[[e]]]), np.array([ok]), np.array([0]), np.zeros(1)
        )
        for e in bit_errors
    ]


class TestCompareCounts:
    """The paired Monte-Carlo gate: per-realization BER differences, their
    mean and their standard error, flagged beyond 3 standard errors."""

    SPEC = make_spec(n_users=1, order=4, snr_db=(10.0,), n_realizations=4)

    def test_hand_built_counts(self):
        # 20 bits per realization: BERs 0.1, 0.2, 0.3, 0.4 against 0.1 each.
        (row,) = harness.compare_counts(self.SPEC, hand_counts([2, 4, 6, 8]), hand_counts([2] * 4))
        d = np.array([0.0, 0.1, 0.2, 0.3])
        assert (row.precoder, row.snr_db) == ("zf-ob", 10.0)
        assert row.delta_ber == pytest.approx(0.15, abs=1e-15)
        assert row.std_err == pytest.approx(np.sqrt(np.sum((d - 0.15) ** 2) / 3) / 2, abs=1e-15)
        assert row.std_err == pytest.approx(0.0645497, abs=1e-7)
        assert not row.flagged  # 0.15 <= 3 * 0.0645

    def test_consistent_difference_is_flagged(self):
        # Differences 0.10, 0.15, 0.10, 0.15: mean 0.125, standard error 0.0144.
        (row,) = harness.compare_counts(self.SPEC, hand_counts([4, 5, 4, 5]), hand_counts([2] * 4))
        assert row.delta_ber == pytest.approx(0.125, abs=1e-15)
        assert row.std_err == pytest.approx(0.025 / np.sqrt(3), abs=1e-15)
        assert row.flagged
        (row,) = harness.compare_counts(self.SPEC, hand_counts([2] * 4), hand_counts([4, 5, 4, 5]))
        assert row.delta_ber == pytest.approx(-0.125, abs=1e-15) and row.flagged

    def test_realization_without_solved_instance_is_flagged(self):
        counts = hand_counts([2] * 4)
        counts[1] = hand_counts([0], ok=0)[0]
        (row,) = harness.compare_counts(self.SPEC, counts, hand_counts([2] * 4))
        assert np.isnan(row.delta_ber) and row.flagged

    def test_rejects_unpaired_or_single_realizations(self):
        for a, b in (([2] * 4, [2] * 3), ([2], [2])):
            with pytest.raises(ValueError, match="realizations"):
                harness.compare_counts(self.SPEC, hand_counts(a), hand_counts(b))

    def test_run_against_itself(self):
        spec = make_spec(precoder_ids=("falm", "zf-ob"), snr_db=(0.0, 10.0, 20.0),
                         solver=SolverConfig(apg_max_iters=30))
        counts = list(harness.realization_counts(spec))
        rows = harness.compare_counts(spec, counts, counts)
        assert [(r.precoder, r.snr_db) for r in rows] == [
            (p, s) for p in spec.precoder_ids for s in spec.snr_db
        ]
        assert all(r.delta_ber == 0.0 and r.std_err == 0.0 and not r.flagged for r in rows)

    def test_weaker_solver_is_flagged_at_desk_scale(self):
        """FALM capped at 50 iterations per level (mean worst-user margin
        0.546 against the default's 0.568 over 40 N=32, K=8 solves) is
        flagged against the default on criterion 8's shape and seed, with 20
        realizations, at 15 and 20 dB (+5.2 and +3.9 standard errors);
        every flagged point has the weaker solver's BER higher. With the
        backtracking step a 100 cap is not flagged (largest +2.2 standard
        errors), nor is 200 (+1.6)."""
        spec = make_spec(
            n_antennas=32, n_users=8, block_length=10, order=8,
            snr_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0), precoder_ids=("falm",),
            n_realizations=20, base_seed=7, n_workers=2, solver=SolverConfig(),
        )
        weaker = dataclasses.replace(spec, solver=SolverConfig(apg_max_iters=50))
        rows = harness.compare_counts(
            spec, list(harness.realization_counts(weaker)), list(harness.realization_counts(spec))
        )
        flagged = [r for r in rows if r.flagged]
        assert flagged and all(r.delta_ber > 0 for r in flagged)


class TestSpecValidation:
    def test_rejects_empty_snr(self):
        with pytest.raises(ValueError):
            make_spec(snr_db=())

    def test_rejects_zero_realizations(self):
        with pytest.raises(ValueError):
            make_spec(n_realizations=0)

    def test_rejects_zero_block_length(self):
        with pytest.raises(ValueError, match="block_length"):
            make_spec(block_length=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="base_seed"):
            make_spec(base_seed=-1)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="n_workers"):
            make_spec(n_workers=0)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("n_antennas", 4.0), ("n_users", 2.0), ("block_length", 2.0),
            ("base_seed", 1.5), ("n_realizations", 2.0), ("n_workers", 1.0),
            ("n_users", 0), ("n_antennas", "8"), ("n_workers", True), ("n_antennas", 0),
        ],
    )
    def test_rejects_non_integral_counts(self, field, bad):
        """Every count and the seed must be an integer, not a float or a
        bool, so a bad count fails at the spec, not inside a realization or
        the pool."""
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            make_spec(**{field: bad})

    def test_accepts_numpy_integer_counts(self):
        spec = make_spec(n_antennas=np.int64(8), n_realizations=np.int32(4), base_seed=np.uint8(0))
        assert spec.n_antennas == 8

    def test_rejects_empty_precoders(self):
        with pytest.raises(ValueError):
            make_spec(precoder_ids=())

    @pytest.mark.parametrize("snr_db", [(10.0, np.nan), (np.nan, 10.0), (np.inf,), (0.0, -np.inf)])
    def test_rejects_non_finite_snr(self, snr_db):
        with pytest.raises(ValueError, match="noise_var must be finite and positive"):
            make_spec(snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [(-4000.0,), (0.0, 4000.0), (np.float64(-4000.0),), (-3090.0,)])
    def test_rejects_out_of_range_snr(self, snr_db):
        """A finite SNR whose noise variance over- or underflows is named."""
        with pytest.raises(ValueError, match=f"SNR point {snr_db[-1]:g} dB is out of range"):
            make_spec(snr_db=snr_db)

    def test_bad_power_is_named_before_snr(self):
        with pytest.raises(ValueError, match="power must be positive and finite"):
            make_spec(total_power=-1.0)

    @pytest.mark.parametrize("power", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_power(self, power):
        """The spec checks P through one_bit_amplitude, the package's one
        power rule, so NaN and inf fail as 0 and -1 do."""
        with pytest.raises(ValueError, match="power must be positive and finite"):
            make_spec(total_power=power)

    @pytest.mark.parametrize("order", [6, 1, 0])
    def test_rejects_bad_order(self, order):
        with pytest.raises(ValueError, match="order must be a power of two"):
            make_spec(order=order)

    def test_rejects_float_order(self):
        with pytest.raises(ValueError, match="order must be an integer, got 8.0"):
            make_spec(order=8.0)

    def test_system_params_noise_var(self):
        spec = make_spec(total_power=2.0)
        params = spec.system_params(10.0)
        assert params.noise_var == pytest.approx(0.2)
        # The expression every sigma in the sweep is taken from.
        for snr in (-7.5, 0.0, 3.0, 25.0):
            assert spec.system_params(snr).noise_var == 2.0 / 10.0 ** (snr / 10.0)
