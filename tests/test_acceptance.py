"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 9 (full-scale smoke test) is optional and long-running; set
RUN_FULL_SCALE=1 to include it.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from onebit_precoding import (
    ExperimentSpec,
    MpskConstellation,
    SolverConfig,
    build_instance,
    draw_channel,
    draw_symbols,
    empirical_sep,
    falm_solve,
    point_margin,
    run_experiment,
    sep_union_bound,
    substream,
)
from onebit_precoding.cli import oracle_counts, write_csv
from onebit_precoding.falm import _apg, apg_step, smoothed_objective, update_v
from onebit_precoding.sep_analysis import _implication_violations


def report(number: int, name: str, ok: bool, detail: str) -> str:
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    return line


def random_instance(rng, n_users=None, n_antennas=None, order=None, power=1.0):
    n_users = n_users or int(rng.integers(1, 9))
    n_antennas = n_antennas or int(rng.integers(1, 9))
    order = order or int(rng.choice([2, 4, 8, 16]))
    H = draw_channel(n_users, n_antennas, rng)
    return build_instance(H, draw_symbols(order, n_users, rng), MpskConstellation(order), power)


def test_criterion_01_implication_never_violated():
    start = time.perf_counter()
    draws = 100_000
    violations = {
        order: _implication_violations(MpskConstellation(order), draws, substream(101, order))
        for order in (2, 4, 8, 16)
    }
    elapsed = time.perf_counter() - start
    ok = all(v == 0 for v in violations.values()) and elapsed < 5.0
    line = report(
        1,
        "decision implication",
        ok,
        f"violations per order {violations} over {draws} draws each, {elapsed:.2f}s",
    )
    assert ok, line


def test_criterion_02_empirical_chain_and_union_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    sigma, trials = 0.5, 1_000_000
    points = [complex(0.4 + rng.uniform(0.0, 1.2), rng.uniform(-0.15, 0.15)) for _ in range(10)]
    points += [
        complex(rng.uniform(-0.4, 0.4), (1 if rng.uniform() < 0.5 else -1) * rng.uniform(0.7, 1.8))
        for _ in range(10)
    ]
    failures = []
    sign_cover = {order: set() for order in (4, 8, 16)}
    for order in (4, 8, 16):
        c = MpskConstellation(order)
        for j, z in enumerate(points):
            alpha = point_margin(z, c)
            sign_cover[order].add(alpha > 0)
            est = empirical_sep(z, sigma, c, trials, substream(203, order, j))
            bound = sep_union_bound(alpha, sigma, c)
            pair_se = np.hypot(est.std_err, est.std_err_shifted)
            if est.err_rate > est.err_rate_shifted + 3 * pair_se:
                failures.append(f"chain M={order} z={z:.3f}")
            if est.err_rate_shifted > bound + 3 * est.std_err_shifted:
                failures.append(f"bound M={order} z={z:.3f} alpha={alpha:.3f}")
    covered = all(cover == {True, False} for cover in sign_cover.values())
    elapsed = time.perf_counter() - start
    ok = not failures and covered and elapsed < 120.0
    line = report(
        2,
        "SEP chain vs union bound",
        ok,
        f"20 points x 3 orders x {trials} trials, both margin signs covered: "
        f"{covered}, failures: {failures or 'none'}, {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_03_smoothing_sandwich():
    rng = np.random.default_rng(303)
    worst = -np.inf
    for _ in range(1000):
        inst = random_instance(rng)
        n2 = 2 * inst.n_antennas
        x = rng.uniform(-1.5, 1.5) * rng.uniform(-inst.amplitude, inst.amplitude, n2)
        g = float(np.max(inst.forms @ x))
        scale = max(1.0, abs(g))
        for mu in (1.0, 0.01, 1e-4):
            f = smoothed_objective(inst, x, mu)
            gap_low = g - f  # must be <= 0
            gap_high = f - g - mu * np.log(2.0 * inst.n_users)  # must be <= 0
            worst = max(worst, gap_low / scale, gap_high / scale)
    ok = worst <= 1e-12
    line = report(3, "smoothing sandwich", ok, f"worst relative slack {worst:+.2e} over 1000 pairs x 3 mu")
    assert ok, line


def test_criterion_04_gradient_matches_finite_differences():
    """The gradient FALM steps along is that of the penalized surrogate
    f(x) + lam * (P - x . v). One APG iteration from x with the box far away
    (P = 100 gives a >= 2.5 against |x| <= 0.5) is the plain step
    x1 = x - step * grad at every call's first step, ``apg_step``, so
    (x - x1) / step is the solver's own gradient."""
    rng = np.random.default_rng(404)
    v_rng = np.random.default_rng(405)
    mu, lam, power, step = 0.1, 1.0, 100.0, 1e-6
    worst = 0.0
    box_gap = np.inf
    single_steps = True
    for _ in range(100):
        inst = random_instance(rng, power=power)
        n2 = 2 * inst.n_antennas
        x = rng.uniform(-0.5, 0.5, size=n2)
        v = update_v(v_rng.standard_normal(n2), power)
        x1, iterations = _apg(inst, v, lam, mu, x, 1)
        single_steps &= iterations == 1 and not np.array_equal(x1, x)
        box_gap = min(box_gap, inst.amplitude - np.max(np.abs(x1)))
        grad = (x - x1) / apg_step(inst, mu)

        def penalized(p):
            return smoothed_objective(inst, p, mu) + lam * (power - p @ v)

        fd = np.empty(n2)
        for j in range(n2):
            e = np.zeros(n2)
            e[j] = step
            fd[j] = (penalized(x + e) - penalized(x - e)) / (2 * step)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-300)
        worst = max(worst, rel)
    ok = worst <= 1e-5 and single_steps and box_gap > 0
    line = report(
        4,
        "APG step matches finite-difference gradient",
        ok,
        f"worst relative error {worst:.2e} at 100 points, one moving step each: "
        f"{single_steps}, min distance to the box {box_gap:.2f}",
    )
    assert ok, line


def test_criterion_05_penalty_mechanics():
    rng = np.random.default_rng(505)
    power = 1.0
    n2 = 12
    a = np.sqrt(power / n2)
    min_gap = np.inf
    binary_worst = 0.0
    interior_min = np.inf
    for i in range(1000):
        if i % 2 == 0:
            x = a * np.where(rng.uniform(size=n2) < 0.5, 1.0, -1.0)
            gap = power - x @ update_v(x, power)
            binary_worst = max(binary_worst, abs(gap))
        else:
            x = rng.uniform(-a, a, size=n2)
            if np.max(a - np.abs(x)) < 1e-6:  # effectively binary draw
                continue
            gap = power - x @ update_v(x, power)
            interior_min = min(interior_min, gap)
        min_gap = min(min_gap, gap)

    x = rng.uniform(-a, a, size=n2)
    best = x @ update_v(x, power)
    dominated = True
    for _ in range(1000):
        v = rng.standard_normal(n2)
        v *= np.sqrt(power) * rng.uniform() ** 0.5 / np.linalg.norm(v)
        dominated &= x @ v <= best + 1e-12
    ok = (
        min_gap >= -1e-12
        and binary_worst <= 1e-10
        and interior_min > 1e-10
        and dominated
    )
    line = report(
        5,
        "penalty mechanics",
        ok,
        f"gap >= {min_gap:+.1e}, binary gap <= {binary_worst:.1e}, interior gap "
        f">= {interior_min:.1e}, closed-form v dominates 1000 random: {dominated}",
    )
    assert ok, line


def test_criterion_06_falm_vs_brute_force():
    """FALM comes within 5% of the exhaustive optimum on >= 56 of 100 seeds.

    Instances: seeds 0-99, N=2 antennas, K=2 users, QPSK, P=1; the optimum is
    the best worst-user margin over all 4^N one-bit transmit vectors.

    Predicate: a seed counts when ``optimum - margin <= 0.05 * |optimum|``.
    Where the optimum is non-negative this is exactly ``margin >= 0.95 *
    optimum``. Where it is negative (about a third of these instances) that
    literal form is unsatisfiable, since ``margin <= optimum < 0.95 *
    optimum``, and would fail even an exact solver; the gap form is the only
    reading that can hold there.

    Bar: FALM is a penalty-continuation heuristic for an NP-hard problem and
    promises no optimality rate, so the bar is calibrated on the 2,000
    disjoint seeds 100-2,099 of the same family, where FALM meets the
    predicate on 69.5% (MSM 65.9%, a uniformly random sign pattern about 7%).
    Three binomial standard deviations at n=100 (sigma ~ 4.6 points) below
    that rate gives the bar of 56/100, which a broken solver does not reach.

    A greedy single-rail sign flip after quantization would lift FALM to
    ~92/100, but it changes what ``falm`` computes (and with it criterion 8's
    BER comparison), so it is not part of ``falm``; it belongs in a separate
    ``falm+flip`` pipeline.
    """
    start = time.perf_counter()
    bar = 56
    # A margin above the optimum raises.
    hits, exact_hits, negative_optima, hits_negative = oracle_counts(
        range(100), n_antennas=2, n_users=2, order=4, power=1.0
    )
    elapsed = time.perf_counter() - start
    ok = hits >= bar and elapsed < 60.0
    line = report(
        6,
        "FALM vs exhaustive search",
        ok,
        f"within 5% gap of optimum in {hits}/100 (bar >= {bar}; optimum >= 0: "
        f"{hits - hits_negative}/{100 - negative_optima}, optimum < 0: "
        f"{hits_negative}/{negative_optima}), exact optimum {exact_hits}/100, "
        f"{elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_07_penalty_schedule():
    rng = np.random.default_rng(707)
    inst = random_instance(rng, n_users=4, n_antennas=8, order=8)
    trace = [step.lam for step in falm_solve(inst).steps]
    ok = np.allclose(trace, [0.01, 0.1, 1.0, 10.0, 100.0], rtol=0, atol=0)
    line = report(7, "default penalty schedule", ok, f"trace {trace}")
    assert ok, line


DESK_SPEC = ExperimentSpec(
    n_antennas=32,
    n_users=8,
    block_length=10,
    total_power=1.0,
    order=8,
    snr_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0),
    precoder_ids=("falm", "msm", "zf-ob", "zf"),
    n_realizations=200,
    base_seed=7,
    n_workers=min(2, os.cpu_count() or 1),
)


@pytest.mark.slow
def test_criterion_08_desk_scale_curves():
    start = time.perf_counter()
    records = run_experiment(DESK_SPEC)
    elapsed = time.perf_counter() - start
    ber = {(r.precoder, r.snr_db): r.ber for r in records}
    problems = []
    for snr in (15.0, 20.0, 25.0):
        zf, falm = ber[("zf", snr)], ber[("falm", snr)]
        msm, zf_ob = ber[("msm", snr)], ber[("zf-ob", snr)]
        if not zf < falm:
            problems.append(f"{snr}dB: ZF {zf:.2e} !< FALM {falm:.2e}")
        if not falm <= msm:
            problems.append(f"{snr}dB: FALM {falm:.2e} !<= MSM {msm:.2e}")
        if not msm < zf_ob:
            problems.append(f"{snr}dB: MSM {msm:.2e} !< ZF-OB {zf_ob:.2e}")
    # no error floor for FALM down to 1e-3; ZF-OB stuck above it
    if not ber[("falm", 25.0)] < 1e-3:
        problems.append(f"FALM floors: {ber[('falm', 25.0)]:.2e} at 25dB")
    if not ber[("zf-ob", 25.0)] > 1e-3:
        problems.append(f"ZF-OB does not floor: {ber[('zf-ob', 25.0)]:.2e} at 25dB")
    failures = sum(r.failures for r in records)
    if failures:
        problems.append(f"{failures} precoder failures")
    curve = {p: [ber[(p, s)] for s in DESK_SPEC.snr_db] for p in DESK_SPEC.precoder_ids}
    ok = not problems
    line = report(
        8,
        "desk-scale curve reproduction",
        ok,
        f"problems: {problems or 'none'}; BER by SNR {DESK_SPEC.snr_db}: "
        + "; ".join(f"{p}={['%.1e' % v for v in vs]}" for p, vs in curve.items())
        + f"; {elapsed / 60:.1f} min (target < 20)",
    )
    assert ok, line


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("RUN_FULL_SCALE"),
    reason="optional long-running criterion; set RUN_FULL_SCALE=1",
)
def test_criterion_09_full_scale_smoke():
    spec = ExperimentSpec(
        n_antennas=128,
        n_users=24,
        block_length=5,
        total_power=1.0,
        order=4,
        snr_db=(5.0,),
        precoder_ids=("falm", "zf-ob"),
        n_realizations=50,
        base_seed=17,
        n_workers=min(2, os.cpu_count() or 1),
    )
    start = time.perf_counter()
    records = run_experiment(spec)
    elapsed = time.perf_counter() - start
    ber = {r.precoder: r.ber for r in records}
    failures = sum(r.failures for r in records)
    ok = failures == 0 and ber["falm"] < ber["zf-ob"]
    line = report(
        9,
        "full-scale smoke test",
        ok,
        f"FALM {ber['falm']:.2e} vs ZF-OB {ber['zf-ob']:.2e} at 5 dB, "
        f"{failures} failures, {elapsed / 60:.1f} min",
    )
    assert ok, line


def test_criterion_10_byte_identical_replay(tmp_path):
    spec = ExperimentSpec(
        n_antennas=8,
        n_users=2,
        block_length=3,
        total_power=1.0,
        order=8,
        snr_db=(0.0, 10.0),
        precoder_ids=("falm", "msm", "zf-ob"),
        n_realizations=6,
        base_seed=99,
        n_workers=2,
        solver=SolverConfig(apg_max_iters=300),
    )
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        write_csv(run_experiment(spec), str(path), header={"seed": spec.base_seed})

    def strip_timing(text):
        # wall_time_s is telemetry and the one run-dependent column
        return [
            line if line.startswith(("#", "precoder,")) else line.rsplit(",", 1)[0]
            for line in text.splitlines()
        ]

    a, b = (p.read_text() for p in paths)
    ok = strip_timing(a) == strip_timing(b)
    line = report(
        10,
        "deterministic replay",
        ok,
        "byte-identical CSV (timing column masked) across two parallel runs"
        if ok
        else "runs differ",
    )
    assert ok, line


def test_criterion_11_sixteen_psk_order():
    """The paper's 16-PSK claim at desk scale: FALM < MSM < ZF-OB in BER.
    FALM floors near 2.7e-2 at N=32, K=8 (seed 7 reads 2.8e-2 at 25 dB and
    2.7e-2 at 30 dB), so the order is asserted, not a falling curve.

    Calibration, measured again at 164f5a0: 40 runs of this spec on the
    disjoint seeds 100-139, 20 realizations each, at 0:5:30 dB. From 15 dB
    up the order held on 40/40 seeds, the smallest ratios being MSM/FALM
    1.29 and ZF-OB/MSM 1.92, both at 15 dB; at 10 dB MSM/FALM fell to 1.06,
    and at 0 dB FALM < MSM held on only 32/40. The seeds' median FALM BER at
    30 dB is 2.4e-2. So the points are 15:5:30 dB and seed 7 is fixed after.
    One run takes about 3 s at 2 workers on a 2-core VM.
    """
    spec = dataclasses.replace(
        DESK_SPEC,
        order=16,
        snr_db=(15.0, 20.0, 25.0, 30.0),
        precoder_ids=("falm", "msm", "zf-ob"),
        n_realizations=20,
    )
    start = time.perf_counter()
    records = run_experiment(spec)
    elapsed = time.perf_counter() - start
    ber = {(r.precoder, r.snr_db): r.ber for r in records}
    problems = [
        f"{snr:g}dB: FALM {ber[('falm', snr)]:.2e}, MSM {ber[('msm', snr)]:.2e}, "
        f"ZF-OB {ber[('zf-ob', snr)]:.2e}"
        for snr in spec.snr_db
        if not ber[("falm", snr)] < ber[("msm", snr)] < ber[("zf-ob", snr)]
    ]
    failures = sum(r.failures for r in records)
    if failures:
        problems.append(f"{failures} precoder failures")
    ok = not problems
    curve = {p: [ber[(p, s)] for s in spec.snr_db] for p in spec.precoder_ids}
    line = report(
        11,
        "16-PSK order FALM < MSM < ZF-OB",
        ok,
        f"problems: {problems or 'none'}; BER by SNR {spec.snr_db}: "
        + "; ".join(f"{p}={['%.1e' % v for v in vs]}" for p, vs in curve.items())
        + f"; {elapsed:.1f}s",
    )
    assert ok, line
