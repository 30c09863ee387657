"""One benchmark session in a fresh interpreter: a set-up probe, the timed
end-to-end sweeps of a workload, or its traced per-layer run.

``run.py`` starts this file as a child process, so that set-up time includes
interpreter start-up and so that peak RSS covers only the sweep and its
workers. It prints one JSON report as its last line. Usage:

    python3 perfbench/session.py --workload desk --seed 1 --seconds 25 --trace 0
    python3 perfbench/session.py --workload desk --probe
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from onebit_precoding import (  # noqa: E402
    ExperimentSpec,
    MpskConstellation,
    get_precoder,
    harness,
    paired_streams,
    run_experiment,
    zf_onebit,
)

import tracing  # noqa: E402

WORKERS = 2
ORDER = 8
POWER = 1.0

# Every workload is one process with 2 workers, 8-PSK and P = 1; the first
# precoder listed is the workload's lead, whose mean margin is reported.
WORKLOADS = {
    # The criterion-8 acceptance shape. FALM takes ~97% of worker time and
    # blocks are short, so per-solve cost dominates.
    "desk": dict(
        n_antennas=32,
        n_users=8,
        block_length=10,
        snr_db=(0, 5, 10, 15, 20, 25),
        precoder_ids=("falm", "msm", "zf-ob", "zf"),
        n_realizations=2,
    ),
    # The paper's full-protocol dimensions. Every APG call hits its cap and
    # each realization is one long task sharing one channel. The block is
    # 16 symbol times, not the paper's 100: one realization of 100 takes
    # ~80 s, longer than a whole run may.
    "protocol": dict(
        n_antennas=128,
        n_users=24,
        block_length=16,
        snr_db=tuple(range(0, 25, 2)),
        precoder_ids=("falm", "msm", "zf-ob", "zf"),
        n_realizations=2,
    ),
    # Desk dimensions without FALM and with many short realizations: MSM's
    # LP, channel draws, 13-point detection and fan-out carry the time.
    "no-falm": dict(
        n_antennas=32,
        n_users=8,
        block_length=10,
        snr_db=tuple(range(0, 25, 2)),
        precoder_ids=("msm", "zf-ob", "zf"),
        n_realizations=100,
    ),
}


# Distinct input sets per run; more of them average the lead margin over
# more instances where each sweep holds few.
DISTINCT_SWEEPS = {"desk": 4, "protocol": 1, "no-falm": 2}


def make_spec(workload: str, seed: int, n_workers: int, sweep: int = 0) -> ExperimentSpec:
    """The workload's spec for input set ``sweep`` of the run with ``seed``."""
    return ExperimentSpec(
        total_power=POWER,
        order=ORDER,
        base_seed=(seed << 16) | sweep,
        n_workers=n_workers,
        **WORKLOADS[workload],
    )


def channel_uses(spec: ExperimentSpec) -> int:
    return spec.n_realizations * spec.block_length


def deterministic(records):
    """Every record field except the wall_time_s telemetry, as text so that
    NaN compares equal to NaN."""
    return [repr(dataclasses.replace(r, wall_time_s=0.0)) for r in records]


def count_errors(spec: ExperimentSpec, records):
    """Names of the count checks the records fail: bits must equal the
    precoder's ok instances x K x log2 M, and symbols ok instances x K."""
    bps = MpskConstellation(spec.order).bits_per_symbol
    bad = []
    for r in records:
        ok = channel_uses(spec) - r.failures
        if r.bit_count != ok * spec.n_users * bps or r.symbol_count != ok * spec.n_users:
            bad.append(f"counts:{r.precoder}@{r.snr_db:g}")
    if len(records) != len(spec.precoder_ids) * len(spec.snr_db):
        bad.append("counts:record_count")
    return bad


def worst_margin(H, x, symbols, constellation) -> float:
    """Worst-user safety margin of a transmit vector, in complex arithmetic:
    min_i Re{c_i} - |Im{c_i}| cot(pi/M) with c_i = h_i^T x s_i*."""
    c = (H @ x) * constellation.points[symbols].conj()
    order = constellation.order
    cot = 0.0 if order == 2 else 1.0 / np.tan(np.pi / order)
    return float(np.min(c.real - np.abs(c.imag) * cot))


def output_ok(pid: str, x, power: float) -> bool:
    """zf sends total power P; every other precoder puts each rail on the
    one-bit alphabet +/- sqrt(P/2N), which also gives total power P."""
    rails = np.abs(np.asarray(x, dtype=complex).view(float))
    if pid == "zf":
        return bool(np.all(np.isfinite(rails))) and abs(rails @ rails - power) <= 1e-9 * power
    a = np.sqrt(power / rails.size)
    return bool(np.all(np.abs(rails - a) <= 1e-12 * max(a, 1.0)))


# Precoders whose worst-user margins the end-to-end run records.
MARGIN_PRECODERS = ("falm", "msm")


@contextlib.contextmanager
def recording(queue):
    """Make every precoder the sweep resolves check its output. Each falm
    and msm output, and every output that fails its check, is sent through
    ``queue`` as (precoder, worst-user margin, output ok). Forked workers
    inherit the hook with the module state."""
    real_get_precoder = harness.get_precoder

    def get_precoder_recording(pid, solver_config=None):
        precoder = real_get_precoder(pid, solver_config)

        def precode(H, symbols, constellation, power):
            x = precoder(H, symbols, constellation, power)
            ok = output_ok(pid, x, power)
            if pid in MARGIN_PRECODERS or not ok:
                queue.put((pid, worst_margin(H, x, symbols, constellation), ok))
            return x

        return precode

    harness.get_precoder = get_precoder_recording
    try:
        yield
    finally:
        harness.get_precoder = real_get_precoder


def _drain(queue, per_sweep):
    """Collect recorded outputs, one list per sweep; "sweep" closes a list."""
    current = []
    while (msg := queue.get()) != "stop":
        if msg == "sweep":
            per_sweep.append(current)
            current = []
        else:
            current.append(msg)


def timed_sweep(spec, sweep=run_experiment):
    start = time.perf_counter()
    records = sweep(spec)
    return records, time.perf_counter() - start


def reference_errors(workload: str, seed: int):
    """Names of failed checks of the harness's detection and error counting
    against an independent count on two realizations of zf-ob, whose
    output needs no solver."""
    spec = dataclasses.replace(
        make_spec(workload, seed, 1), precoder_ids=("zf-ob",), n_realizations=2
    )
    constellation = MpskConstellation(spec.order)
    gray = np.arange(spec.order) ^ (np.arange(spec.order) >> 1)
    popcount = np.array([bin(v).count("1") for v in range(spec.order)])
    params = spec.system_params(spec.snr_db[0])
    bit_errors = np.zeros(len(spec.snr_db), dtype=np.int64)
    symbol_errors = np.zeros(len(spec.snr_db), dtype=np.int64)
    for r in range(spec.n_realizations):
        for t in range(spec.block_length):
            H, symbols, noise = paired_streams(spec.base_seed, r, t, params, spec.order)
            x = zf_onebit(H, symbols, constellation, spec.total_power)
            for s, snr in enumerate(spec.snr_db):
                y = H @ x + np.sqrt(spec.total_power / 10.0 ** (snr / 10.0)) * noise
                detected = np.rint(np.angle(y) * spec.order / (2 * np.pi)).astype(int) % spec.order
                symbol_errors[s] += np.count_nonzero(detected != symbols)
                bit_errors[s] += popcount[gray[detected] ^ gray[symbols]].sum()
    records = run_experiment(spec)
    got_bits = [round(r.ber * r.bit_count) for r in records]
    got_symbols = [round(r.ser * r.symbol_count) for r in records]
    bad = count_errors(spec, records)
    if got_bits != bit_errors.tolist() or got_symbols != symbol_errors.tolist():
        bad.append("reference:zf-ob_error_counts")
    return bad


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """Sweep the workload at 2 workers with tracing off for about
    ``seconds``: first each of its distinct input sets once, then repeats
    of them in turn. A repeat must give the same deterministic fields and
    margins as the first sweep of its inputs."""
    specs = [make_spec(workload, seed, WORKERS, k) for k in range(DISTINCT_SWEEPS[workload])]
    lead = specs[0].precoder_ids[0]
    queue = multiprocessing.SimpleQueue()
    outputs = []
    drain = threading.Thread(target=_drain, args=(queue, outputs))
    drain.start()
    sweeps = []
    try:
        with recording(queue):
            begin = time.perf_counter()
            while True:
                records, wall = timed_sweep(specs[len(sweeps) % len(specs)])
                queue.put("sweep")
                sweeps.append((records, wall))
                elapsed = time.perf_counter() - begin
                if len(sweeps) > len(specs) and elapsed + wall > seconds:
                    break
    finally:
        queue.put("stop")
        drain.join()

    failed_checks = reference_errors(workload, seed)
    if len(outputs) != len(sweeps):
        failed_checks.append("outputs:sweeps")
    lead_margins = [sorted(m for pid, m, _ in sent if pid == lead) for sent in outputs]
    per_row = len(specs[0].snr_db)
    bad_outputs = failures = 0
    for i, ((records, _), sent) in enumerate(zip(sweeps, outputs)):
        first = i % len(specs)
        spec = specs[first]
        failed_checks += count_errors(spec, records)
        if deterministic(records) != deterministic(sweeps[first][0]):
            failed_checks.append(f"repeat:{i}:records")
        if lead_margins[i] != lead_margins[first]:
            failed_checks.append(f"repeat:{i}:margins")
        recorded = sum(pid in MARGIN_PRECODERS for pid, _, _ in sent)
        solved = sum(
            channel_uses(spec) - r.failures for r in records[::per_row] if r.precoder in MARGIN_PRECODERS
        )
        if recorded != solved:
            failed_checks.append(f"outputs:{i}:recorded")
        bad_outputs += sum(not ok for _, _, ok in sent)
        failures += sum(r.failures for r in records[::per_row])
    margins = [m for sent in lead_margins[: len(specs)] for m in sent]
    if not margins:
        failed_checks.append("outputs:lead_margins")
    attempted = channel_uses(specs[0]) * len(specs[0].precoder_ids) * len(sweeps)

    rates = [channel_uses(specs[0]) / wall for _, wall in sweeps]
    metrics = {
        "channel_uses_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb.parent": (peak_rss_mb(resource.RUSAGE_SELF), "MB"),
        "peak_rss_mb.workers": (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
        "margin_mean.lead": (float(np.mean(margins)) if margins else 0.0, "amplitude"),
    }
    return {
        "correct": not failed_checks and bad_outputs == 0,
        "attempted": attempted,
        "failed": failures + bad_outputs + len(failed_checks),
        "failed_checks": failed_checks,
        "metrics": metrics,
        "sweeps": [{"wall_s": wall, "channel_uses_per_s": rate} for (_, wall), rate in zip(sweeps, rates)],
        "ber": {f"{r.precoder}@{r.snr_db:g}": r.ber for r in sweeps[0][0]},
    }


def _quantile(values, q):
    return float(np.quantile(values, q)) if len(values) else 0.0


def per_layer(workload: str, seed: int, out_dir: Path) -> dict:
    """Untraced sweeps at 2 and 1 workers, then the traced sweep at 1
    worker; all three must give the same deterministic fields."""
    spec2 = make_spec(workload, seed, WORKERS)
    spec1 = dataclasses.replace(spec2, n_workers=1)
    records2, wall2 = timed_sweep(spec2)
    records1, wall1 = timed_sweep(spec1)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced, wall_traced = timed_sweep(spec1, tracer.wrap(tracing.ROOT, "harness", run_experiment))
    out_dir.mkdir(exist_ok=True)
    tracer.write_csv(out_dir / f"spans-{workload}-seed{seed}.csv")

    failed_checks = count_errors(spec2, records2) + count_errors(spec1, records1)
    failed_checks += count_errors(spec1, traced)
    if deterministic(records1) != deterministic(records2):
        failed_checks.append("workers:1_vs_2")
    if deterministic(traced) != deterministic(records1):
        failed_checks.append("traced_vs_untraced")

    ids = spec1.precoder_ids
    runs_falm = "falm" in ids
    selfs = tracer.self_times()
    root = tracer.durations(tracing.ROOT)
    total = root[0] if len(root) == 1 else float("nan")
    if not abs(sum(selfs.values()) - total) <= 1e-6 * total:
        failed_checks.append("spans:self_times_cover_sweep")
    expected = {"channel", "constellation", "harness"}
    if runs_falm:
        expected |= {"falm", "precoding"}
    if "msm" in ids:
        expected |= {"baselines", "precoding"}
    if {"zf", "zf-ob"} & set(ids):
        expected.add("baselines")
    for layer in tracing.LAYERS:
        if (selfs[layer] > 0) != (layer in expected):
            failed_checks.append(f"spans:{layer}")
    uses = channel_uses(spec1)
    if runs_falm and len(tracer.margins["falm"]) != uses:
        failed_checks.append("spans:falm_solves")
    if "msm" in ids and len(tracer.margins["msm"]) != uses:
        failed_checks.append("spans:msm_solves")

    cap = spec1.solver.apg_max_iters
    apg = tracer.apg_calls
    solves = tracer.durations("falm.falm_solve")
    falm_margins = tracer.margins["falm"]
    ms, us = 1e3, 1e6
    metrics = {
        "falm.us_per_apg_iter": (us * sum(solves) / sum(apg) if apg else 0.0, "us"),
        "falm.solve_ms.p50": (ms * _quantile(solves, 0.5), "ms"),
        "falm.solve_ms.p90": (ms * _quantile(solves, 0.9), "ms"),
        "falm.solves": (len(solves), "count"),
        "falm.apg_iters_per_solve": (float(np.mean(tracer.apg_per_solve)) if apg else 0.0, "count"),
        "falm.apg_calls_at_cap_share": (sum(n == cap for n in apg) / len(apg) if apg else 0.0, "share"),
        "falm.margin_mean": (float(np.mean(falm_margins)) if falm_margins else 0.0, "amplitude"),
        "falm.margin_negative_share": (
            float(np.mean(np.less(falm_margins, 0))) if falm_margins else 0.0,
            "share",
        ),
        "falm.form_matrix_bytes": (
            2 * spec1.n_users * 2 * spec1.n_antennas * 8 if runs_falm else 0,
            "bytes",
        ),
        "baselines.msm_ms.p50": (ms * _quantile(tracer.durations("baselines.msm"), 0.5), "ms"),
        "baselines.msm_ms.p90": (ms * _quantile(tracer.durations("baselines.msm"), 0.9), "ms"),
        "baselines.msm.margin_mean": (
            float(np.mean(tracer.margins["msm"])) if tracer.margins["msm"] else 0.0,
            "amplitude",
        ),
        "baselines.zf_ob_us.p50": (us * _quantile(tracer.durations("baselines.zf-ob"), 0.5), "us"),
        "baselines.zf_us.p50": (us * _quantile(tracer.durations("baselines.zf"), 0.5), "us"),
        "channel.draw_us.p50": (us * _quantile(tracer.durations("channel.paired_streams"), 0.5), "us"),
        "channel.draws": (len(tracer.durations("channel.paired_streams")), "count"),
        "precoding.build_instance_us.p50": (
            us * _quantile(tracer.durations("precoding.build_instance"), 0.5),
            "us",
        ),
        "precoding.build_instances": (len(tracer.durations("precoding.build_instance")), "count"),
        "constellation.decide_us.p50": (us * _quantile(tracer.durations("constellation.decide"), 0.5), "us"),
        "constellation.decide_calls": (len(tracer.durations("constellation.decide")), "count"),
        "harness.worker_busy_share": (
            sum(r.wall_time_s for r in records2[:: len(spec2.snr_db)]) / (WORKERS * wall2),
            "share",
        ),
        "harness.channel_uses_per_s.untraced_1w": (uses / wall1, "1/s"),
        "harness.channel_uses_per_s.traced_1w": (uses / wall_traced, "1/s"),
        "harness.trace_overhead_share": (wall_traced / wall1 - 1.0, "share"),
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_share"] = (selfs[layer] / total, "share")
    attempted = 3 * uses * len(ids)
    failures = sum(r.failures for rs in (records2, records1, traced) for r in rs[:: len(spec1.snr_db)])
    return {
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": failures + len(failed_checks),
        "failed_checks": failed_checks,
        "metrics": metrics,
        "sweeps": [
            {"workers": 2, "wall_s": wall2},
            {"workers": 1, "wall_s": wall1},
            {"workers": 1, "traced": True, "wall_s": wall_traced, "spans": len(tracer.spans)},
        ],
    }


def probe(workload: str) -> None:
    """Set-up as a user pays it before the first solve: the package import
    above, then spec validation, precoder resolution and a started pool."""
    spec = make_spec(workload, 0, WORKERS)
    for pid in spec.precoder_ids:
        get_precoder(pid, spec.solver)
    # The default start method, as run_experiment's own pool uses.
    with ProcessPoolExecutor(max_workers=spec.n_workers) as pool:
        for future in [pool.submit(os.getpid) for _ in range(spec.n_workers)]:
            future.result()
        print(f"ready {time.time()!r}", flush=True)


def provenance(workload: str, seed: int) -> dict:
    commit = "unknown"  # a source checkout without .git has no commit
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        commit = git.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    version = "unknown"
    for line in (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines():
        if line.startswith("version"):
            version = line.split("=", 1)[1].strip().strip('"')
            break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "package_version": version,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_per_worker": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": WORKERS,
        "workload": workload,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="time set-up only")
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.workload)
        return 0
    if args.trace:
        report = per_layer(args.workload, args.seed, ROOT / ".perfbench")
    else:
        report = end_to_end(args.workload, args.seed, args.seconds)
    report["provenance"] = provenance(args.workload, args.seed)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
