"""The benchmark's own checks, on sweeps small enough for a test run:

    python3 -m pytest perfbench
"""

import dataclasses

import session
import tracing
from onebit_precoding import SolverConfig, run_experiment

# A no-falm-shaped spec: MSM, ZF-OB and ZF over the 13-point SNR grid.
SMALL = dict(n_antennas=16, n_users=4, block_length=3, n_realizations=4)


def small_spec(n_workers, precoder_ids=("msm", "zf-ob", "zf"), **overrides):
    spec = session.make_spec("no-falm", 11, n_workers)
    return dataclasses.replace(spec, precoder_ids=precoder_ids, **{**SMALL, **overrides})


def test_one_and_two_workers_give_identical_deterministic_fields():
    one = run_experiment(small_spec(1))
    two = run_experiment(small_spec(2))
    assert session.deterministic(one) == session.deterministic(two)
    assert session.count_errors(small_spec(1), one) == []


def test_harness_counts_match_independent_reference():
    assert session.reference_errors("no-falm", 5) == []


def test_layer_self_times_account_for_the_traced_sweep():
    spec = small_spec(
        1,
        precoder_ids=("falm", "msm", "zf-ob", "zf"),
        n_realizations=1,
        block_length=2,
        solver=SolverConfig(apg_max_iters=20),
    )
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        records = tracer.wrap(tracing.ROOT, "harness", run_experiment)(spec)
    assert session.deterministic(records) == session.deterministic(run_experiment(spec))
    selfs = tracer.self_times()
    (total,) = tracer.durations(tracing.ROOT)
    assert abs(sum(selfs.values()) - total) <= 1e-9 * total
    assert all(selfs[layer] > 0 for layer in tracing.LAYERS)
    assert len(tracer.apg_per_solve) == len(tracer.margins["falm"]) == 2
    assert len(tracer.apg_calls) == 2 * 5 and max(tracer.apg_calls) <= 20
    assert len(tracer.durations("constellation.decide")) == 2 * 4 * len(spec.snr_db)
