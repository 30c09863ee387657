"""Monte-Carlo BER/SER experiment engine.

Per channel realization r and symbol time t, every precoder sees the same
channel, symbol, and noise draws (paired comparison); the noise stream is
unit-variance and scaled per SNR point, so one precoding solve serves the
whole SNR sweep. All draws are pure functions of (base seed, realization, t),
and error accumulation uses integer counts merged in realization order, so a
spec replays to identical results, parallel or not.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Iterator, NamedTuple

import numpy as np

from .baselines import get_precoder, symbol_time
from .channel import (
    CHANNEL_STREAM,
    NOISE_STREAM,
    SYMBOL_STREAM,
    draw_channel,
    draw_symbols,
    draw_unit_noise,
    substream,
)
from .constellation import MpskConstellation
from .falm import SolverConfig
from .precoding import one_bit_amplitude

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SystemParams:
    """One SNR point of an ExperimentSpec, as the spec checked it: N
    antennas, K users, total transmit power P and noise variance sigma^2."""

    n_antennas: int
    n_users: int
    total_power: float
    noise_var: float


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to replay one experiment byte-for-byte (except the
    timing column). SNR is P/sigma^2 in dB, matching 10*log10(P/sigma^2)."""

    n_antennas: int
    n_users: int
    block_length: int
    total_power: float
    order: int
    snr_db: tuple
    precoder_ids: tuple
    n_realizations: int
    base_seed: int
    n_workers: int = 1
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if len(self.snr_db) == 0:
            raise ValueError("snr_db must be non-empty")
        for name, least in (
            ("n_antennas", 1), ("n_users", 1), ("block_length", 1),
            ("n_realizations", 1), ("base_seed", 0), ("n_workers", 1),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if len(self.precoder_ids) == 0:
            raise ValueError("precoder_ids must be non-empty")
        MpskConstellation(self.order)  # order validation
        one_bit_amplitude(self.total_power, self.n_antennas)  # the power check
        for pid in self.precoder_ids:  # an unknown id raises KeyError
            get_precoder(pid, self.solver)
        for snr in self.snr_db:  # SNR validation
            self.system_params(snr)
        for name in ("precoder_ids", "snr_db"):  # a repeat would only copy a row
            values = getattr(self, name)
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{name} repeats {value}")

    def system_params(self, snr_db: float) -> SystemParams:
        """Parameters at one SNR point, with noise_var = P / 10**(snr/10).
        A point whose noise variance leaves the positive float range raises
        a ValueError naming the point."""
        snr_db = float(snr_db)  # Python float arithmetic, which raises on overflow
        try:
            noise_var = self.total_power / 10.0 ** (snr_db / 10.0)
        except OverflowError:  # 10**(snr/10) overflows, so noise_var underflows
            noise_var = 0.0
        except ZeroDivisionError:  # 10**(snr/10) underflows to 0
            noise_var = math.inf
        if not 0 < noise_var < math.inf:
            raise ValueError(
                f"SNR point {snr_db:g} dB is out of range: "
                f"noise_var must be finite and positive, got {noise_var}"
            )
        return SystemParams(
            n_antennas=self.n_antennas,
            n_users=self.n_users,
            total_power=self.total_power,
            noise_var=noise_var,
        )


@dataclass(frozen=True)
class BerRecord:
    """One (precoder, SNR) measurement row. wall_time_s is the cumulative
    precoding compute time of that precoder over the whole run (telemetry;
    the only field that varies between identical runs). falm and msm share
    each symbol time's instance and box LP, whose time goes to whichever of
    them runs first."""

    precoder: str
    snr_db: float
    ber: float
    ser: float
    worst_user_ber: float
    bit_count: int
    symbol_count: int
    realization_count: int
    failures: int
    wall_time_s: float

    def __post_init__(self):
        if np.isfinite(self.ber) and not 0.0 <= self.ber <= 1.0:
            raise ValueError(f"ber out of range: {self.ber}")
        if np.isfinite(self.ser) and not 0.0 <= self.ser <= 1.0:
            raise ValueError(f"ser out of range: {self.ser}")


def paired_streams(base_seed: int, realization: int, t: int, params: SystemParams, order: int):
    """The (channel, symbols, unit noise) triple seen by every precoder at
    one (realization, t). Counter-based substreams keep the three draws
    independent and stable when trials are added."""
    H = draw_channel(
        params.n_users, params.n_antennas, substream(base_seed, CHANNEL_STREAM, realization)
    )
    symbols = draw_symbols(
        order, params.n_users, substream(base_seed, SYMBOL_STREAM, realization, t)
    )
    noise = draw_unit_noise(params.n_users, substream(base_seed, NOISE_STREAM, realization, t))
    return H, symbols, noise


class RealizationCounts(NamedTuple):
    """One realization's error counts: bit and symbol errors shaped
    (precoders, snrs, users), and per precoder the symbol times solved, the
    symbol times failed and the seconds spent precoding (telemetry)."""

    bit_errors: np.ndarray
    symbol_errors: np.ndarray
    ok_instances: np.ndarray
    failures: np.ndarray
    seconds: np.ndarray


def _realization_counts(spec: ExperimentSpec, realization: int) -> RealizationCounts:
    """Integer error counts for one realization.

    Failed instances, a precoder exception or a non-finite reception, are
    logged once per precoder and kind, with the number of symbol times that
    failed so, the first of them and, for an exception, its first traceback.
    """
    constellation = MpskConstellation(spec.order)
    precoders = [get_precoder(pid, spec.solver) for pid in spec.precoder_ids]
    params = spec.system_params(spec.snr_db[0])
    sigmas = np.array([np.sqrt(spec.system_params(s).noise_var) for s in spec.snr_db])

    n_p, n_s, n_u = len(precoders), len(sigmas), spec.n_users
    bit_errors = np.zeros((n_p, n_s, n_u), dtype=np.int64)
    symbol_errors = np.zeros((n_p, n_s, n_u), dtype=np.int64)
    ok_instances = np.zeros(n_p, dtype=np.int64)
    failures = np.zeros(n_p, dtype=np.int64)
    seconds = np.zeros(n_p)
    # (precoder, kind) -> [first exception or None, its t, count]; the kind
    # is the exception's name or "non-finite reception"
    failed = {}

    for t in range(spec.block_length):
        H, symbols, unit_noise = paired_streams(
            spec.base_seed, realization, t, params, spec.order
        )
        # One instance, and one box LP solve, serves falm and msm at t.
        with symbol_time():
            for p, precoder in enumerate(precoders):
                start = time.perf_counter()
                try:
                    x = precoder(H, symbols, constellation, spec.total_power)
                except Exception as exc:
                    seconds[p] += time.perf_counter() - start
                    failed.setdefault((p, type(exc).__name__), [exc, t, 0])[2] += 1
                    continue
                seconds[p] += time.perf_counter() - start
                noiseless = H @ x
                if not np.isfinite(noiseless).all():
                    failed.setdefault((p, "non-finite reception"), [None, t, 0])[2] += 1
                    continue
                ok_instances[p] += 1
                # One row per SNR point.
                detected = constellation.decide(noiseless + sigmas[:, None] * unit_noise)
                symbol_errors[p] += detected != symbols
                bit_errors[p] += constellation.bit_distances[symbols, detected]
    for (p, kind), (exc, t, count) in failed.items():
        failures[p] += count
        logger.warning(
            "precoder %s failed with %s on %d of %d symbol times of realization %d "
            "(first at t %d); instances excluded",
            spec.precoder_ids[p],
            kind,
            count,
            spec.block_length,
            realization,
            t,
            exc_info=exc,
        )
    return RealizationCounts(bit_errors, symbol_errors, ok_instances, failures, seconds)


def realization_counts(spec: ExperimentSpec) -> Iterator[RealizationCounts]:
    """Yield each realization's counts in realization order, computed in
    this process with one worker and by a pool of up to ``spec.n_workers``
    processes with more. An exception that escapes a realization (precoder
    exceptions do not: they count as failures), or a failure of the pool
    itself, is re-raised as an error naming the realization."""
    count = partial(_realization_counts, spec)
    realizations = range(spec.n_realizations)
    # A pool may start all its workers at the first submit, so it gets no
    # more than there are realizations.
    workers = min(spec.n_workers, spec.n_realizations)
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        parts = (map if pool is None else pool.map)(count, realizations)
        for r in realizations:
            try:
                part = next(parts)
            except Exception as exc:
                raise RuntimeError(f"realization {r} failed: {exc!r}") from exc
            yield part


def error_rates(spec: ExperimentSpec, bit_errors, symbol_errors, ok_instances) -> tuple:
    """(ber, ser, worst_user_ber) from error counts shaped (..., precoders,
    snrs, users) and the symbol times solved, shaped (..., precoders): the
    errors over the bits or symbols of the solved symbol times, ber and ser
    pooled over users, and NaN where none were solved."""
    bps = MpskConstellation(spec.order).bits_per_symbol
    solved = np.asarray(ok_instances)[..., None]  # broadcast over the snrs
    with np.errstate(invalid="ignore", divide="ignore"):
        ber = bit_errors.sum(axis=-1) / (solved * spec.n_users * bps)
        ser = symbol_errors.sum(axis=-1) / (solved * spec.n_users)
        worst = bit_errors.max(axis=-1) / (solved * bps)
    return ber, ser, worst


def run_experiment(spec: ExperimentSpec) -> list:
    """Run the Monte-Carlo sweep and return one BerRecord per
    (precoder, SNR), in spec order: the realizations' counts merged in
    realization order."""
    bit_errors, symbol_errors, ok_instances, failures, seconds = reduce(
        lambda total, part: [t + x for t, x in zip(total, part)], realization_counts(spec)
    )
    ber, ser, worst = error_rates(spec, bit_errors, symbol_errors, ok_instances)
    bps = MpskConstellation(spec.order).bits_per_symbol
    return [
        BerRecord(
            precoder=pid,
            snr_db=float(snr),
            ber=float(ber[p, s]),
            ser=float(ser[p, s]),
            worst_user_ber=float(worst[p, s]),
            bit_count=int(ok_instances[p]) * spec.n_users * bps,
            symbol_count=int(ok_instances[p]) * spec.n_users,
            realization_count=spec.n_realizations,
            failures=int(failures[p]),
            wall_time_s=float(seconds[p]),
        )
        for p, pid in enumerate(spec.precoder_ids)
        for s, snr in enumerate(spec.snr_db)
    ]


class BerDifference(NamedTuple):
    """The paired comparison of two runs at one (precoder, SNR) point."""

    precoder: str
    snr_db: float
    delta_ber: float
    std_err: float
    flagged: bool


def compare_counts(spec: ExperimentSpec, counts_a, counts_b) -> list:
    """The paired Monte-Carlo gate between two runs of ``spec``'s draws,
    given each run's per-realization counts in realization order.

    The runs must share every draw, so they differ only in how the
    precoders compute; their realizations are paired. Per precoder and SNR,
    d_r is realization r's BER in run a less its BER in run b, so
    ``delta_ber`` is the mean of d_r (the pooled BER difference when no
    instance failed) and ``std_err`` the spread of d_r over sqrt(R).
    Symbol times within a realization share the channel, so this is the
    realization-level error, not a binomial one on pooled bits. A point is
    flagged when |delta_ber| > 3 std_err, or when either is undefined
    because a realization has no solved instance. Returns one BerDifference
    per (precoder, SNR), in spec order.
    """
    if len(counts_a) != len(counts_b) or len(counts_a) < 2:
        raise ValueError(
            f"need two runs of the same >= 2 realizations, got {len(counts_a)} and {len(counts_b)}"
        )

    def per_realization_ber(counts):
        stacked = [np.stack(field) for field in zip(*counts)]
        return error_rates(spec, *stacked[:3])[0]

    diff = per_realization_ber(counts_a) - per_realization_ber(counts_b)
    delta = diff.mean(axis=0)
    std_err = diff.std(axis=0, ddof=1) / math.sqrt(len(diff))
    return [
        BerDifference(
            pid, float(snr), float(delta[p, s]), float(std_err[p, s]),
            not abs(delta[p, s]) <= 3.0 * std_err[p, s],
        )
        for p, pid in enumerate(spec.precoder_ids)
        for s, snr in enumerate(spec.snr_db)
    ]
