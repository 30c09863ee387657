"""Benchmark precoders: infinite-resolution zero forcing, its one-bit
quantization, and the LP-relaxation maximum-safety-margin (MSM) design,
plus the string-keyed precoder registry used by the harness."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .constellation import MpskConstellation
from .falm import SolveReport, SolverConfig, falm_solve
from .precoding import (
    PrecodingInstance,
    build_instance,
    check_inputs,
    one_bit_amplitude,
    quantize_one_bit,
    to_real,
)


def zf_precode(H: np.ndarray, symbols, constellation: MpskConstellation, power: float) -> np.ndarray:
    """Zero-forcing transmit vector via the minimum-norm right inverse,
    x = c * H^H (H H^H)^-1 s, scaled so |x|^2 = P. Every user then receives
    exactly c * s_i before noise. Requires K <= N with H full row rank;
    K > N raises ValueError, since H H^H is then singular."""
    H, symbols = check_inputs(H, symbols, constellation)
    n_users, n_antennas = H.shape
    if n_users > n_antennas:
        raise ValueError(f"zero forcing needs K <= N, got K={n_users} > N={n_antennas}")
    one_bit_amplitude(power, n_antennas)  # the power check
    s = constellation.points[symbols]
    x = H.conj().T @ np.linalg.solve(H @ H.conj().T, s)
    return np.sqrt(power) / np.linalg.norm(x) * x


def zf_onebit(H: np.ndarray, symbols, constellation: MpskConstellation, power: float) -> np.ndarray:
    """Zero forcing followed by componentwise one-bit quantization of the
    real and imaginary rails (ties to +)."""
    x = zf_precode(H, symbols, constellation, power)
    return quantize_one_bit(to_real(x), power).to_complex()


def msm_precode(instance: PrecodingInstance) -> SolveReport:
    """Maximum-safety-margin design: the box-relaxed LP's maximizer,
    quantized componentwise by sign (ties to +). The LP comes from
    ``instance.relaxed``, so an instance FALM has already solved is not
    solved again. The maximizer is FALM's start, so the report is FALM's
    before its first outer iteration: no steps."""
    x, t_star = instance.relaxed
    return SolveReport.quantized(instance, x, [], t_star)


# --- precoder registry -----------------------------------------------------
#
# A precoder maps (H, symbol indices, constellation, power) to a complex
# transmit vector. "zf" is the only entry allowed off the one-bit alphabet.

Precoder = Callable[[np.ndarray, np.ndarray, MpskConstellation, float], np.ndarray]


# (H, symbols, constellation, power, instance) of the last instance a
# one-bit entry built, H and symbols copied; replaced whole, never changed.
_last_instance = None


def _one_bit_entry(solve):
    """The precoder that returns ``solve(instance)``'s one-bit vector. A call
    whose H and symbols equal the last built instance's in dtype and value,
    and whose constellation and power compare equal, reuses that checked
    instance and its box LP, so falm and msm solve one LP per symbol time.
    Any other call builds an instance, held until the process builds another."""

    def precode(H, symbols, constellation, power):
        global _last_instance
        last = _last_instance
        if last and (constellation, power) == last[2:4] and all(
            np.asarray(new).dtype == old.dtype and np.array_equal(new, old)
            for new, old in ((H, last[0]), (symbols, last[1]))
        ):
            instance = last[4]
        else:
            instance = build_instance(H, symbols, constellation, power)
            _last_instance = (np.array(H), np.array(symbols), constellation, power, instance)
        return solve(instance).x_onebit.to_complex()

    return precode


# Names are looked up per call, so a patch of build_instance or a solver reaches it.
_REGISTRY = {
    "zf": lambda config: zf_precode,
    "zf-ob": lambda config: zf_onebit,
    "msm": lambda config: _one_bit_entry(msm_precode),
    "falm": lambda config: _one_bit_entry(lambda instance: falm_solve(instance, config)),
}


def available_precoders() -> tuple:
    return tuple(sorted(_REGISTRY))


def get_precoder(precoder_id: str, solver_config: Optional[SolverConfig] = None) -> Precoder:
    try:
        factory = _REGISTRY[precoder_id]
    except KeyError:
        raise KeyError(
            f"unknown precoder {precoder_id!r}; available: {available_precoders()}"
        ) from None
    return factory(solver_config)
