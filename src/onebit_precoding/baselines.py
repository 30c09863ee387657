"""Benchmark precoders: infinite-resolution zero forcing, its one-bit
quantization, and the LP-relaxation maximum-safety-margin (MSM) design,
plus the string-keyed precoder registry used by the harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .constellation import MpskConstellation
from .falm import SolverConfig, falm_solve
from .precoding import (
    OneBitVector,
    PrecodingInstance,
    build_instance,
    min_margin,
    quantize_one_bit,
    to_complex,
    to_real,
)


def zf_precode(H: np.ndarray, symbols, constellation: MpskConstellation, power: float) -> np.ndarray:
    """Zero-forcing transmit vector via the minimum-norm right inverse,
    x = c * H^H (H H^H)^-1 s, scaled so |x|^2 = P. Every user then receives
    exactly c * s_i before noise. Requires K <= N with H full row rank;
    K > N raises ValueError, since H H^H is then singular."""
    H = np.asarray(H)
    n_users, n_antennas = H.shape
    if n_users > n_antennas:
        raise ValueError(f"zero forcing needs K <= N, got K={n_users} > N={n_antennas}")
    s = constellation.points[np.asarray(symbols)]
    x = H.conj().T @ np.linalg.solve(H @ H.conj().T, s)
    return np.sqrt(power) / np.linalg.norm(x) * x


def zf_onebit(H: np.ndarray, symbols, constellation: MpskConstellation, power: float) -> np.ndarray:
    """Zero forcing followed by componentwise one-bit quantization of the
    real and imaginary rails (ties to +)."""
    x = zf_precode(H, symbols, constellation, power)
    return to_complex(quantize_one_bit(to_real(x), power))


def msm_lp_problem(instance: PrecodingInstance) -> dict:
    """Box relaxation of the max-min-margin design as keyword arguments of
    ``scipy.optimize.milp`` (no integrality, so an LP): over [x; t],
    maximize t (minimize -t) subject to every margin form + t <= 0 and
    |x_j| <= sqrt(P/2N)."""
    a = instance.amplitude
    n2 = 2 * instance.n_antennas
    forms = instance.forms
    objective = np.zeros(n2 + 1)
    objective[-1] = -1.0
    upper = np.full(n2 + 1, a)
    upper[n2] = np.inf
    return dict(
        c=objective,
        constraints=LinearConstraint(np.hstack([forms, np.ones((forms.shape[0], 1))]), -np.inf, 0.0),
        bounds=Bounds(-upper, upper),
    )


@dataclass(frozen=True)
class MsmReport:
    """x_onebit is the sign-quantized relaxed solution; relaxed_optimum is
    the LP value t* (an upper bound on any one-bit margin); margin is the
    worst-user margin of the quantized vector."""

    x_onebit: OneBitVector
    relaxed_optimum: float
    margin: float


def msm_precode(instance: PrecodingInstance) -> MsmReport:
    """Maximum-safety-margin design: solve the box-relaxed LP, then quantize
    componentwise by sign (ties to +). The LP goes through ``milp``, whose
    per-call input checks cost less than ``linprog``'s, with HiGHS's presolve
    off: it reduces nothing on these dense LPs and took a fifth to a quarter
    of the solve time."""
    solution = milp(**msm_lp_problem(instance), options={"presolve": False})
    if solution.status != 0:
        raise RuntimeError(f"MSM LP solve failed: {solution.message}")
    n2 = 2 * instance.n_antennas
    x_q = quantize_one_bit(solution.x[:n2], instance.power)
    return MsmReport(
        x_onebit=OneBitVector(x_q, instance.power),
        relaxed_optimum=float(-solution.fun),
        margin=min_margin(instance, x_q),
    )


# --- precoder registry -----------------------------------------------------
#
# A precoder maps (H, symbol indices, constellation, power) to a complex
# transmit vector. "zf" is the only entry allowed off the one-bit alphabet.

Precoder = Callable[[np.ndarray, np.ndarray, MpskConstellation, float], np.ndarray]


def _msm_entry(config):
    def precode(H, symbols, constellation, power):
        instance = build_instance(H, symbols, constellation.order, power)
        return msm_precode(instance).x_onebit.to_complex()

    return precode


def _falm_entry(config):
    def precode(H, symbols, constellation, power):
        instance = build_instance(H, symbols, constellation.order, power)
        return falm_solve(instance, config).x_onebit.to_complex()

    return precode


_REGISTRY = {
    "zf": lambda config: zf_precode,
    "zf-ob": lambda config: zf_onebit,
    "msm": _msm_entry,
    "falm": _falm_entry,
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
