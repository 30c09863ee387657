"""Complex-to-real problem data and the safety-margin machinery shared by the
FALM solver and the baseline precoders.

For user i with channel row h_i and intended symbol s_i, the safety margin is

    alpha_i = Re{h_i^T x s_i*} - |Im{h_i^T x s_i*}| * cot(pi/M),

positive exactly when the noiseless reception lies inside the correct MPSK
decision sector. Stacking x into the real vector x_real = [Re x; Im x], each
margin becomes the negated maximum of two linear forms,

    alpha_i = -max(u_i . x_real, w_i . x_real),

with u_i = -b_i + r_i and w_i = -b_i - r_i built from b_i = [Re g_i, -Im g_i]
and r_i = cot(pi/M) [Im g_i, Re g_i], where g_i = s_i* h_i^T. The one-bit
transmit alphabet pins every component of x_real to +/- sqrt(P/2N).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

try:  # private scipy API, on purpose: the HiGHS binding that scipy.optimize ships
    from scipy.optimize._highspy._core import HighsModelStatus, _Highs
except ImportError as error:
    raise ImportError("onebit_precoding needs scipy >= 1.17 for scipy.optimize._highspy._core") from error

from .constellation import MpskConstellation

# Largest N that optimal_onebit_margin enumerates; memory grows as 4^N.
MAX_ENUMERATED_ANTENNAS = 8


def one_bit_amplitude(power: float, n_antennas: int) -> float:
    """Per-rail amplitude sqrt(P/2N) of the one-bit transmit alphabet, and
    the one check, for instances and vectors alike, of the power P."""
    if not 0 < power < np.inf:  # written so that NaN fails too
        raise ValueError(f"power must be positive and finite, got {power}")
    if n_antennas < 1:
        raise ValueError(f"the one-bit alphabet needs N >= 1 antennas, got N={n_antennas}")
    return float(np.sqrt(power / (2.0 * n_antennas)))


def to_real(x: np.ndarray) -> np.ndarray:
    """Stack a complex N-vector into [Re x; Im x] of length 2N."""
    x = np.asarray(x)
    return np.concatenate([x.real, x.imag])


def quantize_one_bit(x_real: np.ndarray, power: float) -> OneBitVector:
    """Snap a real 2N-vector onto the one-bit alphabet {+/- sqrt(P/2N)}^2N,
    ties to +. The one constructor of OneBitVector in the package. A NaN or
    infinite entry raises ValueError: it has no sign to snap to."""
    x_real = np.asarray(x_real, dtype=float)
    if not np.isfinite(x_real).all():
        raise ValueError("x_real must be finite, got a NaN or infinite entry")
    a = one_bit_amplitude(power, x_real.size // 2)
    return OneBitVector(np.where(x_real >= 0, a, -a), power)


@dataclass(frozen=True)
class OneBitVector:
    """A transmit vector with every rail at +/- sqrt(P/2N), so |x|^2 = P."""

    x_real: np.ndarray
    power: float

    def __post_init__(self):
        x = np.array(self.x_real, dtype=float)  # own copy, frozen below
        if x.ndim != 1 or x.shape[0] % 2 != 0:
            raise ValueError(f"x_real must be a flat 2N vector, got shape {x.shape}")
        a = one_bit_amplitude(self.power, x.shape[0] // 2)
        if not np.all(np.abs(np.abs(x) - a) <= 1e-12 * max(a, 1.0)):
            raise ValueError("entries must all have magnitude sqrt(P/2N)")
        x.flags.writeable = False
        object.__setattr__(self, "x_real", x)

    def to_complex(self) -> np.ndarray:
        """The complex N-vector, inverse of to_real."""
        n = self.x_real.shape[0] // 2
        return self.x_real[:n] + 1j * self.x_real[n:]


@dataclass(frozen=True)
class PrecodingInstance:
    """Real-valued problem data for one symbol time.

    ``forms`` is the 2K x 2N matrix [u; w] of margin forms, u_i in row i and
    w_i in row K + i, with min_i alpha_i = -max over its rows of
    forms_r . x_real. Read-only, so one instance may be shared across
    concurrent solves.
    """

    forms: np.ndarray
    power: float

    def __post_init__(self):
        forms = np.array(self.forms, dtype=float)  # own copy, frozen below
        # K, N >= 1: no margin without a user, no amplitude sqrt(P/2N) without an antenna
        if forms.ndim != 2 or forms.size == 0 or forms.shape[0] % 2 != 0 or forms.shape[1] % 2 != 0:
            raise ValueError(f"forms must be a 2K x 2N array, got shape {forms.shape}")
        if not np.isfinite(forms).all():
            raise ValueError("forms must be finite, got a NaN or infinite entry")
        one_bit_amplitude(self.power, forms.shape[1] // 2)  # the power check
        forms.flags.writeable = False
        object.__setattr__(self, "forms", forms)

    @property
    def n_users(self) -> int:
        return self.forms.shape[0] // 2

    @property
    def n_antennas(self) -> int:
        return self.forms.shape[1] // 2

    @property
    def amplitude(self) -> float:
        return one_bit_amplitude(self.power, self.n_antennas)

    @cached_property
    def spectral_norm(self) -> float:
        return float(np.linalg.norm(self.forms, 2))


def check_inputs(H, symbols, constellation: MpskConstellation) -> tuple:
    """(H, symbols) as arrays, checked as every precoder needs: a finite K x N
    channel and one integer index in [0, M) into ``constellation`` per user."""
    H = np.asarray(H)
    if H.ndim != 2:
        raise ValueError(f"H must be a K x N channel matrix, got shape {H.shape}")
    if not np.isfinite(H).all():
        raise ValueError("H must be finite, got a NaN or infinite entry")
    symbols = np.asarray(symbols)
    if symbols.shape != (H.shape[0],):
        raise ValueError(f"symbols shape {symbols.shape} does not match {H.shape[0]} users")
    if symbols.dtype.kind not in "iu":  # 0.5 or True is no constellation index
        raise ValueError(f"symbol indices must be integers, got dtype {symbols.dtype}")
    if not np.all((0 <= symbols) & (symbols < constellation.order)):
        raise ValueError(f"symbol indices must lie in [0, {constellation.order}), got {symbols}")
    return H, symbols


def build_instance(H: np.ndarray, symbols, constellation: MpskConstellation, power: float) -> PrecodingInstance:
    """Build the per-symbol-time margin forms from a precoder's four inputs:
    a channel, one index into ``constellation`` per user, and the power P.
    For M = 2 the rotation term vanishes (cot = 0) and u = w = -b."""
    H, symbols = check_inputs(H, symbols, constellation)
    g = np.conj(constellation.points[symbols])[:, None] * H  # row i is s_i* h_i^T
    b = np.concatenate([g.real, -g.imag], axis=1)
    r = constellation.cot_half_sector * np.concatenate([g.imag, g.real], axis=1)
    return PrecodingInstance(np.vstack([-b + r, -b - r]), power)


def relaxed_lp(instance: PrecodingInstance) -> tuple:
    """(x, t*) of the box relaxation of the max-min-margin design (Jedda,
    Mezghani, Nossek & Swindlehurst, SPAWC 2017): over [x; t], maximize t
    subject to every margin form + t <= 0 and |x_j| <= sqrt(P/2N). t* bounds
    every one-bit margin from above. The LP goes straight to scipy's HiGHS
    binding as 2K empty rows and one call that adds the dense column-major
    [forms | 1], with presolve off: it reduces nothing on these dense LPs.
    A status other than optimal raises RuntimeError with HiGHS's text."""
    n_rows, n2 = instance.forms.shape
    cost = np.zeros(n2 + 1)
    cost[n2] = -1.0
    upper = np.full(n2 + 1, instance.amplitude)
    upper[n2] = np.inf
    values = np.hstack([instance.forms, np.ones((n_rows, 1))]).ravel(order="F")
    no_entries = np.empty(0, dtype=np.int32)
    highs = _Highs()
    highs.setOptionValue("presolve", "off")
    highs.setOptionValue("output_flag", False)
    highs.addRows(n_rows, np.full(n_rows, -np.inf), np.zeros(n_rows), 0, no_entries, no_entries, np.empty(0))
    starts = np.arange(0, values.size, n_rows, dtype=np.int32)
    rows = np.tile(np.arange(n_rows, dtype=np.int32), n2 + 1)
    highs.addCols(n2 + 1, cost, -upper, upper, values.size, starts, rows, values)
    highs.run()
    status = highs.getModelStatus()
    if status != HighsModelStatus.kOptimal:
        raise RuntimeError(f"box-relaxed LP solve failed: {highs.modelStatusToString(status)}")
    return np.array(highs.getSolution().col_value[:n2]), -highs.getObjectiveValue()


def point_margin(z, constellation: MpskConstellation):
    """Safety margin Re z - |Im z| cot(pi/M) of a noiseless point z decoded
    against the symbol 1 of ``constellation``; elementwise on arrays."""
    z = np.asarray(z)
    return z.real - np.abs(z.imag) * constellation.cot_half_sector


def min_margin(instance: PrecodingInstance, x_real: np.ndarray) -> float:
    """Worst-user safety margin, -max over all 2K margin forms."""
    return float(-np.max(instance.forms @ np.asarray(x_real, dtype=float)))


def optimal_onebit_margin(instance: PrecodingInstance) -> float:
    """Exhaustive optimum: the best worst-user margin over all 2^(2N) one-bit
    transmit vectors, scored in one matrix product. Meant for tiny
    instances, N <= MAX_ENUMERATED_ANTENNAS."""
    n2 = 2 * instance.n_antennas
    if instance.n_antennas > MAX_ENUMERATED_ANTENNAS:
        raise ValueError(
            f"exhaustive search needs N <= {MAX_ENUMERATED_ANTENNAS}, got {instance.n_antennas}"
        )
    bits = (np.arange(1 << n2)[:, None] >> np.arange(n2)) & 1
    candidates = instance.amplitude * (2.0 * bits - 1.0)
    return float(-np.min(np.max(candidates @ instance.forms.T, axis=1)))
