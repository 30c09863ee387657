"""MPSK constellations with Gray bit labels, hard-decision detection, and the
classical SEP union bound."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

# Nudge applied before flooring so that a phase sitting exactly on a sector
# edge (or a float ulp below it) is assigned to the higher-index sector.
# The decision sectors are half-open: [2*pi*n/M - pi/M, 2*pi*n/M + pi/M).
_BOUNDARY_GUARD = 1e-12


def q_function(x):
    """Gaussian tail probability Q(x) = P(Z > x) for Z ~ N(0, 1)."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def sep_union_bound(alpha: float, sigma: float, constellation: MpskConstellation) -> float:
    """Union bound on the symbol-error probability under ``constellation``
    of a reception with safety margin ``alpha`` in circular complex Gaussian
    noise of variance ``sigma**2``: min(1, 2*Q(alpha*sqrt(2)/sigma * sin(pi/M))).

    ``alpha`` may be negative; the bound then exceeds 1 before clipping.
    """
    # Written so that NaN fails too.
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    arg = alpha * np.sqrt(2.0) / sigma * np.sin(np.pi / constellation.order)
    return float(min(1.0, 2.0 * q_function(arg)))


@dataclass(frozen=True)
class MpskConstellation:
    """M-ary PSK symbol set: points exp(2j*pi*n/M) for n = 0..M-1.

    The order must be a power of two so symbols carry an integer number of
    bits. Symbol n carries the binary-reflected Gray label n ^ (n >> 1), so
    adjacent indices (mod M) differ in exactly one bit and a nearest-neighbour
    symbol error flips a single bit; ``bit_distances[a, b]`` is the Hamming
    distance between the labels of a and b. Instances are immutable and safe
    to share across workers. ``cot_half_sector`` is cot(pi/M), the slope of
    the decision-sector edges in every safety margin; it is exactly 0.0 at
    M = 2 (the BPSK limit, avoiding the pole).
    """

    order: int
    points: np.ndarray = field(init=False, repr=False, compare=False)
    cot_half_sector: float = field(init=False, repr=False, compare=False)
    bit_distances: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.order, (int, np.integer)):
            raise ValueError(f"order must be an integer, got {self.order!r}")
        if self.order < 2 or self.order & (self.order - 1):
            raise ValueError(f"order must be a power of two >= 2, got {self.order}")
        n = np.arange(self.order)
        pts = np.exp(2j * np.pi * n / self.order)
        gray = n ^ (n >> 1)
        labels = (gray[:, None] >> np.arange(self.bits_per_symbol)) & 1
        distances = (labels[:, None, :] != labels[None, :, :]).sum(axis=2)
        for name, table in (("points", pts), ("bit_distances", distances)):
            table.flags.writeable = False
            object.__setattr__(self, name, table)
        cot = 0.0 if self.order == 2 else 1.0 / np.tan(np.pi / self.order)
        object.__setattr__(self, "cot_half_sector", cot)

    @property
    def bits_per_symbol(self) -> int:
        return int(self.order).bit_length() - 1  # a numpy integer has no bit_length

    def decide(self, y):
        """Hard MPSK decision: index of the sector containing the phase of y.

        Sectors are half-open, [2*pi*n/M - pi/M, 2*pi*n/M + pi/M), so a phase
        exactly on an edge goes to the higher-index sector. y = 0 decodes to
        index 0 (documented tie-break for a measure-zero event).
        Accepts scalars or arrays; returns int or an int array.
        """
        arr = np.asarray(y)
        idx = np.floor(
            self.order * np.angle(arr) / (2.0 * np.pi) + 0.5 + _BOUNDARY_GUARD
        ).astype(np.int64) % self.order
        if arr.ndim == 0:
            return int(idx)
        return idx
