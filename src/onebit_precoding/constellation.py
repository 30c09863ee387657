"""MPSK constellations, hard-decision detection, and the classical SEP union bound."""

from __future__ import annotations

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


def sep_union_bound(alpha: float, sigma: float, order: int) -> float:
    """Union bound on the MPSK symbol-error probability of a reception with
    safety margin ``alpha`` in circular complex Gaussian noise of variance
    ``sigma**2``: min(1, 2*Q(alpha*sqrt(2)/sigma * sin(pi/M))).

    ``alpha`` may be negative; the bound then exceeds 1 before clipping.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    arg = alpha * np.sqrt(2.0) / sigma * np.sin(np.pi / order)
    return float(min(1.0, 2.0 * q_function(arg)))


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class MpskConstellation:
    """M-ary PSK symbol set: points exp(2j*pi*n/M) for n = 0..M-1.

    The order must be a power of two so symbols carry an integer number of
    bits. Instances are immutable and safe to share across workers.
    """

    order: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.order < 2 or not _is_power_of_two(self.order):
            raise ValueError(f"order must be a power of two >= 2, got {self.order}")
        pts = np.exp(2j * np.pi * np.arange(self.order) / self.order)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1

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


@dataclass(frozen=True)
class GrayBitMap:
    """Binary-reflected Gray mapping between symbol indices and bit labels.

    Adjacent symbol indices (mod M) differ in exactly one bit, so a
    nearest-neighbour symbol error flips a single bit.
    """

    order: int
    _index_to_bits: np.ndarray = field(init=False, repr=False, compare=False)
    _bits_value_to_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.order < 2 or not _is_power_of_two(self.order):
            raise ValueError(f"order must be a power of two >= 2, got {self.order}")
        n = np.arange(self.order)
        gray = n ^ (n >> 1)
        bps = self.bits_per_symbol
        shifts = np.arange(bps - 1, -1, -1)
        table = (gray[:, None] >> shifts[None, :]) & 1  # (M, bps), MSB first
        inverse = np.empty(self.order, dtype=np.int64)
        inverse[gray] = n
        table.flags.writeable = False
        inverse.flags.writeable = False
        object.__setattr__(self, "_index_to_bits", table)
        object.__setattr__(self, "_bits_value_to_index", inverse)

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1

    def index_to_bits(self, index) -> np.ndarray:
        """Bit label (MSB first) of one symbol index or an array of them."""
        return self._index_to_bits[np.asarray(index)]

    def bits_to_index(self, bits) -> int:
        bits = np.asarray(bits)
        if bits.shape != (self.bits_per_symbol,):
            raise ValueError(
                f"expected {self.bits_per_symbol} bits, got shape {bits.shape}"
            )
        value = int(bits @ (1 << np.arange(self.bits_per_symbol - 1, -1, -1)))
        return int(self._bits_value_to_index[value])

    def bits_to_symbols(self, bits) -> np.ndarray:
        """Map a flat bit stream to symbol indices, bits_per_symbol at a time."""
        bits = np.asarray(bits)
        bps = self.bits_per_symbol
        if bits.ndim != 1 or bits.size % bps != 0:
            raise ValueError(
                f"bit-stream length {bits.size} is not a multiple of {bps}"
            )
        values = bits.reshape(-1, bps) @ (1 << np.arange(bps - 1, -1, -1))
        return self._bits_value_to_index[values]

    def symbols_to_bits(self, indices) -> np.ndarray:
        """Inverse of bits_to_symbols: flat bit stream of the given indices."""
        return self._index_to_bits[np.asarray(indices)].reshape(-1)

    def bit_distance_table(self) -> np.ndarray:
        """(M, M) table of Hamming distances between symbol bit labels."""
        diff = self._index_to_bits[:, None, :] != self._index_to_bits[None, :, :]
        return diff.sum(axis=2)
