"""System parameters and the seeded channel, symbol and noise draws of the
downlink y_i = h_i^T x + eta_i (plain transpose, no conjugation)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Substream kinds: keeping channel, symbol, and noise draws on disjoint
# counter-based substreams means adding trials never perturbs earlier draws.
CHANNEL_STREAM = 0
SYMBOL_STREAM = 1
NOISE_STREAM = 2


@dataclass(frozen=True)
class SystemParams:
    """Downlink dimensions and powers: N antennas, K users, block length T,
    total transmit power P, and noise variance sigma^2."""

    n_antennas: int
    n_users: int
    block_length: int
    total_power: float
    noise_var: float

    def __post_init__(self):
        if self.n_antennas < 1:
            raise ValueError(f"n_antennas must be positive, got {self.n_antennas}")
        if self.n_users < 1:
            raise ValueError(f"n_users must be positive, got {self.n_users}")
        if self.block_length < 1:
            raise ValueError(f"block_length must be positive, got {self.block_length}")
        # Written so that NaN fails too.
        if not 0 < self.total_power < math.inf:
            raise ValueError(f"total_power must be finite and positive, got {self.total_power}")
        if not 0 < self.noise_var < math.inf:
            raise ValueError(f"noise_var must be finite and positive, got {self.noise_var}")


@dataclass(frozen=True)
class RngSeed:
    """A 64-bit base seed plus a counter path identifying one substream.

    Identical (seed, path) pairs always produce identical draws; distinct
    paths are statistically independent. Generators derived here are never
    shared between workers.
    """

    seed: int
    path: tuple = ()

    def child(self, *counters: int) -> "RngSeed":
        return RngSeed(self.seed, self.path + tuple(int(c) for c in counters))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=self.path)
        )


def _generator(seed) -> np.random.Generator:
    # A Generator passes through, so consecutive draws can share its stream.
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, RngSeed):
        return seed.generator()
    return RngSeed(int(seed)).generator()


def draw_channel(n_users: int, n_antennas: int, seed) -> np.ndarray:
    """Draw a K x N channel with i.i.d. CN(0, 1) entries (real and imaginary
    parts independent N(0, 1/2))."""
    rng = _generator(seed)
    shape = (n_users, n_antennas)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def draw_unit_noise(count: int, seed) -> np.ndarray:
    """CN(0, 1) samples; scaled by per-SNR sigma downstream so the same
    stream serves every SNR point."""
    rng = _generator(seed)
    return (rng.standard_normal(count) + 1j * rng.standard_normal(count)) / np.sqrt(2.0)


def draw_symbols(order: int, count: int, seed) -> np.ndarray:
    """Uniformly random symbol indices in [0, order)."""
    rng = _generator(seed)
    return rng.integers(0, order, size=count)
