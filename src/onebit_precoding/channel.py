"""System parameters and the channel, symbol and noise draws of the downlink
y_i = h_i^T x + eta_i (plain transpose, no conjugation). Each draw takes a
numpy Generator; ``substream(seed, *path)`` gives the seeded one."""

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
    """Downlink dimensions and powers: N antennas, K users, total transmit
    power P, and noise variance sigma^2."""

    n_antennas: int
    n_users: int
    total_power: float
    noise_var: float

    def __post_init__(self):
        if self.n_antennas < 1:
            raise ValueError(f"n_antennas must be positive, got {self.n_antennas}")
        if self.n_users < 1:
            raise ValueError(f"n_users must be positive, got {self.n_users}")
        # Written so that NaN fails too.
        if not 0 < self.total_power < math.inf:
            raise ValueError(f"total_power must be finite and positive, got {self.total_power}")
        if not 0 < self.noise_var < math.inf:
            raise ValueError(f"noise_var must be finite and positive, got {self.noise_var}")


def substream(seed: int, *path: int) -> np.random.Generator:
    """The generator of substream ``path`` under base ``seed``: identical
    (seed, path) pairs give identical draws, distinct paths independent ones."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def draw_channel(n_users: int, n_antennas: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a K x N channel with i.i.d. CN(0, 1) entries (real and imaginary
    parts independent N(0, 1/2))."""
    shape = (n_users, n_antennas)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def draw_unit_noise(count: int, rng: np.random.Generator) -> np.ndarray:
    """CN(0, 1) samples; scaled by per-SNR sigma downstream so the same
    stream serves every SNR point."""
    return (rng.standard_normal(count) + 1j * rng.standard_normal(count)) / np.sqrt(2.0)


def draw_symbols(order: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random symbol indices in [0, order)."""
    return rng.integers(0, order, size=count)
