"""The channel, symbol and noise draws of the downlink y_i = h_i^T x + eta_i
(plain transpose, no conjugation). Each draw takes a numpy Generator;
``substream(seed, *path)`` gives the seeded one."""

from __future__ import annotations

import numpy as np

# Substream kinds: keeping channel, symbol, and noise draws on disjoint
# counter-based substreams means adding trials never perturbs earlier draws.
CHANNEL_STREAM = 0
SYMBOL_STREAM = 1
NOISE_STREAM = 2


def substream(seed: int, *path: int) -> np.random.Generator:
    """The generator of substream ``path`` under base ``seed``: identical
    (seed, path) pairs give identical draws, distinct paths independent ones."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def draw_channel(n_users: int, n_antennas: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a K x N channel with i.i.d. CN(0, 1) entries."""
    return draw_unit_noise((n_users, n_antennas), rng)


def draw_unit_noise(shape, rng: np.random.Generator) -> np.ndarray:
    """CN(0, 1) samples of ``shape``, the package's one Gaussian draw; scaled
    by sigma downstream so the same stream serves every SNR point."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def draw_symbols(order: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random symbol indices in [0, order)."""
    return rng.integers(0, order, size=count)
