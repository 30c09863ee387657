"""Tests for system parameters and the seeded channel, symbol and noise draws."""

import numpy as np
import pytest

from onebit_precoding import RngSeed, SystemParams, draw_channel, draw_symbols
from onebit_precoding.channel import draw_unit_noise


def make_params(**overrides):
    base = dict(
        n_antennas=100, n_users=50, block_length=4, total_power=1.0, noise_var=1.0
    )
    base.update(overrides)
    return SystemParams(**base)


class TestSystemParams:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_antennas", 0),
            ("n_users", 0),
            ("block_length", 0),
            ("total_power", 0.0),
            ("noise_var", -1.0),
            ("total_power", np.nan),
            ("total_power", np.inf),
            ("noise_var", np.nan),
            ("noise_var", np.inf),
            ("noise_var", -np.inf),
        ],
    )
    def test_rejects_non_positive(self, field, value):
        with pytest.raises(ValueError):
            make_params(**{field: value})


class TestRngSeed:
    def test_same_path_same_draws(self):
        a = RngSeed(42, (1, 2)).generator().standard_normal(8)
        b = RngSeed(42, (1, 2)).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = RngSeed(42).child(0, 1).generator().standard_normal(8)
        b = RngSeed(42).child(0, 2).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_child_extends_path(self):
        assert RngSeed(7, (1,)).child(2, 3).path == (1, 2, 3)


class TestDrawChannel:
    def test_deterministic(self):
        h1 = draw_channel(50, 100, RngSeed(5, (0,)))
        h2 = draw_channel(50, 100, RngSeed(5, (0,)))
        np.testing.assert_array_equal(h1, h2)

    def test_unit_variance_and_zero_mean(self):
        # 100*50 entries x 200 draws = 1e6 samples
        entries = np.concatenate(
            [draw_channel(50, 100, RngSeed(0, (k,))).ravel() for k in range(200)]
        )
        assert entries.size == 1_000_000
        assert abs(entries.mean()) < 0.005
        assert abs(np.mean(np.abs(entries) ** 2) - 1.0) < 0.01
        # circularity: real and imaginary rails carry half the power each
        assert abs(np.var(entries.real) - 0.5) < 0.01
        assert abs(np.var(entries.imag) - 0.5) < 0.01

    def test_shape(self):
        assert draw_channel(3, 16, 1).shape == (3, 16)

    def test_channel_then_symbols_on_one_generator(self):
        """A Generator passes through, so the channel and then the symbols
        come from one stream exactly as the hand-written draw took them."""
        rng = RngSeed(4).child(0).generator()
        H = draw_channel(3, 5, rng)
        symbols = draw_symbols(8, 3, rng)
        ref = RngSeed(4).child(0).generator()
        H_ref = (ref.standard_normal((3, 5)) + 1j * ref.standard_normal((3, 5))) / np.sqrt(2.0)
        np.testing.assert_array_equal(H, H_ref)
        np.testing.assert_array_equal(symbols, ref.integers(0, 8, size=3))


class TestDrawNoise:
    def test_deterministic(self):
        n1 = draw_unit_noise(32, RngSeed(9, (2,)))
        n2 = draw_unit_noise(32, RngSeed(9, (2,)))
        np.testing.assert_array_equal(n1, n2)


class TestSymbols:
    def test_range_and_determinism(self):
        sym = draw_symbols(8, 1000, RngSeed(3, (1,)))
        assert sym.min() >= 0 and sym.max() < 8
        np.testing.assert_array_equal(sym, draw_symbols(8, 1000, RngSeed(3, (1,))))
