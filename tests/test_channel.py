"""Tests for the system parameters and the seeded channel, symbol and noise
draws."""

import numpy as np
import pytest

from onebit_precoding import ExperimentSpec, draw_channel, draw_symbols, substream
from onebit_precoding.channel import draw_unit_noise


def make_params(snr_db=0.0, **overrides):
    """SystemParams at one SNR point, built the only way the package builds
    them: through ExperimentSpec.system_params."""
    base = dict(
        n_antennas=100, n_users=50, block_length=1, total_power=1.0, order=4,
        snr_db=(0.0,), precoder_ids=("zf-ob",), n_realizations=1, base_seed=0,
    )
    base.update(overrides)
    return ExperimentSpec(**base).system_params(snr_db)


class TestSystemParams:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_users", 0),
            ("noise_var", np.inf),
            ("noise_var", np.nan),
        ],
    )
    def test_rejects_non_positive(self, field, value):
        """A bad count fails at the spec. A noise variance outside (0, inf)
        fails at the SNR point that gives it, sigma^2 = P / 10**(snr/10):
        inf at -inf dB, NaN at a NaN SNR."""
        if field == "noise_var":
            snr_db = -np.inf if value == np.inf else np.nan
            with pytest.raises(ValueError, match="noise_var must be finite and positive"):
                make_params(snr_db=snr_db)
        else:
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                make_params(**{field: value})


class TestSubstream:
    def test_same_path_same_draws(self):
        a = substream(42, 1, 2).standard_normal(8)
        b = substream(42, 1, 2).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = substream(42, 0, 1).standard_normal(8)
        b = substream(42, 0, 2).standard_normal(8)
        assert not np.array_equal(a, b)


class TestDrawChannel:
    def test_deterministic(self):
        h1 = draw_channel(50, 100, substream(5, 0))
        h2 = draw_channel(50, 100, substream(5, 0))
        np.testing.assert_array_equal(h1, h2)

    def test_unit_variance_and_zero_mean(self):
        # 100*50 entries x 200 draws = 1e6 samples
        entries = np.concatenate(
            [draw_channel(50, 100, substream(0, k)).ravel() for k in range(200)]
        )
        assert entries.size == 1_000_000
        assert abs(entries.mean()) < 0.005
        assert abs(np.mean(np.abs(entries) ** 2) - 1.0) < 0.01
        # circularity: real and imaginary rails carry half the power each
        assert abs(np.var(entries.real) - 0.5) < 0.01
        assert abs(np.var(entries.imag) - 0.5) < 0.01

    def test_shape(self):
        assert draw_channel(3, 16, np.random.default_rng(1)).shape == (3, 16)

    def test_channel_then_symbols_on_one_generator(self):
        """The channel and then the symbols come from one stream exactly as
        the hand-written draw took them."""
        rng = substream(4, 0)
        H = draw_channel(3, 5, rng)
        symbols = draw_symbols(8, 3, rng)
        ref = substream(4, 0)
        H_ref = (ref.standard_normal((3, 5)) + 1j * ref.standard_normal((3, 5))) / np.sqrt(2.0)
        np.testing.assert_array_equal(H, H_ref)
        np.testing.assert_array_equal(symbols, ref.integers(0, 8, size=3))


class TestDrawNoise:
    def test_deterministic(self):
        n1 = draw_unit_noise(32, substream(9, 2))
        n2 = draw_unit_noise(32, substream(9, 2))
        np.testing.assert_array_equal(n1, n2)


class TestSymbols:
    def test_range_and_determinism(self):
        sym = draw_symbols(8, 1000, substream(3, 1))
        assert sym.min() >= 0 and sym.max() < 8
        np.testing.assert_array_equal(sym, draw_symbols(8, 1000, substream(3, 1)))
