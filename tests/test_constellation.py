"""Tests for MPSK symbols, hard decisions, the union bound, and Gray mapping."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from onebit_precoding import MpskConstellation, sep_union_bound
from onebit_precoding.constellation import q_function

ORDERS = [2, 4, 8, 16]


def q_oracle(x: float) -> float:
    """Gaussian tail by direct numerical integration, independent of erfc."""
    value, _ = quad(lambda z: np.exp(-z * z / 2.0) / np.sqrt(2.0 * np.pi), x, np.inf)
    return value


class TestDecide:
    def test_zero_phase(self):
        assert MpskConstellation(8).decide(1 + 0j) == 0

    def test_exact_constellation_point(self):
        assert MpskConstellation(4).decide(np.exp(1j * np.pi / 2)) == 1

    def test_boundary_goes_to_upper_sector(self):
        # half-open sectors: the edge phase pi/4 belongs to sector 1
        assert MpskConstellation(4).decide(np.exp(1j * np.pi / 4)) == 1

    def test_zero_sample_tie_break(self):
        for order in ORDERS:
            assert MpskConstellation(order).decide(0j) == 0

    @pytest.mark.parametrize(
        "bad", [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0), complex(1.0, -np.inf)]
    )
    def test_rejects_non_finite_reception(self, bad):
        """A NaN or infinite part lies in no sector, so it decodes to no
        index, in an array or alone."""
        for y in (np.array([bad, 1 + 0j]), bad):
            with pytest.raises(ValueError, match="y must be finite"):
                MpskConstellation(8).decide(y)

    @pytest.mark.parametrize("order", ORDERS)
    def test_matches_max_correlation_oracle(self, order):
        """The decided point maximizes Re{y * conj(point)} over the set."""
        c = MpskConstellation(order)
        rng = np.random.default_rng(7)
        y = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        decided = c.decide(y)
        correlations = np.real(y[:, None] * np.conj(c.points)[None, :])
        best = correlations.max(axis=1)
        chosen = correlations[np.arange(len(y)), decided]
        # ties at sector edges are allowed either way by the oracle
        np.testing.assert_array_less(best - chosen, 1e-12)

    @given(
        re=st.floats(-10, 10),
        im=st.floats(-10, 10),
        scale=st.floats(1e-6, 1e6),
        order=st.sampled_from(ORDERS),
    )
    def test_positive_scale_invariance(self, re, im, scale, order):
        y = complex(re, im)
        # y = 0 is the documented tie-break, also when scale * y underflows to
        # 0 (re = -5e-324, scale = 0.5 decodes to 0, not to y's sector 1).
        if y == 0 or scale * y == 0:
            return
        c = MpskConstellation(order)
        assert c.decide(scale * y) == c.decide(y)

    def test_vectorized_matches_scalar(self):
        c = MpskConstellation(8)
        rng = np.random.default_rng(3)
        y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        vec = c.decide(y)
        assert all(vec[i] == c.decide(complex(y[i])) for i in range(len(y)))

    def test_exact_points_decode_to_own_index(self):
        for order in ORDERS:
            c = MpskConstellation(order)
            np.testing.assert_array_equal(c.decide(c.points), np.arange(order))


class TestConstellationType:
    def test_points_unit_magnitude_and_distinct(self):
        for order in ORDERS:
            c = MpskConstellation(order)
            np.testing.assert_allclose(np.abs(c.points), 1.0, atol=1e-12)
            assert len(np.unique(np.round(c.points, 9))) == order

    @pytest.mark.parametrize("order", [0, 1, 3, 6, 12])
    def test_rejects_non_power_of_two(self, order):
        with pytest.raises(ValueError):
            MpskConstellation(order)

    @pytest.mark.parametrize("order", [8.0, 3.5, "8"])
    def test_rejects_non_integral_order(self, order):
        """A float or string order is named in a ValueError, not a TypeError
        from the power-of-two test; numpy integers stay accepted."""
        with pytest.raises(ValueError, match=f"order must be an integer, got {order!r}"):
            MpskConstellation(order)
        assert MpskConstellation(np.int64(8)).order == 8

    def test_bits_per_symbol(self):
        assert MpskConstellation(2).bits_per_symbol == 1
        assert MpskConstellation(16).bits_per_symbol == 4


class TestCot:
    """MpskConstellation.cot_half_sector, the cot(pi/M) of every safety margin."""

    def test_bpsk_is_exactly_zero(self):
        assert MpskConstellation(2).cot_half_sector == 0.0

    def test_qpsk_is_one(self):
        assert MpskConstellation(4).cot_half_sector == pytest.approx(1.0, abs=1e-15)

    def test_eight_psk_oracle(self):
        # cot(pi/8) = 1 + sqrt(2)
        assert MpskConstellation(8).cot_half_sector == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-12)

    def test_rejects_order_below_two(self):
        with pytest.raises(ValueError):
            MpskConstellation(1)

    def test_is_read_only(self):
        c = MpskConstellation(8)
        with pytest.raises(AttributeError):
            c.cot_half_sector = 0.0


class TestSepUnionBound:
    def test_zero_margin_gives_one(self):
        for order in ORDERS:
            assert sep_union_bound(0.0, 1.0, MpskConstellation(order)) == 1.0

    def test_large_margin_vanishes(self):
        assert sep_union_bound(1e6, 1.0, MpskConstellation(8)) == pytest.approx(0.0, abs=1e-12)

    def test_against_integration_oracle(self):
        # alpha=1, sigma=sqrt(2), M=4: 2*Q(sin(pi/4))
        expected = 2.0 * q_oracle(np.sin(np.pi / 4))
        assert expected == pytest.approx(0.4795001221869535, abs=1e-10)
        assert sep_union_bound(1.0, np.sqrt(2.0), MpskConstellation(4)) == pytest.approx(expected, abs=1e-10)

    def test_negative_margin_clips_at_one(self):
        assert sep_union_bound(-2.0, 0.5, MpskConstellation(8)) == 1.0

    def test_monotone_in_margin_and_noise(self):
        alphas = np.linspace(-1, 4, 30)
        values = [sep_union_bound(a, 1.0, MpskConstellation(8)) for a in alphas]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        sigmas = np.linspace(0.1, 4, 30)
        values = [sep_union_bound(1.0, s, MpskConstellation(8)) for s in sigmas]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            sep_union_bound(1.0, 0.0, MpskConstellation(4))
        with pytest.raises(ValueError):
            sep_union_bound(1.0, -1.0, MpskConstellation(4))

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            sep_union_bound(0.5, sigma, MpskConstellation(8))

    def test_rejects_nan_margin(self):
        with pytest.raises(ValueError, match="alpha"):
            sep_union_bound(float("nan"), 1.0, MpskConstellation(8))

    def test_infinite_margins_give_zero_and_one(self):
        c = MpskConstellation(8)
        assert sep_union_bound(float("inf"), 1.0, c) == 0.0
        assert sep_union_bound(float("-inf"), 1.0, c) == 1.0

    def test_q_function_accuracy(self):
        # high-precision tanh-sinh quadrature oracle; plain quad is too loose
        # in the deep tail
        import mpmath

        mpmath.mp.dps = 40
        for x in [-8.0, -3.0, -1.0, 0.0, 0.5, 2.0, 5.0, 8.0]:
            oracle = float(
                mpmath.quad(
                    lambda z: mpmath.exp(-z * z / 2) / mpmath.sqrt(2 * mpmath.pi),
                    [x, x + 50],
                )
            )
            assert q_function(x) == pytest.approx(oracle, rel=1e-12, abs=1e-300)

    def test_q_symmetry(self):
        for x in [0.3, 1.7, 4.2]:
            assert q_function(x) == pytest.approx(1.0 - q_function(-x), abs=1e-14)


class TestGrayBitMap:
    """The Gray labelling, seen through MpskConstellation.bit_distances."""

    def test_known_qpsk_labels(self):
        # labels 00, 01, 11, 10 for indices 0..3
        np.testing.assert_array_equal(
            MpskConstellation(4).bit_distances,
            [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
        )

    @pytest.mark.parametrize("order", ORDERS)
    def test_adjacent_indices_differ_in_one_bit(self, order):
        table = MpskConstellation(order).bit_distances
        n = np.arange(order)
        np.testing.assert_array_equal(table[n, (n + 1) % order], 1)

    def test_bit_distance_table(self):
        for order in ORDERS:
            table = MpskConstellation(order).bit_distances
            bps = MpskConstellation(order).bits_per_symbol
            assert table.shape == (order, order)
            np.testing.assert_array_equal(table, table.T)
            assert np.all(np.diag(table) == 0)
            # distinct labels, none more than bits_per_symbol apart
            assert np.all(table + np.eye(order, dtype=int) >= 1)
            assert table.max() == bps
            assert not table.flags.writeable
