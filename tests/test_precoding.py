"""Tests for complex-to-real instance building and safety margins."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit_precoding import (
    MpskConstellation,
    OneBitVector,
    PrecodingInstance,
    build_instance,
    draw_channel,
    draw_symbols,
    min_margin,
    one_bit_amplitude,
    point_margin,
    quantize_one_bit,
    to_real,
)
from onebit_precoding import precoding
from onebit_precoding.precoding import optimal_onebit_margin, relaxed_lp


def random_instance(rng, n_users=3, n_antennas=4, order=8, power=1.0):
    H = draw_channel(n_users, n_antennas, rng)
    symbols = draw_symbols(order, n_users, rng)
    return H, symbols, build_instance(H, symbols, MpskConstellation(order), power)


def user_margin(h, x, symbol: int, order: int) -> float:
    """Safety margin of one user with channel row h and symbol index
    ``symbol``, from the margin forms of a one-user instance."""
    instance = build_instance(np.array([h]), np.array([symbol]), MpskConstellation(order), 1.0)
    return min_margin(instance, to_real(x))


class TestBuildInstance:
    def test_single_user_single_antenna_qpsk(self):
        inst = build_instance(np.array([[1.0 + 0j]]), np.array([0]), MpskConstellation(4), 1.0)
        np.testing.assert_allclose(inst.forms[:1], [[-1.0, 1.0]], atol=1e-12)  # u
        np.testing.assert_allclose(inst.forms[1:], [[-1.0, -1.0]], atol=1e-12)  # w

    def test_bpsk_collapses_to_single_form(self):
        rng = np.random.default_rng(0)
        H, symbols, inst = random_instance(rng, order=2)
        k = inst.n_users
        u, w = inst.forms[:k], inst.forms[k:]
        np.testing.assert_array_equal(u, w)
        # u = w = -b with b built from s* h rows
        s = np.exp(2j * np.pi * symbols / 2)
        g = np.conj(s)[:, None] * H
        b = np.concatenate([g.real, -g.imag], axis=1)
        np.testing.assert_allclose(u, -b, atol=1e-12)

    def test_forms_encode_negated_margin(self):
        """max(u_i . x, w_i . x) equals -alpha_i computed in complex arithmetic."""
        rng = np.random.default_rng(1)
        for _ in range(20):
            H, symbols, inst = random_instance(rng)
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            x_real = to_real(x)
            s = np.exp(2j * np.pi * symbols / 8)
            u, w = inst.forms[:3], inst.forms[3:]
            for i in range(3):
                alpha = point_margin(H[i] @ x * np.conj(s[i]), MpskConstellation(8))
                pair_max = max(u[i] @ x_real, w[i] @ x_real)
                assert pair_max == pytest.approx(-alpha, abs=1e-12)

    def test_symbol_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            build_instance(np.eye(3, dtype=complex), np.array([0, 1]), MpskConstellation(4), 1.0)

    @pytest.mark.parametrize("H", [np.ones(3), np.ones((1, 3, 3)), np.array(1.0)], ids=["1-d", "3-d", "0-d"])
    def test_channel_must_be_a_matrix(self, H):
        """A channel row is no K x N matrix: broadcast against three symbols
        it would build a 3 x 3 channel."""
        with pytest.raises(ValueError, match=r"H must be a K x N channel matrix, got shape"):
            build_instance(H, np.array([0, 1, 2]), MpskConstellation(4), 1.0)

    @pytest.mark.parametrize("symbols", [[0, 1, 9], [0, -1, 7], [8, 0, 0]])
    def test_out_of_range_symbols_raise(self, symbols):
        """An index outside [0, M) is an error, not wrapped onto the circle."""
        with pytest.raises(ValueError, match=r"symbol indices must lie in \[0, 8\)"):
            build_instance(np.eye(3, dtype=complex), np.array(symbols), MpskConstellation(8), 1.0)

    @pytest.mark.parametrize("symbols", [[0.5, 1.0], [True, False]])
    def test_non_integer_symbols_raise(self, symbols):
        """0.5 is no constellation index (it would build a point between two
        QPSK symbols), and neither is True."""
        with pytest.raises(ValueError, match="symbol indices must be integers"):
            build_instance(np.eye(2, dtype=complex), np.array(symbols), MpskConstellation(4), 1.0)

    @pytest.mark.parametrize("order", [3, 8, 8.0])
    def test_a_bare_order_builds_no_instance(self, order):
        """The alphabet reaches the margin forms only as an MpskConstellation,
        whose order rule (an integer power of two >= 2) then holds for every
        instance; a bare order, valid or not, builds none."""
        with pytest.raises(AttributeError, match="order"):
            build_instance(np.eye(2), [0, 1], order, 1.0)

    def test_instance_arrays_read_only(self):
        rng = np.random.default_rng(2)
        _, _, inst = random_instance(rng)
        with pytest.raises(ValueError):
            inst.forms[0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3), (4,), (2, 0), (0, 2)])
    def test_instance_rejects_odd_shapes(self, shape):
        with pytest.raises(ValueError):
            PrecodingInstance(np.zeros(shape), 1.0)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_instance_rejects_non_finite_forms(self, entry):
        """No LP or FALM solve of a NaN or infinite form: the instance
        itself rejects it."""
        forms = np.ones((4, 8))
        forms[1, 2] = entry
        with pytest.raises(ValueError, match="forms must be finite"):
            PrecodingInstance(forms, 1.0)

    @pytest.mark.parametrize("power", [0.0, -1.0, np.nan, np.inf])
    def test_instance_rejects_bad_power(self, power):
        """At P = 0 the one-bit alphabet collapses to 0; a negative or NaN
        power has no amplitude, and at P = inf the LP is unbounded."""
        with pytest.raises(ValueError, match="power must be positive and finite"):
            PrecodingInstance(np.zeros((2, 2)), power)

    @pytest.mark.parametrize(
        "make",
        [lambda: OneBitVector(np.zeros(4), 0.0), lambda: quantize_one_bit(np.ones(4), -1.0)],
        ids=["vector-at-zero-power", "quantize-at-negative-power"],
    )
    def test_one_bit_alphabet_rejects_bad_power(self, make):
        """The alphabet's own constructors check the power as instances do."""
        with pytest.raises(ValueError, match="power must be positive and finite"):
            make()


class TestRelaxed:
    def test_solved_once_and_read_only(self):
        """The instance keeps relaxed_lp's result, bit for bit, and its x
        cannot be written, so the solvers sharing it cannot corrupt it."""
        _, _, inst = random_instance(np.random.default_rng(12))
        x, t_star = inst.relaxed
        assert inst.relaxed is inst.relaxed
        x_ref, t_ref = relaxed_lp(inst)
        assert np.array_equal(x, x_ref) and t_star == t_ref
        assert not x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0.0

    def test_failed_solve_caches_nothing(self, monkeypatch):
        class InfeasibleHighs(precoding._Highs):
            def run(self):
                pass

            def getModelStatus(self):
                return precoding.HighsModelStatus.kInfeasible

        _, _, inst = random_instance(np.random.default_rng(13))
        with monkeypatch.context() as patch:
            patch.setattr(precoding, "_Highs", InfeasibleHighs)
            with pytest.raises(RuntimeError, match="box-relaxed LP solve failed"):
                inst.relaxed
        assert inst.relaxed[1] == relaxed_lp(inst)[1]


class TestSafetyMargin:
    """One user's margin, the worst-user margin of a one-user instance."""

    def test_real_axis_point(self):
        # h^T x s* = 1: margin 1 regardless of the rotation weight
        assert user_margin([1.0 + 0j], [1.0 + 0j], 0, 8) == 1.0

    def test_qpsk_unit_rotation_weight(self):
        assert user_margin([1.0 + 0j], [1.0 + 0.5j], 0, 4) == pytest.approx(0.5, abs=1e-12)

    def test_uses_plain_transpose_not_conjugate(self):
        # y = h^T x with h = j, x = 1: rotated back by s = j (QPSK index 1)
        # this is 1, so the margin is 1. A conjugating model (h^H x = -j)
        # would give -1.
        assert user_margin([1j], [1.0 + 0j], 1, 4) == pytest.approx(1.0, abs=1e-12)

    def test_negative_margin_oracle(self):
        expected = 0.2 - 0.9 * (1.0 + np.sqrt(2.0))
        assert user_margin([1.0 + 0j], [0.2 + 0.9j], 0, 8) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-1.9727922061357857, abs=1e-12)

    @given(c=st.floats(1e-6, 1e6))
    @settings(max_examples=40)
    def test_positive_homogeneity(self, c):
        h = [0.3 - 0.7j, 1.1 + 0.2j]
        x = np.array([0.5 + 0.4j, -0.2 + 0.9j])
        base = user_margin(h, x, 1, 8)
        assert user_margin(h, c * x, 1, 8) == pytest.approx(c * base, rel=1e-9)


class TestPointMargin:
    def test_array_matches_scalar_calls(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        for order in (2, 4, 8, 16):
            c = MpskConstellation(order)
            margins = point_margin(z, c)
            assert margins.shape == z.shape
            expected = [point_margin(complex(p), c) for p in z.ravel()]
            assert margins.ravel().tolist() == expected


class TestMinMargin:
    def test_single_user_reduces_to_safety_margin(self):
        rng = np.random.default_rng(3)
        H, symbols, inst = random_instance(rng, n_users=1)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        s = np.exp(2j * np.pi * symbols / 8)
        assert min_margin(inst, to_real(x)) == pytest.approx(
            point_margin(H[0] @ x * np.conj(s[0]), MpskConstellation(8)), abs=1e-12
        )

    def test_zero_vector_gives_zero(self):
        rng = np.random.default_rng(4)
        _, _, inst = random_instance(rng)
        assert min_margin(inst, np.zeros(8)) == 0.0

    def test_against_per_user_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            H, symbols, inst = random_instance(rng)
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            s = np.exp(2j * np.pi * symbols / 8)
            oracle = min(point_margin(H[i] @ x * np.conj(s[i]), MpskConstellation(8)) for i in range(3))
            assert min_margin(inst, to_real(x)) == pytest.approx(oracle, abs=1e-12)


class TestOptimalOneBitMargin:
    def test_matches_pattern_loop(self):
        rng = np.random.default_rng(6)
        for n_antennas in (1, 2, 3):
            for order in (2, 4, 8):
                _, _, inst = random_instance(
                    rng, n_users=2, n_antennas=n_antennas, order=order, power=2.0
                )
                a = inst.amplitude
                oracle = max(
                    min_margin(inst, a * np.array(signs))
                    for signs in itertools.product((-1.0, 1.0), repeat=2 * n_antennas)
                )
                assert optimal_onebit_margin(inst) == pytest.approx(oracle, abs=1e-12)

    def test_rejects_large_instances(self):
        _, _, inst = random_instance(np.random.default_rng(7), n_antennas=9)
        with pytest.raises(ValueError):
            optimal_onebit_margin(inst)


class TestOneBitVector:
    def test_real_complex_round_trip(self):
        rng = np.random.default_rng(6)
        a = one_bit_amplitude(2.0, 5)
        x = a * (rng.choice([-1.0, 1.0], 5) + 1j * rng.choice([-1.0, 1.0], 5))
        np.testing.assert_allclose(OneBitVector(to_real(x), 2.0).to_complex(), x, atol=0)

    def test_quantize_ties_to_positive(self):
        out = quantize_one_bit(np.array([0.0, -0.0, -3.0, 2.0, -1e-300, 1e-300]), 1.0).x_real
        a = one_bit_amplitude(1.0, 3)
        np.testing.assert_array_equal(out, [a, a, -a, a, -a, a])

    def test_sign_ties_positive(self):
        out = quantize_one_bit(np.array([-1.0, 0.0, 2.0, -0.0]), 1.0).x_real
        np.testing.assert_array_equal(np.sign(out), [-1.0, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize(
        "x_real, message",
        [
            ([-1.0, 0.0, 2.0], "flat 2N vector"),
            (np.zeros((2, 2)), "flat 2N vector"),
            (np.zeros(0), "N >= 1"),
            (np.float64(0.5), "N >= 1"),
            ([np.nan, 1.0, 1.0, 1.0], "x_real must be finite"),
            ([1.0, np.inf, 1.0, 1.0], "x_real must be finite"),
            ([1.0, 1.0, -np.inf, 1.0], "x_real must be finite"),
        ],
        ids=["odd-length", "2-d", "empty", "0-d", "nan", "inf", "-inf"],
    )
    def test_quantize_rejects_malformed_input(self, x_real, message):
        """A vector that is no flat 2N-vector with N >= 1 gets no rails: odd
        length and 2-D input name their shape, empty and 0-d input name N.
        A NaN or infinite entry has no sign, so it gets none either."""
        with pytest.raises(ValueError, match=message):
            quantize_one_bit(np.asarray(x_real), 1.0)

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError, match="N >= 1"):
            OneBitVector(np.zeros(0), 1.0)

    def test_transmit_power_is_total_power(self):
        for power, n in [(1.0, 8), (4.0, 3)]:
            v = OneBitVector(quantize_one_bit(np.random.default_rng(0).standard_normal(2 * n), power).x_real, power)
            assert np.sum(np.abs(v.to_complex()) ** 2) == pytest.approx(power, rel=1e-12)

    def test_rejects_off_alphabet_entries(self):
        cases = [
            ([0.5, -0.5, 0.5, 0.1], "magnitude"),
            ([0.5, -0.5, 0.5], "flat 2N vector"),
            ([[0.5, -0.5], [0.5, -0.5]], "flat 2N vector"),
        ]
        for x_real, message in cases:
            with pytest.raises(ValueError, match=message):
                OneBitVector(np.array(x_real), 1.0)

    def test_amplitude(self):
        assert one_bit_amplitude(1.0, 128) == pytest.approx(np.sqrt(1.0 / 256.0))
