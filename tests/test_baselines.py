"""Tests for the ZF, ZF-OB, and MSM precoders, MSM's LP, and the precoder
registry."""

import itertools

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from onebit_precoding import (
    MpskConstellation,
    available_precoders,
    build_instance,
    draw_channel,
    falm_solve,
    get_precoder,
    min_margin,
    msm_precode,
    one_bit_amplitude,
    quantize_one_bit,
    to_real,
    zf_onebit,
)
from onebit_precoding import baselines, precoding
from onebit_precoding.baselines import zf_precode
from onebit_precoding.precoding import optimal_onebit_margin, relaxed_lp


def solve_hermitian_by_elimination(A, b):
    """Plain Gaussian elimination with partial pivoting, independent of
    numpy.linalg, for the small normal-equation oracle."""
    A = A.astype(complex).copy()
    b = b.astype(complex).copy()
    n = A.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = A[row, col] / A[col, col]
            A[row, col:] -= factor * A[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n, dtype=complex)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1 :] @ x[row + 1 :]) / A[row, row]
    return x


def presolved_linprog(instance):
    """MSM's LP written independently for ``linprog`` and solved with
    HiGHS's defaults, presolve on: the reference for the presolve-free
    solve of ``relaxed_lp``."""
    a = instance.amplitude
    n2 = 2 * instance.n_antennas
    forms = instance.forms
    objective = np.zeros(n2 + 1)
    objective[-1] = -1.0
    bounds = np.empty((n2 + 1, 2))
    bounds[:n2] = -a, a
    bounds[n2] = -np.inf, np.inf
    return linprog(
        objective,
        A_ub=np.hstack([forms, np.ones((forms.shape[0], 1))]),
        b_ub=np.zeros(forms.shape[0]),
        bounds=bounds,
        method="highs",
    )


def milp_lp(instance):
    """MSM's LP through ``milp`` with presolve off, as ``relaxed_lp``
    solved it before it built the HiGHS model itself: the oracle that pins
    ``relaxed_lp`` bit for bit."""
    n2 = 2 * instance.n_antennas
    objective = np.zeros(n2 + 1)
    objective[-1] = -1.0
    upper = np.full(n2 + 1, instance.amplitude)
    upper[n2] = np.inf
    forms = instance.forms
    solution = milp(
        objective,
        constraints=LinearConstraint(np.hstack([forms, np.ones((forms.shape[0], 1))]), -np.inf, 0.0),
        bounds=Bounds(-upper, upper),
        options={"presolve": False},
    )
    assert solution.status == 0
    return solution.x[:n2], float(-solution.fun)


class InfeasibleHighs(precoding._Highs):
    """The HiGHS binding, but every solve reports an infeasible model."""

    def run(self):
        pass

    def getModelStatus(self):
        return precoding.HighsModelStatus.kInfeasible

    def modelStatusToString(self, status):
        return "The problem is infeasible."


class TestZfPrecode:
    def test_identity_channel_scales_symbols(self):
        c = MpskConstellation(8)
        H = np.eye(3, dtype=complex)
        symbols = np.array([0, 2, 5])
        x = zf_precode(H, symbols, c, 1.0)
        s = c.points[symbols]
        scale = x[0] / s[0]
        assert scale.real > 0 and abs(scale.imag) < 1e-12
        np.testing.assert_allclose(x, scale * s, atol=1e-12)

    def test_zero_forcing_property(self):
        rng = np.random.default_rng(0)
        c = MpskConstellation(8)
        H = draw_channel(4, 16, rng)
        symbols = rng.integers(0, 8, size=4)
        x = zf_precode(H, symbols, c, 1.0)
        ratios = (H @ x) / c.points[symbols]
        gain = ratios.mean()
        assert gain.real > 0
        assert np.max(np.abs(ratios - gain)) <= 1e-9 * abs(gain)

    def test_power_normalization(self):
        rng = np.random.default_rng(1)
        c = MpskConstellation(4)
        H = draw_channel(4, 16, rng)
        symbols = rng.integers(0, 4, size=4)
        for power in (1.0, 2.5):
            x = zf_precode(H, symbols, c, power)
            assert np.sum(np.abs(x) ** 2) == pytest.approx(power, rel=1e-12)

    def test_against_elimination_oracle(self):
        rng = np.random.default_rng(2)
        c = MpskConstellation(8)
        H = draw_channel(4, 16, rng)
        symbols = rng.integers(0, 8, size=4)
        x = zf_precode(H, symbols, c, 1.0)
        gram = H @ H.conj().T
        y = solve_hermitian_by_elimination(gram, c.points[symbols])
        expected = H.conj().T @ y
        expected *= 1.0 / np.linalg.norm(expected)
        np.testing.assert_allclose(x, expected, atol=1e-9)

    def test_rank_deficient_channel_surfaces_error(self):
        c = MpskConstellation(4)
        H = np.ones((2, 4), dtype=complex)  # identical rows
        with pytest.raises(np.linalg.LinAlgError):
            zf_precode(H, np.array([0, 1]), c, 1.0)

    def test_more_users_than_antennas_raises(self):
        """With K > N, H H^H is singular but rounding can hide it from the
        solver, so the size check is what stops the precoder."""
        rng = np.random.default_rng(30)
        c = MpskConstellation(4)
        H = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        with pytest.raises(ValueError, match="K=3 > N=2"):
            zf_precode(H, np.array([0, 1, 2]), c, 1.0)
        with pytest.raises(ValueError, match="K=3 > N=2"):
            zf_onebit(H, np.array([0, 1, 2]), c, 1.0)


class TestZfOnebit:
    def test_output_on_alphabet_with_total_power(self):
        rng = np.random.default_rng(3)
        c = MpskConstellation(8)
        H = draw_channel(4, 16, rng)
        symbols = rng.integers(0, 8, size=4)
        x = zf_onebit(H, symbols, c, 1.0)
        a = one_bit_amplitude(1.0, 16)
        np.testing.assert_allclose(np.abs(x.real), a, atol=0)
        np.testing.assert_allclose(np.abs(x.imag), a, atol=0)
        assert np.sum(np.abs(x) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_matches_sign_pattern_of_zf(self):
        rng = np.random.default_rng(4)
        c = MpskConstellation(8)
        H = draw_channel(3, 8, rng)
        symbols = rng.integers(0, 8, size=3)
        x_zf = zf_precode(H, symbols, c, 1.0)
        x_ob = zf_onebit(H, symbols, c, 1.0)
        a = one_bit_amplitude(1.0, 8)
        np.testing.assert_allclose(x_ob.real, a * np.where(x_zf.real >= 0, 1, -1))
        np.testing.assert_allclose(x_ob.imag, a * np.where(x_zf.imag >= 0, 1, -1))

    def test_aligned_input_is_fixed_point_of_quantization(self):
        # a channel whose ZF solution already sits on the alphabet diagonal
        c = MpskConstellation(4)
        H = np.array([[1.0 - 1j]]) / np.sqrt(2.0)
        x = zf_onebit(H, np.array([0]), c, 1.0)
        a = one_bit_amplitude(1.0, 1)
        np.testing.assert_allclose(x, np.array([a + 1j * a]), atol=1e-12)


class TestLpSolve:
    def test_msm_lp_against_vertex_enumeration(self):
        """Enumerate basic solutions of the MSM polytope and compare."""
        rng = np.random.default_rng(5)
        H = draw_channel(2, 2, rng)
        symbols = rng.integers(0, 4, size=2)
        instance = build_instance(H, symbols, MpskConstellation(4), 1.0)
        _, t_star = relaxed_lp(instance)
        forms = np.hstack([instance.forms, np.ones((4, 1))])

        n = 5  # 4 box coordinates + margin variable
        a = instance.amplitude
        rows = [forms[k] for k in range(4)]
        rhs = [0.0] * 4
        for j in range(4):  # box faces as equality candidates
            e = np.zeros(n)
            e[j] = 1.0
            rows += [e, -e]
            rhs += [a, a]
        best = -np.inf
        for combo in itertools.combinations(range(len(rows)), n):
            A = np.array([rows[k] for k in combo])
            b = np.array([rhs[k] for k in combo])
            if abs(np.linalg.det(A)) < 1e-12:
                continue
            vertex = np.linalg.solve(A, b)
            x, t = vertex[:4], vertex[4]
            feasible = np.all(forms @ vertex <= 1e-9) and np.all(
                np.abs(x) <= a + 1e-9
            )
            if feasible and t > best:
                best = t
        assert t_star == pytest.approx(best, abs=1e-6)

    @pytest.mark.parametrize("order", [8, 16])
    @pytest.mark.parametrize("n_antennas, n_users, count", [(8, 4, 20), (32, 8, 20), (128, 24, 10)])
    def test_bit_identical_to_milp(self, order, n_antennas, n_users, count):
        """The HiGHS model ``relaxed_lp`` builds is the LP ``milp`` builds:
        the same maximizer and the same t*, bit for bit."""
        rng = np.random.default_rng(order * 1000 + n_antennas)
        for _ in range(count):
            H = draw_channel(n_users, n_antennas, rng)
            instance = build_instance(H, rng.integers(0, order, size=n_users), MpskConstellation(order), 1.0)
            x, t_star = relaxed_lp(instance)
            x_ref, t_ref = milp_lp(instance)
            assert np.array_equal(x, x_ref)
            assert t_star == t_ref


class TestMsmPrecode:
    def test_single_user_bpsk_matches_enumeration(self):
        rng = np.random.default_rng(6)
        H = draw_channel(1, 1, rng)
        instance = build_instance(H, np.array([0]), MpskConstellation(2), 1.0)
        report = msm_precode(instance)
        assert report.margin == pytest.approx(optimal_onebit_margin(instance), abs=1e-9)

    def test_relaxed_optimum_dominates_every_one_bit_point(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            H = draw_channel(2, 2, rng)
            symbols = rng.integers(0, 4, size=2)
            instance = build_instance(H, symbols, MpskConstellation(4), 1.0)
            report = msm_precode(instance)
            # optimal_onebit_margin is the best over every one-bit point.
            assert report.relaxed_optimum >= optimal_onebit_margin(instance) - 1e-9

    def test_relaxed_optimum_nonnegative(self):
        # x = 0 is always feasible with margin 0
        rng = np.random.default_rng(8)
        for _ in range(10):
            H = draw_channel(3, 4, rng)
            symbols = rng.integers(0, 8, size=3)
            report = msm_precode(build_instance(H, symbols, MpskConstellation(8), 1.0))
            assert report.relaxed_optimum >= -1e-9

    def test_reported_margin_matches_vector(self):
        rng = np.random.default_rng(9)
        H = draw_channel(3, 6, rng)
        symbols = rng.integers(0, 8, size=3)
        instance = build_instance(H, symbols, MpskConstellation(8), 1.0)
        report = msm_precode(instance)
        assert report.margin == pytest.approx(
            min_margin(instance, report.x_onebit.x_real), abs=0
        )

    def test_is_falm_start_quantized(self):
        """MSM's report is FALM's before its first outer iteration: the LP's
        maximizer quantized, FALM's t* exactly, and no iterations."""
        rng = np.random.default_rng(12)
        for n_users, n_antennas in ((2, 2), (3, 6), (8, 32)):
            H = draw_channel(n_users, n_antennas, rng)
            instance = build_instance(H, rng.integers(0, 8, size=n_users), MpskConstellation(8), 1.0)
            report = msm_precode(instance)
            x_lp = relaxed_lp(instance)[0]
            np.testing.assert_array_equal(report.x_onebit.x_real, quantize_one_bit(x_lp, 1.0).x_real)
            assert report.relaxed_optimum == falm_solve(instance).relaxed_optimum
            assert report.outer_iterations == report.inner_iterations == 0

    def test_lp_failure_raises(self, monkeypatch):
        instance = build_instance(np.eye(2, dtype=complex), np.array([0, 1]), MpskConstellation(4), 1.0)
        monkeypatch.setattr(precoding, "_Highs", InfeasibleHighs)
        with pytest.raises(RuntimeError, match="infeasible"):
            msm_precode(instance)

    @pytest.mark.parametrize("n_antennas, n_users, count", [(32, 8, 30), (128, 24, 5)])
    def test_matches_presolved_linprog(self, n_antennas, n_users, count):
        """Presolve off changes no output: the quantized vector is identical
        and the optimum agrees to rounding."""
        rng = np.random.default_rng(11)
        for _ in range(count):
            H = draw_channel(n_users, n_antennas, rng)
            instance = build_instance(H, rng.integers(0, 8, size=n_users), MpskConstellation(8), 1.0)
            reference = presolved_linprog(instance)
            assert reference.status == 0
            report = msm_precode(instance)
            x_ref = quantize_one_bit(reference.x[: 2 * n_antennas], 1.0).x_real
            np.testing.assert_array_equal(report.x_onebit.x_real, x_ref)
            assert report.relaxed_optimum == pytest.approx(-reference.fun, abs=1e-9)


class TestRegistry:
    def test_builtin_ids_resolve(self):
        for pid in ("zf", "zf-ob", "msm", "falm"):
            assert callable(get_precoder(pid))
        assert available_precoders() == ("falm", "msm", "zf", "zf-ob")

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_precoder("mrt")

    def test_outputs_lie_on_alphabet(self):
        rng = np.random.default_rng(10)
        c = MpskConstellation(8)
        H = draw_channel(3, 8, rng)
        symbols = rng.integers(0, 8, size=3)
        a = one_bit_amplitude(1.0, 8)
        for pid in ("zf-ob", "msm", "falm"):
            x = get_precoder(pid)(H, symbols, c, 1.0)
            np.testing.assert_allclose(np.abs(to_real(x)), a, atol=0)

    @pytest.mark.parametrize(
        "symbols, message",
        [
            ([0, -1], r"symbol indices must lie in \[0, 4\)"),
            ([0, 4], r"symbol indices must lie in \[0, 4\)"),
            ([0.0, 1.0], "symbol indices must be integers"),
            ([0, 1, 2], r"symbols shape \(3,\) does not match 2 users"),
        ],
        ids=["negative", "too-large", "float", "count"],
    )
    def test_every_precoder_checks_symbols(self, symbols, message):
        """All four precoders reject the same symbol rows with the same
        error: zero forcing sends no wrapped index such as -1 (symbol 3)."""
        for pid in available_precoders():
            with pytest.raises(ValueError, match=message):
                get_precoder(pid)(np.eye(2, dtype=complex), np.array(symbols), MpskConstellation(4), 1.0)

    @pytest.mark.parametrize(
        "H, power, message",
        [
            (np.ones(3), 1.0, "H must be a K x N channel matrix"),
            (np.ones((2, 2, 2)), 1.0, "H must be a K x N channel matrix"),
            (np.array(1.0), 1.0, "H must be a K x N channel matrix"),
            (np.array([[np.nan, 1.0], [0.0, 1.0]]), 1.0, "H must be finite"),
            (np.array([[1.0, 0.0], [0.0, -np.inf]]), 1.0, "H must be finite"),
            (np.eye(2), 0.0, "power must be positive and finite"),
            (np.eye(2), -1.0, "power must be positive and finite"),
            (np.eye(2), np.nan, "power must be positive and finite"),
            (np.eye(2), np.inf, "power must be positive and finite"),
        ],
        ids=[
            "1-d", "3-d", "0-d", "nan-entry", "inf-entry",
            "zero-power", "negative-power", "nan-power", "inf-power",
        ],
    )
    def test_every_precoder_checks_channel_and_power(self, H, power, message):
        """All four precoders reject the same channel and power with the same
        error: zero forcing returns no zero, NaN or infinite vector, msm no
        one-bit vector from a NaN channel and falm no LinAlgError from its
        SVD."""
        for pid in available_precoders():
            with pytest.raises(ValueError, match=message):
                get_precoder(pid)(H.astype(complex), np.array([0, 1]), MpskConstellation(4), power)

    def test_register_custom_precoder(self, monkeypatch):
        def factory(config):
            def precode(H, symbols, constellation, power):
                n = H.shape[1]
                a = one_bit_amplitude(power, n)
                return np.full(n, a + 1j * a)

            return precode

        monkeypatch.setitem(baselines._REGISTRY, "all-plus", factory)
        assert "all-plus" in available_precoders()
        x = get_precoder("all-plus")(np.eye(2, dtype=complex), np.array([0, 0]), MpskConstellation(4), 1.0)
        assert np.all(x == x[0])
        with pytest.raises(KeyError):
            get_precoder("squid")
