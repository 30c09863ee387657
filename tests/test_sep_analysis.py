"""Tests for the margin-collapsing shift and the empirical SEP chain."""

import numpy as np
import pytest

from onebit_precoding import (
    MpskConstellation,
    empirical_sep,
    point_margin,
    sep_union_bound,
    substream,
)
from onebit_precoding.sep_analysis import _implication_violations, run_verification


class TestPerturb:
    """The shifted point z_hat is the point margin of z."""

    def test_real_point_is_unchanged(self):
        assert point_margin(2.0 + 0j, MpskConstellation(8)) == 2.0

    def test_qpsk_diagonal_collapses_to_zero(self):
        assert point_margin(1 + 1j, MpskConstellation(4)) == pytest.approx(0.0, abs=1e-12)

    def test_negative_margin_point(self):
        assert point_margin(0.2 + 0.9j, MpskConstellation(8)) == pytest.approx(
            0.2 - 0.9 * (1 + np.sqrt(2.0)), abs=1e-12
        )

    def test_shift_lands_exactly_on_margin(self):
        """z + delta_z with delta_z = -|Im z| cot(pi/M) - j Im z is real and
        equals the point margin."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = complex(rng.standard_normal(), rng.standard_normal())
            order = int(rng.choice([2, 4, 8, 16]))
            cot = 0.0 if order == 2 else 1.0 / np.tan(np.pi / order)
            shifted = z - abs(z.imag) * cot - 1j * z.imag
            assert shifted.imag == pytest.approx(0.0, abs=1e-12)
            assert shifted.real == pytest.approx(point_margin(z, MpskConstellation(order)), abs=1e-12)


def decisions(z, eta, order):
    """(dec(shifted) correct?, dec(unshifted) correct?) for one noise draw."""
    c = MpskConstellation(order)
    return c.decide(point_margin(z, c) + eta) == 0, c.decide(z + eta) == 0


class TestCheckImplication:
    """The per-draw implication 'shifted correct => unshifted correct'."""

    def test_clean_reception(self):
        assert decisions(1.0 + 0j, 0j, 8) == (True, True)

    def test_sector_edge_knife_case(self):
        # 1+j sits exactly on a QPSK sector edge. The shifted point collapses
        # to (numerically almost) zero and does not decode to index 0, so the
        # implication holds vacuously at this measure-zero input.
        shifted_ok, plain_ok = decisions(1 + 1j, 0j, 4)
        assert shifted_ok is False
        assert plain_ok is False  # the edge phase goes to the upper sector

    def test_noise_pushing_both_wrong(self):
        assert decisions(1.0 + 0j, -10.0 + 0j, 8) == (False, False)

    @pytest.mark.parametrize("order", [4, 8, 16])
    def test_no_violations_on_random_draws(self, order):
        assert _implication_violations(MpskConstellation(order), 2000, substream(order)) == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda order: point_margin(0.5 + 0.1j, order),
        lambda order: sep_union_bound(0.5, 1.0, order),
        lambda order: empirical_sep(0.5 + 0.1j, 1.0, order, 10, np.random.default_rng(0)),
    ],
    ids=["point_margin", "sep_union_bound", "empirical_sep"],
)
@pytest.mark.parametrize("order", [3, 8, 0])
def test_a_bare_order_is_no_constellation(call, order):
    """The SEP chain takes M from an MpskConstellation, whose order rule
    then holds for every margin and bound; a bare order, valid or not,
    gives none (M = 3 gave a bound, M = 0 a ZeroDivisionError)."""
    with pytest.raises(AttributeError, match="order|cot_half_sector"):
        call(order)


class TestEmpiricalSep:
    def test_deep_snr_limit(self):
        est = empirical_sep(10.0 + 0j, 1.0, MpskConstellation(8), 20_000, np.random.default_rng(0))
        assert est.err_rate == 0.0
        assert est.err_rate_shifted == 0.0

    def test_pure_noise_is_uniform_over_sectors(self):
        for order in (4, 8):
            est = empirical_sep(0j, 1.0, MpskConstellation(order), 100_000, np.random.default_rng(1))
            expected = (order - 1) / order
            assert est.err_rate == pytest.approx(expected, abs=4 * est.std_err + 1e-9)

    def test_chain_against_closed_form(self):
        z, sigma, c, trials = 1.0 + 0j, 0.5, MpskConstellation(8), 200_000
        est = empirical_sep(z, sigma, c, trials, substream(2, 5))
        alpha = point_margin(z, c)
        bound = sep_union_bound(alpha, sigma, c)
        assert est.err_rate <= est.err_rate_shifted  # exact under paired noise
        assert est.err_rate_shifted <= bound + 3 * est.std_err_shifted

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            empirical_sep(1.0, 1.0, MpskConstellation(8), 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            empirical_sep(1.0, 0.0, MpskConstellation(8), 10, np.random.default_rng(0))

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            empirical_sep(1.0, sigma, MpskConstellation(8), 100, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        a = empirical_sep(0.4 + 0.2j, 0.7, MpskConstellation(4), 5000, substream(3))
        b = empirical_sep(0.4 + 0.2j, 0.7, MpskConstellation(4), 5000, substream(3))
        assert a == b


class TestVerificationSuite:
    def test_all_checks_pass_at_reduced_scale(self):
        results = run_verification(seed=0, implication_draws=20_000, bound_trials=50_000)
        assert len(results) > 0
        failed = [r.name for r in results if not r.passed]
        assert failed == []

    def test_slack_is_read_over_positive_margin_points(self):
        """A negative-margin point sits at the clipped bound 1 with zero
        standard error, so its slack of 0 would mask every other point. The
        report leaves such points out of the worst slack and counts them:
        at seed 3 the M=8 rows read a negative slack."""
        results = {
            r.name: r.detail
            for r in run_verification(seed=3, implication_draws=1000, bound_trials=50_000)
        }
        for name in ("error chain M=8", "union bound M=8"):
            words = results[name].split()
            assert words[:2] == ["worst", "slack"]
            assert float(words[2]) < 0, results[name]
            assert results[name].endswith("10 positive-margin points, 10 at the clipped bound")

    def test_precoded_receptions_are_falm_output(self):
        """The row checks the bound on a FALM transmission, whose users all
        have a positive margin at seed 3, so no user sits at the clipped
        bound and the worst slack is read."""
        results = {
            r.name: r
            for r in run_verification(seed=3, implication_draws=1000, bound_trials=50_000)
        }
        row = results["precoded receptions"]
        words = row.detail.split()
        assert row.passed
        assert float(words[2]) < 0, row.detail
        assert row.detail.endswith("4 positive-margin users, 0 at the clipped bound")
