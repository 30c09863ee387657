"""Executable checks behind the safety-margin SEP bound.

The scalar problem: a noiseless point z (arbitrary complex) is observed in
circular complex Gaussian noise, w = z + eta, and decoded against the symbol
1 (index 0). Shifting z by delta_z = -|Im z| cot(pi/M) - j Im z collapses it
onto the real axis at z_hat = alpha = Re z - |Im z| cot(pi/M), the safety
margin of the point (precoding.point_margin). Two facts are verified here
empirically:

  * whenever the shifted observation z_hat + eta decodes correctly, so does
    z + eta (for every noise draw, not just on average), hence
    Pr(err) <= Pr(err after shift);
  * Pr(err after shift) <= 2 Q(alpha*sqrt(2)/sigma * sin(pi/M)), the union
    bound, which also covers alpha < 0 via Q(x) = 1 - Q(-x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import draw_channel, draw_symbols, draw_unit_noise, substream
from .constellation import MpskConstellation, sep_union_bound
from .falm import falm_solve
from .precoding import build_instance, point_margin

SIGMA = 0.5  # noise standard deviation of the scalar bound checks


@dataclass(frozen=True)
class SepEstimate:
    """Monte-Carlo error-probability estimates for a point and its shift,
    with binomial standard errors. Paired noise draws are used, so the
    per-draw implication makes err_rate <= err_rate_shifted exact."""

    err_rate: float
    err_rate_shifted: float
    std_err: float
    std_err_shifted: float


def empirical_sep(z: complex, sigma: float, order: int, n_trials: int, rng) -> SepEstimate:
    """Estimate Pr(dec(z + eta) != 1) and Pr(dec(z_hat + eta) != 1) from
    ``n_trials`` shared noise draws of variance sigma^2 taken from the
    Generator ``rng``, z_hat being the point_margin of z."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    # Written so that NaN fails too.
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    c = MpskConstellation(order)
    z_hat = point_margin(z, order)
    eta = sigma * draw_unit_noise(n_trials, rng)
    errs = np.count_nonzero(c.decide(z + eta))
    errs_shifted = np.count_nonzero(c.decide(z_hat + eta))

    def rate_and_se(k):
        p = k / n_trials
        return p, np.sqrt(p * (1.0 - p) / n_trials)

    p, se = rate_and_se(errs)
    p_s, se_s = rate_and_se(errs_shifted)
    return SepEstimate(
        err_rate=p,
        err_rate_shifted=p_s,
        std_err=se,
        std_err_shifted=se_s,
    )


@dataclass
class CheckResult:
    name: str
    detail: str
    passed: bool


def _implication_violations(order: int, n_draws: int, rng) -> int:
    """Count violations of the per-draw implication over random CN(0, 1) (z, eta)."""
    c = MpskConstellation(order)
    z = draw_unit_noise(n_draws, rng)
    eta = draw_unit_noise(n_draws, rng)
    shifted_ok = c.decide(point_margin(z, order) + eta) == 0
    plain_ok = c.decide(z + eta) == 0
    return int(np.count_nonzero(shifted_ok & ~plain_ok))


def _bound_test_points(rng) -> list:
    """Random z covering both margin signs for every order in {4, 8, 16}:
    small-imaginary points keep alpha > 0, large-imaginary ones push it
    negative once multiplied by cot(pi/M)."""
    points = []
    for _ in range(10):
        points.append(complex(0.5 + rng.uniform(0.0, 1.5), rng.uniform(-0.1, 0.1)))
    for _ in range(10):
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        points.append(complex(rng.uniform(-0.5, 0.4), sign * rng.uniform(0.8, 2.0)))
    return points


def run_verification(
    seed: int = 0,
    implication_draws: int = 100_000,
    bound_trials: int = 1_000_000,
) -> list:
    """Full verification suite: per-draw implication over random inputs, the
    empirical error chain against the closed-form bound (both margin signs),
    and the bound applied to the receptions of a FALM transmission. Returns
    one CheckResult per check."""
    results = []

    for order in (2, 4, 8, 16):
        violations = _implication_violations(order, implication_draws, substream(seed, 0, order))
        results.append(
            CheckResult(
                name=f"implication M={order}",
                detail=f"{violations} violations in {implication_draws} draws",
                passed=violations == 0,
            )
        )

    points = _bound_test_points(substream(seed, 1))
    for order in (4, 8, 16):
        alphas, chain_gaps, bound_gaps = [], [], []
        for j, z in enumerate(points):
            est = empirical_sep(z, SIGMA, order, bound_trials, substream(seed, 2, order, j))
            alpha = point_margin(z, order)
            bound = sep_union_bound(alpha, SIGMA, order)
            se_pair = np.hypot(est.std_err, est.std_err_shifted)
            alphas.append(alpha)
            chain_gaps.append(est.err_rate - est.err_rate_shifted - 3.0 * se_pair)
            bound_gaps.append(est.err_rate_shifted - bound - 3.0 * est.std_err_shifted)
        results.append(
            CheckResult(
                name=f"error chain M={order}",
                detail=_slack_detail(chain_gaps, alphas, "points"),
                passed=all(g <= 0 for g in chain_gaps),
            )
        )
        results.append(
            CheckResult(
                name=f"union bound M={order}",
                detail=_slack_detail(bound_gaps, alphas, "points"),
                passed=all(g <= 0 for g in bound_gaps),
            )
        )

    results.append(_precoded_reception_check(seed, bound_trials))
    return results


def _precoded_reception_check(seed: int, n_trials: int) -> CheckResult:
    """Union bound on the per-user SEP of a FALM transmission: for each user
    the reception rotated by the intended symbol is a scalar point whose
    margin feeds the closed-form bound."""
    rng = substream(seed, 3)
    n_antennas, n_users, order, power, sigma = 16, 4, 8, 1.0, 0.3
    H = draw_channel(n_users, n_antennas, rng)
    symbols = draw_symbols(order, n_users, rng)
    x = falm_solve(build_instance(H, symbols, order, power)).x_onebit.to_complex()
    z = H @ x * MpskConstellation(order).points[symbols].conj()
    alphas = point_margin(z, order)
    gaps = []
    for i, alpha in enumerate(alphas):
        est = empirical_sep(z[i], sigma, order, n_trials, substream(seed, 3, 10 + i))
        bound = sep_union_bound(alpha, sigma, order)
        gaps.append(est.err_rate - bound - 3.0 * est.std_err)
    return CheckResult(
        name="precoded receptions",
        detail=_slack_detail(gaps, alphas, "users"),
        passed=all(g <= 0 for g in gaps),
    )


def _slack_detail(gaps, alphas, unit: str) -> str:
    """The worst slack (gap) over the positive-margin points, and how many
    points sat at the clipped bound. A margin <= 0 clips the bound at 1,
    where the shifted error rate is typically 1 with zero standard error;
    that slack of exactly 0 would hide every informative point."""
    open_gaps = [g for g, alpha in zip(gaps, alphas) if alpha > 0]
    worst = f"{max(open_gaps):+.2e}" if open_gaps else "n/a"
    return (
        f"worst slack {worst} over {len(open_gaps)} positive-margin {unit}, "
        f"{len(gaps) - len(open_gaps)} at the clipped bound"
    )
