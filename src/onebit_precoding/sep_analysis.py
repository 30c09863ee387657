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

from .channel import RngSeed, _generator
from .constellation import MpskConstellation, sep_union_bound
from .precoding import one_bit_amplitude, point_margin, safety_margin


@dataclass(frozen=True)
class SepEstimate:
    """Monte-Carlo error-probability estimates for a point and its shift,
    with binomial standard errors. Paired noise draws are used, so the
    per-draw implication makes err_rate <= err_rate_shifted exact."""

    err_rate: float
    err_rate_shifted: float
    std_err: float
    std_err_shifted: float
    n_trials: int


def empirical_sep(z: complex, sigma: float, order: int, n_trials: int, seed) -> SepEstimate:
    """Estimate Pr(dec(z + eta) != 1) and Pr(dec(z_hat + eta) != 1) from
    ``n_trials`` shared noise draws of variance sigma^2, z_hat being the
    point_margin of z."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    # Written so that NaN fails too.
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    rng = _generator(seed)
    c = MpskConstellation(order)
    z_hat = point_margin(z, order)
    eta = (
        sigma
        / np.sqrt(2.0)
        * (rng.standard_normal(n_trials) + 1j * rng.standard_normal(n_trials))
    )
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
        n_trials=n_trials,
    )


@dataclass
class CheckResult:
    name: str
    detail: str
    passed: bool


def _implication_violations(order: int, n_draws: int, seed: RngSeed) -> int:
    """Count violations of the per-draw implication over random (z, eta)."""
    rng = seed.generator()
    c = MpskConstellation(order)
    z = rng.standard_normal(n_draws) + 1j * rng.standard_normal(n_draws)
    eta = rng.standard_normal(n_draws) + 1j * rng.standard_normal(n_draws)
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
    sigma: float = 0.5,
) -> list:
    """Full verification suite: per-draw implication over random inputs, the
    empirical error chain against the closed-form bound (both margin signs),
    and the bound applied to receptions of a random one-bit precoded
    transmission. Returns one CheckResult per check."""
    base = RngSeed(seed)
    results = []

    for order in (2, 4, 8, 16):
        violations = _implication_violations(order, implication_draws, base.child(0, order))
        results.append(
            CheckResult(
                name=f"implication M={order}",
                detail=f"{violations} violations in {implication_draws} draws",
                passed=violations == 0,
            )
        )

    rng = base.child(1).generator()
    points = _bound_test_points(rng)
    for order in (4, 8, 16):
        chain_ok = True
        bound_ok = True
        worst_chain = -np.inf
        worst_bound = -np.inf
        for j, z in enumerate(points):
            est = empirical_sep(z, sigma, order, bound_trials, base.child(2, order, j))
            alpha = point_margin(z, order)
            bound = sep_union_bound(alpha, sigma, order)
            se_pair = np.hypot(est.std_err, est.std_err_shifted)
            chain_gap = est.err_rate - est.err_rate_shifted - 3.0 * se_pair
            bound_gap = est.err_rate_shifted - bound - 3.0 * est.std_err_shifted
            worst_chain = max(worst_chain, chain_gap)
            worst_bound = max(worst_bound, bound_gap)
            chain_ok &= chain_gap <= 0
            bound_ok &= bound_gap <= 0
        results.append(
            CheckResult(
                name=f"error chain M={order}",
                detail=f"worst slack {worst_chain:+.2e} over {len(points)} points",
                passed=chain_ok,
            )
        )
        results.append(
            CheckResult(
                name=f"union bound M={order}",
                detail=f"worst slack {worst_bound:+.2e} over {len(points)} points",
                passed=bound_ok,
            )
        )

    results.append(_precoded_reception_check(base.child(3), bound_trials, sigma=0.3))
    return results


def _precoded_reception_check(seed: RngSeed, n_trials: int, sigma: float) -> CheckResult:
    """Union bound on the per-user SEP of an actual one-bit transmission:
    for each user the reception rotated by the intended symbol is a scalar
    point whose margin feeds the closed-form bound."""
    rng = seed.generator()
    n_antennas, n_users, order, power = 16, 4, 8, 1.0
    H = (
        rng.standard_normal((n_users, n_antennas))
        + 1j * rng.standard_normal((n_users, n_antennas))
    ) / np.sqrt(2.0)
    symbols = rng.integers(0, order, size=n_users)
    a = one_bit_amplitude(power, n_antennas)
    x = a * (
        np.where(rng.uniform(size=n_antennas) < 0.5, 1.0, -1.0)
        + 1j * np.where(rng.uniform(size=n_antennas) < 0.5, 1.0, -1.0)
    )
    s = np.exp(2j * np.pi * symbols / order)
    ok = True
    worst = -np.inf
    for i in range(n_users):
        z = complex(H[i] @ x * np.conj(s[i]))
        est = empirical_sep(z, sigma, order, n_trials, seed.child(10 + i))
        alpha = safety_margin(H[i], x, s[i], order)
        bound = sep_union_bound(alpha, sigma, order)
        gap = est.err_rate - bound - 3.0 * est.std_err
        worst = max(worst, gap)
        ok &= gap <= 0
    return CheckResult(
        name="precoded receptions",
        detail=f"worst slack {worst:+.2e} over {n_users} users",
        passed=ok,
    )
