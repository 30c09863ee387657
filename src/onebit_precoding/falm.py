"""Fast alternating minimization (FALM) for minimum-SEP one-bit precoding.

The worst-user margin objective max_i max(u_i.x, w_i.x) is replaced by the
log-sum-exp surrogate

    f(x) = mu * log sum_i (exp(u_i.x / mu) + exp(w_i.x / mu)),

which over-approximates it by at most mu*log(2K). The binary constraint
x in {+/- a}^2N (a = sqrt(P/2N)) is exchanged for a box plus the penalty
lambda * (P - x.v) with an auxiliary v on the ball |v|^2 <= P: the penalty is
nonnegative on the feasible set and vanishes exactly at binary points with
v = x. The outer loop alternates an accelerated projected gradient (APG)
x-update with the closed-form v-update v = sqrt(P) x / |x|, growing lambda
geometrically until it crosses lambda_max; the iterate is then snapped onto
the one-bit alphabet by componentwise sign (ties to +).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .precoding import (
    OneBitVector,
    PrecodingInstance,
    min_margin,
    quantize_one_bit,
)


class SolverFailure(RuntimeError):
    """Raised when the solver encounters a non-finite objective."""


@dataclass(frozen=True)
class SolverConfig:
    """FALM hyperparameters.

    Defaults give the penalty trace 0.01, 0.1, 1, 10, 100 (five levels, one
    geometric update per outer iteration) before termination. apg_tolerance
    is a gradient-mapping norm threshold; None selects
    1e-6 * sqrt(2N) * sqrt(P/2N) per instance.
    """

    mu: float = 0.01
    lambda0: float = 0.01
    delta: float = 10.0
    lambda_max: float = 100.0
    penalty_update_period: int = 1
    apg_max_iters: int = 2000
    apg_tolerance: Optional[float] = None
    apg_step_rule: str = "fixed-lipschitz"

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.lambda0 <= 0:
            raise ValueError(f"lambda0 must be positive, got {self.lambda0}")
        if self.delta <= 1:
            raise ValueError(f"delta must exceed 1, got {self.delta}")
        if self.lambda_max <= self.lambda0:
            raise ValueError("lambda_max must exceed lambda0")
        if self.penalty_update_period < 1:
            raise ValueError("penalty_update_period must be >= 1")
        if self.apg_max_iters < 1:
            raise ValueError("apg_max_iters must be >= 1")
        if self.apg_tolerance is not None and self.apg_tolerance <= 0:
            raise ValueError("apg_tolerance must be positive")
        if self.apg_step_rule not in ("fixed-lipschitz", "backtracking"):
            raise ValueError(f"unknown apg_step_rule {self.apg_step_rule!r}")


@dataclass
class SolveReport:
    """Outcome of one FALM solve. ``margin`` is always evaluated on the
    quantized one-bit vector that is returned. ``inner_iterations`` sums the
    APG iteration counts, including the iterations of a rejected-restart
    cycle that the loop skips (see ``_apg``)."""

    x_onebit: OneBitVector
    margin: float
    outer_iterations: int
    inner_iterations: int
    objective_trace: list = field(default_factory=list)
    penalty_gap_trace: list = field(default_factory=list)
    lambda_trace: list = field(default_factory=list)


def _scores(instance: PrecodingInstance, x_real: np.ndarray, mu: float):
    """Shifted exponents of the surrogate; shared by value and gradient."""
    z = (instance.stacked @ x_real) / mu
    zmax = z.max()
    e = np.exp(z - zmax)
    return zmax, e


def smoothed_objective(instance: PrecodingInstance, x_real: np.ndarray, mu: float) -> float:
    """Log-sum-exp upper surrogate of the negated worst-user margin,
    evaluated with max-subtraction so large |x|/mu cannot overflow."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    zmax, e = _scores(instance, np.asarray(x_real, dtype=float), mu)
    return float(mu * (zmax + np.log(e.sum())))


def smoothed_gradient(instance: PrecodingInstance, x_real: np.ndarray, mu: float) -> np.ndarray:
    """Gradient of the surrogate: softmax-weighted combination of the margin
    forms. The weights are computed with max-subtraction and sum to 1."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    _, e = _scores(instance, np.asarray(x_real, dtype=float), mu)
    return instance.stacked.T @ (e / e.sum())


def update_v(x_real: np.ndarray, power: float) -> np.ndarray:
    """Closed-form penalty minimizer over the ball |v|^2 <= P:
    sqrt(P) * x / |x| for x != 0, and 0 (feasible) at x = 0."""
    x_real = np.asarray(x_real, dtype=float)
    norm = np.linalg.norm(x_real)
    if norm == 0.0:
        return np.zeros_like(x_real)
    return np.sqrt(power) / norm * x_real


def _apg(instance, v, lam, mu, x_init, config):
    """Monotone APG on the penalized surrogate over the box [-a, a]^2N.

    Nesterov momentum is restarted whenever the accelerated step fails to
    decrease the objective, in which case a plain projected-gradient step is
    taken instead (guaranteed descent at step <= 1/L). Returns
    (x, iterations); the returned objective never exceeds the initial one.

    The loop performs the floating-point operations of the plain loop (kept
    as the reference in tests/test_falm.py) in the same order, so x and the
    count match it bit for bit. It only skips repeated work: the softmax
    weights of x are kept from the step that accepted it, so a restart costs
    no extra forward product, and the surrogate's value is only evaluated
    where a test reads it.

    Under the fixed step a rejected restart leaves (x, y = x, t = 1), from
    which every later iteration recomputes the same rejected step. The loop
    therefore runs that next iteration's tests once and returns: a
    non-finite value raises SolverFailure, a step within tolerance stops
    there, and otherwise the cap is reached. ``iterations`` is in every case
    the count the plain loop would have reached, and x is its result.
    Backtracking can raise its Lipschitz estimate after a rejected restart,
    so it keeps iterating.
    """
    a = instance.amplitude
    n2 = 2 * instance.n_antennas
    tol = config.apg_tolerance
    if tol is None:
        tol = 1e-6 * np.sqrt(n2) * a
    max_iters = config.apg_max_iters
    forms = instance.stacked
    forms_t = forms.T
    power = instance.power
    lam_v = lam * v
    max_of, sum_of = np.maximum.reduce, np.add.reduce

    lips = instance.spectral_norm ** 2 / mu
    backtrack = config.apg_step_rule == "backtracking"
    # Backtracking starts optimistic and only ever raises its estimate.
    lips_bt = lips / 64.0 if backtrack else lips
    step = 1.0 / lips_bt

    def exponents(p):
        """(e, shift, total) with s = forms @ p / mu, shift = max(s) and
        e = exp(s - shift), which cannot overflow. The surrogate at p is
        mu * (shift + log(total)), its gradient forms_t @ (e / total)."""
        e = forms @ p
        e /= mu
        shift = max_of(e)
        e -= shift
        np.exp(e, out=e)
        return e, shift, sum_of(e)

    def penalized_value(p, shift, total):
        """Surrogate plus penalty at p, from the shift and sum of its exponents."""
        return float(mu * (shift + np.log(total)) + lam * (power - p @ v))

    def descend(p, grad):
        """Projected gradient step z from p, with z's exponents, their sum
        and the value at z. The box projection is np.clip's result at about
        half its call overhead."""
        z = step * grad
        np.subtract(p, z, out=z)
        np.maximum(z, -a, out=z)
        np.minimum(z, a, out=z)
        e, shift, total = exponents(z)
        return z, e, total, penalized_value(z, shift, total)

    x = np.minimum(np.maximum(np.asarray(x_init, dtype=float), -a), a)
    e_x, shift, sum_x = exponents(x)
    value_x = penalized_value(x, shift, sum_x)
    if not math.isfinite(value_x):
        raise SolverFailure("non-finite objective at the APG starting point")
    y, value_y, grad_y = x, value_x, None
    t = 1.0
    iterations = 0

    while iterations < max_iters:
        iterations += 1
        if grad_y is None:
            if y is x:
                weights = e_x / sum_x
            else:
                weights, shift, total = exponents(y)
                if backtrack:
                    value_y = penalized_value(y, shift, total)
                weights /= total
            grad_y = forms_t @ weights
            grad_y -= lam_v
        z, e_z, sum_z, value_z = descend(y, grad_y)
        while backtrack and value_z > value_y + grad_y @ (z - y) + 0.5 * lips_bt * np.sum(
            (z - y) ** 2
        ) + 1e-12 and lips_bt < 1e2 * lips:
            lips_bt *= 2.0
            step = 1.0 / lips_bt
            z, e_z, sum_z, value_z = descend(y, grad_y)
        if not math.isfinite(value_z):
            raise SolverFailure("non-finite objective during APG iteration")

        d = y - z
        if math.sqrt(d @ d) / step <= tol:
            if value_z <= value_x:
                x = z
            break

        if value_z <= value_x:
            x_prev = x
            x, value_x, e_x, sum_x = z, value_z, e_z, sum_z
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x - x_prev
            y *= (t - 1.0) / t_next
            y += x
            grad_y = None
            t = t_next
            continue

        # Restart from x with a plain projected-gradient step.
        grad_x = forms_t @ (e_x / sum_x)
        grad_x -= lam_v
        z, e_z, sum_z, value_z = descend(x, grad_x)
        if value_z <= value_x:
            x, value_x, e_x, sum_x = z, value_z, e_z, sum_z
            grad_y = None
        elif not backtrack:
            # Rejected-restart cycle: run the next iteration's tests once.
            if iterations < max_iters:
                iterations += 1
                if not math.isfinite(value_z):
                    raise SolverFailure("non-finite objective during APG iteration")
                d = x - z
                if not math.sqrt(d @ d) / step <= tol:
                    iterations = max_iters
            break
        else:
            grad_y = grad_x
        y, value_y = x, value_x
        t = 1.0

    return x, iterations


def apg_minimize(
    instance: PrecodingInstance,
    v: np.ndarray,
    lam: float,
    mu: float,
    x_init: np.ndarray,
    config: SolverConfig,
) -> np.ndarray:
    """Approximately minimize f(x) + lambda*(P - x.v) over the box, by
    Nesterov-accelerated projected gradient with clamp projection."""
    x, _ = _apg(instance, np.asarray(v, dtype=float), lam, mu, x_init, config)
    return x


def falm_solve(
    instance: PrecodingInstance,
    config: Optional[SolverConfig] = None,
    init=None,
    trace_file=None,
) -> SolveReport:
    """Run the full penalty continuation and return the quantized solution.

    ``init`` may be None (x0 = v0 = 0, the standard start), an explicit real
    2N vector, or an integer seed for a uniform random point in the box. Each
    APG call warm-starts from the previous outer iterate. ``trace_file``
    optionally receives one CSV row per outer iteration for debugging; its
    ``inner_iters`` column is that APG call's count, which runs up to the cap
    when the call ends in a rejected-restart cycle.
    """
    if config is None:
        config = SolverConfig()
    n2 = 2 * instance.n_antennas
    if init is None:
        x = np.zeros(n2)
    elif np.isscalar(init):
        rng = np.random.default_rng(int(init))
        x = rng.uniform(-instance.amplitude, instance.amplitude, size=n2)
    else:
        x = np.asarray(init, dtype=float).copy()
        if x.shape != (n2,):
            raise ValueError(f"init shape {x.shape} does not match ({n2},)")
    v = np.zeros(n2)

    report = SolveReport(
        x_onebit=None, margin=np.nan, outer_iterations=0, inner_iterations=0
    )
    close_trace = False
    if isinstance(trace_file, str):
        trace_file = open(trace_file, "w", encoding="utf-8")
        close_trace = True
    if trace_file is not None:
        trace_file.write("outer_iter,lambda,objective,penalty_gap,inner_iters\n")

    try:
        lam = config.lambda0
        k = 0
        while lam <= config.lambda_max:
            report.lambda_trace.append(lam)
            x, inner = _apg(instance, v, lam, config.mu, x, config)
            v = update_v(x, instance.power)
            k += 1
            report.outer_iterations = k
            report.inner_iterations += inner
            gap = instance.power - x @ v
            objective = smoothed_objective(instance, x, config.mu) + lam * gap
            report.objective_trace.append(objective)
            report.penalty_gap_trace.append(gap)
            if trace_file is not None:
                trace_file.write(f"{k},{lam:.6g},{objective:.12g},{gap:.12g},{inner}\n")
            if k % config.penalty_update_period == 0:
                lam *= config.delta
    finally:
        if close_trace:
            trace_file.close()

    x_q = quantize_one_bit(x, instance.power)
    report.x_onebit = OneBitVector(x_q, instance.power)
    report.margin = min_margin(instance, x_q)
    return report


def default_config(**overrides) -> SolverConfig:
    """SolverConfig with keyword overrides applied to the defaults."""
    return dataclasses.replace(SolverConfig(), **overrides)
