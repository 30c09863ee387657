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

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

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
    geometric update per outer iteration) before termination, each level one
    APG call of at most apg_max_iters iterations at the fixed step of
    ``apg_step``. The paper runs 2,000 per level at step 1/L; the default
    1,400 at the twice-larger step reaches the same mean worst-user margin
    with about 70% of the iterations at N=32 and N=128, and same-seed BER
    curves agree within paired Monte-Carlo error. Each call also ends at
    the gradient-mapping norm threshold of ``apg_tolerance``.
    """

    mu: float = 0.01
    lambda0: float = 0.01
    delta: float = 10.0
    lambda_max: float = 100.0
    apg_max_iters: int = 1400

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.lambda0 <= 0:
            raise ValueError(f"lambda0 must be positive, got {self.lambda0}")
        if self.delta <= 1:
            raise ValueError(f"delta must exceed 1, got {self.delta}")
        if self.lambda_max <= self.lambda0:
            raise ValueError("lambda_max must exceed lambda0")
        if self.apg_max_iters < 1:
            raise ValueError("apg_max_iters must be >= 1")


class OuterStep(NamedTuple):
    """One outer iteration: the penalty weight in force, the penalized
    surrogate and the penalty gap after its v-update, and the number of
    iterations its APG call ran."""

    lam: float
    objective: float
    penalty_gap: float
    apg_iterations: int


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one FALM solve. ``margin`` is always evaluated on the
    quantized one-bit vector that is returned; ``steps`` holds one record
    per outer iteration."""

    x_onebit: OneBitVector
    margin: float
    steps: list

    @property
    def outer_iterations(self) -> int:
        return len(self.steps)

    @property
    def inner_iterations(self) -> int:
        return sum(step.apg_iterations for step in self.steps)


def smoothed_objective(instance: PrecodingInstance, x_real: np.ndarray, mu: float) -> float:
    """Log-sum-exp upper surrogate of the negated worst-user margin,
    evaluated with max-subtraction so large |x|/mu cannot overflow."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    z = (instance.forms @ np.asarray(x_real, dtype=float)) / mu
    zmax = z.max()
    return float(mu * (zmax + np.log(np.exp(z - zmax).sum())))


def apg_step(instance: PrecodingInstance, mu: float) -> float:
    """The fixed APG step 2/L, L = |forms|^2 / mu, with |.| the spectral norm.

    The penalized surrogate's Hessian is (1/mu) F^T (diag(p) - p p^T) F, F
    the forms and p the softmax weights of the scores F x / mu; the penalty
    lam * (P - x . v) is linear in x and adds nothing. For a unit vector u,
    u^T (diag(p) - p p^T) u is the variance of u's entries under p, which
    Popoviciu's inequality bounds by (max u - min u)^2 / 4 <= 1/2. So the
    gradient is Lipschitz with constant |F|^2 / (2 mu) = L / 2, and a step of
    its inverse keeps the restart's plain projected-gradient step a descent
    step (Beck & Teboulle, "A fast iterative shrinkage-thresholding
    algorithm", SIAM J. Imaging Sci. 2009). It is exactly twice the 1/L of
    the entropy-prox bound (Nesterov 2005).
    """
    return 2.0 / (instance.spectral_norm ** 2 / mu)


def apg_tolerance(instance: PrecodingInstance) -> float:
    """The APG gradient-mapping norm threshold, 1e-6 * sqrt(2N) * a."""
    return 1e-6 * np.sqrt(2 * instance.n_antennas) * instance.amplitude


def update_v(x_real: np.ndarray, power: float) -> np.ndarray:
    """Closed-form penalty minimizer over the ball |v|^2 <= P:
    sqrt(P) * x / |x| for x != 0, and 0 (feasible) at x = 0."""
    x_real = np.asarray(x_real, dtype=float)
    norm = np.linalg.norm(x_real)
    if norm == 0.0:
        return np.zeros_like(x_real)
    return np.sqrt(power) / norm * x_real


class _Point:
    """Buffers of one APG point p: ``ps`` = [p | s] holds p and its scores
    s = [forms @ p / mu; p . v], and ``w`` = [e | -lam * sum(e)] the
    gradient weights, e = exp(s[:2K] - max(s[:2K]))."""

    __slots__ = ("ps", "p", "s", "s_forms", "w", "e")

    def __init__(self, n2, m):
        self.ps = np.empty(n2 + m + 1)
        self.p, self.s, self.s_forms = self.ps[:n2], self.ps[n2:], self.ps[n2 : n2 + m]
        self.w = np.empty(m + 1)
        self.e = self.w[:m]


def _apg(instance, v, lam, mu, x_init, config):
    """Monotone APG on the penalized surrogate over the box [-a, a]^2N.

    Nesterov momentum is restarted whenever the accelerated step fails to
    decrease the objective, in which case a plain projected-gradient step is
    taken instead (guaranteed descent at the step of ``apg_step``, the
    inverse of the gradient's Lipschitz constant). Returns
    (x, iterations), the iterations counting those the call ran; the
    returned objective never exceeds the initial one.

    Every point p is kept with its scores s = [forms @ p / mu; p . v], one
    forward product against [forms / mu; v], and with e = exp(s[:2K] - max):
    the penalized value there is mu * (max + log(sum e)) + lam * (P - p . v).
    One transposed product against [forms^T | v] with the weights
    [e; -lam * sum(e)] gives sum(e) times the gradient; the step size absorbs
    the 1/sum(e). The momentum point y = x + beta (x - x_prev) takes its
    scores s_x + beta (s_x - s_prev) by linearity, so an accepted iteration
    costs one forward and one transposed product. The tolerance test
    |y - z| / step <= tol first reads one probe rail, which decides it on
    nearly every iteration without the norm. The plain loop kept as the
    reference in tests/test_falm.py does the same arithmetic, and x and the
    count match it bit for bit.

    A call ends at the tolerance, at the cap, or when it stalls: the plain
    step of a restart is rejected too. The step is fixed, so a stall
    leaves (x, y = x, t = 1), from which every later iteration would
    recompute the same rejected step; x is final. A step rejected from
    y = x is that plain step already, so it stalls without recomputing it.
    A non-finite value at any point raises SolverFailure.
    """
    a = instance.amplitude
    n2 = 2 * instance.n_antennas
    tol = apg_tolerance(instance)
    max_iters = config.apg_max_iters
    forms = instance.forms
    m = forms.shape[0]
    power = instance.power
    # Local names and a positional ``out`` cut numpy's per-call dispatch;
    # maximum and minimum deprecate a positional ``out``.
    dot, add, subtract, multiply, exp = np.dot, np.add, np.subtract, np.multiply, np.exp
    maximum, minimum = np.maximum, np.minimum
    log, sqrt, isfinite = math.log, math.sqrt, math.isfinite
    ones = np.ones(m)
    # Array bounds: numpy converts scalar bounds on every call.
    lower, upper = np.full(n2, -a), np.full(n2, a)

    # Column-major: measured faster for both products at N=32 and no slower
    # at N=128. Their rounding depends on the layout; the reference shares it.
    forward = np.asfortranarray(np.vstack([forms / mu, v]))
    transposed = np.asfortranarray(np.vstack([forms, v]).T)

    step = apg_step(instance, mu)
    limit = 2.0 * tol * step
    probe = 0

    def weigh(point):
        """Fill the point's e from its scores; return (sum(e), value).
        Indexing at argmax and a dot with ones cost less than the ufunc
        reductions."""
        s_forms, e = point.s_forms, point.e
        shift = s_forms.item(s_forms.argmax())
        subtract(s_forms, shift, e)
        exp(e, e)
        total = dot(e, ones)
        return total, mu * (shift + log(total)) + lam * (power - point.s.item(m))

    def descend(src, total):
        """Gradient at src from its weights, then the projected gradient
        step along it into z, scored; returns weigh(z), or raises
        SolverFailure if its value is not finite. The box projection is
        np.clip's result at about a third of its call overhead."""
        w, zp = src.w, z.p
        w[m] = -lam * total
        dot(transposed, w, g)
        multiply(g, step / total, zp)
        subtract(src.p, zp, zp)
        maximum(zp, lower, out=zp)
        minimum(zp, upper, out=zp)
        dot(forward, zp, z.s)
        total_z, value_z = weigh(z)
        if not isfinite(value_z):
            raise SolverFailure("non-finite objective during APG iteration")
        return total_z, value_z

    x, prev, z, y_slot = (_Point(n2, m) for _ in range(4))
    g, d = np.empty(n2), np.empty(n2)
    minimum(maximum(np.asarray(x_init, dtype=float), lower), upper, out=x.p)
    dot(forward, x.p, x.s)
    sum_x, value_x = weigh(x)
    if not isfinite(value_x):
        raise SolverFailure("non-finite objective at the APG starting point")
    y, sum_y = x, sum_x
    t = 1.0
    iterations = 0

    while iterations < max_iters:
        iterations += 1
        sum_z, value_z = descend(y, sum_y)

        # |y - z| / step <= tol needs |y_j - z_j| <= tol * step on every rail,
        # so a probe rail beyond limit = 2 tol step (the 2 covers the norm's
        # rounding) decides the test without it. Otherwise run the test, and
        # probe the rail that moved most next.
        if abs(y.p[probe] - z.p[probe]) <= limit:
            subtract(y.p, z.p, d)
            if sqrt(dot(d, d)) / step <= tol:
                if value_z <= value_x:
                    x = z
                break
            probe = np.abs(d, out=d).argmax()

        if value_z <= value_x:
            prev, x, z = x, z, prev
            sum_x, value_x = sum_z, value_z
            t_next = 0.5 * (1.0 + sqrt(1.0 + 4.0 * t * t))
            # y and its scores in one pass over [p | s].
            y = y_slot
            subtract(x.ps, prev.ps, y.ps)
            multiply(y.ps, (t - 1.0) / t_next, y.ps)
            add(y.ps, x.ps, y.ps)
            t = t_next
            sum_y = weigh(y)[0]
            continue

        # Restart from x with a plain projected-gradient step; stall if it
        # is rejected too. From y = x that step is the one just rejected.
        if y is x:
            break
        sum_z, value_z = descend(x, sum_x)
        if not value_z <= value_x:
            break
        x, z = z, x
        sum_x, value_x = sum_z, value_z
        y, sum_y = x, sum_x
        t = 1.0

    return x.p.copy(), iterations


def falm_solve(
    instance: PrecodingInstance,
    config: Optional[SolverConfig] = None,
    init=None,
    trace_file=None,
) -> SolveReport:
    """Run the full penalty continuation and return the quantized solution.

    ``init`` is None (x0 = v0 = 0, the standard start) or a real 2N vector.
    Each APG call warm-starts from the previous outer iterate. ``trace_file``
    is None or an open text file, which receives each outer step of the
    report as a CSV row for debugging; its ``inner_iters`` column is the
    step's APG count.
    """
    if config is None:
        config = SolverConfig()
    n2 = 2 * instance.n_antennas
    if init is None:
        x = np.zeros(n2)
    else:
        x = np.array(init, dtype=float)
        if x.shape != (n2,):
            raise ValueError(f"init shape {x.shape} does not match ({n2},)")
    v = np.zeros(n2)

    steps = []
    if trace_file is not None:
        trace_file.write("outer_iter,lambda,objective,penalty_gap,inner_iters\n")
    lam = config.lambda0
    while lam <= config.lambda_max:
        x, inner = _apg(instance, v, lam, config.mu, x, config)
        v = update_v(x, instance.power)
        gap = instance.power - x @ v
        objective = smoothed_objective(instance, x, config.mu) + lam * gap
        steps.append(OuterStep(lam, objective, gap, inner))
        if trace_file is not None:
            trace_file.write(f"{len(steps)},{lam:.6g},{objective:.12g},{gap:.12g},{inner}\n")
        lam *= config.delta

    x_q = quantize_one_bit(x, instance.power)
    return SolveReport(OneBitVector(x_q, instance.power), min_margin(instance, x_q), steps)
