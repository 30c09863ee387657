"""Fast alternating minimization (FALM) for minimum-SEP one-bit precoding.

The worst-user margin objective max_i max(u_i.x, w_i.x) is replaced by the
log-sum-exp surrogate

    f(x) = mu * log sum_i (exp(u_i.x / mu) + exp(w_i.x / mu)),

which over-approximates it by at most mu*log(2K). The binary constraint
x in {+/- a}^2N (a = sqrt(P/2N)) is exchanged for a box plus the penalty
lambda * (P - x.v) with an auxiliary v on the ball |v|^2 <= P: the penalty is
nonnegative on the feasible set and vanishes exactly at binary points with
v = x. The outer loop alternates an accelerated projected gradient (APG)
x-update with the closed-form v-update v = sqrt(P) x / |x|, one outer
iteration per level of ``PENALTY_LEVELS`` (lambda = 0.01 to 100 by factors of
10); the iterate is then snapped onto the one-bit alphabet by componentwise
sign (ties to +). It starts from the solution of the box-relaxed
max-min-margin LP with v = 0, and its first two outer iterations take one APG
iteration each. The APG step backtracks from a growing trial down to the floor
2/L, L = |forms|^2 / mu, which is also every call's first step.
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

# The penalty continuation: (lambda, APG cap) per outer iteration, where a
# cap of None means apg_max_iters. The start, the box LP's solution, already
# maximizes the worst-user margin over the box, which is what the
# small-penalty levels approach, so more iterations there buy nothing.
PENALTY_LEVELS = ((0.01, 1), (0.1, 1), (1.0, None), (10.0, None), (100.0, None))

# The APG step doubles after this many consecutive iterations without a
# halving. Projections per solve (iterations, restarts and halvings) over 20
# N=32, K=8 8-PSK instances: 1,003 at 1, 856 at 2, 779 at 5 and 811 at 10.
STEP_GROWTH_ITERS = 5


class SolverFailure(RuntimeError):
    """Raised when the solver encounters a non-finite objective."""


@dataclass(frozen=True)
class SolverConfig:
    """FALM hyperparameters: the smoothing parameter and the APG cap of the
    levels of ``PENALTY_LEVELS`` that set none. A call's first step is
    ``apg_step``, the floor of its backtracking step rule (see ``_apg``).
    The paper runs 2,000 iterations per level at the fixed step 1/L. With
    the backtracking step a default solve at N=32, K=8 runs ~650 iterations
    over its five levels and reaches no cap; the 1,400 cap bounds the rest.
    Each call also ends at the gradient-mapping norm threshold of
    ``apg_tolerance``. ``mu`` must be positive and finite, ``apg_max_iters``
    an integer >= 1.
    """

    mu: float = 0.01
    apg_max_iters: int = 1400

    def __post_init__(self):
        # Written so that NaN fails too.
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        cap = self.apg_max_iters
        if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) or cap < 1:
            raise ValueError(f"apg_max_iters must be an integer >= 1, got {cap!r}")


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
    """Outcome of one one-bit solve, FALM's or MSM's. ``margin`` is always
    evaluated on the quantized one-bit vector that is returned; ``steps``
    holds one record per outer iteration, none for MSM; ``relaxed_optimum``
    is the box LP's optimum t*, an upper bound on every one-bit margin."""

    x_onebit: OneBitVector
    margin: float
    steps: list
    relaxed_optimum: float

    @classmethod
    def quantized(cls, instance: PrecodingInstance, x_real, steps: list, relaxed_optimum: float):
        """The report of the relaxed point x_real quantized componentwise by
        sign (ties to +)."""
        x = quantize_one_bit(x_real, instance.power)
        return cls(x, min_margin(instance, x.x_real), steps, relaxed_optimum)

    @property
    def outer_iterations(self) -> int:
        return len(self.steps)

    @property
    def inner_iterations(self) -> int:
        return sum(step.apg_iterations for step in self.steps)


def smoothed_objective(instance: PrecodingInstance, x_real: np.ndarray, mu: float) -> float:
    """Log-sum-exp upper surrogate of the negated worst-user margin,
    evaluated with max-subtraction so large |x|/mu cannot overflow."""
    if not 0 < mu < math.inf:  # written so that NaN fails too
        raise ValueError(f"mu must be positive and finite, got {mu}")
    z = (instance.forms @ np.asarray(x_real, dtype=float)) / mu
    zmax = z.max()
    return float(mu * (zmax + np.log(np.exp(z - zmax).sum())))


def apg_step(instance: PrecodingInstance, mu: float) -> float:
    """The floor and first step of the APG, 2/L, L = |forms|^2 / mu, with
    |.| the spectral norm.

    The penalized surrogate's Hessian is (1/mu) F^T (diag(p) - p p^T) F, F
    the forms and p the softmax weights of the scores F x / mu; the penalty
    lam * (P - x . v) is linear in x and adds nothing. For a unit vector u,
    u^T (diag(p) - p p^T) u is the variance of u's entries under p, which
    Popoviciu's inequality bounds by (max u - min u)^2 / 4 <= 1/2. So the
    gradient is Lipschitz with constant |F|^2 / (2 mu) = L / 2, and at a step
    of its inverse the local quadratic bound that ``_apg`` tests for longer
    steps holds everywhere, which keeps the restart's plain projected-gradient
    step a descent step (Beck & Teboulle, "A fast iterative
    shrinkage-thresholding algorithm", SIAM J. Imaging Sci. 2009). It is
    exactly twice the 1/L of the entropy-prox bound (Nesterov 2005).
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


def _apg(instance, v, lam, mu, x_init, max_iters):
    """Monotone APG on the penalized surrogate over the box [-a, a]^2N.

    Nesterov momentum is restarted whenever the accelerated step fails to
    decrease the objective, in which case a plain projected-gradient step is
    taken from x instead. Returns (x, iterations), the iterations counting
    those the call ran; the returned objective never exceeds the initial one.

    The step s backtracks from a growing trial above the floor ``apg_step``,
    the inverse of the gradient's Lipschitz constant. Every call starts at
    the floor. A step s > floor from a point p (y, or x on a restart), with
    z its projected step, is kept only under the local quadratic bound

        value(z) <= value(p) + <grad(p), z - p> + |z - p|^2 / (2 s);

    otherwise s = max(s / 2, floor) and only the projection is redone, with
    the same gradient. At the floor the bound holds by ``apg_step``'s
    Lipschitz argument and is not tested, so a kept step from x always
    descends and the restart is a descent step. After ``STEP_GROWTH_ITERS``
    consecutive iterations without a halving the step doubles (Beck &
    Teboulle 2009; Scheinberg, Goldfarb & Bai, "Fast first-order methods for
    composite convex optimization with backtracking", 2014).

    Every point p is kept with its scores s = [forms @ p / mu; p . v], one
    forward product against [forms / mu; v], and with e = exp(s[:2K] - max):
    the penalized value there is mu * (max + log(sum e)) + lam * (P - p . v).
    One transposed product against [forms^T | v] with the weights
    [e; -lam * sum(e)] gives g = sum(e) times the gradient; the step size
    absorbs the 1/sum(e), and the bound's two inner products, <g, d> and
    <d, d> with d = z - p, come from one product of the stacked [g; d] with
    d. The momentum point y = x + beta (x - x_prev) takes its scores
    s_x + beta (s_x - s_prev) by linearity, so an accepted iteration without
    a halving costs one forward and one transposed product. The tolerance
    test |y - z| <= tol * floor first reads one probe rail, which decides it
    on nearly every iteration without the norm; |y - z| grows with the step,
    so an exit there also has the floor's step within tolerance. The plain
    loop kept as the reference in tests/test_falm.py does the same
    arithmetic, and x and the count match it bit for bit.

    A call ends at the tolerance, after max_iters iterations, or when it
    stalls: the plain step of a restart is rejected too, which happens only
    at the floor. A stall leaves (x, y = x, t = 1), from which every later
    iteration at the floor would recompute the same rejected step; x is
    final. A non-finite value at any point raises SolverFailure.
    """
    a = instance.amplitude
    n2 = 2 * instance.n_antennas
    tol = apg_tolerance(instance)
    forms = instance.forms
    m = forms.shape[0]
    power = instance.power
    # Local names and a positional ``out`` cut numpy's per-call dispatch;
    # maximum and minimum deprecate a positional ``out``. Every product but
    # the rare full tolerance test goes through a bound ndarray.dot, which
    # skips np.dot's __array_function__ layer.
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
    forward_dot, transposed_dot = forward.dot, transposed.dot

    floor = apg_step(instance, mu)
    step = floor
    calm = 0  # consecutive iterations without a halving
    bound = tol * floor
    limit = 2.0 * bound
    probe = 0

    def weigh(point):
        """Fill the point's e from its scores; return (sum(e), value).
        Indexing at argmax and a dot with ones cost less than the ufunc
        reductions."""
        s_forms, e = point.s_forms, point.e
        shift = s_forms.item(s_forms.argmax())
        subtract(s_forms, shift, e)
        exp(e, e)
        total = e.dot(ones)
        return total, mu * (shift + log(total)) + lam * (power - point.s.item(m))

    def descend(src, total, value):
        """Gradient at src from its weights, then the projected gradient
        step along it into z, scored and halved until kept; returns
        weigh(z), or raises SolverFailure if a value is not finite. The box
        projection is np.clip's result at about a third of its call
        overhead."""
        nonlocal step, calm
        w, p, zp = src.w, src.p, z.p
        w[m] = -lam * total
        transposed_dot(w, g)
        while True:
            multiply(g, step / total, zp)
            subtract(p, zp, zp)
            maximum(zp, lower, out=zp)
            minimum(zp, upper, out=zp)
            forward_dot(zp, z.s)
            total_z, value_z = weigh(z)
            if not isfinite(value_z):
                raise SolverFailure("non-finite objective during APG iteration")
            if step == floor:
                return total_z, value_z
            subtract(zp, p, d)
            gd.dot(d, pair)
            inner, square = pair.tolist()
            if value_z <= value + inner / total + square / (2.0 * step):
                return total_z, value_z
            step = max(0.5 * step, floor)
            calm = 0

    x, prev, z, y_slot = (_Point(n2, m) for _ in range(4))
    # g and the difference d, stacked for the bound's one product.
    gd, pair = np.empty((2, n2)), np.empty(2)
    g, d = gd
    minimum(maximum(np.asarray(x_init, dtype=float), lower), upper, out=x.p)
    forward_dot(x.p, x.s)
    sum_x, value_x = weigh(x)
    if not isfinite(value_x):
        raise SolverFailure("non-finite objective at the APG starting point")
    y, sum_y, value_y = x, sum_x, value_x
    t = 1.0
    iterations = 0

    while iterations < max_iters:
        if calm == STEP_GROWTH_ITERS:
            step *= 2.0
            calm = 0
        iterations += 1
        calm += 1
        sum_z, value_z = descend(y, sum_y, value_y)

        # |y - z| <= tol * floor needs |y_j - z_j| <= tol * floor on every
        # rail, so a probe rail beyond limit = 2 tol floor (the 2 covers the
        # norm's rounding) decides the test without it. Otherwise run the
        # test, and probe the rail that moved most next.
        if abs(y.p[probe] - z.p[probe]) <= limit:
            subtract(y.p, z.p, d)
            if sqrt(dot(d, d)) <= bound:
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
            sum_y, value_y = weigh(y)
            continue

        # Restart from x with a plain projected-gradient step; stall if it
        # is rejected too.
        sum_z, value_z = descend(x, sum_x, value_x)
        if not value_z <= value_x:
            break
        x, z = z, x
        sum_x, value_x = sum_z, value_z
        y, sum_y, value_y = x, sum_x, value_x
        t = 1.0

    return x.p.copy(), iterations


def falm_solve(
    instance: PrecodingInstance,
    config: Optional[SolverConfig] = None,
    init=None,
    trace_file=None,
) -> SolveReport:
    """Run the full penalty continuation and return the quantized solution.

    It reads the box LP's optimum t* and maximizer from
    ``instance.relaxed``, which solves the LP on first use, so an instance
    that MSM has already solved is not solved again.
    ``init`` is None (x0 = the LP's maximizer, the standard start) or a real
    2N vector that replaces it; v0 = 0 either way. Each level of
    ``PENALTY_LEVELS`` runs one APG call at its cap, whatever the start,
    warm-started from the previous outer iterate. ``trace_file`` is None or
    an open text file, which receives each outer step of the report as a CSV
    row for debugging; its ``inner_iters`` column is the step's APG count.
    """
    if config is None:
        config = SolverConfig()
    n2 = 2 * instance.n_antennas
    x, t_star = instance.relaxed
    if init is not None:
        x = np.array(init, dtype=float)
        if x.shape != (n2,):
            raise ValueError(f"init shape {x.shape} does not match ({n2},)")
    v = np.zeros(n2)

    steps = []
    if trace_file is not None:
        trace_file.write("outer_iter,lambda,objective,penalty_gap,inner_iters\n")
    for lam, cap in PENALTY_LEVELS:
        x, inner = _apg(instance, v, lam, config.mu, x, cap or config.apg_max_iters)
        v = update_v(x, instance.power)
        gap = instance.power - x @ v
        objective = smoothed_objective(instance, x, config.mu) + lam * gap
        steps.append(OuterStep(lam, objective, gap, inner))
        if trace_file is not None:
            trace_file.write(f"{len(steps)},{lam:.6g},{objective:.12g},{gap:.12g},{inner}\n")

    return SolveReport.quantized(instance, x, steps, t_star)
