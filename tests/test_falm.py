"""Tests for the smoothed objective, penalty mechanics, APG, and the full
alternating-minimization solver."""

import math
from typing import NamedTuple

import numpy as np
import pytest

from onebit_precoding import (
    MpskConstellation,
    PrecodingInstance,
    SolverConfig,
    SolverFailure,
    build_instance,
    draw_channel,
    draw_symbols,
    falm_solve,
    min_margin,
)
from onebit_precoding import falm
from onebit_precoding.falm import smoothed_objective, update_v
from onebit_precoding.precoding import optimal_onebit_margin, relaxed_lp


def _penalized_value(instance, x, mu, lam, v):
    return smoothed_objective(instance, x, mu) + lam * (instance.power - x @ v)


class Projection(NamedTuple):
    """One projected gradient step the reference took: from p at step size
    ``step`` to z, and whether it was kept."""

    p: np.ndarray
    step: float
    z: np.ndarray
    kept: bool


def reference_apg(instance, v, lam, mu, x_init, max_iters, exits=None, steps=None):
    """The plain APG loop that ``falm._apg`` must reproduce bit for bit.

    It shares the lean loop's arithmetic: scores [forms @ p / mu; p . v]
    from one product, the momentum point's scores by linearity, the
    gradient times sum(e) from one transposed product, and the quadratic
    bound's two inner products from one product of [g; d]. It evaluates the
    value and gradient afresh from the scores at every point. ``exits``, if
    given, collects how each call ended: "tolerance", "cap", or "stall" when
    the plain step of a restart is rejected too; ``steps``, if given,
    collects every projection as a ``Projection``.
    """
    a = instance.amplitude
    m = 2 * instance.n_users
    tol = falm.apg_tolerance(instance)
    # The products' rounding depends on the layout: column-major, as in the loop.
    forward = np.asfortranarray(np.vstack([instance.forms / mu, v]))
    transposed = np.asfortranarray(np.vstack([instance.forms, v]).T)

    def evaluate(s):
        """(value, e, sum(e)) at the point with scores s."""
        shift = np.max(s[:m])
        e = np.exp(s[:m] - shift)
        total = e @ np.ones(m)  # a BLAS dot, as in the loop
        return mu * (shift + math.log(total)) + lam * (instance.power - s[m]), e, total

    floor = falm.apg_step(instance, mu)
    step = floor
    calm = 0

    def step_from(p, s_p, value_p):
        """Projected gradient step from p, halved until the quadratic bound
        holds or the step is the floor; (z, its scores, its value)."""
        nonlocal step, calm
        _, e, total = evaluate(s_p)
        g = transposed @ np.append(e, -lam * total)
        while True:
            z = np.clip(p - (step / total) * g, -a, a)
            s_z = forward @ z
            value_z, _, _ = evaluate(s_z)
            if not np.isfinite(value_z):
                raise SolverFailure("non-finite objective during APG iteration")
            kept = step == floor
            if not kept:
                d = z - p
                inner, square = np.vstack([g, d]) @ d
                kept = value_z <= value_p + inner / total + square / (2.0 * step)
            if steps is not None:
                steps.append(Projection(p, step, z, kept))
            if kept:
                return z, s_z, value_z
            step = max(0.5 * step, floor)
            calm = 0

    x = np.clip(np.asarray(x_init, dtype=float), -a, a)
    s_x = forward @ x
    value_x, _, _ = evaluate(s_x)
    if not np.isfinite(value_x):
        raise SolverFailure("non-finite objective at the APG starting point")
    y, s_y, value_y = x, s_x, value_x
    t = 1.0
    iterations = 0
    outcome = "cap"

    for _ in range(max_iters):
        if calm == falm.STEP_GROWTH_ITERS:
            step *= 2.0
            calm = 0
        iterations += 1
        calm += 1
        z, s_z, value_z = step_from(y, s_y, value_y)

        if np.linalg.norm(y - z) <= tol * floor:
            if value_z <= value_x:
                x, value_x = z, value_z
            outcome = "tolerance"
            break

        if value_z <= value_x:
            x_prev, s_prev = x, s_x
            x, s_x, value_x = z, s_z, value_z
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            y = x + beta * (x - x_prev)
            s_y = s_x + beta * (s_x - s_prev)
            value_y, _, _ = evaluate(s_y)
            t = t_next
        else:
            z, s_z, value_z = step_from(x, s_x, value_x)
            if not value_z <= value_x:
                outcome = "stall"
                break
            x, s_x, value_x = z, s_z, value_z
            y, s_y, value_y = x, s_x, value_x
            t = 1.0

    if exits is not None:
        exits.append(outcome)
    return x, iterations


def random_instance(rng, n_users=4, n_antennas=3, order=8, power=1.0):
    H = draw_channel(n_users, n_antennas, rng)
    return build_instance(H, draw_symbols(order, n_users, rng), MpskConstellation(order), power)


def true_max(instance, x_real):
    return float(np.max(instance.forms @ x_real))


def grid_search_box_min(objective, n_dims, half_width, points_per_dim=11, refinements=8):
    """Derivative-free zooming grid search; converges to the global box
    minimum for the convex objectives used here."""
    center = np.zeros(n_dims)
    radius = half_width
    lo, hi = -half_width, half_width
    best_x, best_val = None, np.inf
    for _ in range(refinements):
        axes = [
            np.clip(np.linspace(c - radius, c + radius, points_per_dim), lo, hi)
            for c in center
        ]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n_dims)
        values = objective(grid)
        k = int(np.argmin(values))
        if values[k] < best_val:
            best_val = float(values[k])
            best_x = grid[k]
        center = best_x
        radius *= 2.5 / (points_per_dim - 1)
    return best_x, best_val


class TestSmoothedObjective:
    def test_equal_exponents_single_user(self):
        # u . x = w . x = c gives exactly c + mu*log(2)
        inst = build_instance(np.array([[1.0 + 0j]]), np.array([0]), MpskConstellation(2), 1.0)
        x = np.array([-0.3, 0.7])
        c = float(inst.forms[0] @ x)  # u_0
        mu = 0.05
        assert smoothed_objective(inst, x, mu) == pytest.approx(
            c + mu * np.log(2.0), abs=1e-12
        )

    def test_tight_as_mu_vanishes(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng)
        x = rng.uniform(-inst.amplitude, inst.amplitude, size=6)
        assert smoothed_objective(inst, x, 1e-6) == pytest.approx(
            true_max(inst, x), abs=1e-4
        )

    def test_naive_summation_oracle(self):
        rng = np.random.default_rng(1)
        inst = random_instance(rng, n_users=24, n_antennas=8)
        x = 0.05 * rng.standard_normal(16)
        mu = 0.01
        z = inst.forms @ x / mu
        naive = mu * np.log(np.sum(np.exp(z)))
        assert smoothed_objective(inst, x, mu) == pytest.approx(naive, abs=1e-10)

    def test_sandwich_property(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            inst = random_instance(rng)
            x = rng.uniform(-1, 1, size=6)
            for mu in (1.0, 0.01, 1e-4):
                f = smoothed_objective(inst, x, mu)
                g = true_max(inst, x)
                bound = mu * np.log(2.0 * inst.n_users)
                assert g - 1e-12 <= f <= g + bound + 1e-12

    def test_stable_at_extreme_scale(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng)
        x = 1e6 * rng.standard_normal(6)
        f = smoothed_objective(inst, x, 1e-6)
        assert np.isfinite(f)
        assert f == pytest.approx(true_max(inst, x), rel=1e-9)

    def test_rejects_non_positive_mu(self):
        inst = random_instance(np.random.default_rng(4))
        for mu in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="mu must be positive and finite"):
                smoothed_objective(inst, np.zeros(6), mu)


class TestUpdateV:
    def test_unit_vector_fixed_point(self):
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(update_v(e1, 1.0), e1)

    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(update_v(np.zeros(4), 1.0), np.zeros(4))

    def test_binary_point_closes_penalty_gap(self):
        rng = np.random.default_rng(7)
        power = 1.0
        a = np.sqrt(power / 6.0)
        x = a * np.where(rng.uniform(size=6) < 0.5, 1.0, -1.0)
        v = update_v(x, power)
        np.testing.assert_allclose(v, x, atol=1e-12)
        assert power - x @ v == pytest.approx(0.0, abs=1e-12)

    def test_penalty_gap_nonnegative_on_box(self):
        rng = np.random.default_rng(8)
        power = 2.0
        a = np.sqrt(power / 8.0)
        for _ in range(200):
            x = rng.uniform(-a, a, size=8)
            gap = power - x @ update_v(x, power)
            assert gap >= -1e-12

    def test_beats_random_feasible_v(self):
        rng = np.random.default_rng(9)
        power = 1.0
        x = rng.uniform(-0.3, 0.3, size=8)
        best = x @ update_v(x, power)
        for _ in range(500):
            v = rng.standard_normal(8)
            v *= rng.uniform() ** 0.5 * np.sqrt(power) / np.linalg.norm(v)
            assert x @ v <= best + 1e-12


class TestApg:
    def test_single_form_box_optimum(self):
        # minimizing a single linear form plus log(2)*mu over the box pushes
        # the active coordinate to the favourable corner
        c = 0.8
        h = np.array([[c + 0j]])
        inst = build_instance(h, np.array([0]), MpskConstellation(2), 1.0)  # u = w = [-c, 0]
        mu = 0.01
        x = falm._apg(inst, np.zeros(2), 0.0, mu, np.zeros(2), 5000)[0]
        a = inst.amplitude
        expected = -c * a + mu * np.log(2.0)
        assert smoothed_objective(inst, x, mu) == pytest.approx(expected, abs=1e-6)
        assert x[0] == pytest.approx(a, abs=1e-6)

    def test_descent_contract_random_starts(self):
        rng = np.random.default_rng(10)
        inst = random_instance(rng)
        a = inst.amplitude
        for _ in range(100):
            v = update_v(rng.uniform(-a, a, size=6), 1.0)
            lam = rng.uniform(0.0, 10.0)
            x0 = rng.uniform(-a, a, size=6)
            x = falm._apg(inst, v, lam, 0.01, x0, 50)[0]
            f0 = _penalized_value(inst, x0, 0.01, lam, v)
            f1 = _penalized_value(inst, x, 0.01, lam, v)
            assert f1 <= f0 + 1e-12

    def test_matches_grid_search_oracle(self, monkeypatch):
        rng = np.random.default_rng(11)
        inst = random_instance(rng, n_users=3, n_antennas=2, order=4)
        mu, lam = 0.05, 0.5
        v = update_v(rng.uniform(-0.4, 0.4, size=4), 1.0)
        monkeypatch.setattr(falm, "apg_tolerance", lambda instance: 1e-10)
        x = falm._apg(inst, v, lam, mu, np.zeros(4), 20000)[0]

        def batch_objective(points):
            z = points @ inst.forms.T / mu
            zmax = z.max(axis=1, keepdims=True)
            f = mu * (zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1)))
            return f + lam * (inst.power - points @ v)

        _, oracle_val = grid_search_box_min(batch_objective, 4, inst.amplitude)
        achieved = _penalized_value(inst, x, mu, lam, v)
        assert achieved == pytest.approx(oracle_val, abs=1e-3)

    def test_failure_on_non_finite_objective(self):
        forms = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
        cases = [
            # Every rail at +a = 0.5, where p . v = 4 * 0.5e308 overflows.
            # Instances hold finite forms only, so the penalty overflows.
            (forms, [1e308] * 4, 1.0, [0.5] * 4, "at the APG starting point"),
            # Finite at x = 0, but the penalty's gradient pushes every rail
            # to +a = 0.5.
            (forms, [1e308] * 4, 1.0, [0.0] * 4, "during APG iteration"),
        ]
        for forms, v, lam, x_init, where in cases:
            inst = PrecodingInstance(np.array(forms), power=1.0)
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverFailure, match=where):
                falm._apg(inst, np.array(v), lam, 0.01, np.array(x_init), SolverConfig().apg_max_iters)


class TestApgStep:
    """``falm.apg_step`` is the inverse of a Lipschitz constant of the
    surrogate's gradient, which the restart's descent guarantee needs."""

    def test_softmax_covariance_at_most_half(self):
        rng = np.random.default_rng(30)
        worst = 0.0
        for _ in range(2000):
            m = int(rng.integers(2, 50))
            s = rng.standard_normal(m) * rng.choice([0.1, 1.0, 10.0])
            p = np.exp(s - s.max())
            p /= p.sum()
            worst = max(worst, np.linalg.eigvalsh(np.diag(p) - np.outer(p, p))[-1])
        assert worst <= 0.5 + 1e-12
        # Popoviciu's bound is attained at two equal weights.
        assert np.linalg.eigvalsh(np.diag([0.5, 0.5, 0.0]) - 0.25 * np.ones((3, 3)))[-1] == (
            pytest.approx(0.5, abs=1e-15)
        )

    def test_hessian_bounded_by_inverse_step(self):
        """lambda_max((1/mu) F^T (diag p - p p^T) F) <= 1/step at random
        points; the penalty is linear and adds nothing. The largest ratio
        comes within 0.1% of 1, so a step 0.1% larger would fail here."""
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(500):
            inst = random_instance(
                rng,
                n_users=int(rng.integers(1, 9)),
                n_antennas=int(rng.integers(1, 9)),
                order=int(rng.choice([2, 4, 8, 16])),
            )
            mu = float(rng.choice([1.0, 0.1, 0.01]))
            a = inst.amplitude
            x = rng.uniform(-1.0, 1.0) * rng.uniform(-a, a, 2 * inst.n_antennas)
            s = inst.forms @ x / mu
            p = np.exp(s - s.max())
            p /= p.sum()
            hessian = inst.forms.T @ (np.diag(p) - np.outer(p, p)) @ inst.forms / mu
            worst = max(worst, np.linalg.eigvalsh(hessian)[-1] * falm.apg_step(inst, mu))
        assert 0.999 < worst <= 1.0 + 1e-9


def solve_both(monkeypatch, instance, config, init=None, exits=None):
    """falm_solve through the lean ``falm._apg`` and through the reference."""
    lean = falm_solve(instance, config, init=init)
    monkeypatch.setattr(falm, "_apg", lambda *args: reference_apg(*args, exits=exits))
    reference = falm_solve(instance, config, init=init)
    monkeypatch.undo()
    return lean, reference


def assert_same_report(lean, reference):
    np.testing.assert_array_equal(lean.x_onebit.x_real, reference.x_onebit.x_real)
    assert lean.margin == reference.margin
    assert lean.steps == reference.steps


class FullTestCounter:
    """Stands in for numpy inside ``falm`` and counts the APG loop's full
    tolerance tests: its only dot product of an array with itself."""

    def __init__(self):
        self.count = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def dot(self, a, b, *out):
        self.count += a is b
        return np.dot(a, b, *out)


class ProbeCounter:
    """Stands in for the builtin abs inside ``falm`` and counts the APG
    loop's probe-rail reads: its only call of abs, one per iteration."""

    def __init__(self):
        self.count = 0

    def __call__(self, value):
        self.count += 1
        return abs(value)


class TestApgMatchesReference:
    """The lean APG loop is bit-identical to the plain loop, exits included."""

    def test_small_instances(self, monkeypatch):
        rng = np.random.default_rng(27)
        exits = []
        for k in range(48):
            inst = random_instance(
                rng, n_users=1 + k % 4, n_antennas=1 + k % 3, order=(2, 4, 8)[k % 3]
            )
            config = SolverConfig(apg_max_iters=(2000, 40)[k % 2])
            init = None
            if k % 5 == 0:
                a = inst.amplitude
                init = np.random.default_rng(k).uniform(-a, a, size=2 * inst.n_antennas)
            assert_same_report(*solve_both(monkeypatch, inst, config, init, exits))
        # Stalls are rare at these sizes: one of the 48 solves has one.
        assert {"tolerance", "cap", "stall"} <= set(exits)

    def test_desk_size_instances(self, monkeypatch):
        """N=32, K=8, 8-PSK: the criterion-8 shape."""
        rng = np.random.default_rng(23)
        exits = []
        for _ in range(2):
            inst = random_instance(rng, n_users=8, n_antennas=32, order=8)
            assert_same_report(*solve_both(monkeypatch, inst, SolverConfig(), exits=exits))
        assert {"cap", "stall"} <= set(exits)

    def test_counts_are_the_iterations_run(self, monkeypatch):
        """Each outer step reports the iterations its APG call ran, stall
        exits included. An iteration makes one forward product per
        projection, of which halvings and a restart add more, but one
        probe-rail read, which is what is counted here."""
        rng = np.random.default_rng(23)
        probe_reads = ProbeCounter()
        real_apg = falm._apg
        ran, exits = [], []

        def counted_apg(*args):
            start = probe_reads.count
            result = real_apg(*args)
            ran.append(probe_reads.count - start)
            reference_apg(*args, exits=exits)
            return result

        monkeypatch.setattr(falm, "abs", probe_reads, raising=False)
        monkeypatch.setattr(falm, "_apg", counted_apg)
        reported = []
        for _ in range(2):
            inst = random_instance(rng, n_users=8, n_antennas=32, order=8)
            reported += [s.apg_iterations for s in falm_solve(inst).steps]
        assert reported == ran
        assert "stall" in exits

    def test_stall_from_x_is_final(self, monkeypatch):
        """A stalled call's x is final: stalls happen at the floor, where a
        call started there takes its first step, which is rejected; the
        restart's plain step from x is that same step, and the call stalls
        after one iteration with x unchanged."""
        rng = np.random.default_rng(23)
        real_apg = falm._apg
        stalls = []

        def recording_apg(*args):
            exits = []
            x, _ = reference_apg(*args, exits=exits)
            if exits == ["stall"]:
                stalls.append((args, x))
            return real_apg(*args)

        monkeypatch.setattr(falm, "_apg", recording_apg)
        for _ in range(2):
            falm_solve(random_instance(rng, n_users=8, n_antennas=32, order=8))
        monkeypatch.undo()
        (inst, v, lam, mu, _, cap), x_stalled = stalls[0]

        x, iterations = falm._apg(inst, v, lam, mu, x_stalled, cap)
        exits = []
        x_ref, iterations_ref = reference_apg(inst, v, lam, mu, x_stalled, cap, exits=exits)
        assert exits == ["stall"]
        np.testing.assert_array_equal(x, x_ref)
        np.testing.assert_array_equal(x, x_stalled)
        assert iterations == iterations_ref == 1

    def test_loose_tolerance(self, monkeypatch):
        """At a loose tolerance the probe rail often leaves the decision to
        the full test, which fires partway through calls; on the other
        iterations the probe decides alone. solve_both undoes every patch,
        so each instance sets the tolerance again, and each loose solve
        runs fewer iterations than the same instance's default solve."""
        rng = np.random.default_rng(24)
        config = SolverConfig()
        full_tests = probe_only = 0
        for _ in range(6):
            inst = random_instance(rng, n_users=4, n_antennas=8, order=8)
            default_iterations = falm_solve(inst, config).inner_iterations
            counter = FullTestCounter()
            monkeypatch.setattr(falm, "apg_tolerance", lambda instance: 1e-3)
            monkeypatch.setattr(falm, "np", counter)
            exits = []
            lean, reference = solve_both(monkeypatch, inst, config, exits=exits)
            assert_same_report(lean, reference)
            assert exits.count("tolerance") >= 3
            assert lean.inner_iterations < default_iterations
            # Every iteration runs the probe once, and the full test at most once.
            full_tests += counter.count
            probe_only += lean.inner_iterations - counter.count
        assert full_tests > 0 and probe_only > 0

    def test_probe_rail_on_the_bound(self, monkeypatch):
        """The first probe rail starts at the upper bound a, where the
        penalty's pull along v = sqrt(P) e_0 pins it (y_0 = z_0), while the
        other rails move: the full test runs, does not fire, and the probe
        moves on."""
        rng = np.random.default_rng(25)
        inst = random_instance(rng, n_users=3, n_antennas=4, order=8)
        a = inst.amplitude
        v = np.zeros(8)
        v[0] = np.sqrt(inst.power)
        x0 = rng.uniform(-a, a, size=8)
        x0[0] = a
        full_tests = {}
        for cap in (1, 500):
            counter = FullTestCounter()
            monkeypatch.setattr(falm, "np", counter)
            x, iterations = falm._apg(inst, v, 10.0, 0.01, x0, cap)
            monkeypatch.undo()
            x_ref, iterations_ref = reference_apg(inst, v, 10.0, 0.01, x0, cap)
            np.testing.assert_array_equal(x, x_ref)
            assert iterations == iterations_ref
            full_tests[cap] = counter.count
        assert x[0] == a and not np.array_equal(x[1:], x0[1:])
        assert iterations > 1
        assert full_tests[1] == 1 and full_tests[500] < iterations

    def test_single_calls(self):
        rng = np.random.default_rng(23)
        inst = random_instance(rng, n_users=3, n_antennas=4, order=8)
        a = inst.amplitude
        for k in range(40):
            v = update_v(rng.uniform(-a, a, size=8), 1.0)
            lam = rng.uniform(0.0, 10.0)
            x0 = rng.uniform(-2 * a, 2 * a, size=8)
            cap = 1 + 25 * k
            x, iterations = falm._apg(inst, v, lam, 0.01, x0, cap)
            x_ref, iterations_ref = reference_apg(inst, v, lam, 0.01, x0, cap)
            np.testing.assert_array_equal(x, x_ref)
            assert iterations == iterations_ref


def logged_calls(monkeypatch, instances):
    """falm_solve on each instance with every APG call run by the lean loop
    and by the reference, which must agree bit for bit; returns one
    (args, exit, projections) triple per call. It undoes every patch."""
    calls = []
    real_apg = falm._apg

    def logged_apg(*args):
        exits, steps = [], []
        x_ref, iterations_ref = reference_apg(*args, exits=exits, steps=steps)
        x, iterations = real_apg(*args)
        np.testing.assert_array_equal(x, x_ref)
        assert iterations == iterations_ref
        calls.append((args, exits[0], steps))
        return x, iterations

    monkeypatch.setattr(falm, "_apg", logged_apg)
    for inst in instances:
        falm_solve(inst)
    monkeypatch.undo()
    return calls


def penalized_gradient(instance, x, mu, lam, v):
    """The gradient of f(x) + lam * (P - x . v), from the softmax weights."""
    s = instance.forms @ x / mu
    p = np.exp(s - s.max())
    return instance.forms.T @ (p / p.sum()) - lam * v


class TestStepRule:
    """The backtracking step: each call starts at the floor ``apg_step``,
    halves a trial that breaks the local quadratic bound down to no lower
    than the floor, and exits on a tolerance the floor's step meets too.
    The projections are the reference's, which each test also checks
    against the lean loop."""

    def test_every_call_starts_at_the_floor(self, monkeypatch):
        """Steps grow to 8x the floor and more within calls, yet every call's
        first step is exactly the floor, which criterion 4 relies on."""
        rng = np.random.default_rng(40)
        instances = [random_instance(rng, n_users=8, n_antennas=32, order=8) for _ in range(2)]
        largest = 1.0
        for (inst, _, _, mu, _, _), _, steps in logged_calls(monkeypatch, instances):
            floor = falm.apg_step(inst, mu)
            assert steps[0].step == floor
            largest = max(largest, max(proj.step for proj in steps) / floor)
        assert largest >= 8
        # One iteration from inside the box, right after a longer call on
        # the same instance, is the plain step x - apg_step * grad.
        inst = instances[0]
        a = inst.amplitude
        for _ in range(10):
            v = update_v(rng.uniform(-a, a, size=64), 1.0)
            lam = rng.uniform(0.0, 10.0)
            x0 = rng.uniform(-0.5 * a, 0.5 * a, size=64)
            falm._apg(inst, v, lam, 0.01, x0, 200)
            x1, iterations = falm._apg(inst, v, lam, 0.01, x0, 1)
            grad = penalized_gradient(inst, x0, 0.01, lam, v)
            expected = np.clip(x0 - falm.apg_step(inst, 0.01) * grad, -a, a)
            assert iterations == 1 and not np.array_equal(x1, x0)
            np.testing.assert_allclose(x1, expected, rtol=0, atol=1e-13 * a)

    def test_kept_steps_satisfy_the_quadratic_bound(self, monkeypatch):
        """Every kept step above the floor satisfies value(z) <= value(p) +
        <grad(p), z - p> + |z - p|^2 / (2 s), evaluated here afresh; every
        step is the floor times a power of two, never below it."""
        rng = np.random.default_rng(41)
        instances = [random_instance(rng, n_users=8, n_antennas=32, order=8) for _ in range(2)]
        instances += [random_instance(rng, n_users=4, n_antennas=8, order=8) for _ in range(4)]
        kept_above = halved = 0
        for (inst, v, lam, mu, _, _), _, steps in logged_calls(monkeypatch, instances):
            floor = falm.apg_step(inst, mu)
            for proj in steps:
                assert proj.step >= floor and math.log2(proj.step / floor).is_integer()
                halved += not proj.kept
                if not proj.kept or proj.step == floor:
                    continue
                kept_above += 1
                value_p = _penalized_value(inst, proj.p, mu, lam, v)
                grad, d = penalized_gradient(inst, proj.p, mu, lam, v), proj.z - proj.p
                model = value_p + grad @ d + d @ d / (2 * proj.step)
                value_z = _penalized_value(inst, proj.z, mu, lam, v)
                assert value_z <= model + 1e-12 * (1 + abs(value_p))
        assert kept_above > 1000 and halved > 100

    def test_tolerance_exit_holds_at_the_floor(self, monkeypatch):
        """A tolerance exit from y at step s has |y - z_s| <= tol * apg_step,
        and so |y - z_floor| / apg_step <= tol for the floor's projected step
        z_floor, evaluated here afresh: |y - z| grows with the step. Without
        clipping |y - z_s| / s is the floor's ratio, so an exit test against
        tol * s would let the iterate move s / apg_step times farther. A
        loose tolerance gives exits at steps above the floor."""
        rng = np.random.default_rng(42)
        instances = [random_instance(rng, n_users=4, n_antennas=8, order=8) for _ in range(6)]
        monkeypatch.setattr(falm, "apg_tolerance", lambda instance: 1e-3)
        calls = logged_calls(monkeypatch, instances)
        above = 0
        for (inst, v, lam, mu, _, _), exit_kind, steps in calls:
            if exit_kind != "tolerance":
                continue
            floor = falm.apg_step(inst, mu)
            last = steps[-1]
            above += last.step > floor
            assert np.linalg.norm(last.p - last.z) <= 1e-3 * floor
            a = inst.amplitude
            grad = penalized_gradient(inst, last.p, mu, lam, v)
            z_floor = np.clip(last.p - floor * grad, -a, a)
            assert np.linalg.norm(last.p - z_floor) / floor <= 1e-3
        assert above >= 5


class TestFalmSolve:
    def test_bpsk_single_antenna_matches_enumeration(self):
        inst = build_instance(np.array([[1.0 + 0j]]), np.array([0]), MpskConstellation(2), 1.0)
        report = falm_solve(inst)
        a = inst.amplitude
        best = optimal_onebit_margin(inst)
        assert best == pytest.approx(a, abs=1e-12)  # margin is Re{x} = x_real[0]
        assert report.margin == pytest.approx(best, abs=1e-12)
        assert report.x_onebit.x_real[0] == pytest.approx(a)

    def test_default_penalty_trace(self):
        rng = np.random.default_rng(12)
        inst = random_instance(rng)
        report = falm_solve(inst)
        np.testing.assert_allclose([s.lam for s in report.steps], [0.01, 0.1, 1.0, 10.0, 100.0])
        assert report.outer_iterations == 5
        assert [s.apg_iterations for s in report.steps[:2]] == [1, 1]

    @pytest.mark.parametrize(
        "lambda0, lambda_max, levels",
        [(0.07, 700.0, 5), (0.07, 699.0, 4), (0.03, 300.0, 5)],
    )
    def test_level_count_survives_rounding(self, lambda0, lambda_max, levels):
        """0.07 * 10^4 rounds to 700.0000000000001 > 700, yet it is the level
        lambda_max names; 699 still stops at 70."""
        inst = random_instance(np.random.default_rng(12))
        config = SolverConfig(lambda0=lambda0, lambda_max=lambda_max, apg_max_iters=20)
        lams = [s.lam for s in falm_solve(inst, config).steps]
        assert lams == pytest.approx([lambda0 * 10.0**k for k in range(levels)], rel=1e-12)

    def test_output_is_exactly_one_bit(self):
        rng = np.random.default_rng(14)
        for power in (1.0, 3.0):
            inst = random_instance(rng, power=power)
            report = falm_solve(inst)
            a = inst.amplitude
            np.testing.assert_array_equal(np.abs(report.x_onebit.x_real), a)
            assert np.sum(np.abs(report.x_onebit.to_complex()) ** 2) == pytest.approx(
                power, rel=1e-12
            )

    def test_reported_margin_matches_returned_vector(self):
        rng = np.random.default_rng(15)
        inst = random_instance(rng)
        report = falm_solve(inst)
        assert report.margin == pytest.approx(
            min_margin(inst, report.x_onebit.x_real), abs=0
        )

    def test_never_beats_enumeration(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            inst = random_instance(rng, n_users=2, n_antennas=2, order=4)
            report = falm_solve(inst)
            assert report.margin <= optimal_onebit_margin(inst) + 1e-9

    def test_monotone_outer_descent_at_fixed_penalty(self):
        """One alternation (APG then v-update) never increases the penalized
        objective at the penalty weight in force."""
        rng = np.random.default_rng(17)
        inst = random_instance(rng)
        config = SolverConfig(apg_max_iters=300)
        a = inst.amplitude
        x = np.zeros(6)
        v = np.zeros(6)
        for lam in (0.01, 0.1, 1.0, 10.0, 100.0):
            before = _penalized_value(inst, x, config.mu, lam, v)
            x = falm._apg(inst, v, lam, config.mu, x, config.apg_max_iters)[0]
            v = update_v(x, inst.power)
            after = _penalized_value(inst, x, config.mu, lam, v)
            assert after <= before + 1e-10

    def test_explicit_and_seeded_init(self):
        """The default start is the box LP's maximizer: passing it as init
        gives the same solve bit for bit."""
        rng = np.random.default_rng(18)
        inst = random_instance(rng)
        a = inst.amplitude
        report = falm_solve(inst, init=relaxed_lp(inst)[0])
        default = falm_solve(inst)
        np.testing.assert_array_equal(report.x_onebit.x_real, default.x_onebit.x_real)
        assert report.steps == default.steps
        seeded = falm_solve(inst, init=np.random.default_rng(7).uniform(-a, a, size=6))
        assert np.all(np.abs(seeded.x_onebit.x_real) == a)
        for bad in (np.zeros(5), 7):  # wrong length; a seed is not a vector
            with pytest.raises(ValueError):
                falm_solve(inst, init=bad)

    def test_trace_file(self, tmp_path):
        rng = np.random.default_rng(19)
        inst = random_instance(rng)
        path = tmp_path / "trace.csv"
        with path.open("w", encoding="utf-8") as trace:
            report = falm_solve(inst, trace_file=trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "outer_iter,lambda,objective,penalty_gap,inner_iters"
        assert lines[1:] == [
            f"{k},{s.lam:.6g},{s.objective:.12g},{s.penalty_gap:.12g},{s.apg_iterations}"
            for k, s in enumerate(report.steps, 1)
        ]
        assert len(lines) == 6

    def test_iteration_counts_derive_from_steps(self):
        rng = np.random.default_rng(19)
        inst = random_instance(rng)
        config = SolverConfig(apg_max_iters=40)
        report = falm_solve(inst, config)
        counts = [s.apg_iterations for s in report.steps]
        assert report.outer_iterations == len(counts) == 5
        assert report.inner_iterations == sum(counts)
        assert all(1 <= c <= 40 for c in counts)

    def test_penalty_gap_trace_shrinks(self):
        rng = np.random.default_rng(20)
        inst = random_instance(rng, n_users=2, n_antennas=8)
        report = falm_solve(inst)
        gaps = [s.penalty_gap for s in report.steps]
        assert gaps[-1] < gaps[0]
        assert all(g >= -1e-9 for g in gaps)


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"mu": 0.0},
            {"lambda0": -1.0},
            {"delta": 1.0},
            {"lambda_max": 0.001},
            {"apg_max_iters": 0},
            {"mu": math.nan},
            {"mu": math.inf},
            {"lambda0": math.nan},
            {"delta": math.nan},
            {"delta": math.inf},
            {"lambda_max": math.nan},
            {"lambda_max": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            SolverConfig(**kw)

    def test_defaults_match_protocol(self):
        config = SolverConfig()
        assert (config.mu, config.lambda0, config.delta, config.lambda_max) == (
            0.01,
            0.01,
            10.0,
            100.0,
        )
