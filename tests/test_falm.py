"""Tests for the smoothed objective, penalty mechanics, APG, and the full
alternating-minimization solver."""

import itertools
import math

import numpy as np
import pytest

from onebit_precoding import (
    PrecodingInstance,
    SolverConfig,
    SolverFailure,
    build_instance,
    draw_channel,
    draw_symbols,
    falm_solve,
    min_margin,
    smoothed_objective,
    update_v,
)
from onebit_precoding import falm


def _penalized_value(instance, x, mu, lam, v):
    return smoothed_objective(instance, x, mu) + lam * (instance.power - x @ v)


def reference_apg(instance, v, lam, mu, x_init, config, exits=None):
    """The plain APG loop that ``falm._apg`` must reproduce bit for bit.

    It shares the lean loop's arithmetic: scores [forms @ p / mu; p . v]
    from one product, the momentum point's scores by linearity, and the
    gradient times sum(e) from one transposed product. It evaluates the
    value and gradient afresh from the scores at every point. ``exits``, if
    given, collects how each call ended: "tolerance", "cap", or "stall" when
    the plain step of a restart is rejected too.
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

    step = falm.apg_step(instance, mu)

    def step_from(p, e, total):
        """Projected gradient step from p and its scores."""
        g = transposed @ np.append(e, -lam * total)
        return np.clip(p - (step / total) * g, -a, a)

    x = np.clip(np.asarray(x_init, dtype=float), -a, a)
    s_x = forward @ x
    value_x, _, _ = evaluate(s_x)
    if not np.isfinite(value_x):
        raise SolverFailure("non-finite objective at the APG starting point")
    y, s_y = x, s_x
    t = 1.0
    iterations = 0
    outcome = "cap"

    for _ in range(config.apg_max_iters):
        iterations += 1
        _, e_y, total_y = evaluate(s_y)
        z = step_from(y, e_y, total_y)
        s_z = forward @ z
        value_z, _, _ = evaluate(s_z)
        if not np.isfinite(value_z):
            raise SolverFailure("non-finite objective during APG iteration")

        if np.linalg.norm(y - z) / step <= tol:
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
            t = t_next
        else:
            _, e_x, total_x = evaluate(s_x)
            z = step_from(x, e_x, total_x)
            s_z = forward @ z
            value_z, _, _ = evaluate(s_z)
            if not np.isfinite(value_z):
                raise SolverFailure("non-finite objective during APG iteration")
            if not value_z <= value_x:
                outcome = "stall"
                break
            x, s_x, value_x = z, s_z, value_z
            y, s_y = x, s_x
            t = 1.0

    if exits is not None:
        exits.append(outcome)
    return x, iterations


def random_instance(rng, n_users=4, n_antennas=3, order=8, power=1.0):
    H = draw_channel(n_users, n_antennas, rng)
    return build_instance(H, draw_symbols(order, n_users, rng), order, power)


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
        inst = build_instance(np.array([[1.0 + 0j]]), np.array([0]), 2, 1.0)
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
        with pytest.raises(ValueError):
            smoothed_objective(inst, np.zeros(6), 0.0)


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
        inst = build_instance(h, np.array([0]), 2, 1.0)  # u = w = [-c, 0]
        config = SolverConfig(apg_max_iters=5000)
        mu = 0.01
        x = falm._apg(inst, np.zeros(2), 0.0, mu, np.zeros(2), config)[0]
        a = inst.amplitude
        expected = -c * a + mu * np.log(2.0)
        assert smoothed_objective(inst, x, mu) == pytest.approx(expected, abs=1e-6)
        assert x[0] == pytest.approx(a, abs=1e-6)

    def test_descent_contract_random_starts(self):
        rng = np.random.default_rng(10)
        inst = random_instance(rng)
        config = SolverConfig(apg_max_iters=50)
        a = inst.amplitude
        for _ in range(100):
            v = update_v(rng.uniform(-a, a, size=6), 1.0)
            lam = rng.uniform(0.0, 10.0)
            x0 = rng.uniform(-a, a, size=6)
            x = falm._apg(inst, v, lam, 0.01, x0, config)[0]
            f0 = _penalized_value(inst, x0, 0.01, lam, v)
            f1 = _penalized_value(inst, x, 0.01, lam, v)
            assert f1 <= f0 + 1e-12

    def test_matches_grid_search_oracle(self, monkeypatch):
        rng = np.random.default_rng(11)
        inst = random_instance(rng, n_users=3, n_antennas=2, order=4)
        mu, lam = 0.05, 0.5
        v = update_v(rng.uniform(-0.4, 0.4, size=4), 1.0)
        config = SolverConfig(apg_max_iters=20000)
        monkeypatch.setattr(falm, "apg_tolerance", lambda instance: 1e-10)
        x = falm._apg(inst, v, lam, mu, np.zeros(4), config)[0]

        def batch_objective(points):
            z = points @ inst.forms.T / mu
            zmax = z.max(axis=1, keepdims=True)
            f = mu * (zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1)))
            return f + lam * (inst.power - points @ v)

        _, oracle_val = grid_search_box_min(batch_objective, 4, inst.amplitude)
        achieved = _penalized_value(inst, x, mu, lam, v)
        assert achieved == pytest.approx(oracle_val, abs=1e-3)

    def test_failure_on_non_finite_objective(self):
        # u_0 = [inf, 0] (forms[:1]), w_0 = [0, 0] (forms[1:])
        inst = PrecodingInstance(np.array([[np.inf, 0.0], [0.0, 0.0]]), power=1.0)
        with np.errstate(invalid="ignore"), pytest.raises(SolverFailure):
            falm._apg(inst, np.zeros(2), 0.0, 0.01, np.ones(2), SolverConfig())


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


class ForwardCounter:
    """Stands in for numpy inside ``falm`` and counts the APG loop's forward
    products: its only products of a (2K + 1) x 2N matrix."""

    def __init__(self, instance):
        self.shape = (2 * instance.n_users + 1, 2 * instance.n_antennas)
        self.count = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def dot(self, a, b, *out):
        self.count += np.shape(a) == self.shape
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
        for k in range(24):
            inst = random_instance(
                rng, n_users=1 + k % 4, n_antennas=1 + k % 3, order=(2, 4, 8)[k % 3]
            )
            config = SolverConfig(apg_max_iters=(2000, 40)[k % 2])
            init = None
            if k % 5 == 0:
                a = inst.amplitude
                init = np.random.default_rng(k).uniform(-a, a, size=2 * inst.n_antennas)
            assert_same_report(*solve_both(monkeypatch, inst, config, init, exits))
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
        exits included. An iteration makes one forward product from its
        momentum point, one more from x when it restarts, and one probe-rail
        read, which is what is counted here."""
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

    def test_stall_from_x_skips_the_repeated_step(self, monkeypatch):
        """A stalled call's x is final: a call started there has its first
        step rejected, and that step from y = x is the restart's plain step.
        The call stalls after one iteration without computing it again: one
        forward product at the start and one for the step."""
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
        (inst, v, lam, mu, _, config), x_stalled = stalls[0]

        counter = ForwardCounter(inst)
        monkeypatch.setattr(falm, "np", counter)
        x, iterations = falm._apg(inst, v, lam, mu, x_stalled, config)
        monkeypatch.undo()
        exits = []
        x_ref, iterations_ref = reference_apg(inst, v, lam, mu, x_stalled, config, exits=exits)
        assert exits == ["stall"]
        np.testing.assert_array_equal(x, x_ref)
        np.testing.assert_array_equal(x, x_stalled)
        assert iterations == iterations_ref == 1
        assert counter.count == 2

    def test_loose_tolerance(self, monkeypatch):
        """At a loose tolerance the probe rail often leaves the decision to
        the full test, which fires partway through calls; on the other
        iterations the probe decides alone. solve_both undoes every patch,
        so each instance sets the tolerance again."""
        rng = np.random.default_rng(24)
        config = SolverConfig()
        full_tests = probe_only = 0
        for _ in range(6):
            inst = random_instance(rng, n_users=4, n_antennas=8, order=8)
            counter = FullTestCounter()
            monkeypatch.setattr(falm, "apg_tolerance", lambda instance: 1e-3)
            monkeypatch.setattr(falm, "np", counter)
            exits = []
            lean, reference = solve_both(monkeypatch, inst, config, exits=exits)
            assert_same_report(lean, reference)
            assert exits.count("tolerance") >= 3
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
            config = SolverConfig(apg_max_iters=cap)
            counter = FullTestCounter()
            monkeypatch.setattr(falm, "np", counter)
            x, iterations = falm._apg(inst, v, 10.0, 0.01, x0, config)
            monkeypatch.undo()
            x_ref, iterations_ref = reference_apg(inst, v, 10.0, 0.01, x0, config)
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
            config = SolverConfig(apg_max_iters=1 + 25 * k)
            x, iterations = falm._apg(inst, v, lam, 0.01, x0, config)
            x_ref, iterations_ref = reference_apg(inst, v, lam, 0.01, x0, config)
            np.testing.assert_array_equal(x, x_ref)
            assert iterations == iterations_ref


class TestFalmSolve:
    def test_bpsk_single_antenna_matches_enumeration(self):
        inst = build_instance(np.array([[1.0 + 0j]]), np.array([0]), 2, 1.0)
        report = falm_solve(inst)
        a = inst.amplitude
        best = max(
            min_margin(inst, a * np.array(signs))
            for signs in itertools.product((-1.0, 1.0), repeat=2)
        )
        assert best == pytest.approx(a, abs=1e-12)  # margin is Re{x} = x_real[0]
        assert report.margin == pytest.approx(best, abs=1e-12)
        assert report.x_onebit.x_real[0] == pytest.approx(a)

    def test_default_penalty_trace(self):
        rng = np.random.default_rng(12)
        inst = random_instance(rng)
        report = falm_solve(inst)
        np.testing.assert_allclose([s.lam for s in report.steps], [0.01, 0.1, 1.0, 10.0, 100.0])
        assert report.outer_iterations == 5

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
            a = inst.amplitude
            best = max(
                min_margin(inst, a * np.array(signs))
                for signs in itertools.product((-1.0, 1.0), repeat=4)
            )
            assert report.margin <= best + 1e-9

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
            x = falm._apg(inst, v, lam, config.mu, x, config)[0]
            v = update_v(x, inst.power)
            after = _penalized_value(inst, x, config.mu, lam, v)
            assert after <= before + 1e-10

    def test_explicit_and_seeded_init(self):
        rng = np.random.default_rng(18)
        inst = random_instance(rng)
        a = inst.amplitude
        report = falm_solve(inst, init=np.zeros(6))
        assert report.margin == falm_solve(inst).margin
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
