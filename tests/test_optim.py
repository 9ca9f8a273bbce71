"""Optimizer behavior: convergence, traces, and non-finite handling."""

from dataclasses import asdict

import numpy as np
import pytest

from texsynth import optim
from texsynth.optim import (
    C1,
    C2,
    MAX_LS,
    LbfgsConfig,
    NonFiniteObjective,
    _cubic_step,
    _line_search,
    _zoom,
    minimize,
    two_loop_direction,
)


def rosenbrock(x):
    a, b = x
    value = (1 - a) ** 2 + 100.0 * (b - a * a) ** 2
    grad = np.array(
        [-2 * (1 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)]
    )
    return value, grad


def quadratic(A, b):
    def fun(x):
        return 0.5 * float(x @ A @ x) - float(b @ x), A @ x - b

    return fun


def spd(rng, n, spread=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.linspace(1.0, spread, n)
    return q @ np.diag(eigs) @ q.T


class TestConvergence:
    def test_rosenbrock_reaches_the_minimum(self):
        x, trace = minimize(rosenbrock, np.array([-1.2, 1.0]))
        assert np.abs(x - 1.0).max() < 1e-6
        assert trace.termination == "grad_tol"
        assert trace.iterations < 200

    def test_small_quadratic_is_quick(self):
        rng = np.random.default_rng(0)
        A = spd(rng, 2)
        b = rng.standard_normal(2)
        x, trace = minimize(quadratic(A, b), np.zeros(2))
        assert np.abs(x - np.linalg.solve(A, b)).max() < 1e-8
        assert trace.iterations <= 10

    def test_50_dim_quadratic_matches_linear_solve(self):
        # near the optimum the objective goes float-flat around gnorm 2e-8,
        # so pin the solution accuracy rather than the termination reason
        rng = np.random.default_rng(1)
        A = spd(rng, 50)
        b = rng.standard_normal(50)
        x, trace = minimize(quadratic(A, b), np.zeros(50), LbfgsConfig(grad_tol=1e-8))
        assert np.abs(x - np.linalg.solve(A, b)).max() < 1e-8
        assert trace.iterations < 100

    def test_flat_bottomed_quartic_converges(self):
        x, trace = minimize(lambda z: (float(np.sum(z**4)), 4 * z**3), np.array([2.0]))
        assert trace.termination == "grad_tol"
        assert abs(x[0]) < 1e-2

    def test_accepts_any_array_shape(self):
        c = np.arange(24, dtype=float).reshape(3, 4, 2)
        x, trace = minimize(
            lambda z: (float(np.sum((z - c) ** 2)), 2 * (z - c)), np.zeros((3, 4, 2))
        )
        assert x.shape == (3, 4, 2)
        assert np.abs(x - c).max() < 1e-8

    def test_start_at_optimum_exits_immediately(self):
        rng = np.random.default_rng(2)
        A = spd(rng, 3)
        b = rng.standard_normal(3)
        x, trace = minimize(quadratic(A, b), np.linalg.solve(A, b))
        assert trace.iterations == 0
        assert trace.termination == "grad_tol"
        assert len(trace.values) == 1


class TestTrace:
    def test_values_strictly_decrease(self):
        _, trace = minimize(rosenbrock, np.array([-1.2, 1.0]))
        vals = trace.values
        assert len(vals) >= 2
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_iteration_cap_reported(self):
        _, trace = minimize(rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(max_iter=3))
        assert trace.termination == "max_iter"
        assert trace.iterations == 3
        assert len(trace.values) == 4

    def test_eval_count_covers_every_call(self):
        calls = 0

        def counting(x):
            nonlocal calls
            calls += 1
            return rosenbrock(x)

        _, trace = minimize(counting, np.array([-1.2, 1.0]), LbfgsConfig(max_iter=20))
        assert trace.n_evals == calls
        assert trace.n_evals >= trace.iterations + 1

    def test_to_dict_is_json_shaped(self):
        _, trace = minimize(rosenbrock, np.array([-1.2, 1.0]), LbfgsConfig(max_iter=5))
        d = asdict(trace)
        assert set(d) == {"values", "termination", "iterations", "n_evals", "grad_norm"}
        assert all(isinstance(v, float) for v in d["values"])

    @pytest.mark.parametrize("scale", [2.0**20, 2.0**-20], ids=["2^20", "2^-20"])
    def test_iterates_do_not_depend_on_the_objective_scale(self, scale):
        # H0 = I/|g| makes every step scale-free, and power-of-two factors
        # leave every rounding unchanged, so the iterates match bit for bit
        rng = np.random.default_rng(4)
        A = spd(rng, 30, spread=100.0)
        b = rng.standard_normal(30)
        f = quadratic(A, b)

        def scaled(x):
            value, grad = f(x)
            return scale * value, scale * grad

        cfg = LbfgsConfig(max_iter=15, grad_tol=0.0)
        base, other = probed_points(f, np.zeros(30), cfg), probed_points(scaled, np.zeros(30), cfg)
        assert len(base) == len(other)
        assert all(np.array_equal(x, y) for x, y in zip(base, other))

    @pytest.mark.parametrize("problem", ["rosenbrock", "quadratic"])
    def test_a_scale_whose_squares_overflow_keeps_every_byte(self, problem):
        # at 2**600 the gradient's squared norm overflows; the norms and the
        # cubic fit rescale by a power of two then, which is exact. grad_tol
        # is absolute, so it is off here.
        if problem == "rosenbrock":
            f, x0 = rosenbrock, np.array([-1.2, 1.0])
            cfg = LbfgsConfig(max_iter=30, grad_tol=0.0)
        else:
            rng = np.random.default_rng(4)
            f = quadratic(spd(rng, 30, spread=100.0), rng.standard_normal(30))
            x0, cfg = np.zeros(30), LbfgsConfig(max_iter=15, grad_tol=0.0)

        def scaled(x):
            value, grad = f(x)
            return 2.0**600 * value, 2.0**600 * grad

        base, other = probed_points(f, x0, cfg), probed_points(scaled, x0, cfg)
        assert len(base) == len(other)
        assert all(np.array_equal(x, y) for x, y in zip(base, other))
        (x, trace), (x_s, trace_s) = minimize(f, x0, cfg), minimize(scaled, x0, cfg)
        assert x.tobytes() == x_s.tobytes()
        assert (trace.termination, trace.iterations, trace.n_evals) == (
            trace_s.termination, trace_s.iterations, trace_s.n_evals)
        assert trace_s.values == [2.0**600 * v for v in trace.values]
        assert trace.termination == "max_iter"

    def test_the_norms_are_plain_while_the_squares_are_finite(self):
        v = np.random.default_rng(2).standard_normal(100)
        assert optim._square_norm(v) == (float(np.add.reduce(v * v)), 0)
        top = int(np.frexp(np.max(np.abs(v)))[1])
        w = v * 2.0**-top  # max |w| in [0.5, 1)
        assert optim._square_norm(v * 2.0**600) == (float(np.add.reduce(w * w)), 600 + top)
        assert optim._norm(v * 2.0**600) == 2.0**600 * optim._norm(v)

    def test_a_cubic_fit_of_overflowing_slopes_gives_the_unscaled_step(self):
        lo, hi = (0.0, 1.0, -3.0), (2.0, 2.5, 4.0)
        step = _cubic_step(*lo, *hi)
        big = [(a, 2.0**1000 * f, 2.0**1000 * d) for a, f, d in (lo, hi)]
        assert step is not None and _cubic_step(*big[0], *big[1]) == step

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e7])
    def test_first_probe_lies_at_unit_distance(self, scale):
        x0 = np.array([3.0, -1.0, 2.0])
        points = probed_points(lambda x: (scale * float(np.sum(x**4)), scale * 4 * x**3),
                               x0, LbfgsConfig(max_iter=1))
        assert np.linalg.norm(points[1] - x0) == pytest.approx(1.0, rel=1e-12)

    def test_linear_objective_fails_without_repeating_the_search(self):
        # the first direction is already -g, so a steepest-descent restart
        # would make the same 25 probes again
        _, trace = minimize(lambda z: (-z[0], [-1.0]), [0.0])
        assert trace.termination == "line_search_failure"
        assert trace.n_evals == 26


class TestNonDescentFallback:
    """A two-loop direction that does not descend gives way to -g/|g|."""

    def run(self, monkeypatch, shift_after_first_step):
        points, grads, second = [], [], []  # second: (evaluations so far, gradient)

        def ascent(grad, pairs, gamma):
            second.append((len(points), np.array(grad, copy=True)))
            return np.array(grad, copy=True)  # +g, so p'g > 0

        monkeypatch.setattr(optim, "two_loop_direction", ascent)
        f = quadratic(np.diag([1.0, 10.0]), np.zeros(2))

        def recording(x):
            value, grad = f(x)
            points.append(np.array(x, copy=True))
            grads.append(grad)
            return value + (shift_after_first_step if second else 0.0), grad

        _, trace = minimize(recording, np.array([3.0, 1.0]), LbfgsConfig(max_iter=2))
        ((n, g1),) = second
        x1 = next(p for p, g in zip(points[:n], grads[:n]) if np.array_equal(g, g1))
        steps = [p - x1 for p in points[n:]]
        unit = -g1 / np.linalg.norm(g1)
        for step in steps:  # every probe of the second search lies along -g1, to rounding
            assert step @ unit > 0
            assert np.allclose(step, (step @ unit) * unit, rtol=0, atol=1e-14)
        return trace, steps

    def test_the_step_runs_along_the_scaled_negative_gradient(self, monkeypatch):
        trace, steps = self.run(monkeypatch, 0.0)
        assert trace.iterations == 2
        assert np.linalg.norm(steps[0]) == pytest.approx(1.0, rel=1e-12)  # unit-length -g/|g|

    def test_a_failed_search_is_not_retried(self, monkeypatch):
        # every probe after the first step is worse, so the search fails; a
        # retry along -g/|g| would repeat its probes
        trace, steps = self.run(monkeypatch, 1e6)
        assert (trace.termination, trace.iterations) == ("line_search_failure", 1)
        lengths = [float(np.linalg.norm(step)) for step in steps]
        assert len(lengths) > 1 and len(set(lengths)) == len(lengths)


class TestZoom:
    """_zoom on crafted brackets of (step, value, slope)."""

    @pytest.mark.parametrize("lo, hi", [
        ((1.0, 0.0, -3.0), (0.0, 2.0, -3.0)),  # the cubic fit has no real minimizer
        ((1.0, 0.0, -1.0), (0.0, 0.5, 0.0)),  # its minimizer formula divides by zero
    ], ids=["negative-discriminant", "zero-denominator"])
    def test_a_degenerate_cubic_fit_bisects(self, lo, hi):
        assert _cubic_step(*lo, *hi) is None
        phi, calls = probe(lambda a: 1.0 - a, lambda a: -1.0)
        _zoom(phi, 1.0, -1.0, lo, hi)
        assert calls[0] == 0.5

    def test_a_probe_past_the_minimum_flips_the_bracket(self):
        # from lo = 0 the bisection lands at 1.95, lower than lo but uphill
        # with |slope| > C2 |d0|: the bracket becomes [0, 1.95], not [1.95, 3.9]
        f = lambda a: 5.0 * (a - 1.0) ** 2 - 5.0 if a < 3.0 else np.inf  # noqa: E731
        phi, calls = probe(f, lambda a: 10.0 * (a - 1.0))
        step, value, _ = _zoom(phi, 0.0, -10.0, (0.0, 0.0, -10.0), (3.9, np.inf, np.nan))
        assert calls[0] == 1.95 and 0.0 < calls[1] < 1.95
        assert step == pytest.approx(1.0) and value <= C1 * step * -10.0


def probed_points(fun, x0, cfg):
    """Every point minimize evaluates fun at, in order."""
    points = []

    def recording(x):
        points.append(np.array(x, copy=True))
        return fun(x)

    minimize(recording, x0, cfg)
    return points


def probe(f, df):
    """phi(a) -> (value, grad, slope) of a 1-D function, counting calls."""
    calls = []

    def phi(a):
        calls.append(a)
        value = f(a)
        if not np.isfinite(value):
            return np.inf, None, np.nan
        return value, np.array([df(a)]), df(a)

    return phi, calls


class TestLineSearch:
    @pytest.mark.parametrize("f, df", [
        (lambda a: (a - 3.0) ** 2, lambda a: 2.0 * (a - 3.0)),
        (lambda a: (a - 100.0) ** 2, lambda a: 2.0 * (a - 100.0)),
        (lambda a: (a - 1e-3) ** 2, lambda a: 2.0 * (a - 1e-3)),
        (lambda a: a**3 - 3.0 * a**2 - 9.0 * a, lambda a: 3.0 * a**2 - 6.0 * a - 9.0),
        (lambda a: (a - 2.0) ** 2 if a < 0.5 else np.inf, lambda a: 2.0 * (a - 2.0)),
    ], ids=["quadratic", "far-quadratic", "near-quadratic", "cubic", "wall-past-0.5"])
    def test_returned_step_meets_the_strong_wolfe_conditions(self, f, df):
        phi, calls = probe(f, df)
        f0, d0 = f(0.0), df(0.0)
        a, value, grad = _line_search(phi, f0, d0)
        assert a > 0
        assert value == f(a) and grad[0] == df(a)
        assert value <= f0 + C1 * a * d0
        assert abs(df(a)) <= C2 * abs(d0)
        assert len(calls) <= 2 * MAX_LS

    def test_a_wall_everywhere_returns_none(self):
        phi, calls = probe(lambda a: np.inf, lambda a: -1.0)
        assert _line_search(phi, 1.0, -1.0) is None
        assert len(calls) <= 2 * MAX_LS

    def test_an_ascent_direction_probes_nothing(self):
        phi, calls = probe(lambda a: a, lambda a: 1.0)
        assert _line_search(phi, 0.0, 1.0) is None
        assert calls == []


class TestTwoLoop:
    def test_matches_densely_assembled_inverse_hessian(self):
        # dense BFGS update: H' = (I - rho s y^T) H (I - rho y s^T) + rho s s^T
        rng = np.random.default_rng(3)
        n = 5
        gamma = 0.7
        H = gamma * np.eye(n)
        pairs = []
        for _ in range(4):
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if y @ s <= 0:
                y = -y
            rho = 1.0 / (y @ s)
            V = np.eye(n) - rho * np.outer(s, y)
            H = V @ H @ V.T + rho * np.outer(s, s)
            pairs.append((s, y, rho))
        g = rng.standard_normal(n)
        got = two_loop_direction(g, pairs, gamma)
        assert np.abs(got - (-H @ g)).max() < 1e-12

    def test_empty_history_is_scaled_steepest_descent(self):
        g = np.array([1.0, -2.0])
        assert np.allclose(two_loop_direction(g, [], 0.25), -0.25 * g)

    @pytest.mark.parametrize("history", [0, 1, 10])
    def test_the_bytes_are_those_of_the_copying_recursion(self, history):
        # the recursion as written before it scaled and negated q in place
        def copying(grad, pairs, gamma):
            q = np.array(grad, dtype=np.float64, copy=True)
            alphas = []
            for s, y, rho in reversed(pairs):
                a = rho * optim._dot(s, q)
                q -= a * y
                alphas.append(a)
            r = gamma * q
            for (s, y, rho), a in zip(pairs, reversed(alphas)):
                b = rho * optim._dot(y, r)
                r += (a - b) * s
            return -r

        rng = np.random.default_rng(history)
        n = 4096
        pairs = []
        for _ in range(history):
            s, y = rng.standard_normal(n), rng.standard_normal(n)
            y = y if y @ s > 0 else -y
            pairs.append((s, y, 1.0 / (y @ s)))
        g = rng.standard_normal(n) * 1e3
        got = two_loop_direction(g, pairs, 0.37)
        assert got.tobytes() == copying(g, pairs, 0.37).tobytes()


class TestNonFinite:
    def test_bad_start_point_raises(self):
        def fun(x):
            return np.nan, np.zeros_like(x)

        with pytest.raises(NonFiniteObjective) as err:
            minimize(fun, np.zeros(2))
        assert err.value.x is not None
        assert err.value.trace is not None

    def test_infinite_wall_keeps_last_good_iterate(self):
        # minimum sits behind the wall; optimization walks to the boundary,
        # then no feasible step satisfies the line search
        def wall(x):
            v = float(x[0])
            if v < -4.9:
                return np.inf, np.array([np.nan])
            return (v + 5.0) ** 2, np.array([2.0 * (v + 5.0)])

        with pytest.raises(NonFiniteObjective) as err:
            minimize(wall, np.array([0.0]))
        assert -4.9 <= err.value.x[0] < -4.8
        vals = err.value.trace.values
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_nan_region_on_a_linear_slope_raises(self):
        def fun(x):
            v = float(x[0])
            if v < -10.0:
                return np.nan, np.array([np.nan])
            return v, np.array([1.0])

        with pytest.raises(NonFiniteObjective):
            minimize(fun, np.array([0.0]))
