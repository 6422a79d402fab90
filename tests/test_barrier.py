import numpy as np
import pytest
from scipy.optimize import minimize

from pssf.barrier import (
    BarrierFunction,
    DegenerateGradientError,
    FilteredController,
    cbf_margin,
    h_dot,
    issf_margin,
    safety_filter,
)
from pssf.dynamics import ControlAffineSystem
from pssf.kfun import Linear, Power
from pssf.scenario import build_scenario

from oracles import check_gradient


def scalar_system():
    """xdot = u on R."""
    return ControlAffineSystem(1, 1, lambda x: np.zeros(1), lambda x: (1.0,))


def scalar_barrier(k=1.0):
    """h = 1 - x^2."""
    return BarrierFunction(
        h=lambda x: 1.0 - float(x[0]) ** 2,
        grad_h=lambda x: np.array([-2.0 * float(x[0])]),
        alpha=Linear(k),
    )


def random_instance(rng, m):
    """Random affine system (g row-major, as the float contract has it), quadratic barrier, state, and input."""
    n = rng.integers(2, 5)
    A = rng.normal(size=(n, n))
    c = rng.normal(size=n)
    G = rng.normal(size=(n, m))
    sys = ControlAffineSystem(n, m, lambda x, A=A, c=c: A @ x + c, lambda x, G=G: G.ravel())
    Q = rng.normal(size=(n, n))
    Q = Q.T @ Q + 0.1 * np.eye(n)
    bar = BarrierFunction(
        h=lambda x, Q=Q: 1.0 - float(x @ Q @ x),
        grad_h=lambda x, Q=Q: -2.0 * Q @ x,
        alpha=Linear(float(rng.uniform(0.5, 2.0))),
    )
    x = rng.normal(size=n) * 0.5
    u = rng.normal(size=m)
    return sys, bar, x, u


def qp_oracle(a, b, u_des):
    """Independent numerical solution of min ||u - u_des||^2 s.t. a.u >= b."""
    res = minimize(
        lambda u: float(np.sum((u - u_des) ** 2)),
        x0=np.zeros_like(u_des),
        jac=lambda u: 2.0 * (u - u_des),
        constraints=[{"type": "ineq", "fun": lambda u: float(a @ u) - b, "jac": lambda u: a}],
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-14},
    )
    return res.x


def filter_coefficients(bar, sys, x):
    a = bar.grad_h(x) @ np.reshape(sys.actuation(x), (sys.state_dim, sys.input_dim))
    b = -bar.alpha(bar.h(x)) - float(bar.grad_h(x) @ sys.drift(x))
    return a, b


class TestHdot:
    def test_cancellation(self):
        sys = scalar_system()
        bar = scalar_barrier()
        # f == 0 here, so u = 0 cancels trivially; use a drifting variant
        drifting = ControlAffineSystem(1, 1, lambda x: np.array([0.7]), lambda x: (1.0,))
        x = np.array([0.4])
        assert h_dot(bar, drifting, x, np.array([-0.7])) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        assert h_dot(scalar_barrier(), scalar_system(), np.array([0.5]), np.array([1.0])) == -1.0

    def test_matches_directional_difference(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sys, bar, x, u = random_instance(rng, 2)
            xdot = np.array(sys.field_at(x, u))
            eps = 1e-6
            numeric = (bar.h(x + eps * xdot) - bar.h(x - eps * xdot)) / (2.0 * eps)
            assert h_dot(bar, sys, x, u) == pytest.approx(numeric, rel=1e-6, abs=1e-8)


class TestCbfMargin:
    def test_boundary_tangency(self):
        bar = scalar_barrier()
        sys = scalar_system()
        x = np.array([1.0])  # h = 0
        assert cbf_margin(bar, sys, x, np.zeros(1)) == 0.0

    def test_violating_input(self):
        # hdot = -1, alpha(h) = 0.75
        assert cbf_margin(scalar_barrier(), scalar_system(), np.array([0.5]), np.array([1.0])) == -0.25

    def test_filtered_input_margin(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            sys, bar, x, u_des = random_instance(rng, 2)
            result = safety_filter(bar, sys, u_des, x)
            if not result.infeasible:
                assert cbf_margin(bar, sys, x, result.u) >= -1e-9


class TestIssfMargin:
    def test_zero_disturbance_reduction(self):
        rng = np.random.default_rng(7)
        sys, bar, x, u = random_instance(rng, 2)
        assert issf_margin(bar, sys, x, u, 0.0) == cbf_margin(bar, sys, x, u)

    def test_scalar_example_identity_iota(self):
        bar, sys = scalar_barrier(), scalar_system()
        x, u = np.array([0.5]), np.array([1.0])
        # ||grad|| = 1 and iota = Linear(1): binding case adds -0.1 + 0.1 = 0
        assert issf_margin(bar, sys, x, u, 0.1, Linear(1.0)) == cbf_margin(bar, sys, x, u)

    def test_degenerate_gradient(self):
        bar, sys = scalar_barrier(), scalar_system()
        with pytest.raises(DegenerateGradientError):
            issf_margin(bar, sys, np.array([0.0]), np.zeros(1), 0.5)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            sys, bar, x, u = random_instance(rng, 2)
            if np.linalg.norm(bar.grad_h(x)) < 1e-6:
                continue
            d_bound = float(rng.uniform(0.0, 2.0))
            iota = Linear(float(rng.uniform(0.2, 3.0))) if rng.uniform() < 0.5 else Power(
                float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.3, 1.0)))
            margin = issf_margin(bar, sys, x, u, d_bound, iota)
            oracle = brute_force_issf(bar, sys, x, u, d_bound, iota)
            assert margin == pytest.approx(oracle, abs=1e-6)

    def test_monotone_in_bound_for_small_linear_iota(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            sys, bar, x, u = random_instance(rng, 2)
            grad_norm = np.linalg.norm(bar.grad_h(x))
            if grad_norm < 1e-3:
                continue
            iota = Linear(0.5 * float(grad_norm))
            margins = [issf_margin(bar, sys, x, u, r, iota) for r in (0.1, 0.5, 1.0, 2.0)]
            assert all(m2 <= m1 + 1e-12 for m1, m2 in zip(margins, margins[1:]))


def brute_force_issf(bar, sys, x, u, d_bound, iota, samples=10_001):
    """Minimize the disturbed margin over sampled disturbances on the ball.

    For fixed radius the inner product grad_h . d is minimized by the
    anti-gradient direction (Cauchy-Schwarz), so sampling radii along that
    direction covers the minimizer; a coarse random sweep over directions
    guards the reduction itself.
    """
    grad = bar.grad_h(x)
    grad_norm = float(np.linalg.norm(grad))
    base = h_dot(bar, sys, x, u) + bar.alpha(bar.h(x))
    radii = np.linspace(0.0, d_bound, samples)
    best = min(base - r * grad_norm + iota(r) if r > 0 else base for r in radii)
    # random directions must never undercut the anti-gradient sweep
    rng = np.random.default_rng(0)
    for _ in range(200):
        d = rng.normal(size=len(x))
        d *= rng.uniform(0.0, d_bound) / np.linalg.norm(d)
        value = base + float(grad @ d) + iota(float(np.linalg.norm(d)))
        assert value >= best - 1e-9
    return best


class TestSafetyFilter:
    def test_inactive_constraint_passthrough(self):
        bar, sys = scalar_barrier(), scalar_system()
        x = np.array([0.0])
        u_des = np.array([0.3])
        result = safety_filter(bar, sys, u_des, x)
        assert not result.modified and not result.infeasible
        assert np.array_equal(result.u, u_des)

    def test_halfspace_projection_hand_case(self):
        # a = [1], b = 1, u_des = 0 -> u = 1 with zero margin
        sys = ControlAffineSystem(1, 1, lambda x: np.array([-1.0]), lambda x: (1.0,))
        bar = BarrierFunction(h=lambda x: float(x[0]), grad_h=lambda x: np.array([1.0]), alpha=Linear(1.0))
        x = np.array([0.0])
        a, b = filter_coefficients(bar, sys, x)
        assert a[0] == 1.0 and b == 1.0
        result = safety_filter(bar, sys, np.zeros(1), x)
        assert result.u[0] == pytest.approx(1.0, abs=1e-12)
        assert result.constraint_margin == pytest.approx(0.0, abs=1e-12)
        oracle = qp_oracle(a, b, np.zeros(1))
        assert np.allclose(result.u, oracle, atol=1e-8)

    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_qp_oracle(self, m):
        rng = np.random.default_rng(10 + m)
        for _ in range(100):
            sys, bar, x, u_des = random_instance(rng, m)
            result = safety_filter(bar, sys, u_des, x)
            if result.infeasible:
                continue
            a, b = filter_coefficients(bar, sys, x)
            oracle = qp_oracle(a, b, u_des)
            assert np.linalg.norm(result.u - oracle) < 1e-6
            active = abs(float(a @ result.u) - b) < 1e-7
            assert active == result.modified or not result.modified

    def test_optimality_against_random_feasible_points(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            sys, bar, x, u_des = random_instance(rng, 3)
            result = safety_filter(bar, sys, u_des, x)
            if result.infeasible or not result.modified:
                continue
            a, b = filter_coefficients(bar, sys, x)
            candidates = u_des + rng.normal(size=(10_000, 3)) * 3.0
            feasible = candidates[candidates @ a >= b]
            if len(feasible) == 0:
                continue
            best = np.min(np.linalg.norm(feasible - u_des, axis=1))
            assert np.linalg.norm(result.u - u_des) <= best + 1e-9

    def test_infeasible_flag_on_degenerate_row(self):
        sys = ControlAffineSystem(1, 1, lambda x: np.array([-1.0]), lambda x: (0.0,))
        bar = BarrierFunction(h=lambda x: float(x[0]), grad_h=lambda x: np.array([1.0]), alpha=Linear(1.0))
        result = safety_filter(bar, sys, np.zeros(1), np.array([0.0]))
        assert result.infeasible
        assert np.array_equal(result.u, np.zeros(1))

    def test_residual_terms_shift_constraint(self):
        bar, sys = scalar_barrier(), scalar_system()
        x = np.array([0.9])

        class Residual:
            def terms(self, x):
                return -5.0, np.array([0.0])

        plain = safety_filter(bar, sys, np.zeros(1), x)
        shifted = safety_filter(bar, sys, np.zeros(1), x, residual=Residual())
        # claiming hdot is 5 lower forces a stronger correction
        assert shifted.u[0] < plain.u[0] - 1.0

    def test_filter_output_locally_lipschitz(self):
        scn = build_scenario({})
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(200):
            x = rng.uniform([-1, -1, -0.25, -0.8], [1, 1, 0.25, 0.8])
            dx = rng.normal(size=4)
            dx *= 1e-5 / np.linalg.norm(dx)
            u1 = safety_filter(scn.barrier, scn.nominal_system, np.array([5.0]), x).u
            u2 = safety_filter(scn.barrier, scn.nominal_system, np.array([5.0]), x + dx).u
            worst = max(worst, float(np.linalg.norm(np.subtract(u1, u2))) / 1e-5)
        assert worst < 1e5


class TestClamp:
    # Outside the set at x = 1.2 the filter demands u <= -11/6 against u_des = 1.
    def test_clamped_steps_counted(self):
        bar, sys = scalar_barrier(k=10.0), scalar_system()
        assert safety_filter(bar, sys, np.array([1.0]), np.array([1.2])).u[0] < -1.8
        controller = FilteredController(bar, sys, lambda x, t: np.array([1.0]), u_limit=1.0)
        assert np.array_equal(controller(np.array([1.2]), 0.0), [-1.0])
        assert np.array_equal(controller(np.array([0.0]), 0.0), [1.0])
        assert np.array_equal(controller(np.array([1.2]), 0.0), [-1.0])
        assert controller.clamped_count == 2
        assert controller.infeasible_count == 0

    def test_no_limit_never_clamps(self):
        controller = FilteredController(scalar_barrier(k=10.0), scalar_system(), lambda x, t: np.array([1.0]))
        assert controller(np.array([1.2]), 0.0)[0] < -1.8
        assert controller.clamped_count == 0


class TestFilterConsistency:
    def test_perfect_model_invariance(self):
        # nominal = true: closed loop from inside C keeps h above -1e-6
        cfg = {"system": {"perturbation": {"scale": {}, "drop_friction": False}}, "run": {"duration": 2.0}}
        scn = build_scenario(cfg)
        rng = np.random.default_rng(14)
        for _ in range(5):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            radius = 0.6 * np.sqrt(rng.uniform())
            x0 = np.array([0.0, rng.uniform(-0.5, 0.5),
                           radius * np.cos(angle) * 0.3, radius * np.sin(angle) * 1.0])
            traj, _ = scn.rollout(x0=x0)
            h_min = min(scn.barrier.h(x) for x in traj.states)
            assert h_min >= -1e-6


class TestGradientCheck:
    def test_benchmark_barrier_gradient(self):
        scn = build_scenario({})
        rng = np.random.default_rng(15)
        samples = rng.uniform([-1, -1, -0.3, -1], [1, 1, 0.3, 1], size=(100, 4))
        assert check_gradient(scn.barrier, list(samples)) <= 1e-5

    def test_wrong_gradient_detected(self):
        bad = BarrierFunction(
            h=lambda x: 1.0 - float(x @ x),
            grad_h=lambda x: -1.0 * x,  # off by factor 2
            alpha=Linear(1.0),
        )
        with pytest.raises(AssertionError):
            check_gradient(bad, [np.array([0.5, 0.5])])
