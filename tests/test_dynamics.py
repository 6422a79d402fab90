import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from pssf.config import DEFAULT_CONFIG, system_params
from pssf.dynamics import (
    ControlAffineSystem,
    NonFiniteDynamicsError,
    NumericalBlowUpError,
    SegwayParams,
    Trajectory,
    segway_true,
    simulate,
    step_rk4,
)
from pssf.ioutil import read_csv

from oracles import (DisturbanceBoundError, DisturbanceSignal, field_at_reference, lipschitz_probe, planar_disk_demo,
                     segway_energy, segway_reference)


@pytest.fixture
def params():
    return SegwayParams()


@pytest.fixture
def segway(params):
    return segway_true(params)


# The benchmark's design-model perturbation, as the config declares it.
BENCHMARK_PERTURBATION = DEFAULT_CONFIG["system"]["perturbation"]


def design_params(perturbation):
    """The design model's parameters: the default plant's under ``perturbation``, through ``system_params``."""
    return system_params({**DEFAULT_CONFIG["system"], "perturbation": perturbation})[1]


def random_segway_states(rng, count):
    return rng.uniform([-2, -2, -0.6, -2], [2, 2, 0.6, 2], size=(count, 4))


class TestSegwayModel:
    def test_dimensions(self, segway):
        assert segway.state_dim == 4
        assert segway.input_dim == 1

    def test_upright_equilibrium_without_friction(self):
        sys = segway_true(SegwayParams(viscous_friction=0.0))
        for pos in (0.0, 3.7, -1.2):
            f = sys.drift(np.array([pos, 0.0, 0.0, 0.0]))
            assert np.allclose(f, 0.0, atol=1e-14)

    def test_gravity_tips_body_further(self, segway):
        # positive pitch, zero torque: pitch acceleration must be positive
        f = segway.drift(np.array([0.0, 0.0, 0.1, 0.0]))
        assert f[2] == 0.0
        assert f[3] > 0.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SegwayParams(body_mass=-1.0)
        with pytest.raises(ValueError):
            SegwayParams(viscous_friction=-0.1)

    def test_identity_perturbation_matches_pointwise(self, params, segway):
        nominal = segway_true(design_params({"scale": {}, "drop_friction": False}))
        rng = np.random.default_rng(0)
        for x in random_segway_states(rng, 100):
            assert np.array_equal(segway.drift(x), nominal.drift(x))
            assert np.array_equal(segway.actuation(x), nominal.actuation(x))

    def test_benchmark_perturbation_has_drift_error(self, params, segway):
        nominal = segway_true(design_params({"scale": {"body_mass": 1.2}, "drop_friction": True}))
        x = np.array([0.0, 0.5, 0.1, 0.0])
        assert np.linalg.norm(np.subtract(segway.drift(x), nominal.drift(x))) > 1e-3

    def test_benchmark_perturbation_drift_sup_finite(self, params, segway):
        nominal = segway_true(design_params(BENCHMARK_PERTURBATION))
        rng = np.random.default_rng(1)
        sup = max(
            float(np.linalg.norm(np.subtract(segway.drift(x), nominal.drift(x))))
            for x in random_segway_states(rng, 1000)
        )
        assert 0.0 < sup < 100.0

    def test_lipschitz_probe_bounded(self, segway):
        rng = np.random.default_rng(2)
        ratio = lipschitz_probe(segway.drift, list(random_segway_states(rng, 40)))
        assert np.isfinite(ratio) and ratio < 1e3


def negated(x):
    """f(x) = -x on the float contract: a sequence in, a list out."""
    return [-v for v in x]


class TestStepRK4:
    def test_zero_dynamics(self):
        sys = ControlAffineSystem(2, 2, lambda x: np.zeros(2), lambda x: np.eye(2).ravel())
        x = np.array([0.3, -0.7])
        out = step_rk4(sys, x, np.zeros(2), None, 0.1)
        assert np.array_equal(out, x)

    def test_scalar_decay_matches_exponential(self):
        sys = ControlAffineSystem(1, 1, negated, lambda x: (0.0,))
        out = step_rk4(sys, np.array([1.0]), np.zeros(1), None, 0.1)
        assert out[0] == pytest.approx(math.exp(-0.1), abs=1e-7)

    def test_linear_system_matches_matrix_exponential_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.normal(size=(3, 3))
            sys = ControlAffineSystem(3, 1, lambda x, A=A: A @ x, lambda x: np.zeros(3))
            x0 = rng.normal(size=3)
            dt = 0.01
            exact = expm(A * dt) @ x0
            out = step_rk4(sys, x0, np.zeros(1), None, dt)
            assert np.linalg.norm(out - exact) < 10.0 * dt**5

    def test_fourth_order_convergence(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(3, 3))
        sys = ControlAffineSystem(3, 1, lambda x: A @ x, lambda x: np.zeros(3))
        x0 = rng.normal(size=3)
        T = 0.5

        def terminal_error(dt):
            x = x0.copy()
            for _ in range(int(round(T / dt))):
                x = step_rk4(sys, x, np.zeros(1), None, dt)
            return np.linalg.norm(x - expm(A * T) @ x0)

        coarse, fine = terminal_error(0.02), terminal_error(0.01)
        assert coarse / fine >= 2**4 * 0.8

    def test_blowup_guard(self):
        sys = ControlAffineSystem(1, 1, lambda x: [v * 1e9 for v in x], lambda x: (0.0,))
        with pytest.raises(NumericalBlowUpError):
            step_rk4(sys, np.array([1.0]), np.zeros(1), None, 1.0)
        # Every entry within the limit, their sum past it: no blow-up.
        still = ControlAffineSystem(2, 1, lambda x: (0.0, 0.0), lambda x: (0.0, 0.0))
        assert step_rk4(still, [6e7, -6e7], [0.0], None, 1.0) == (6e7, -6e7)

    def test_disturbance_enters_additively(self):
        sys = ControlAffineSystem(2, 1, lambda x: np.zeros(2), lambda x: np.zeros(2))
        d = np.array([1.0, -2.0])
        out = step_rk4(sys, np.zeros(2), np.zeros(1), d, 0.5)
        assert np.allclose(out, 0.5 * d)


def numpy_rk4(system, x, u, d, dt):
    """Textbook vector RK4 in numpy on the written-out float field: the oracle for :func:`step_rk4`."""
    def field(z):
        return np.array(field_at_reference(system, z.tolist(), u, d))

    k1 = field(x)
    k2 = field(x + 0.5 * dt * k1)
    k3 = field(x + 0.5 * dt * k2)
    k4 = field(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def assert_bitwise_equal(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


class TestStepMatchesNumpyOracle:
    @pytest.mark.parametrize("perturbation", [None, BENCHMARK_PERTURBATION])
    def test_segway_random_states(self, params, perturbation):
        system = segway_true(params if perturbation is None else design_params(perturbation))
        rng = np.random.default_rng(20)
        states = random_segway_states(rng, 1000)
        # Exact zeros of either sign exercise the sign rules of g @ u.
        zeros = rng.uniform(size=states.shape) < 0.05
        states[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        inputs = rng.uniform(-100.0, 100.0, size=(1000, 1))
        inputs[::50] = 0.0
        inputs[25::50] = -0.0
        cases = list(zip(states, inputs))
        # At rest every stage derivative can be a signed zero.
        cases += [(np.array(x), np.array([u])) for x in itertools.product([0.0, -0.0], repeat=4)
                  for u in (0.0, -0.0, 1.0, -1.0)]
        for x, u in cases:
            assert_bitwise_equal(step_rk4(system, x, u, None, 1e-3), numpy_rk4(system, x, u, None, 1e-3))

    @pytest.mark.parametrize("m", [1, 2])
    def test_generic_system_with_disturbance(self, m):
        rng = np.random.default_rng(21)
        A = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, m))
        sys = ControlAffineSystem(3, m, lambda x: np.sin(A @ x) * x, lambda x: (B * np.cos(x[0])).ravel())
        cases = [(rng.normal(size=3), rng.uniform(-100.0, 100.0, size=m), rng.normal(size=3))
                 for _ in range(200)]
        cases += [(np.array(x), np.full(m, u), np.array(d))
                  for x in itertools.product([0.0, -0.0], repeat=3) for u in (0.0, -0.0)
                  for d in ([0.0, -0.0, 0.0], [-0.0, -0.0, -0.0])]
        for x, u, d in cases:
            assert_bitwise_equal(step_rk4(sys, x, u, d, 0.01), numpy_rk4(sys, x, u, d, 0.01))


class TestGuards:
    def test_nan_drift_raises_and_ends_rollout(self):
        sys = ControlAffineSystem(1, 1, lambda x: np.array([math.nan]), lambda x: (0.0,))
        with pytest.raises(NonFiniteDynamicsError):
            step_rk4(sys, np.array([1.0]), np.zeros(1), None, 1e-3)
        traj = simulate(sys, lambda x, t: np.zeros(1), np.array([1.0]), 0.01, 1e-3)
        assert traj.terminated_early
        assert traj.termination_reason == "non-finite dynamics"
        assert len(traj.states) == 1 and len(traj.inputs) == 0

    def test_singular_mass_matrix(self):
        with pytest.raises(ValueError, match="det D"):
            SegwayParams(body_inertia=1e-12, wheel_mass=1e-12)

    def test_near_singular_params_stay_finite_at_every_pitch(self):
        # No det guard in the evaluator: det D(q) at any pitch is at least its pitch-0 value, here 1.5e-10.
        sys = segway_true(SegwayParams(body_mass=1e-5, com_length=1.0, body_inertia=1e-10, wheel_mass=1e-5))
        for pitch in np.linspace(-math.pi, math.pi, 1000):
            x = np.array([0.0, 0.5, pitch, -0.3])
            assert np.all(np.isfinite(sys.drift(x))) and np.all(np.isfinite(sys.actuation(x)))


class TestSharedEvaluation:
    """drift and actuation depend on x's values alone, whatever came before."""

    def test_interleaved_calls_match_fresh_system(self, params):
        rng = np.random.default_rng(22)
        a, b = random_segway_states(rng, 2)
        make = {"true": lambda: segway_true(params),
                "nominal": lambda: segway_true(design_params(BENCHMARK_PERTURBATION))}
        shared = {name: factory() for name, factory in make.items()}
        calls = [("true", "drift", a), ("true", "actuation", b), ("true", "drift", a),
                 ("nominal", "drift", a), ("true", "actuation", a), ("nominal", "actuation", b),
                 ("true", "drift", b), ("nominal", "drift", a)]
        for system, evaluator, x in calls:
            expected = getattr(make[system](), evaluator)(x)
            assert np.array_equal(getattr(shared[system], evaluator)(x), expected)

    def test_array_mutated_in_place(self, segway, params):
        x = np.array([0.0, 0.3, 0.1, -0.2])
        first_f, first_g = segway.drift(x), segway.actuation(x)
        x[2] = -0.25
        x[1] = 1.5
        fresh = segway_true(params)
        assert np.array_equal(segway.drift(x), fresh.drift(x.copy()))
        assert np.array_equal(segway.actuation(x), fresh.actuation(x.copy()))
        assert not np.array_equal(segway.drift(x), first_f)
        assert not np.array_equal(segway.actuation(x), first_g)

    def test_returns_tuples_of_floats(self, segway):
        # Immutable results: no caller can change what a later call returns. g is row-major, one entry per state.
        for x in ([0.0, 0.3, 0.1, -0.2], (0.0, 0.3, 0.1, -0.2)):
            f, g = segway.drift(x), segway.actuation(x)
            assert type(f) is tuple and type(g) is tuple and len(f) == len(g) == 4
            assert all(type(v) is float for v in f + g)
            assert (f, g) == (segway.drift([0.0, 0.3, 0.1, -0.2]), segway.actuation([0.0, 0.3, 0.1, -0.2]))


class TestMatchesReference:
    """drift and actuation equal the earlier memoizing evaluators bit for bit, in call orders that hit and missed the memo."""

    @staticmethod
    def states():
        special = (0.0, -0.0, 1.0, 0.5 * math.pi, -0.5 * math.pi, math.pi, -math.pi)
        rng = np.random.default_rng(23)
        uniform = rng.uniform([-2, -3, -math.pi, -4], [2, 3, math.pi, 4], size=(10_000, 4))
        return np.vstack([uniform, np.array(list(itertools.product(special, repeat=4)))])

    @pytest.mark.parametrize("order", ["drift_first", "actuation_first", "true_nominal_interleaved"])
    def test_bitwise_equal(self, params, order):
        design = design_params(BENCHMARK_PERTURBATION)
        systems = {"true": (segway_true(params), segway_reference(params)),
                   "nominal": (segway_true(design), segway_reference(design))}
        calls = {"drift_first": [("true", "drift"), ("true", "actuation"), ("nominal", "drift"),
                                 ("nominal", "actuation")],
                 "actuation_first": [("true", "actuation"), ("true", "drift"), ("nominal", "actuation"),
                                     ("nominal", "drift")],
                 # projected_disturbance's order: f, f_hat, g, g_hat.
                 "true_nominal_interleaved": [("true", "drift"), ("nominal", "drift"), ("true", "actuation"),
                                              ("nominal", "actuation")]}[order]
        for x in self.states():
            for system, evaluator in calls:
                new, reference = (getattr(s, evaluator)(x.tolist()) for s in systems[system])
                assert (type(new), np.array(new).tobytes()) == (tuple, np.array(reference).tobytes()), \
                    (system, evaluator, x)


class TestSimulate:
    def test_zero_duration(self):
        sys = ControlAffineSystem(1, 1, negated, lambda x: (0.0,))
        traj = simulate(sys, lambda x, t: np.zeros(1), np.array([2.0]), 0.0, 1e-3)
        assert len(traj.times) == 1 and len(traj.inputs) == 0
        assert traj.states[0, 0] == 2.0

    def test_scalar_feedback_tracks_closed_form(self):
        sys = ControlAffineSystem(1, 1, lambda x: np.zeros(1), lambda x: (1.0,))
        traj = simulate(sys, lambda x, t: negated(x), np.array([1.0]), 5.0, 1e-3)
        assert traj.states[-1, 0] == pytest.approx(math.exp(-5.0), abs=1e-3)

    def test_non_integer_step_count_rejected(self):
        sys = ControlAffineSystem(1, 1, negated, lambda x: (0.0,))
        with pytest.raises(ValueError):
            simulate(sys, lambda x, t: np.zeros(1), np.array([1.0]), 1.0, 3e-4)
        # duration/dt is inf, which has no nearest integer.
        with pytest.raises(ValueError):
            simulate(sys, lambda x, t: np.zeros(1), np.array([1.0]), 1.0, 1.0e-320)

    def test_trajectory_invariants(self):
        sys = ControlAffineSystem(1, 1, negated, lambda x: (0.0,))
        traj = simulate(sys, lambda x, t: np.zeros(1), np.array([1.0]), 0.25, 1e-3)
        assert len(traj.states) == len(traj.times)
        assert len(traj.inputs) == len(traj.times) - 1
        spacing = np.diff(traj.times)
        assert np.all(np.abs(spacing - 1e-3) <= 1e-12)

    def test_blowup_becomes_early_termination(self):
        sys = ControlAffineSystem(1, 1, lambda x: [v * abs(v) for v in x], lambda x: (0.0,))
        traj = simulate(sys, lambda x, t: np.zeros(1), np.array([10.0]), 5.0, 1e-2)
        assert traj.terminated_early
        assert traj.termination_reason == "numerical blow-up"
        assert len(traj.inputs) == len(traj.times) - 1

    def test_determinism_bit_identical(self):
        params = SegwayParams()
        sys = segway_true(params)

        def controller(x, t):
            return np.array([5.0 * math.sin(3.0 * t) - 2.0 * x[3]])

        a = simulate(sys, controller, np.array([0.0, 0.0, 0.05, 0.0]), 1.0, 1e-3)
        b = simulate(sys, controller, np.array([0.0, 0.0, 0.05, 0.0]), 1.0, 1e-3)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.inputs, b.inputs)

    def test_recorded_inputs_are_controller_outputs(self):
        sys = ControlAffineSystem(1, 1, lambda x: np.zeros(1), lambda x: (1.0,))
        traj = simulate(sys, lambda x, t: np.array([math.sin(t)]), np.array([0.0]), 0.01, 1e-3)
        expected = np.array([math.sin(j * 1e-3) for j in range(10)])
        assert np.array_equal(traj.inputs[:, 0], expected)


class TestEnergy:
    def test_undamped_unactuated_conservation(self):
        params = SegwayParams(viscous_friction=0.0)
        sys = segway_true(params)
        x0 = np.array([0.0, 0.0, 0.4, 0.0])
        traj = simulate(sys, lambda x, t: np.zeros(1), x0, 10.0, 1e-3)
        assert not traj.terminated_early
        e0 = segway_energy(params, x0)
        energies = np.array([segway_energy(params, x) for x in traj.states])
        drift = np.max(np.abs(energies - e0)) / abs(e0)
        assert drift <= 1e-6

    def test_friction_dissipates(self):
        params = SegwayParams(viscous_friction=2.0)
        sys = segway_true(params)
        x0 = np.array([0.0, 1.5, 0.2, 0.0])
        traj = simulate(sys, lambda x, t: np.zeros(1), x0, 2.0, 1e-3)
        assert segway_energy(params, traj.states[-1]) < segway_energy(params, x0)


class TestDisturbanceSignal:
    def test_within_bound_passes(self):
        sig = DisturbanceSignal(lambda t, x, u: np.array([0.2, 0.0]), declared_bound=0.25)
        assert np.allclose(sig(0.0, np.zeros(2), np.zeros(1)), [0.2, 0.0])

    def test_bound_violation_raises(self):
        sig = DisturbanceSignal(lambda t, x, u: np.array([1.0, 0.0]), declared_bound=0.5)
        with pytest.raises(DisturbanceBoundError):
            sig(0.0, np.zeros(2), np.zeros(1))

    def test_builtin_toy_signal_never_trips(self):
        demo = planar_disk_demo()
        sys = demo.system
        traj = simulate(sys, demo.desired, np.array([0.4, 0.1]), 2.0, 1e-3, disturbance=demo.disturbance)
        assert not traj.terminated_early


class TestTrajectoryCsv:
    def test_round_trip_values(self, tmp_path):
        times = np.array([0.0, 1e-3, 2e-3])
        states = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        inputs = np.array([[1.0 / 3.0], [2.0 / 7.0]])
        traj = Trajectory(times=times, states=states, inputs=inputs)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        header, rows = read_csv(path)
        assert header == ["t", "x1", "x2", "u1"]
        assert len(rows) == 3
        assert float(rows[1][3]) == inputs[1][0]
        # final row has no input
        assert rows[2][3] == ""
        # 17 significant digits round-trip exactly
        assert float(rows[0][3]) == 1.0 / 3.0

    def test_zero_step_header_keeps_input_dim(self, tmp_path):
        system = ControlAffineSystem(2, 2, drift=lambda x: np.zeros(2), actuation=lambda x: np.eye(2).ravel())
        traj = simulate(system, lambda x, t: np.zeros(2), np.array([0.1, 0.2]), 0.0, 1e-3)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        header, rows = read_csv(path)
        assert header == ["t", "x1", "x2", "u1", "u2"]
        assert len(rows) == 1 and rows[0][3:] == ["", ""]
