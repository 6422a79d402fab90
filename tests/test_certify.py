import numpy as np
import pytest

from pssf.barrier import BarrierFunction, FilteredController, h_dot
from pssf.certify import (
    CompatiblePair,
    DeltaTrace,
    Projection,
    check_compatibility,
    delta_bound,
    make_certificate,
    projected_disturbance,
    projected_dynamics,
    transport_inflation,
    verify_certificate,
)
from pssf.dynamics import ControlAffineSystem, Trajectory
from pssf.ioutil import read_csv
from pssf.kfun import Linear, NotInvertibleError, Power
from pssf.learning import FeatureMap, ResidualModel
from pssf.scenario import build_scenario

from oracles import Interpolated, check_jacobian, direct_transport_floor, planar_disk_demo


def random_affine_instance(rng, n=3, m=2):
    A = rng.normal(size=(n, n))
    c = rng.normal(size=n)
    G = rng.normal(size=(n, m))
    return ControlAffineSystem(n, m, lambda x: A @ x + c, lambda x: G.ravel())


class TestProjectedDynamics:
    def test_identity_projection(self):
        rng = np.random.default_rng(0)
        sys = random_affine_instance(rng)
        proj = Projection(map=lambda x: x.copy(), jacobian=lambda x: np.eye(3))
        x, u = rng.normal(size=3), rng.normal(size=2)
        assert np.allclose(projected_dynamics(proj, sys, x, u), sys.field_at(x, u))

    def test_barrier_projection_matches_h_dot(self):
        rng = np.random.default_rng(1)
        sys = random_affine_instance(rng)
        Q = np.eye(3)
        bar = BarrierFunction(
            h=lambda x: 1.0 - float(x @ Q @ x),
            grad_h=lambda x: -2.0 * Q @ x,
            alpha=Linear(1.0),
        )
        proj = Projection(map=lambda x: np.array([bar.h(x)]), jacobian=lambda x: bar.grad_h(x).reshape(1, 3))
        x, u = rng.normal(size=3), rng.normal(size=2)
        assert projected_dynamics(proj, sys, x, u)[0] == pytest.approx(h_dot(bar, sys, x, u), rel=1e-12)
        d = rng.normal(size=3)
        assert projected_dynamics(proj, sys, x, u, d)[0] == pytest.approx(
            h_dot(bar, sys, x, u) + float(bar.grad_h(x) @ d), rel=1e-12)

    def test_matches_finite_difference_of_map(self):
        rng = np.random.default_rng(2)
        sys = random_affine_instance(rng)
        proj = Projection(
            map=lambda x: np.array([float(x @ x), float(np.sin(x[0]))]),
            jacobian=lambda x: np.vstack([2.0 * x, [np.cos(x[0]), 0.0, 0.0]]),
        )
        for _ in range(20):
            x, u = rng.normal(size=3), rng.normal(size=2)
            xdot = np.array(sys.field_at(x, u))
            eps = 1e-6
            numeric = (proj.map(x + eps * xdot) - proj.map(x - eps * xdot)) / (2.0 * eps)
            assert np.allclose(projected_dynamics(proj, sys, x, u), numeric, rtol=1e-5, atol=1e-7)

    def test_jacobian_check(self):
        demo = planar_disk_demo()
        rng = np.random.default_rng(3)
        samples = [rng.uniform(-2, 2, size=2) for _ in range(100)]
        assert check_jacobian(demo.projection, samples) <= 1e-5


class TestCompatibility:
    def test_identity_pair_passes(self):
        rng = np.random.default_rng(4)
        bar = BarrierFunction(h=lambda x: 1.0 - float(x @ x), grad_h=lambda x: -2.0 * x, alpha=Linear(1.0))
        pair = CompatiblePair(
            barrier=bar,
            h_proj=lambda y: float(np.atleast_1d(y)[0]),
            projection=Projection(map=lambda x: np.array([bar.h(x)]), jacobian=lambda x: bar.grad_h(x).reshape(1, -1)),
            sigma_lower=Linear(1.0),
            sigma_upper=Linear(1.0),
        )
        report = check_compatibility(pair, [rng.normal(size=2) for _ in range(100)])
        assert report.passed
        assert report.worst_lower_slack >= -1e-9 and report.worst_upper_slack >= -1e-9

    def _scaled_pair(self, upper):
        bar = BarrierFunction(h=lambda x: 1.0 - float(x @ x), grad_h=lambda x: -2.0 * x, alpha=Linear(1.0))
        return CompatiblePair(
            barrier=bar,
            h_proj=lambda y: 2.0 * (1.0 - float(np.atleast_1d(y)[0])),
            projection=Projection(map=lambda x: np.array([float(x @ x)]), jacobian=lambda x: 2.0 * x.reshape(1, -1)),
            sigma_lower=Linear(1.0),
            sigma_upper=upper,
        )

    def test_constructed_pair_with_wide_bounds(self):
        # h_proj = 2h; the 1x/3x linear sandwich holds on the safe region,
        # which is what the sample set probes (brute-force check)
        rng = np.random.default_rng(5)
        samples = []
        while len(samples) < 200:
            x = rng.uniform(-1.0, 1.0, size=2)
            if float(x @ x) <= 1.0:
                samples.append(x)
        pair = self._scaled_pair(Linear(3.0))
        report = check_compatibility(pair, samples)
        assert report.passed

    def test_tight_upper_bound_fails(self):
        rng = np.random.default_rng(6)
        pair = self._scaled_pair(Linear(0.5))
        report = check_compatibility(pair, [rng.uniform(-0.5, 0.5, size=2) for _ in range(50)])
        assert not report.passed and report.failure == "upper"
        assert report.first_violation is not None

    def test_set_preservation_at_safe_samples(self):
        demo = planar_disk_demo()
        rng = np.random.default_rng(7)
        samples = [x for x in (rng.uniform(-1.5, 1.5, size=2) for _ in range(400))]
        report = check_compatibility(demo.pair, samples)
        assert report.passed and report.failure is None


class TestProjectedDisturbance:
    def test_zero_for_identical_models(self):
        scn = build_scenario({"system": {"perturbation": {"scale": {}, "drop_friction": False}}})
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.uniform([-1, -1, -0.3, -1], [1, 1, 0.3, 1])
            u = rng.normal(size=1)
            assert projected_disturbance(scn.barrier, scn.true_system, scn.nominal_system, x, u) == 0.0

    def test_equals_h_dot_difference(self):
        scn = build_scenario({})
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.uniform([-1, -1, -0.3, -1], [1, 1, 0.3, 1])
            u = rng.normal(size=1) * 20.0
            direct = projected_disturbance(scn.barrier, scn.true_system, scn.nominal_system, x, u)
            via_hdot = h_dot(scn.barrier, scn.true_system, x, u) - h_dot(scn.barrier, scn.nominal_system, x, u)
            assert direct == pytest.approx(via_hdot, rel=1e-9, abs=1e-12)

    def test_benchmark_point_nonzero(self):
        scn = build_scenario({})
        x = np.array([0.0, 0.5, 0.1, 0.2])
        u = FilteredController(scn.barrier, scn.nominal_system, scn.desired)(x, 0.0)
        value = projected_disturbance(scn.barrier, scn.true_system, scn.nominal_system, x, u)
        assert abs(value) > 1e-4

    def test_learned_reductions(self):
        scn = build_scenario({})
        features = FeatureMap.fit({"kind": "polynomial", "max_degree": 1, "indices": (2, 3)},
                                  np.zeros((2, 4)) + np.array([0.0, 0.0, 0.1, 0.1]))
        zero_model = ResidualModel(
            features=features,
            w_b=np.zeros(features.dimension),
            W_a=np.zeros((1, features.dimension)),
            ridge_lambda=1.0,
            training_rms=0.0,
        )
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = rng.uniform([-1, -1, -0.3, -1], [1, 1, 0.3, 1])
            u = rng.normal(size=1) * 10.0
            learned = projected_disturbance(scn.barrier, scn.true_system, scn.nominal_system, x, u, residual=zero_model)
            plain = projected_disturbance(scn.barrier, scn.true_system, scn.nominal_system, x, u)
            assert learned == pytest.approx(plain, rel=1e-12)

    def test_perfect_estimator_gives_zero(self):
        scn = build_scenario({})

        class PerfectResidual:
            def terms(self, x):
                grad = scn.barrier.grad_h(x)
                b = float(grad @ np.subtract(scn.true_system.drift(x), scn.nominal_system.drift(x)))
                a = grad @ np.subtract(scn.true_system.actuation(x), scn.nominal_system.actuation(x)).reshape(4, 1)
                return b, a

        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.uniform([-1, -1, -0.3, -1], [1, 1, 0.3, 1])
            u = rng.normal(size=1) * 10.0
            value = projected_disturbance(scn.barrier, scn.true_system, scn.nominal_system, x, u,
                                          residual=PerfectResidual())
            assert value == pytest.approx(0.0, abs=1e-9)


class TestDeltaTraceAndBound:
    def test_zero_trace(self):
        trace = DeltaTrace(times=np.zeros(3), delta=np.zeros(3))
        assert delta_bound(trace) == 0.0

    def test_max_abs(self):
        trace = DeltaTrace(times=np.arange(3.0), delta=np.array([0.1, -0.3, 0.2]))
        assert delta_bound(trace) == 0.3

    def test_csv_export(self, tmp_path):
        trace = DeltaTrace(times=np.array([0.0, 0.1]), delta=np.array([0.5, -1.25]))
        trace.to_csv(tmp_path / "delta.csv")
        header, rows = read_csv(tmp_path / "delta.csv")
        assert header == ["t", "abs_delta"]
        assert [float(r[1]) for r in rows] == [0.5, 1.25]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            DeltaTrace(times=np.zeros(1), delta=np.array([np.nan]))


class TestCertificate:
    def test_undisturbed_certificate_degenerates(self):
        cert = make_certificate(Linear(2.0), 0.0)
        assert cert.floor == 0.0

    def test_linear_floor(self):
        cert = make_certificate(Linear(4.0), 1.0)
        assert cert.floor == -0.25

    def test_power_floor_hand_inversion(self):
        cert = make_certificate(Power(1.0, 2.0), 0.25)
        assert cert.floor == pytest.approx(-0.5, rel=1e-12)

    def test_floor_monotone_in_delta_bar(self):
        for alpha in (Linear(0.5), Linear(2.0), Power(1.0, 2.0)):
            floors = [make_certificate(alpha, d).floor for d in (0.0, 0.1, 0.5, 1.0, 3.0)]
            assert all(f2 <= f1 for f1, f2 in zip(floors, floors[1:]))

    def test_negative_delta_bar_rejected(self):
        with pytest.raises(ValueError):
            make_certificate(Linear(1.0), -0.1)


class TestTransport:
    def test_identity_upper_bound(self):
        gamma = Linear(0.7)
        gp = transport_inflation(Linear(1.0), gamma)
        for r in (0.0, 0.3, 2.0):
            assert gp(r) == gamma(r)

    def test_hand_composition(self):
        gp = transport_inflation(Linear(2.0), Linear(6.0))
        assert gp(1.0) == 3.0

    def test_direct_floor_coincides_for_linear(self):
        gamma = Linear(0.8)
        for c in (0.5, 2.0, 4.0):
            direct = direct_transport_floor(Linear(c), gamma, 1.3)
            composed = -transport_inflation(Linear(c), gamma)(1.3)
            assert direct == pytest.approx(composed, rel=1e-12)

    def test_not_invertible_propagates(self):
        broken = Interpolated([(0.0, 0.0), (1.0, 0.5), (2.0, 0.4)])
        with pytest.raises(NotInvertibleError):
            transport_inflation(broken, Linear(1.0))


class TestVerifyCertificate:
    def _trajectory(self, h_values, reason=None):
        # 1-state trajectory whose state IS the barrier value
        states = np.asarray(h_values, dtype=float).reshape(-1, 1)
        times = np.arange(len(states)) * 1e-3
        inputs = np.zeros((len(states) - 1, 1))
        return Trajectory(times=times, states=states, inputs=inputs, termination_reason=reason)

    def _bar(self):
        return BarrierFunction(h=lambda x: float(x[0]), grad_h=lambda x: np.array([1.0]), alpha=Linear(1.0))

    def test_pass_and_margin(self):
        traj = self._trajectory([0.5, 0.2, -0.1, 0.3])
        cert = make_certificate(Linear(1.0), 0.5)
        report = verify_certificate(traj, self._bar(), cert)
        assert report.status == "pass"
        assert report.min_h == -0.1
        assert report.min_h - cert.floor == pytest.approx(0.4)

    def test_fail_reported_not_masked(self):
        traj = self._trajectory([0.5, -0.9, 0.1])
        cert = make_certificate(Linear(1.0), 0.5)
        report = verify_certificate(traj, self._bar(), cert)
        assert report.status == "fail" and not report.passed

    def test_precondition_violation_distinct_status(self):
        traj = self._trajectory([-0.9, 0.0])
        cert = make_certificate(Linear(1.0), 0.5)
        report = verify_certificate(traj, self._bar(), cert)
        assert report.status == "precondition_violated"

    def test_early_termination_distinct_status(self):
        # h stays above the floor, but the rollout stopped before its duration;
        # a violated precondition still takes precedence.
        cert = make_certificate(Linear(1.0), 0.5)
        for h_values, status in (([0.5, 0.4], "terminated_early"), ([-0.9, 0.0], "precondition_violated")):
            traj = self._trajectory(h_values, reason="numerical blow-up")
            report = verify_certificate(traj, self._bar(), cert)
            assert report.status == status and not report.passed

    def test_perfect_model_run_reduces_to_plain_safety(self):
        cfg = {"system": {"perturbation": {"scale": {}, "drop_friction": False}}, "run": {"duration": 1.0}}
        scn = build_scenario(cfg)
        traj, _ = scn.rollout(x0=np.array([0.0, 0.0, 0.05, 0.0]))
        trace = scn.delta_trace(traj)
        assert delta_bound(trace) == 0.0
        cert = make_certificate(scn.barrier.alpha, delta_bound(trace))
        report = verify_certificate(traj, scn.barrier, cert)
        assert report.status == "pass"
        assert report.min_h >= -1e-6
