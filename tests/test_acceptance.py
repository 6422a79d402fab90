"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
The slow fixtures (benchmark training) are module-scoped and shared.
"""

import filecmp
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from pssf import kfun
from pssf.barrier import BarrierFunction, FilteredController, cbf_margin, issf_margin, safety_filter
from pssf.certify import (
    CompatiblePair,
    Projection,
    check_compatibility,
    delta_bound,
    make_certificate,
    projected_disturbance,
    projected_dynamics,
    transport_inflation,
    verify_certificate,
)
from pssf.dynamics import ControlAffineSystem, simulate
from pssf.kfun import Linear, Power
from pssf.learning import Dataset, FeatureMap, ResidualModel, episodic_train, fit_residual
from pssf.scenario import build_scenario, learn_artifacts, simulate_artifacts

from oracles import Interpolated, planar_disk_demo, verify_class_membership


def report(criterion: str, detail: str) -> None:
    print(f"\n[ACCEPT] {criterion}: PASS - {detail}")


@pytest.fixture(scope="module")
def benchmark_training(tmp_path_factory):
    """Full 5-episode benchmark training run; shared by several criteria."""
    out = tmp_path_factory.mktemp("benchmark_learn")
    summary = learn_artifacts({}, out)
    model = ResidualModel.load(out / "model.json")
    return {"summary": summary, "model": model, "out": out}


@pytest.fixture(scope="module")
def benchmark_simulation(benchmark_training, tmp_path_factory):
    """Benchmark simulate run in both modes using the trained model."""
    out = tmp_path_factory.mktemp("benchmark_sim")
    summary = simulate_artifacts({}, out, model=benchmark_training["model"])
    return {"summary": summary, "out": out}


class TestCriterion01UndisturbedInvariance:
    def test_undisturbed_invariance(self):
        cfg = {
            "system": {"perturbation": {"scale": {}, "drop_friction": False}},
            "run": {"duration": 2.0},
        }
        scn = build_scenario(cfg)
        rng = np.random.default_rng(2024)
        start = time.monotonic()
        worst = np.inf
        for _ in range(50):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            radius = 0.6 * np.sqrt(rng.uniform())
            x0 = np.array([
                0.0,
                rng.uniform(-0.5, 0.5),
                radius * np.cos(angle) * 0.3,
                radius * np.sin(angle) * 1.0,
            ])
            assert scn.barrier.h(x0) >= 0.0
            traj, _ = scn.rollout(x0=x0)
            assert not traj.terminated_early
            worst = min(worst, min(scn.barrier.h(x) for x in traj.states))
        elapsed = time.monotonic() - start
        assert worst >= -1e-6
        assert elapsed < 60.0
        report("criterion 1 (undisturbed invariance)",
               f"50 rollouts, min h = {worst:.3e} >= -1e-6, {elapsed:.1f} s")


class TestCriterion02CertificateValidity:
    def test_both_modes_respect_their_floors(self, benchmark_simulation):
        summary = benchmark_simulation["summary"]
        k = summary["k"]
        details = []
        for mode in ("no_learning", "learned"):
            entry = summary[mode]
            assert entry is not None and not entry["terminated_early"]
            floor = -entry["delta_bar"] / k
            assert entry["floor"] == pytest.approx(floor, rel=1e-12)
            assert entry["min_h"] >= floor - 1e-6
            assert entry["pass"]
            details.append(f"{mode}: min h {entry['min_h']:.3f} >= floor {floor:.3f}")
        report("criterion 2 (certificate validity)", "; ".join(details))


class TestCriterion03LearningImprovesBound:
    def test_learning_reduces_delta_bar(self, benchmark_training):
        start = time.monotonic()
        summary = benchmark_training["summary"]
        baseline = summary["no_learning_delta_bar"]
        learned = summary["final_validation_delta_bar"]
        if learned <= 0.5 * baseline:
            elapsed = time.monotonic() - start
            report("criterion 3 (learning improves bound)",
                   f"delta_bar {baseline:.3f} -> {learned:.3f} "
                   f"(ratio {learned / baseline:.2f} <= 0.5), {elapsed:.1f} s")
            return
        # fallback: strict improvement on at least 19 of 20 seeds
        improved = 0
        for seed in range(20):
            model, history = episodic_train(build_scenario({"run": {"seed": seed}}))
            final = [r for r in history.records if not r.excluded][-1].validation_delta_bar
            if final < history.no_learning_delta_bar:
                improved += 1
        elapsed = time.monotonic() - start
        assert improved >= 19
        assert elapsed < 600.0
        report("criterion 3 (learning improves bound)",
               f"0.5 factor missed; strict improvement on {improved}/20 seeds, {elapsed:.0f} s")

    def test_learned_delta_smaller_pointwise(self, benchmark_training):
        # figure-style property: |delta_learned| < |delta_model_error| at >= 90%
        # of on-trajectory samples
        scn = build_scenario({})
        model = benchmark_training["model"]
        traj, _ = scn.rollout(model)
        learned = scn.delta_trace(traj, model)
        plain = scn.delta_trace(traj)
        fraction = float(np.mean(np.abs(learned.delta) < np.abs(plain.delta)))
        assert fraction >= 0.9
        report("criterion 3 supplement (pointwise reduction)",
               f"|delta| reduced at {100 * fraction:.1f}% of samples")


class TestCriterion04FilterOracle:
    @staticmethod
    def _qp_oracle(a, b, u_des):
        res = minimize(
            lambda u: float(np.sum((u - u_des) ** 2)),
            x0=np.zeros_like(u_des),
            jac=lambda u: 2.0 * (u - u_des),
            constraints=[{"type": "ineq", "fun": lambda u: float(a @ u) - b, "jac": lambda u: a}],
            method="SLSQP",
            options={"maxiter": 200, "ftol": 1e-14},
        )
        return res.x

    def test_filter_matches_qp_oracle(self):
        rng = np.random.default_rng(42)
        checked = 0
        worst = 0.0
        while checked < 1000:
            m = 1 if checked % 2 == 0 else 3
            n = int(rng.integers(2, 5))
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
            u_des = rng.normal(size=m)
            result = safety_filter(bar, sys, u_des, x)
            if result.infeasible:
                continue
            assert cbf_margin(bar, sys, x, result.u) >= -1e-9
            grad = bar.grad_h(x)
            a = grad @ np.reshape(sys.actuation(x), (n, m))
            b = -bar.alpha(bar.h(x)) - float(grad @ sys.drift(x))
            worst = max(worst, float(np.linalg.norm(result.u - self._qp_oracle(a, b, u_des))))
            checked += 1
        assert worst < 1e-6
        report("criterion 4 (filter-QP oracle)",
               f"1000 instances, worst |u - oracle| = {worst:.2e} < 1e-6")


class TestCriterion05IssfOracle:
    def test_issf_margin_matches_brute_force(self):
        rng = np.random.default_rng(43)
        worst = 0.0
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 5))
            A = rng.normal(size=(n, n))
            c = rng.normal(size=n)
            G = rng.normal(size=(n, 2))
            sys = ControlAffineSystem(n, 2, lambda x, A=A, c=c: A @ x + c, lambda x, G=G: G.ravel())
            Q = rng.normal(size=(n, n))
            Q = Q.T @ Q + 0.1 * np.eye(n)
            bar = BarrierFunction(
                h=lambda x, Q=Q: 1.0 - float(x @ Q @ x),
                grad_h=lambda x, Q=Q: -2.0 * Q @ x,
                alpha=Linear(float(rng.uniform(0.5, 2.0))),
            )
            x = rng.normal(size=n) * 0.5
            grad = bar.grad_h(x)
            grad_norm = float(np.linalg.norm(grad))
            if grad_norm < 1e-6:
                continue
            u = rng.normal(size=2)
            d_bound = float(rng.uniform(0.0, 2.0))
            if rng.uniform() < 0.5:
                iota = Linear(float(rng.uniform(0.2, 3.0)))
            else:
                iota = Power(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.3, 1.0)))
            margin = issf_margin(bar, sys, x, u, d_bound, iota)
            # brute force: 10^4 disturbances on the ball along the binding
            # anti-gradient direction (which minimizes grad . d per radius)
            base = cbf_margin(bar, sys, x, u)
            radii = np.linspace(0.0, d_bound, 10_000)
            values = base - radii * grad_norm + np.array([iota(r) if r > 0 else 0.0 for r in radii])
            oracle = float(np.min(values))
            worst = max(worst, abs(margin - oracle))
            checked += 1
        assert worst < 1e-6
        report("criterion 5 (ISSf margin oracle)",
               f"200 instances, worst |margin - oracle| = {worst:.2e} < 1e-6")


class TestCriterion06RegressionOracle:
    def test_fit_matches_normal_equations(self):
        rng = np.random.default_rng(44)
        worst = 0.0
        for _ in range(100):
            n_rows = int(rng.integers(5, 21))
            indices = (1, 2) if rng.uniform() < 0.5 else (2, 3)
            states = rng.uniform(-1, 1, size=(n_rows, 4))
            features = FeatureMap.fit({"kind": "polynomial", "max_degree": 1, "indices": indices}, states)
            inputs = rng.normal(size=(n_rows, 1))
            targets = rng.normal(size=n_rows)
            ds = Dataset(states, inputs, targets)
            lam = float(rng.uniform(1e-6, 1.0))
            model = fit_residual(ds, features, lam)
            phi = features(states)
            design = np.hstack([phi, phi * inputs])
            gram = design.T @ design + lam * np.eye(design.shape[1])
            oracle = np.linalg.solve(gram, design.T @ targets)
            got = np.concatenate([model.w_b, model.W_a.ravel()])
            worst = max(worst, float(np.linalg.norm(got - oracle) / max(1.0, np.linalg.norm(oracle))))
        assert worst <= 1e-8
        report("criterion 6a (regression oracle)",
               f"100 instances, worst relative gap = {worst:.2e} <= 1e-8")

    def test_planted_model_recovery(self):
        rng = np.random.default_rng(45)
        dim = math.comb(3 + 2, 2)
        states = rng.uniform(-1, 1, size=(10 * dim, 4))
        features = FeatureMap.fit({"kind": "polynomial", "max_degree": 2, "indices": (1, 2, 3)}, states)
        w_b = rng.normal(size=dim)
        W_a = rng.normal(size=(1, dim))
        inputs = rng.normal(size=(len(states), 1))
        targets = np.array([
            float(w_b @ features(states[j])) + float((W_a @ features(states[j])) @ inputs[j])
            for j in range(len(states))
        ])
        ds = Dataset(states, inputs, targets)
        model = fit_residual(ds, features, 1e-10)
        true = np.concatenate([w_b, W_a.ravel()])
        got = np.concatenate([model.w_b, model.W_a.ravel()])
        error = float(np.linalg.norm(got - true) / np.linalg.norm(true))
        assert error <= 1e-4
        report("criterion 6b (planted recovery)", f"relative weight error = {error:.2e} <= 1e-4")


class TestCriterion07ClassKAlgebra:
    def test_round_trip_inflation_and_membership(self):
        rng = np.random.default_rng(46)
        worst = 0.0
        for _ in range(100):
            if rng.uniform() < 0.5:
                alpha = Linear(float(rng.uniform(0.05, 20.0)))
            else:
                alpha = Power(float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.3, 3.0)))
            r = float(rng.uniform(-50.0, 50.0))
            worst = max(worst, abs(alpha.inverse()(alpha(r)) - r) / max(1.0, abs(r)))
        assert worst <= 1e-9

        gamma = Power(1.25, 1.5)
        for c in (0.25, 0.5, 2.0, 4.0):
            inflation = transport_inflation(Linear(c), gamma)
            for r in (-2.5, 0.1, 1.0, 7.0):
                assert inflation(r) == gamma(r) / c

        broken = Interpolated([(0.0, 0.0), (1.0, 0.5), (2.0, 0.4)])
        membership = verify_class_membership(broken, [0.0, 1.0, 2.0])
        assert not membership.passed and membership.first_violation == (1.0, 2.0)
        report("criterion 7 (class-K algebra)",
               f"round trip worst {worst:.2e} <= 1e-9; linear inflation exact; violation caught")


class TestCriterion08IdentityReduction:
    def test_pipeline_matches_direct_computation(self):
        scn = build_scenario({})
        traj, _ = scn.rollout()

        proj = Projection(map=lambda x: np.array([scn.barrier.h(x)]),
                          jacobian=lambda x: np.reshape(scn.barrier.grad_h(x), (1, -1)))
        pair = CompatiblePair(
            barrier=scn.barrier,
            h_proj=lambda y: float(np.atleast_1d(y)[0]),
            projection=proj,
            sigma_lower=Linear(1.0),
            sigma_upper=Linear(1.0),
        )
        samples = [traj.states[j] for j in range(0, len(traj.states), 500)]
        assert check_compatibility(pair, samples).passed

        worst_gap = 0.0
        pipeline = np.empty(len(traj.inputs))
        direct = np.empty(len(traj.inputs))
        for j in range(len(traj.inputs)):
            x, u = traj.states[j], traj.inputs[j]
            ydot_true = projected_dynamics(proj, scn.true_system, x, u)[0]
            ydot_nominal = projected_dynamics(proj, scn.nominal_system, x, u)[0]
            pipeline[j] = ydot_true - ydot_nominal
            direct[j] = projected_disturbance(scn.barrier, scn.true_system, scn.nominal_system, x, u)
            worst_gap = max(worst_gap, abs(pipeline[j] - direct[j]))
        assert worst_gap <= 1e-12

        cert_pipeline = make_certificate(scn.barrier.alpha, float(np.max(np.abs(pipeline))))
        cert_direct = make_certificate(scn.barrier.alpha, float(np.max(np.abs(direct))))
        assert abs(cert_pipeline.floor - cert_direct.floor) <= 1e-12
        assert abs(cert_pipeline.delta_bar - cert_direct.delta_bar) <= 1e-12
        report("criterion 8 (identity-projection reduction)",
               f"worst per-sample gap {worst_gap:.2e}; floors differ by "
               f"{abs(cert_pipeline.floor - cert_direct.floor):.2e} <= 1e-12")


class TestCriterion09ToyTransport:
    def test_grid_rollouts_respect_transported_floor(self):
        demo = planar_disk_demo()
        dt, duration = 2e-3, 3.0
        grid = np.linspace(-1.0, 1.0, 25)
        starts = [np.array([a, b]) for a in grid for b in grid if a * a + b * b <= 1.0]
        assert len(starts) >= 400

        min_h = np.empty(len(starts))
        max_abs_delta = 0.0
        trajectories = []
        for i, x0 in enumerate(starts):
            controller = FilteredController(demo.barrier, demo.system, demo.desired)
            traj = simulate(demo.system, controller, x0, duration, dt,
                            disturbance=demo.disturbance)
            assert not traj.terminated_early
            trajectories.append(traj)
            min_h[i] = min(demo.barrier.h(x) for x in traj.states)
            for j in range(len(traj.inputs)):
                d = demo.disturbance(traj.times[j], traj.states[j], traj.inputs[j])
                delta = float(demo.projection.jacobian(traj.states[j])[0] @ d)
                max_abs_delta = max(max_abs_delta, abs(delta))

        gamma_prime = transport_inflation(demo.pair.sigma_upper, demo.alpha.inverse())
        cert = make_certificate(demo.alpha, max_abs_delta)
        assert cert.floor == pytest.approx(-gamma_prime(max_abs_delta), rel=1e-12)
        floor = cert.floor
        violations = int(np.sum(min_h < floor - 1e-6))
        assert violations == 0

        # a deliberately understated bound must be falsified, and the outcome
        # must be reported either way (no silent pass)
        half_cert = make_certificate(demo.alpha, max_abs_delta / 2.0)
        falsified = 0
        for traj in trajectories:
            verdict = verify_certificate(traj, demo.barrier, half_cert)
            if verdict.status == "fail":
                falsified += 1
        margin_true = float(np.min(min_h) - floor)
        margin_half = float(np.min(min_h) - half_cert.floor)
        assert falsified > 0, (
            f"understated certificate unfalsified: margin to true floor {margin_true:.4f}, "
            f"margin to understated floor {margin_half:.4f}"
        )
        report("criterion 9 (transport on toy projection)",
               f"{len(starts)} rollouts stay above floor {floor:.3f} "
               f"(worst h {np.min(min_h):.3f}); understated floor {half_cert.floor:.3f} "
               f"falsified by {falsified} rollouts")


class TestCriterion10Determinism:
    def test_simulate_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        simulate_artifacts({}, out1)
        simulate_artifacts({}, out2)
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert filecmp.cmp(out1 / rel, out2 / rel, shallow=False), f"{rel} differs"
        report("criterion 10 (determinism)",
               f"{len(files1)} artifacts byte-identical across reruns")


class TestCriterion11DtRefinement:
    def test_delta_bar_converged_at_fine_steps(self):
        values = {}
        for dt in (1e-2, 1e-3, 1e-4):
            scn = build_scenario({"run": {"dt": dt}})
            traj, _ = scn.rollout()
            assert not traj.terminated_early
            values[dt] = delta_bound(scn.delta_trace(traj))
        rel_change = abs(values[1e-3] - values[1e-4]) / values[1e-4]
        assert rel_change < 0.05
        report("criterion 11 (dt refinement)",
               f"delta_bar {values[1e-2]:.4f} / {values[1e-3]:.4f} / {values[1e-4]:.4f}; "
               f"finest-pair change {100 * rel_change:.2f}% < 5%")
