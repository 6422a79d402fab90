"""Bitwise oracles for the per-sample functions of a rollout and for the CSV writer.

``step_rk4``, ``field_at``, ``safety_filter``, ``projected_disturbance``, ``h_dot`` and the
feature map run on Python floats, every sum of products one left-to-right chain from 0.0.
The learned closed loop amplifies a last-bit change (ROADMAP Baseline), so each must
equal the same arithmetic written out plainly (``tests/oracles.py``) byte for byte,
signed zeros included.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from pssf import barrier, certify, dynamics, learning
from pssf.barrier import BarrierFunction, h_dot, safety_filter
from pssf.certify import projected_disturbance
from pssf.config import load_config
from pssf.dynamics import ControlAffineSystem, step_rk4
from pssf.ioutil import write_csv
from pssf.kfun import Linear
from pssf.learning import ResidualModel
from pssf.scenario import build_scenario

from oracles import (chain_reference, feature_map_reference, field_at_reference, h_dot_reference, planar_disk_demo,
                     projected_disturbance_reference, safety_filter_reference, step_rk4_reference, write_csv_reference)

REPO_ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10_000


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def assert_same_filter(new, ref):
    assert (bits(new.u), bits(new.constraint_margin), new.modified, new.infeasible) == \
        (bits(ref.u), bits(ref.constraint_margin), ref.modified, ref.infeasible)


def signed_zero_pairs(rng, lows, highs, u_bound, m):
    """PAIRS seeded (x, u) as lists of floats: uniform, with about 5 % of entries +0.0 or -0.0; |u| reaches twice u_bound."""
    states = rng.uniform(lows, highs, size=(PAIRS, len(lows)))
    inputs = rng.uniform(-2.0 * u_bound, 2.0 * u_bound, size=(PAIRS, m))
    for arr in (states, inputs):
        zeros = rng.uniform(size=arr.shape) < 0.05
        arr[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    return list(zip(states.tolist(), inputs.tolist()))


@pytest.fixture(scope="module")
def segway_benchmark():
    scn = build_scenario(load_config(REPO_ROOT / "configs" / "benchmark.yaml"))
    model = ResidualModel.load(REPO_ROOT / "perfbench" / "inputs" / "model_seed0.json")
    return scn, model


class ReferenceResidual:
    """``ResidualModel.terms`` written out: the reference feature map, and w_b . phi and W_a phi as chains."""

    def __init__(self, model: ResidualModel):
        self.model = model

    def terms(self, x):
        phi = feature_map_reference(self.model.features, x)
        return chain_reference(self.model.w_b.tolist(), phi), [chain_reference(row, phi) for row in self.model.W_a.tolist()]


class TestSegwaySamples:
    def test_plant_and_design_model(self, segway_benchmark):
        scn, model = segway_benchmark
        u_max = scn.cfg["controller"]["u_max"]
        cases = signed_zero_pairs(np.random.default_rng(31), [-2, -3, -0.4, -1.5], [2, 3, 0.4, 1.5], u_max, 1)
        # At rest every stage derivative can be a signed zero; where grad_h vanishes the filter is infeasible.
        cases += [(list(x), [u]) for x in itertools.product([0.0, -0.0], repeat=4) for u in (0.0, -0.0, 1.0, -1.0)]
        cases += [([0.1, 0.2, z2, z3], [u]) for z2 in (0.0, -0.0) for z3 in (0.0, -0.0)
                  for u in (0.0, -0.0, u_max, -2.0 * u_max)]
        reference = ReferenceResidual(model)
        bar, plant, design = scn.barrier, scn.true_system, scn.nominal_system
        branches = {"modified": 0, "infeasible": 0}
        for x, u in cases:
            for system in (plant, design):
                assert bits(step_rk4(system, x, u, None, scn.dt)) == bits(step_rk4_reference(system, x, u, None, scn.dt))
                assert bits(system.field_at(x, u)) == bits(field_at_reference(system, x, u))
                assert bits(h_dot(bar, system, x, u)) == bits(h_dot_reference(bar, system, x, u))
                for residual, ref_residual in ((None, None), (model, reference)):
                    new = safety_filter(bar, system, u, x, residual)
                    assert_same_filter(new, safety_filter_reference(bar, system, u, x, ref_residual))
                    branches["modified"] += new.modified
                    branches["infeasible"] += new.infeasible
            for residual, ref_residual in ((None, None), (model, reference)):
                assert bits(projected_disturbance(bar, plant, design, x, u, residual)) == \
                    bits(projected_disturbance_reference(bar, plant, design, x, u, ref_residual))
        assert branches["modified"] > 1000 and branches["infeasible"] > 0

    def test_feature_map_matches_reference_products(self, segway_benchmark):
        _, model = segway_benchmark
        states = np.random.default_rng(32).uniform([-2, -3, -0.4, -1.5], [2, 3, 0.4, 1.5], size=(PAIRS, 4))
        for x in states.tolist():
            assert bits(model.features(x)) == bits(feature_map_reference(model.features, x))
        assert bits(model.features(states)) == bits(feature_map_reference(model.features, states))


def test_filter_signed_zero_margin():
    """b = -alpha(h) - grad_h . f is +0.0 and a . u_des is -0.0: the margin is +0.0, as the chain from +0.0 gives."""
    bar = BarrierFunction(h=lambda x: 1.0 - x[0] * x[0], grad_h=lambda x: (-2.0 * x[0],), alpha=Linear(1.0))
    cases = 0
    for c, gain, x0, u in itertools.product((0.75, -0.75, 0.0, -0.0), (1.0, -1.0), (0.5, -0.5, 0.0, -0.0),
                                            (0.0, -0.0, 1.0, -1.0)):
        system = ControlAffineSystem(1, 1, lambda x, c=c: (c,), lambda x, g=gain: (g,))
        x, u_des = [x0], [u]
        new = safety_filter(bar, system, u_des, x)
        assert_same_filter(new, safety_filter_reference(bar, system, u_des, x))
        cases += bits(new.constraint_margin) == bits(0.0)
    assert cases > 0


class TestPlanarDiskSamples:
    """m = 2 with a disturbance: sums of two products, chained, that no CLI config reaches."""

    def test_two_inputs_with_disturbance(self):
        demo = planar_disk_demo()
        design = ControlAffineSystem(2, 2, lambda x: (0.1 * x[0], 0.1 * x[1]), lambda x: (0.9, 0.2, -0.1, 1.1))

        class Residual:
            def terms(self, x):
                return math.sin(x[0]), (x[1], -x[0])

        rng = np.random.default_rng(33)
        cases = signed_zero_pairs(rng, [-1.2, -1.2], [1.2, 1.2], 1.0, 2)
        bar = demo.barrier
        for j, (x, u) in enumerate(cases):
            d = demo.disturbance(0.01 * j, x, u) if j % 2 else None
            assert bits(step_rk4(demo.system, x, u, d, 1e-2)) == bits(step_rk4_reference(demo.system, x, u, d, 1e-2))
            assert bits(design.field_at(x, u, d)) == bits(field_at_reference(design, x, u, d))
            for system in (demo.system, design):
                assert bits(h_dot(bar, system, x, u)) == bits(h_dot_reference(bar, system, x, u))
                for residual in (None, Residual()):
                    assert_same_filter(safety_filter(bar, system, u, x, residual),
                                       safety_filter_reference(bar, system, u, x, residual))
                    assert bits(projected_disturbance(bar, demo.system, design, x, u, residual)) == \
                        bits(projected_disturbance_reference(bar, demo.system, design, x, u, residual))


def test_learned_rollout_matches_reference(segway_benchmark, monkeypatch, tmp_path):
    """A 2 s learned rollout and its delta trace, against the same loop run on the reference functions."""
    scn, model = segway_benchmark

    def run(residual):
        traj, _ = scn.rollout(residual, duration=2.0)
        return traj, scn.delta_trace(traj, residual)

    traj, trace = run(model)
    traj.to_csv(tmp_path / "trajectory.csv")
    trace.to_csv(tmp_path / "delta.csv")
    monkeypatch.setattr(dynamics, "step_rk4", step_rk4_reference)
    monkeypatch.setattr(barrier, "safety_filter", safety_filter_reference)
    monkeypatch.setattr(certify, "projected_disturbance", projected_disturbance_reference)
    monkeypatch.setattr(learning, "h_dot", h_dot_reference)
    ref_traj, ref_trace = run(ReferenceResidual(model))
    assert len(traj.inputs) == 2000 and not traj.terminated_early
    assert bits(traj.states) == bits(ref_traj.states)
    assert bits(traj.inputs) == bits(ref_traj.inputs)
    assert bits(trace.delta) == bits(ref_trace.delta)

    # The artifacts as the earlier to_csv wrote them: rows of numpy scalars, every cell through _cell.
    m = ref_traj.inputs.shape[1]
    rows = [[t, *ref_traj.states[j], *(list(ref_traj.inputs[j]) if j < len(ref_traj.inputs) else [None] * m)]
            for j, t in enumerate(ref_traj.times)]
    write_csv_reference(tmp_path / "ref_trajectory.csv", ["t", "x1", "x2", "x3", "x4", "u1"], rows)
    write_csv_reference(tmp_path / "ref_delta.csv", ["t", "abs_delta"], zip(ref_trace.times, np.abs(ref_trace.delta)))
    for name in ("trajectory", "delta"):
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"ref_{name}.csv").read_bytes()


def test_learning_episode_targets_match_reference(segway_benchmark, monkeypatch):
    """collect_episode's design-model hdot (field_at) at every recorded step."""
    scn, model = segway_benchmark
    traj, _ = scn.rollout(model, duration=0.5)
    data = learning.collect_episode(scn, traj)
    monkeypatch.setattr(learning, "h_dot", h_dot_reference)
    ref = learning.collect_episode(scn, traj)
    assert bits(data.targets) == bits(ref.targets) and bits(data.hdot_exact) == bits(ref.hdot_exact)


def test_write_csv_matches_reference(tmp_path):
    """Every cell type an artifact holds, including the sweep's error status with a comma and quotes."""
    header = ["value", "a", "b", "status"]
    rows = [
        [0.1, np.float64(1.0 / 3.0), -0.0, "ok"],
        [np.float64(-0.0), 5e-324, np.float64(2.2250738585072014e-308), 'error: ConfigError: bad "k", got 0'],
        [math.inf, -math.inf, np.float64(math.inf), "error: ValueError: a, b"],
        [3, True, False, None],
        [np.int64(7), np.bool_(True), np.float32(0.1), ""],
        [1e300, -1.5e-320, 123456789012345678.0, "plain"],
        (2.5, None, None, "tuple row"),
    ]
    write_csv(tmp_path / "new.csv", header, rows)
    write_csv_reference(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert b'"error: ConfigError: bad ""k"", got 0"' in (tmp_path / "new.csv").read_bytes()
