import dataclasses
import math
import warnings

import numpy as np
import pytest

from oracles import feature_map_reference, fit_residual_reference
from pssf import learning
from pssf.barrier import h_dot
from pssf.dynamics import ControlAffineSystem, simulate
from pssf.learning import (
    Dataset,
    EpisodicTrainingError,
    FeatureMap,
    ResidualModel,
    collect_episode,
    episodic_train,
    excite,
    fit_residual,
)
from pssf.scenario import build_scenario


def poly(max_degree, indices=None):
    return {"kind": "polynomial", "max_degree": max_degree, "indices": indices}


def make_dataset(rng, spec, n_rows, m=1, w_b=None, W_a=None, noise=0.0):
    """Rows generated by a model inside the feature class, and the map fit on their states."""
    states = rng.uniform(-1.0, 1.0, size=(n_rows, 4))
    features = FeatureMap.fit(spec, states)
    dim = features.dimension
    if w_b is None:
        w_b = rng.normal(size=dim)
    if W_a is None:
        W_a = rng.normal(size=(m, dim))
    inputs = rng.normal(size=(n_rows, m))
    targets = np.array([
        float(w_b @ features(states[j])) + float((W_a @ features(states[j])) @ inputs[j])
        for j in range(n_rows)
    ])
    targets = targets + noise * rng.normal(size=n_rows)
    return Dataset(states, inputs, targets), features, w_b, W_a


def normal_equation_oracle(ds, features, lam):
    """Independent fit: explicit Gram assembly and a dense solve."""
    phi = np.array([features(x) for x in ds.states])
    m = ds.inputs.shape[1]
    cols = [phi] + [phi * ds.inputs[:, i:i + 1] for i in range(m)]
    design = np.hstack(cols)
    p = design.shape[1]
    gram = design.T @ design + lam * np.eye(p)
    return np.linalg.solve(gram, design.T @ ds.targets)


class TestFeatureMap:
    def test_polynomial_dimension(self):
        fm = FeatureMap(poly(2, (1, 2, 3)), np.zeros(3), np.ones(3))
        assert fm.dimension == math.comb(3 + 2, 2)

    def test_polynomial_includes_constant_and_cross_terms(self):
        fm = FeatureMap.fit(poly(2, (0, 1)), np.array([[0.0, 0.0, 0, 0], [2.0, 4.0, 0, 0]]))
        phi = fm(np.array([1.0, 2.0, 0.0, 0.0]))  # normalized to z = 0
        assert phi[0] == 1.0
        assert np.allclose(phi[1:], 0.0)

    def test_random_fourier_deterministic_given_seed(self):
        states = np.random.default_rng(0).normal(size=(50, 4))
        spec = {"kind": "random_fourier", "count": 16, "bandwidth": 1.5, "seed": 7}
        a, b = FeatureMap.fit(spec, states), FeatureMap.fit(spec, states)
        x = np.array([0.1, -0.2, 0.3, 0.4])
        assert np.array_equal(a(x), b(x))

    def test_finite_and_correct_length(self):
        states = np.random.default_rng(1).normal(size=(30, 4))
        for spec in (poly(3), {"kind": "random_fourier", "count": 9, "bandwidth": 0.7}):
            fm = FeatureMap.fit(spec, states)
            phi = fm(states[0])
            assert type(phi) is list and len(phi) == fm.dimension
            assert np.all(np.isfinite(phi))

    def test_batch_matches_single(self):
        states = np.random.default_rng(2).normal(size=(20, 4))
        fm = FeatureMap.fit(poly(2, (1, 2, 3)), states)
        batch = fm(states)
        for j in range(len(states)):
            assert np.allclose(batch[j], fm(states[j]))

    @pytest.mark.parametrize("spec", [poly(2), poly(2, (1, 2, 3)), poly(3), poly(3, (0, 2, 3)),
                                      {"kind": "random_fourier", "count": 12, "bandwidth": 0.8},
                                      {"kind": "random_fourier", "count": 12, "bandwidth": 0.8, "seed": 4,
                                       "indices": (1, 3)}],
                             ids=["degree2", "degree2_indices", "degree3", "degree3_indices", "random_fourier",
                                  "random_fourier_indices"])
    def test_stack_equals_states_one_at_a_time(self, spec):
        """The fit's phi (a stack) is the filter's phi (one state as floats) bit for bit, signed zeros included."""
        rng = np.random.default_rng(13)
        states = rng.normal(size=(100_000, 4)) * rng.uniform(0.1, 5.0, size=4)
        zeros = rng.uniform(size=states.shape) < 0.01
        states[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        fm = FeatureMap.fit(spec, states[:1000])
        stack = fm(states)
        assert stack.shape == (len(states), fm.dimension)
        singles = np.array([fm(x) for x in states.tolist()])
        assert stack.tobytes() == singles.tobytes()

    @pytest.mark.parametrize("spec", [poly(2, (1, 2, 3)), poly(3),
                                      {"kind": "random_fourier", "count": 12, "bandwidth": 0.8, "indices": (0, 2)}],
                             ids=["polynomial", "polynomial_all_coordinates", "random_fourier"])
    def test_bitwise_equal_to_reference_expression(self, spec):
        rng = np.random.default_rng(11)
        states = rng.normal(size=(100_000, 4)) * rng.uniform(0.1, 5.0, size=4)
        fm = FeatureMap.fit(spec, states[:1000])
        assert fm(states).tobytes() == np.array(feature_map_reference(fm, states)).tobytes()
        for x in states[:2000]:
            assert np.array(fm(x)).tobytes() == np.array(feature_map_reference(fm, x)).tobytes()

    @pytest.mark.parametrize("center, scale", [(np.zeros(1), np.ones(2)), (np.zeros(2), np.ones(1)),
                                               (np.zeros(3), np.ones(3)), (np.zeros((1, 2)), np.ones((1, 2)))])
    def test_normalization_needs_one_entry_per_coordinate(self, center, scale):
        with pytest.raises(ValueError, match="one entry per selected coordinate"):
            FeatureMap(poly(2, (1, 2)), center, scale)

    @pytest.mark.parametrize("spec", [{"kind": "random_fourier", "count": 8, "bandwidth": 2.0, "seed": 3,
                                       "indices": (1, 3)}, poly(2, (1, 3)), poly(2)],
                             ids=["random_fourier", "polynomial", "polynomial_every_coordinate"])
    def test_config_round_trip(self, spec):
        states = np.random.default_rng(3).normal(size=(10, 4))
        fm = FeatureMap.fit(spec, states)
        rebuilt = FeatureMap.from_config(fm.to_config())
        x = np.array([0.3, 1.0, -0.4, 0.2])
        assert np.array_equal(fm(x), rebuilt(x))


class TestFitResidual:
    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n_rows = int(rng.integers(5, 21))
            deg = int(rng.integers(1, 3))
            idx = (1, 2) if rng.uniform() < 0.5 else (2, 3)
            if features_dimension_too_big(idx, deg):
                continue
            ds, features, _, _ = make_dataset(rng, poly(deg, idx), n_rows, noise=0.1)
            lam = float(rng.uniform(1e-6, 1.0))
            model = fit_residual(ds, features, lam)
            oracle = normal_equation_oracle(ds, features, lam)
            packed = np.concatenate([model.w_b, model.W_a.ravel()])
            assert np.linalg.norm(packed - oracle) <= 1e-8 * max(1.0, np.linalg.norm(oracle))

    def test_planted_model_recovery(self):
        rng = np.random.default_rng(5)
        dim = math.comb(3 + 2, 2)
        ds, features, w_b, W_a = make_dataset(rng, poly(2, (1, 2, 3)), n_rows=5 * dim * 2, m=1)
        model = fit_residual(ds, features, 1e-10)
        true = np.concatenate([w_b, W_a.ravel()])
        got = np.concatenate([model.w_b, model.W_a.ravel()])
        assert np.linalg.norm(got - true) / np.linalg.norm(true) <= 1e-6
        x, u = rng.uniform(-1, 1, size=4), rng.normal(size=1)
        planted = float(w_b @ features(x)) + float((W_a @ features(x)) @ u)
        assert model.predict(x, u) == pytest.approx(planted, abs=1e-5)

    def test_single_row_shrinks_toward_target(self):
        rng = np.random.default_rng(6)
        ds, features, _, _ = make_dataset(rng, poly(1, (2,)), n_rows=1)
        target = ds.targets[0]
        errors = []
        for lam in (1.0, 1e-3, 1e-8):
            model = fit_residual(ds, features, lam)
            errors.append(abs(model.predict(ds.states[0], ds.inputs[0]) - target))
        assert errors[0] > errors[1] > errors[2]
        assert errors[-1] < 1e-6

    def test_prediction_affine_in_input(self):
        rng = np.random.default_rng(7)
        ds, features, _, _ = make_dataset(rng, poly(2, (1, 2, 3)), 40, m=2)
        model = fit_residual(ds, features, 1e-4)
        assert not model.ill_conditioned
        for _ in range(20):
            x = rng.uniform(-1, 1, size=4)
            u1, u2 = rng.normal(size=2), rng.normal(size=2)
            mid = model.predict(x, (u1 + u2) / 2.0)
            assert mid == pytest.approx((model.predict(x, u1) + model.predict(x, u2)) / 2.0, rel=1e-12, abs=1e-12)

    def test_zero_weights_predict_zero(self):
        features = FeatureMap.fit(poly(1, (1,)), np.random.default_rng(8).normal(size=(5, 4)))
        model = ResidualModel(features, np.zeros(2), np.zeros((1, 2)), 1e-4, 0.0)
        assert model.predict(np.ones(4), np.ones(1)) == 0.0

    def test_empty_dataset_rejected(self):
        features = FeatureMap(poly(1, (1,)), np.zeros(1), np.ones(1))
        ds = Dataset(np.zeros((0, 4)), np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError):
            fit_residual(ds, features, 1e-4)

    def test_ill_conditioned_flag(self):
        # duplicated coordinate makes the Gram nearly singular at tiny lambda
        rng = np.random.default_rng(9)
        states = np.zeros((40, 4))
        states[:, 1] = rng.normal(size=40)
        states[:, 2] = states[:, 1]
        features = FeatureMap.fit(poly(2, (1, 2)), states)
        ds = Dataset(states, rng.normal(size=(40, 1)), rng.normal(size=40))
        with pytest.warns(UserWarning):
            model = fit_residual(ds, features, 1e-14)
        assert model.ill_conditioned
        assert np.all(np.isfinite(model.w_b))

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("spec", [poly(2, (1, 2, 3)), poly(2),
                                      {"kind": "random_fourier", "count": 12, "bandwidth": 0.8, "indices": (1, 2, 3)}],
                             ids=["polynomial", "polynomial_all_coordinates", "random_fourier"])
    @pytest.mark.parametrize("ridge_lambda", [1e-3, 1e-14])
    def test_bitwise_equal_to_reference_assembly(self, spec, m, ridge_lambda):
        # Coordinate 2 repeats coordinate 1, so at lambda 1e-14 the polynomial fits are ill conditioned.
        # The features nearly explain the targets, so a last-bit change of design @ w shows in the rms.
        rng = np.random.default_rng(12)
        states = rng.normal(size=(20_000, 4))
        states[:, 2] = states[:, 1]
        features = FeatureMap.fit(spec, states)
        phi, inputs = features(states), rng.normal(size=(20_000, m))
        targets = (phi @ rng.normal(size=features.dimension)
                   + np.sum(phi @ rng.normal(size=(features.dimension, m)) * inputs, axis=1)
                   + 1e-3 * rng.normal(size=20_000))
        ds = Dataset(states, inputs, targets)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit_residual(ds, features, ridge_lambda)
            w_b, W_a, rms, ill = fit_residual_reference(ds, features, ridge_lambda)
        assert np.array_equal(model.w_b, w_b)
        assert np.array_equal(model.W_a, W_a)
        assert model.training_rms == rms
        assert model.ill_conditioned == ill == (spec["kind"] == "polynomial" and ridge_lambda < 1e-6)

    def test_model_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        ds, features, _, _ = make_dataset(rng, poly(2, (1, 2, 3)), 60)
        model = fit_residual(ds, features, 1e-4)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = ResidualModel.load(path)
        x, u = rng.uniform(-1, 1, size=4), rng.normal(size=1)
        assert loaded.predict(x, u) == model.predict(x, u)
        assert loaded.training_rms == model.training_rms


def features_dimension_too_big(idx, deg):
    return math.comb(len(idx) + deg, deg) > 8


class TestCollectEpisode:
    def _scenario(self, identity=False):
        override = {"system": {"perturbation": {"scale": {}, "drop_friction": False}}} if identity else {}
        return build_scenario(override)

    def test_zero_residual_limit_targets_are_second_order(self):
        # with a perfect model and a step-constant input the targets are pure
        # central-difference discretization error: halving dt shrinks them
        # about fourfold (a varying input adds an O(dt) hold mismatch instead)
        scn = self._scenario(identity=True)
        x0 = np.array([0.0, 0.0, 0.05, 0.0])

        def mean_abs_target(dt):
            traj = simulate(scn.true_system, lambda x, t: np.zeros(1), x0, 1.0, dt)
            ds = collect_episode(dataclasses.replace(scn, dt=dt), traj)
            return float(np.mean(np.abs(ds.targets[1:])))  # row 0 is the forward difference

        coarse, fine = mean_abs_target(1e-3), mean_abs_target(5e-4)
        assert coarse < 0.1
        assert 3.0 < coarse / fine < 5.0

    def test_benchmark_controller_floor_small(self):
        # the ZOH input hold adds an O(dt) term under a time-varying
        # controller; at 1 kHz the total floor stays small
        scn = self._scenario(identity=True)
        traj, _ = scn.rollout(duration=1.0)
        ds = collect_episode(scn, traj)
        assert float(np.mean(np.abs(ds.targets))) < 0.02

    def test_benchmark_residual_observable(self):
        scn = self._scenario()
        traj, _ = scn.rollout(duration=1.0)
        ds = collect_episode(scn, traj)
        ident = self._scenario(identity=True)
        floor_traj, _ = ident.rollout(duration=1.0)
        floor_ds = collect_episode(ident, floor_traj)
        floor = np.mean(np.abs(floor_ds.targets))
        assert np.mean(np.abs(ds.targets)) > 10.0 * floor

    def test_two_step_episode_has_one_interior_row(self):
        scn = self._scenario(identity=True)
        dt = scn.dt
        traj, _ = scn.rollout(duration=2 * dt)
        ds = collect_episode(scn, traj)
        assert len(ds) == 2  # forward-difference row plus one interior row
        # recompute the interior central difference, less the model's hdot, independently
        h = [scn.barrier.h(x) for x in traj.states]
        nominal = h_dot(scn.barrier, scn.nominal_system, traj.states[1], traj.inputs[1])
        assert ds.targets[1] == pytest.approx((h[2] - h[0]) / (2 * dt) - nominal, rel=1e-12)

    def test_noise_spec_is_seeded(self):
        scn = self._scenario()
        traj, _ = scn.rollout(duration=0.1)

        def run(seed):
            return collect_episode(scn, traj, noise_std=1e-4, rng=np.random.default_rng(seed))
        a, b = run(0), run(0)
        assert np.array_equal(a.targets, b.targets)
        c = run(1)
        assert not np.array_equal(a.targets, c.targets)


class TestEpisodicTrain:
    def _scenario(self, cfg=None, **learning):
        """Benchmark scenario with short episodes and 0.5 s validation rollouts."""
        cfg = dict(cfg or {})
        cfg["learning"] = {"episodes": 1, "episode_duration": 0.5, **learning}
        cfg["run"] = {"duration": 0.5}
        return build_scenario(cfg)

    def test_single_episode_equals_collect_then_fit(self):
        model, history = episodic_train(self._scenario())
        assert len(history.records) == 1
        assert history.records[0].episode == 0
        assert np.isfinite(history.records[0].validation_delta_bar)
        assert model.training_rms == history.records[0].training_rms

    def test_normalization_from_first_episode(self):
        # Episode 0's states, rebuilt from the same generator draws: no x0
        # jitter, the excitation, then the rollout without residual terms.
        scn = self._scenario(episodes=2)
        learn = scn.cfg["learning"]
        model, _ = episodic_train(scn)
        rng = np.random.default_rng(scn.seed)
        desired = excite(scn.desired, learn["excitation"]["amplitude"], learn["excitation"]["hold_steps"],
                         scn.dt, learn["episode_duration"], scn.true_system.input_dim, rng)
        traj, _ = scn.rollout(desired=desired, duration=learn["episode_duration"])
        selected = traj.states[:len(traj.inputs)][:, [1, 2, 3]]
        std = selected.std(axis=0)
        assert np.array_equal(model.features.center, selected.mean(axis=0))
        assert np.array_equal(model.features.scale, np.where(std < 1e-12, 1.0, std))

    def test_determinism(self):
        scn = self._scenario(episodes=2)
        m1, h1 = episodic_train(scn)
        m2, h2 = episodic_train(scn)
        assert np.array_equal(m1.w_b, m2.w_b)
        assert np.array_equal(m1.W_a, m2.W_a)
        assert [r.validation_delta_bar for r in h1.records] == [r.validation_delta_bar for r in h2.records]

    def test_x0_jitter_and_noise_are_seeded(self):
        scn = self._scenario(episodes=2, x0_jitter=[0.01, 0.01, 0.01, 0.01], noise_std=1e-3)
        m1, h1 = episodic_train(scn)
        m2, h2 = episodic_train(scn)
        assert np.array_equal(m1.w_b, m2.w_b)
        assert np.array_equal(m1.W_a, m2.W_a)
        assert [r.validation_delta_bar for r in h1.records] == [r.validation_delta_bar for r in h2.records]
        plain, _ = episodic_train(self._scenario(episodes=2))
        assert not np.array_equal(m1.w_b, plain.w_b)
        assert not np.array_equal(m1.W_a, plain.W_a)

    def test_excluded_middle_episode_stays_out_of_the_aggregate(self, monkeypatch):
        # The plant's drift blows up during episode 1's collection rollout only.
        scn = self._scenario(episodes=3)
        plant = scn.true_system
        episode = {"index": -1}

        def drift(x):
            return np.full(4, 1e9) if episode["index"] == 1 else plant.drift(x)

        def counting_excite(*args):
            episode["index"] += 1
            return excite(*args)

        collected, fitted = [], []

        def recording_collect(*args):
            ds = collect_episode(*args)
            collected.append(ds)
            return ds

        def recording_fit(data, *args):
            fitted.append(data)
            return fit_residual(data, *args)

        monkeypatch.setattr(learning, "excite", counting_excite)
        monkeypatch.setattr(learning, "collect_episode", recording_collect)
        monkeypatch.setattr(learning, "fit_residual", recording_fit)
        blowing_up = ControlAffineSystem(4, 1, drift=drift, actuation=plant.actuation)
        _, history = episodic_train(dataclasses.replace(scn, true_system=blowing_up))

        assert [r.excluded for r in history.records] == [False, True, False]
        assert len(collected) == 3 and len(fitted) == 2
        for data, kept in zip(fitted, ([collected[0]], [collected[0], collected[2]])):
            for field in ("states", "inputs", "targets"):
                assert np.array_equal(getattr(data, field), np.concatenate([getattr(d, field) for d in kept]))

    def test_all_episodes_failing_aborts(self):
        scn = self._scenario()
        exploding = ControlAffineSystem(
            4, 1,
            drift=lambda x: np.full(4, 1e9),
            actuation=scn.true_system.actuation,
        )
        with pytest.raises(EpisodicTrainingError):
            episodic_train(dataclasses.replace(scn, true_system=exploding))

    def test_perfect_model_fixed_point(self):
        # identity perturbation: the zero model already predicts the true
        # residual exactly; episodes must leave validation delta_bar at the
        # level set by finite-difference discretization noise in the fit
        scn = self._scenario({"system": {"perturbation": {"scale": {}, "drop_friction": False}}},
                             episodes=2, episode_duration=1.0)
        model, history = episodic_train(scn)
        traj, _ = scn.rollout(duration=1.0)
        ds = collect_episode(scn, traj)
        discretization_floor = float(np.max(np.abs(ds.targets)))
        for record in history.records:
            assert record.validation_delta_bar <= 100.0 * max(discretization_floor, 1e-12)

    def test_history_csv(self, tmp_path):
        _, history = episodic_train(self._scenario(episodes=2))
        path = tmp_path / "episodes.csv"
        history.to_csv(path)
        from pssf.ioutil import read_csv

        header, rows = read_csv(path)
        assert header == ["episode", "training_rms", "validation_delta_bar"]
        assert len(rows) == 2
        assert float(rows[0][1]) == history.records[0].training_rms
