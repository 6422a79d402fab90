import dataclasses
import math

import numpy as np
import pytest

from pssf.dynamics import ControlAffineSystem, simulate
from pssf.learning import (
    Dataset,
    EpisodicTrainingError,
    FeatureMap,
    NoiseSpec,
    ResidualModel,
    collect_episode,
    episodic_train,
    fit_residual,
)
from pssf.scenario import build_scenario


def make_dataset(rng, features, n_rows, m=1, w_b=None, W_a=None, noise=0.0):
    """Rows generated by a model inside the feature class."""
    states = rng.uniform(-1.0, 1.0, size=(n_rows, 4))
    if not features.fitted:
        features.fit_normalization(states)
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
    ds = Dataset(
        states=states,
        inputs=inputs,
        hdot_target=targets,
        hdot_nominal=np.zeros(n_rows),
        episode_ids=np.zeros(n_rows, dtype=int),
    )
    return ds, w_b, W_a


def normal_equation_oracle(ds, features, lam):
    """Independent fit: explicit Gram assembly and a dense solve."""
    phi = np.array([features(x) for x in ds.states])
    m = ds.inputs.shape[1]
    cols = [phi] + [phi * ds.inputs[:, i:i + 1] for i in range(m)]
    design = np.hstack(cols)
    p = design.shape[1]
    gram = design.T @ design + lam * np.eye(p)
    return np.linalg.solve(gram, design.T @ ds.targets())


class TestFeatureMap:
    def test_polynomial_dimension(self):
        fm = FeatureMap("polynomial", max_degree=2, indices=(1, 2, 3))
        assert fm.dimension == math.comb(3 + 2, 2)

    def test_polynomial_includes_constant_and_cross_terms(self):
        fm = FeatureMap("polynomial", max_degree=2, indices=(0, 1))
        fm.fit_normalization(np.array([[0.0, 0.0, 0, 0], [2.0, 4.0, 0, 0]]))
        phi = fm(np.array([1.0, 2.0, 0.0, 0.0]))  # normalized to z = 0
        assert phi[0] == 1.0
        assert np.allclose(phi[1:], 0.0)

    def test_random_fourier_deterministic_given_seed(self):
        states = np.random.default_rng(0).normal(size=(50, 4))
        a = FeatureMap("random_fourier", count=16, bandwidth=1.5, seed=7).fit_normalization(states)
        b = FeatureMap("random_fourier", count=16, bandwidth=1.5, seed=7).fit_normalization(states)
        x = np.array([0.1, -0.2, 0.3, 0.4])
        assert np.array_equal(a(x), b(x))

    def test_finite_and_correct_length(self):
        states = np.random.default_rng(1).normal(size=(30, 4))
        for fm in (
            FeatureMap("polynomial", max_degree=3),
            FeatureMap("random_fourier", count=9, bandwidth=0.7),
        ):
            fm.fit_normalization(states)
            phi = fm(states[0])
            assert phi.shape == (fm.dimension,)
            assert np.all(np.isfinite(phi))

    def test_batch_matches_single(self):
        states = np.random.default_rng(2).normal(size=(20, 4))
        fm = FeatureMap("polynomial", max_degree=2, indices=(1, 2, 3)).fit_normalization(states)
        batch = fm(states)
        for j in range(len(states)):
            assert np.allclose(batch[j], fm(states[j]))

    def test_use_before_fit_rejected(self):
        fm = FeatureMap("polynomial", max_degree=2, indices=(1, 2))
        with pytest.raises(RuntimeError):
            fm(np.zeros(4))

    def test_config_round_trip(self):
        states = np.random.default_rng(3).normal(size=(10, 4))
        fm = FeatureMap("random_fourier", count=8, bandwidth=2.0, seed=3, indices=(1, 3)).fit_normalization(states)
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
            features = FeatureMap("polynomial", max_degree=deg, indices=idx)
            if features_dimension_too_big(features, idx, deg):
                continue
            ds, _, _ = make_dataset(rng, features, n_rows, noise=0.1)
            lam = float(rng.uniform(1e-6, 1.0))
            model = fit_residual(ds, features, lam)
            oracle = normal_equation_oracle(ds, features, lam)
            packed = np.concatenate([model.w_b, model.W_a.ravel()])
            assert np.linalg.norm(packed - oracle) <= 1e-8 * max(1.0, np.linalg.norm(oracle))

    def test_planted_model_recovery(self):
        rng = np.random.default_rng(5)
        features = FeatureMap("polynomial", max_degree=2, indices=(1, 2, 3))
        dim = math.comb(3 + 2, 2)
        ds, w_b, W_a = make_dataset(rng, features, n_rows=5 * dim * 2, m=1)
        model = fit_residual(ds, features, 1e-10)
        true = np.concatenate([w_b, W_a.ravel()])
        got = np.concatenate([model.w_b, model.W_a.ravel()])
        assert np.linalg.norm(got - true) / np.linalg.norm(true) <= 1e-6
        x, u = rng.uniform(-1, 1, size=4), rng.normal(size=1)
        planted = float(w_b @ features(x)) + float((W_a @ features(x)) @ u)
        assert model.predict(x, u) == pytest.approx(planted, abs=1e-5)

    def test_single_row_shrinks_toward_target(self):
        rng = np.random.default_rng(6)
        features = FeatureMap("polynomial", max_degree=1, indices=(2,))
        ds, _, _ = make_dataset(rng, features, n_rows=1)
        target = ds.targets()[0]
        errors = []
        for lam in (1.0, 1e-3, 1e-8):
            model = fit_residual(ds, features, lam)
            errors.append(abs(model.predict(ds.states[0], ds.inputs[0]) - target))
        assert errors[0] > errors[1] > errors[2]
        assert errors[-1] < 1e-6

    def test_prediction_affine_in_input(self):
        rng = np.random.default_rng(7)
        features = FeatureMap("polynomial", max_degree=2, indices=(1, 2, 3))
        ds, _, _ = make_dataset(rng, features, 40, m=2)
        model = fit_residual(ds, features, 1e-4)
        assert not model.ill_conditioned
        for _ in range(20):
            x = rng.uniform(-1, 1, size=4)
            u1, u2 = rng.normal(size=2), rng.normal(size=2)
            mid = model.predict(x, (u1 + u2) / 2.0)
            assert mid == pytest.approx((model.predict(x, u1) + model.predict(x, u2)) / 2.0, rel=1e-12, abs=1e-12)

    def test_zero_weights_predict_zero(self):
        features = FeatureMap("polynomial", max_degree=1, indices=(1,))
        features.fit_normalization(np.random.default_rng(8).normal(size=(5, 4)))
        model = ResidualModel(features, np.zeros(2), np.zeros((1, 2)), 1e-4, 0.0)
        assert model.predict(np.ones(4), np.ones(1)) == 0.0

    def test_empty_dataset_rejected(self):
        features = FeatureMap("polynomial", max_degree=1, indices=(1,))
        ds = Dataset(np.zeros((0, 4)), np.zeros((0, 1)), np.zeros(0), np.zeros(0), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            fit_residual(ds, features, 1e-4)

    def test_ill_conditioned_flag(self):
        # duplicated coordinate makes the Gram nearly singular at tiny lambda
        rng = np.random.default_rng(9)
        states = np.zeros((40, 4))
        states[:, 1] = rng.normal(size=40)
        states[:, 2] = states[:, 1]
        features = FeatureMap("polynomial", max_degree=2, indices=(1, 2))
        features.fit_normalization(states)
        ds = Dataset(states, rng.normal(size=(40, 1)), rng.normal(size=40), np.zeros(40),
                     np.zeros(40, dtype=int))
        with pytest.warns(UserWarning):
            model = fit_residual(ds, features, 1e-14)
        assert model.ill_conditioned
        assert np.all(np.isfinite(model.w_b))

    def test_model_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        features = FeatureMap("polynomial", max_degree=2, indices=(1, 2, 3))
        ds, _, _ = make_dataset(rng, features, 60)
        model = fit_residual(ds, features, 1e-4)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = ResidualModel.load(path)
        x, u = rng.uniform(-1, 1, size=4), rng.normal(size=1)
        assert loaded.predict(x, u) == model.predict(x, u)
        assert loaded.training_rms == model.training_rms


def features_dimension_too_big(features, idx, deg):
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
            return float(np.mean(np.abs(ds.targets()[1:])))  # row 0 is the forward difference

        coarse, fine = mean_abs_target(1e-3), mean_abs_target(5e-4)
        assert coarse < 0.1
        assert 3.0 < coarse / fine < 5.0

    def test_benchmark_controller_floor_small(self):
        # the ZOH input hold adds an O(dt) term under a time-varying
        # controller; at 1 kHz the total floor stays small
        scn = self._scenario(identity=True)
        traj, _ = scn.rollout(duration=1.0)
        ds = collect_episode(scn, traj)
        assert float(np.mean(np.abs(ds.targets()))) < 0.02

    def test_benchmark_residual_observable(self):
        scn = self._scenario()
        traj, _ = scn.rollout(duration=1.0)
        ds = collect_episode(scn, traj)
        ident = self._scenario(identity=True)
        floor_traj, _ = ident.rollout(duration=1.0)
        floor_ds = collect_episode(ident, floor_traj)
        floor = np.mean(np.abs(floor_ds.targets()))
        assert np.mean(np.abs(ds.targets())) > 10.0 * floor

    def test_two_step_episode_has_one_interior_row(self):
        scn = self._scenario(identity=True)
        dt = scn.dt
        traj, _ = scn.rollout(duration=2 * dt)
        ds = collect_episode(scn, traj)
        assert len(ds) == 2  # forward-difference row plus one interior row
        # recompute the interior central difference independently
        h = [scn.barrier.h(x) for x in traj.states]
        assert ds.hdot_target[1] == pytest.approx((h[2] - h[0]) / (2 * dt), rel=1e-12)

    def test_noise_spec_is_seeded(self):
        scn = self._scenario()
        traj, _ = scn.rollout(duration=0.1)

        def run(seed):
            noise = NoiseSpec(std=1e-4, rng=np.random.default_rng(seed))
            return collect_episode(scn, traj, noise=noise)
        a, b = run(0), run(0)
        assert np.array_equal(a.hdot_target, b.hdot_target)
        c = run(1)
        assert not np.array_equal(a.hdot_target, c.hdot_target)


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
        discretization_floor = float(np.max(np.abs(ds.targets())))
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
