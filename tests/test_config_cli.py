import filecmp
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from pssf.cli import main
from pssf.config import ConfigError, DEFAULT_CONFIG, load_config, save_config, set_by_path, validate_config
from pssf.ioutil import read_csv
from pssf.learning import ResidualModel
from pssf.scenario import build_scenario

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_cfg(tmp_path, overrides, name="cfg.yaml"):
    path = tmp_path / name
    with open(path, "w") as fh:
        yaml.safe_dump(overrides, fh)
    return path


def fast_overrides(**extra):
    cfg = {
        "run": {"duration": 1.0},
        "learning": {"episodes": 2, "episode_duration": 1.0},
    }
    for key, value in extra.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    return cfg


# The rollout blows up on its first step, so it records no delta sample.
ZERO_STEP_RUN = {"run": {"x0": [0.0, 0.0, 0.0, 1.0e9], "duration": 0.01}}


class TestConfigValidation:
    def test_empty_config_resolves_to_defaults(self):
        assert validate_config({}) == DEFAULT_CONFIG

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="systemm"):
            validate_config({"systemm": {}})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError):
            validate_config({"controller": {"kp": 1.0, "kpp": 2.0}})
        with pytest.raises(ConfigError, match="excitation"):
            validate_config({"controller": {"excitation": {"amplitude": 1.0}}})
        with pytest.raises(ConfigError, match="enabled"):
            validate_config({"learning": {"enabled": True}})

    def test_type_errors_caught(self):
        with pytest.raises(ConfigError):
            validate_config({"run": {"dt": "fast"}})
        with pytest.raises(ConfigError):
            validate_config({"run": {"dt": -1.0}})
        with pytest.raises(ConfigError):
            validate_config({"run": {"duration": 0.0}})
        with pytest.raises(ConfigError, match="run.seed"):
            validate_config({"run": {"dt": -1.0, "seed": "x"}})
        with pytest.raises(ConfigError, match="run.duration"):
            validate_config({"run": {"duration": math.inf}})
        with pytest.raises(ConfigError, match="run.x0"):
            validate_config({"run": {"x0": [0.0, 0.0, math.nan, 0.0]}})
        with pytest.raises(ConfigError, match="controller.kp"):
            validate_config({"controller": {"kp": 10**400}})
        # An integer is no float, even a whole one (each of these crashed the run with a TypeError), and a
        # number is no bool.
        for where, user in (("learning.episodes", {"learning": {"episodes": 1.0}}),
                            ("learning.excitation.hold_steps", {"learning": {"excitation": {"hold_steps": 20.0}}}),
                            ("run.seed", {"run": {"seed": 0.0}}), ("controller.kp", {"controller": {"kp": True}})):
            with pytest.raises(ConfigError, match=where):
                validate_config(user)
        # 10.5 and zero steps of run.dt, a singular plant, and a design model only the perturbation makes singular:
        # the rules pass them, and build_scenario rejects each where it builds the steps or the parameters.
        for where, block in (("run.duration", {"duration": 0.0105}), ("run.duration", {"duration": 1e-15}),
                             ("system", {"body_mass": 1e-6, "wheel_mass": 1e-6, "body_inertia": 1e-6}),
                             ("system", {"perturbation": {"scale": {"body_inertia": 1e-13, "wheel_mass": 1e-13}}})):
            validate_config({where.split(".")[0]: block})
            with pytest.raises(ConfigError, match=where):
                build_scenario({where.split(".")[0]: block})

    def test_bad_alpha_family(self):
        with pytest.raises(ConfigError, match="alpha"):
            validate_config({"barrier": {"alpha": {"family": "nope"}}})
        with pytest.raises(ConfigError, match="alpha"):
            validate_config({"barrier": {"alpha": {"family": "linear", "k": math.inf}}})
        # Parameters are int or float: a string or a boolean is not a number.
        for where, alpha in (("k: '2'", {"family": "linear", "k": "2"}), ("k: True", {"family": "linear", "k": True}),
                             ("c: '1'", {"family": "power", "c": "1", "p": 2})):
            with pytest.raises(ConfigError, match=f"at barrier.alpha.{where} is not of type 'number'"):
                validate_config({"barrier": {"alpha": alpha}})
        with pytest.raises(ConfigError, match="alpha"):
            validate_config({"barrier": {"alpha": {"family": "tabulated",
                                                   "breakpoints": [[-1, -1], [0, 0], [math.inf, 1]]}}})
        # Valid alphas whose inverse cannot be built: k^-1 overflows, c^(-1/p) overflows or underflows.
        for alpha in ({"family": "linear", "k": 1.0e-320},
                      {"family": "power", "c": 1.0e-300, "p": 0.01},
                      {"family": "power", "c": 1.0e+300, "p": 0.01}):
            with pytest.raises(ConfigError, match="alpha"):
                build_scenario({"barrier": {"alpha": alpha}})
        # No family but the closed forms, which take all reals as the filter and the certificate need: not a
        # table, alone or inside a composition.
        tables = [{"family": "tabulated", "breakpoints": breakpoints}
                  for breakpoints in ([[-10, -9], [10, 11]], [[0, 0], [1, 1]], [[-1, -1], [1, 1]])]
        unexpected = re.escape(": Additional properties are not allowed ('breakpoints' was unexpected)")
        for where, alpha in (*(("barrier.alpha", table) for table in tables),
                             ("barrier.alpha.inner", {"family": "composition", "outer": {"family": "linear", "k": 1.0},
                                                      "inner": tables[2]})):
            with pytest.raises(ConfigError, match=rf"at {re.escape(where)}{unexpected}$"):
                validate_config({"barrier": {"alpha": alpha}})

    # The last five passed the gate and then crashed learn: numpy takes neither a negative seed nor a float
    # index, and a bandwidth this small makes every (1e-320) or some (1e-308) of the weights normal / bandwidth inf,
    # or, with seed 1's finite weights, W z inf. The bandwidths are caught where build_scenario draws the weights.
    @pytest.mark.parametrize("features", [{"kind": "polynomial"}, {"kind": "random_fourier", "count": 4},
                                          {"kind": "polynomial", "max_degree": 2, "count": 5, "bandwidth": 3.0},
                                          {"kind": "random_fourier", "count": 4, "bandwidth": 1.0, "seed": -1},
                                          {"kind": "polynomial", "max_degree": 2, "indices": [1.0, 2, 3]},
                                          {"kind": "random_fourier", "count": 5, "bandwidth": 1.0e-320},
                                          {"kind": "random_fourier", "count": 5, "bandwidth": 1.0e-308},
                                          {"kind": "random_fourier", "count": 5, "bandwidth": 1.0e-308, "seed": 1}])
    def test_feature_kind_needs_its_keys(self, features):
        with pytest.raises(ConfigError, match="learning.features"):
            build_scenario({"learning": {"features": features}})

    def test_unknown_kind_lists_every_kind(self):
        message = re.escape("at learning.features.kind: 'bogus' is not one of ['polynomial', 'random_fourier']")
        for features in ({"kind": "bogus"}, {"kind": "bogus", "max_degree": 2}):
            with pytest.raises(ConfigError, match=f"{message}$"):
                validate_config({"learning": {"features": features}})

    def test_alpha_replaces_rather_than_merges(self):
        cfg = validate_config({"barrier": {"alpha": {"family": "power", "c": 1.0, "p": 2.0}}})
        assert cfg["barrier"]["alpha"] == {"family": "power", "c": 1.0, "p": 2.0}
        features = {"kind": "random_fourier", "count": 4, "bandwidth": 1.0}
        cfg = validate_config({"learning": {"features": features}})
        assert cfg["learning"]["features"] == features

    def test_perturbation_scale_replaces(self):
        cfg = validate_config({"system": {"perturbation": {"scale": {}, "drop_friction": False}}})
        assert cfg["system"]["perturbation"]["scale"] == {}

    def test_unknown_perturbation_parameter(self):
        with pytest.raises(ConfigError):
            validate_config({"system": {"perturbation": {"scale": {"bogus": 1.1}}}})

    def test_benchmark_yaml_matches_defaults(self):
        cfg = load_config(REPO_ROOT / "configs" / "benchmark.yaml")
        assert cfg == DEFAULT_CONFIG

    def test_resolved_round_trip(self, tmp_path):
        resolved = validate_config({"run": {"seed": 3}})
        save_config(resolved, tmp_path / "resolved.yaml")
        again = load_config(tmp_path / "resolved.yaml")
        assert again == resolved

    def test_set_by_path(self):
        cfg = validate_config({})
        out = set_by_path(cfg, "run.dt", 1e-2)
        assert out["run"]["dt"] == 1e-2
        assert cfg["run"]["dt"] == 1e-3  # original untouched

    def test_set_by_path_missing_or_non_numeric(self):
        cfg = validate_config({})
        with pytest.raises(ConfigError):
            set_by_path(cfg, "run.nope", 1.0)
        with pytest.raises(ConfigError):
            set_by_path(cfg, "learning.features.kind", 2.0)


class TestSimulateCommand:
    def test_identity_perturbation_degenerate_certificate(self, tmp_path):
        cfg = fast_overrides(system={"perturbation": {"scale": {}, "drop_friction": False}})
        path = write_cfg(tmp_path, cfg)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["no_learning"]["delta_bar"] == 0.0
        assert summary["no_learning"]["floor"] == 0.0
        assert summary["learned"] is None

    def test_benchmark_certificate_passes(self, tmp_path):
        path = write_cfg(tmp_path, fast_overrides())
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        mode = summary["no_learning"]
        assert mode["pass"]
        assert mode["floor"] == -mode["delta_bar"] / summary["k"]
        assert mode["min_h"] >= mode["floor"] - 1e-6

    def test_summary_recomputable_from_csvs(self, tmp_path):
        path = write_cfg(tmp_path, fast_overrides())
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        _, rows = read_csv(out / "delta_no_learning.csv")
        recomputed = max(float(r[1]) for r in rows)
        assert abs(recomputed - summary["no_learning"]["delta_bar"]) <= 1e-12

        # min h from the trajectory CSV through the configured barrier
        cfg = load_config(out / "resolved_config.yaml")
        from pssf import kfun
        from pssf.scenario import ellipse_pitch_barrier

        bar = ellipse_pitch_barrier(cfg["barrier"]["pitch_max"], cfg["barrier"]["pitch_rate_max"],
                                    kfun.from_config(cfg["barrier"]["alpha"]))
        _, traj_rows = read_csv(out / "trajectory_no_learning.csv")
        min_h = min(bar.h(np.array([float(v) for v in row[1:5]])) for row in traj_rows)
        assert abs(min_h - summary["no_learning"]["min_h"]) <= 1e-12

    def test_clamped_steps_reported(self, tmp_path):
        # The committed benchmark model drives the learned filter past u_max
        # (a known defect); every clamped step applies exactly +-u_max.
        path = write_cfg(tmp_path, {"run": {"duration": 3.0}})
        model = REPO_ROOT / "perfbench" / "inputs" / "model_seed0.json"
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--model", str(model), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        u_max = load_config(out / "resolved_config.yaml")["controller"]["u_max"]
        for mode in ("no_learning", "learned"):
            _, rows = read_csv(out / f"trajectory_{mode}.csv")
            at_limit = sum(1 for row in rows[:-1] if abs(float(row[5])) == u_max)
            assert summary[mode]["filter_clamped_steps"] == at_limit
        assert summary["no_learning"]["filter_clamped_steps"] == 0
        assert summary["learned"]["filter_clamped_steps"] == 2

    def test_config_error_exit_code(self, tmp_path, capsys):
        # The second alpha's inverse overflows.
        for overrides in ({"run": {"dt": -1.0}}, {"barrier": {"alpha": {"family": "power", "c": 1.0e-300, "p": 0.01}}}):
            path = write_cfg(tmp_path, overrides)
            assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err.count("config error") == 1

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "none.yaml"), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.count("config error") == 1

    def test_early_termination_exit_code(self, tmp_path):
        # torque scale large enough to blow the rollout up
        cfg = fast_overrides(controller={"kp": 1e9, "kd": 0.0, "u_max": 1e7})
        path = write_cfg(tmp_path, cfg)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["no_learning"]["status"] == "terminated_early"
        assert not summary["no_learning"]["pass"]

    def test_power_alpha_overflow_exit_code(self, tmp_path):
        # Far outside the set alpha(h) = h^200 rounds to -inf: the filter's demand is unbounded, the clamp holds |u|
        # at u_max, and the run ends with a certificate verdict (here its precondition fails), not a crash.
        path = write_cfg(tmp_path, {"run": {"duration": 0.05, "x0": [0.0, 0.0, 3.0, 0.0]},
                                    "barrier": {"alpha": {"family": "power", "c": 1.0, "p": 200.0}}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["no_learning"]["status"] == "precondition_violated"
        assert summary["no_learning"]["filter_clamped_steps"] > 0

    def test_rollout_ending_on_first_step_exit_code(self, tmp_path):
        path = write_cfg(tmp_path, ZERO_STEP_RUN)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["no_learning"]["terminated_early"]
        assert summary["no_learning"]["status"] == "precondition_violated"

    def test_resolved_config_written_and_valid(self, tmp_path):
        path = write_cfg(tmp_path, fast_overrides())
        out = tmp_path / "out"
        main(["simulate", "--config", str(path), "--out", str(out)])
        resolved = load_config(out / "resolved_config.yaml")
        assert resolved["run"]["duration"] == 1.0


class TestScenarioRollout:
    def test_counters_cover_one_rollout(self):
        # The learned-mode clamp count of test_clamped_steps_reported, twice:
        # every rollout gets its own controller, so counts do not accumulate.
        scn = build_scenario({"run": {"duration": 3.0}})
        model = ResidualModel.load(REPO_ROOT / "perfbench" / "inputs" / "model_seed0.json")
        _, first = scn.rollout(model)
        _, second = scn.rollout(model)
        assert first is not second
        assert first.clamped_count == 2
        assert second.clamped_count == 2


class TestLearnCommand:
    def test_metrics_and_model_artifacts(self, tmp_path):
        path = write_cfg(tmp_path, fast_overrides())
        out = tmp_path / "learn"
        assert main(["learn", "--config", str(path), "--out", str(out)]) == 0
        header, rows = read_csv(out / "episodes.csv")
        assert header == ["episode", "training_rms", "validation_delta_bar"]
        assert len(rows) == 2
        assert (out / "model.json").exists()

    def test_single_episode_single_row(self, tmp_path):
        cfg = fast_overrides()
        cfg["learning"]["episodes"] = 1
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "learn"
        assert main(["learn", "--config", str(path), "--out", str(out)]) == 0
        _, rows = read_csv(out / "episodes.csv")
        assert len(rows) == 1

    def test_episodes_ending_on_first_step_exit_code(self, tmp_path, capsys):
        cfg = {**ZERO_STEP_RUN, "learning": {"episodes": 1, "episode_duration": 0.01}}
        path = write_cfg(tmp_path, cfg)
        assert main(["learn", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "every episode terminated early" in capsys.readouterr().err

    def test_fractional_episode_steps_is_config_error(self, tmp_path, capsys):
        path = write_cfg(tmp_path, {"run": {"duration": 0.02}, "learning": {"episodes": 1, "episode_duration": 0.0105}})
        assert main(["learn", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.count("config error") == 1
        assert not (tmp_path / "out").exists()

    def test_subnormal_bandwidth_is_config_error(self, tmp_path, capsys):
        # Both used to end in "SVD did not converge", as the features were NaN. At 1e-320 the weights
        # normal / bandwidth overflow; at 1e-308 seed 1 draws finite weights, but W z overflows.
        for i, (bandwidth, seed) in enumerate(((1.0e-320, 0), (1.0e-308, 1))):
            features = {"kind": "random_fourier", "count": 5, "bandwidth": bandwidth, "seed": seed}
            path = write_cfg(tmp_path, {"run": {"duration": 0.05},
                                        "learning": {"episodes": 1, "episode_duration": 0.05, "features": features}})
            assert main(["learn", "--config", str(path), "--out", str(tmp_path / f"out{i}")]) == 2
            assert capsys.readouterr().err.count("config error") == 1
            assert not (tmp_path / f"out{i}").exists()

    def test_learned_mode_in_simulate(self, tmp_path, capsys):
        path = write_cfg(tmp_path, fast_overrides())
        learn_out = tmp_path / "learn"
        main(["learn", "--config", str(path), "--out", str(learn_out)])
        capsys.readouterr()
        sim_out = tmp_path / "sim"
        code = main(["simulate", "--config", str(path), "--model", str(learn_out / "model.json"),
                     "--out", str(sim_out)])
        assert code == 0
        summary = json.loads((sim_out / "summary.json").read_text())
        assert summary["learned"] is not None
        assert (sim_out / "delta_learned.csv").exists()
        lines = []
        for mode, label in (("no_learning", "no_learning: "), ("learned", "learned:     ")):
            entry = summary[mode]
            certificate = json.loads((sim_out / f"certificate_{mode}.json").read_text())
            assert certificate == {"k": summary["k"], "delta_bar": entry["delta_bar"], "floor": entry["floor"],
                                   "min_h": entry["min_h"], "pass": entry["pass"]}
            lines.append(f"{label}delta_bar={entry['delta_bar']:.6g} floor={entry['floor']:.6g} "
                         f"min_h={entry['min_h']:.6g} status={entry['status']}")
        assert capsys.readouterr().out.splitlines() == lines

    def test_bad_model_path_is_config_error(self, tmp_path):
        path = write_cfg(tmp_path, fast_overrides())
        assert main(["simulate", "--config", str(path), "--model", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("corrupt", [
        lambda m: m["W_a"].append(m["W_a"][0]),  # two input rows, the plant has one input
        lambda m: m["w_b"].pop(),
        lambda m: m["features"]["center"].pop(),  # shorter than indices
        lambda m: m["w_b"].__setitem__(0, math.nan),
        lambda m: m["features"]["scale"].__setitem__(0, 0.0),
        lambda m: m["features"]["center"].__setitem__(0, math.nan),  # json reads and writes NaN
        lambda m: m["features"].__setitem__("indices", None),  # every coordinate, but a 3-entry center
        lambda m: m.__setitem__("features", [1, 2]),
        lambda m: m["features"].__setitem__("indices", [1, 2, 7]),  # the plant has 4 states
        lambda m: m["features"].__setitem__("count", 5),  # a random_fourier key under a polynomial map
        # Values the config gate rejects: JSON's true is Python's int 1, and an infinite bandwidth makes
        # every random feature constant. max_degree 1 on three coordinates has 4 features.
        lambda m: (m["features"].update(max_degree=True), m.update(w_b=m["w_b"][:4], W_a=[r[:4] for r in m["W_a"]])),
        lambda m: m["features"].__setitem__("indices", [True, 2, 3]),
        lambda m: m["features"].__setitem__("seed", True),
        lambda m: (m["features"].pop("max_degree"),
                   m["features"].update(kind="random_fourier", count=len(m["w_b"]), bandwidth=math.inf)),
        # The weights normal / bandwidth overflow; the rollout used to run into NaN features (exit 3).
        lambda m: (m["features"].pop("max_degree"),
                   m["features"].update(kind="random_fourier", count=len(m["w_b"]), bandwidth=1.0e-320)),
        # Seed 5 draws finite weights at this bandwidth, but W z overflows; the run used to pass on garbage features.
        lambda m: (m["features"].pop("max_degree"),
                   m["features"].update(kind="random_fourier", count=len(m["w_b"]), bandwidth=1.0e-308, seed=5)),
        # The other values are checked, not coerced: these loaded as True, 1.0 and 0.5, and the run exited 0.
        lambda m: m.__setitem__("ill_conditioned", "false"),
        lambda m: m.__setitem__("ridge_lambda", True),
        lambda m: m["w_b"].__setitem__(0, "0.5"),
    ], ids=["W_a_rows", "w_b_short", "center_short", "w_b_nan", "scale_zero", "center_nan", "indices_null", "features_list",
            "index_out_of_range", "polynomial_with_count", "max_degree_bool", "index_bool", "seed_bool",
            "bandwidth_inf", "bandwidth_subnormal", "bandwidth_tiny_finite_weights",
            "ill_conditioned_string", "ridge_lambda_bool", "w_b_string"])
    def test_malformed_model_is_config_error(self, tmp_path, capsys, corrupt):
        model = json.loads((REPO_ROOT / "perfbench" / "inputs" / "model_seed0.json").read_text())
        corrupt(model)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        path = write_cfg(tmp_path, {"run": {"duration": 0.05}})
        assert main(["simulate", "--config", str(path), "--model", str(model_path),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.count("config error") == 1


class TestDeterminism:
    def _tree_files(self, root):
        return sorted(p.relative_to(root) for p in Path(root).rglob("*") if p.is_file())

    def assert_identical_trees(self, a, b):
        files_a, files_b = self._tree_files(a), self._tree_files(b)
        assert files_a == files_b
        for rel in files_a:
            assert filecmp.cmp(a / rel, b / rel, shallow=False), f"{rel} differs"

    def test_simulate_byte_identical(self, tmp_path):
        path = write_cfg(tmp_path, fast_overrides())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(path), "--out", str(out2)]) == 0
        self.assert_identical_trees(out1, out2)

    def test_learn_byte_identical(self, tmp_path):
        path = write_cfg(tmp_path, fast_overrides())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["learn", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["learn", "--config", str(path), "--out", str(out2)]) == 0
        self.assert_identical_trees(out1, out2)

    def test_rerun_from_resolved_config(self, tmp_path):
        path = write_cfg(tmp_path, fast_overrides())
        out1 = tmp_path / "a"
        main(["simulate", "--config", str(path), "--out", str(out1)])
        out2 = tmp_path / "b"
        main(["simulate", "--config", str(out1 / "resolved_config.yaml"), "--out", str(out2)])
        self.assert_identical_trees(out1, out2)


class TestSweepCommand:
    def test_single_value_matches_simulate(self, tmp_path):
        path = write_cfg(tmp_path, fast_overrides())
        sim_out = tmp_path / "sim"
        main(["simulate", "--config", str(path), "--out", str(sim_out)])
        sweep_out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--param", "run.duration",
                     "--values", "1.0", "--out", str(sweep_out)]) == 0
        header, rows = read_csv(sweep_out / "sweep.csv")
        summary = json.loads((sim_out / "summary.json").read_text())
        assert header == ["value", "delta_bar_no_learning", "floor_no_learning", "min_h_no_learning",
                          "pass_no_learning", "delta_bar_learned", "floor_learned", "min_h_learned",
                          "pass_learned", "status"]
        row = dict(zip(header, rows[0]))
        assert float(row["delta_bar_no_learning"]) == summary["no_learning"]["delta_bar"]
        assert row["status"] == "ok"

    def test_alpha_gain_sweep_tracks_inverse(self, tmp_path):
        path = write_cfg(tmp_path, fast_overrides())
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--param", "barrier.alpha.k",
                     "--values", "0.5,1.0,2.0", "--out", str(out)]) == 0
        header, rows = read_csv(out / "sweep.csv")
        for row in rows:
            record = dict(zip(header, row))
            k = float(record["value"])
            assert float(record["floor_no_learning"]) == -float(record["delta_bar_no_learning"]) / k

    def test_failures_recorded_in_row(self, tmp_path):
        path = write_cfg(tmp_path, fast_overrides())
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--param", "run.dt",
                     "--values", "0.001,-1.0", "--out", str(out)]) == 0
        _, rows = read_csv(out / "sweep.csv")
        assert rows[0][-1] == "ok"
        assert rows[1][-1].startswith("error:")

    def test_bad_param_path_is_config_error(self, tmp_path):
        path = write_cfg(tmp_path, fast_overrides())
        assert main(["sweep", "--config", str(path), "--param", "run.bogus",
                     "--values", "1.0", "--out", str(tmp_path / "out")]) == 2

    def test_bad_values_is_config_error(self, tmp_path):
        path = write_cfg(tmp_path, fast_overrides())
        assert main(["sweep", "--config", str(path), "--param", "run.dt",
                     "--values", "abc", "--out", str(tmp_path / "out")]) == 2
