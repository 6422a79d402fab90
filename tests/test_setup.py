"""Set-up of every run: the config loader, ``build_scenario``'s checks, the console's exit codes and the sampled
drift-error sup, against their earlier forms.

``load_config`` parses with libyaml where PyYAML has it and with the pure-Python
loader otherwise; both must give the same resolved config and, through
``build_scenario``, the same config errors, each at its pinned path. Every
exit-code case runs through ``main``; configs that crashed the gate run in child
processes, so that a parser that crashes again cannot end the suite. ``model_error_drift_sup`` takes its norms in one
stacked call and must equal the per-sample loop it replaced (``tests/oracles.py``)
bit for bit. That loop subtracts arrays, so it reads the scenario through
:func:`array_drifts`; the drifts themselves return tuples of floats.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from pssf import kfun
from pssf.config import DEFAULT_CONFIG, ConfigError, load_config
from pssf.cli import main
from pssf.dynamics import SegwayParams
from pssf.learning import FeatureMap
from pssf.scenario import build_scenario, model_error_drift_sup

from oracles import model_error_drift_sup_reference

REPO_ROOT = Path(__file__).resolve().parents[1]


def array_drifts(scn):
    """``scn`` as ``model_error_drift_sup_reference`` reads it: its drifts' tuples as arrays, which subtract."""
    def as_array(drift):
        return lambda x: np.array(drift(x))

    return SimpleNamespace(seed=scn.seed, cfg=scn.cfg, true_system=SimpleNamespace(drift=as_array(scn.true_system.drift)),
                           nominal_system=SimpleNamespace(drift=as_array(scn.nominal_system.drift)))

DEEP = 100_000
_LINEAR = "{family: linear, k: 1.0}"
_NESTING = "config error: nesting deeper than 100 levels in "
_ALIAS = "config error: a YAML anchor or alias at line 1 of "
# Configs that crashed the gate, each with the start of its config error: 100 000 levels of a list, a flow mapping
# and a compact block list overflowed libyaml's composer (exit 139), an alpha of 1000 compositions overflowed
# Python's recursion limit, and an alpha whose outer or inner part is an alias of itself recursed without end.
CRASH_CASES = {
    "deep_list": ("run: {duration: 0.05, x0: " + "[" * DEEP + "0.0" + "]" * DEEP + "}", _NESTING),
    "deep_flow_mapping": ("{a: " * DEEP + "1" + "}" * DEEP, _NESTING),
    "deep_block_list": ("- " * DEEP + "1", _NESTING),
    "alpha_1000_compositions": ("barrier: {alpha: " + "{family: composition, outer: " * 1000 + _LINEAR
                                + f", inner: {_LINEAR}}}" * 1000 + "}", _NESTING),
    "alpha_outer_alias_of_itself": (f"barrier: {{alpha: &a {{family: composition, outer: *a, inner: {_LINEAR}}}}}",
                                    _ALIAS),
    "alpha_inner_alias_of_itself": (f"barrier: {{alpha: &a {{family: composition, outer: {_LINEAR}, inner: *a}}}}",
                                    _ALIAS),
}
# Every exit-code case of the console script, by name: the command, the YAML, the exit code, and the start of the
# config error that build_scenario(load_config(path)) gives (None: it builds a scenario; see _OUTCOMES for a parse
# error). The path is pinned and the message is not, so a change of validator cannot move a path silently.
CI_CASES = {
    "ok": ("simulate", "run: {duration: 0.2}", 0, None),
    # The rollout blows up on its first step (early termination).
    "blowup": ("simulate", "run: {x0: [0, 0, 0, 1.0e+9], duration: 0.01}", 3, None),
    # Far outside the set a power alpha of p = 200 rounds to -inf, so the clamp holds |u| at u_max; the
    # certificate's precondition h(x0) >= floor fails.
    "power_alpha_precondition": ("simulate", "{run: {duration: 0.05, x0: [0.0, 0.0, 3.0, 0.0]}, "
                                 "barrier: {alpha: {family: power, c: 1.0, p: 200.0}}}", 4, None),
    "duration_inf": ("simulate", "run: {duration: .inf}", 2, "config error at run.duration: "),
    # Tabulated is no family, so 'breakpoints' is a key no family has.
    "alpha_table_inf": ("simulate", "barrier: {alpha: {family: tabulated, breakpoints: [[-1, -1], [0, 0], [.inf, 1]]}}",
                        2, "config error at barrier.alpha: "),
    "alpha_inverse_overflows": ("simulate", "barrier: {alpha: {family: linear, k: 1.0e-320}}", 2,
                                "config error at barrier.alpha: "),
    "key_gone": ("simulate", "controller: {excitation: {amplitude: 1.0}}", 2, "config error at controller: "),
    "alpha_table": ("simulate", "barrier: {alpha: {family: tabulated, breakpoints: [[0, 0], [1, 1]]}}", 2,
                    "config error at barrier.alpha: "),
    "alpha_family_unknown": ("simulate", "barrier: {alpha: {family: exp, k: 1.0}}", 2,
                             "config error at barrier.alpha.family: "),
    "alpha_k_string": ("simulate", 'barrier: {alpha: {family: linear, k: "2"}}', 2,
                       "config error at barrier.alpha.k: "),
    "polynomial_with_count": ("simulate", "learning: {features: {kind: polynomial, max_degree: 2, count: 5}}", 2,
                              "config error at learning.features: "),
    "feature_kind_unknown": ("simulate", "learning: {features: {kind: bogus}}", 2,
                             "config error at learning.features.kind: "),
    "duration_fractional_steps": ("simulate", "run: {duration: 0.0105}", 2, "config error at run.duration: "),
    "duration_below_one_step": ("simulate", "run: {duration: 1.0e-15}", 2, "config error at run.duration: "),
    "singular_mass_matrix": ("simulate", "system: {body_mass: 1.0e-6, wheel_mass: 1.0e-6, body_inertia: 1.0e-6}", 2,
                             "config error at system: "),
    "seed_float": ("simulate", "run: {seed: 0.0}", 2, "config error at run.seed: "),
    "dt_subnormal": ("simulate", "run: {dt: 1.0e-320}", 2, "config error at run.duration: "),
    "yaml_malformed": ("simulate", "run: {duration: [1, 2}", 2, "cannot parse"),
    # learn rolls out episode_duration, which must be a whole number of steps too (load_config alone accepts it).
    "episode_fractional_steps": ("learn", "run: {duration: 0.02}\nlearning: {episodes: 1, episode_duration: 0.0105}",
                                 2, None),
    # A bandwidth so small that the weights normal / bandwidth overflow, or (seed 1 at 1e-308) that W z can.
    "bandwidth_subnormal": ("learn", "run: {duration: 0.05}\nlearning: {episodes: 1, episode_duration: 0.05, "
                            "features: {kind: random_fourier, count: 5, bandwidth: 1.0e-320}}", 2,
                            "config error at learning.features: "),
    "bandwidth_tiny_finite_weights": ("learn", "run: {duration: 0.05}\nlearning: {episodes: 1, episode_duration: 0.05, "
                                      "features: {kind: random_fourier, count: 5, bandwidth: 1.0e-308, seed: 1}}", 2,
                                      "config error at learning.features: "),
    **{name: ("simulate", text, 2, pinned) for name, (text, pinned) in CRASH_CASES.items()},
}
# Six nine-way alias levels in 391 bytes: 9^6 numbers once expanded, which took the walker 0.5 s and 60 MB.
ALIAS_LEVELS = ("l0: &l0 [" + ", ".join(["1"] * 9) + "]\n"
                + "".join(f"l{i}: &l{i} [" + ", ".join([f"*l{i - 1}"] * 9) + "]\n" for i in range(1, 7))
                + "run: {x0: [*l6, 0.0, 0.0, 0.0]}")
MALFORMED_YAML = "run: {duration: [1, 2}\n"


CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))}
# The outcome of build_scenario(load_config(path)) on each path in argv[1:], as JSON: the resolved config, or the
# config error's message (a parse error only as its prefix).
_OUTCOMES = """
import json, sys
from pssf.config import ConfigError, load_config
from pssf.scenario import build_scenario
def outcome(path):
    try:
        return build_scenario(load_config(path)).cfg
    except ConfigError as exc:
        message = str(exc)
        return "cannot parse" if message.startswith(f"config error: cannot parse {path}: ") else message
print(json.dumps([outcome(path) for path in sys.argv[1:]]))
"""
_PSSF = "import sys; from pssf.cli import main; sys.exit(main(sys.argv[1:]))"


def _child(loader, code, *args):
    """Run ``code`` on ``args`` in a child process with the given loader, so that a crash of the parser cannot end the
    suite; the pure-Python loader is the one load_config picks once CSafeLoader is gone."""
    prelude = 'import yaml; vars(yaml).pop("CSafeLoader", None)\n' if loader == "pure_python" else ""
    return subprocess.run([sys.executable, "-c", prelude + code, *map(str, args)], env=CHILD_ENV, capture_output=True,
                          text=True, timeout=600)


def _outcomes(paths, loader):
    """Each path's outcome, as ``_OUTCOMES`` gives it."""
    result = _child(loader, _OUTCOMES, *paths)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.fixture(params=["libyaml", "pure_python"])
def loader(request, monkeypatch):
    """Run the test with the loader load_config picks: libyaml's, or the fallback once CSafeLoader is gone."""
    if request.param == "pure_python":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    return request.param


def test_load_config_picks_libyaml_if_present(monkeypatch):
    expected = [getattr(yaml, "CSafeLoader", yaml.SafeLoader), yaml.SafeLoader]
    used = []
    real_load = yaml.load
    monkeypatch.setattr(yaml, "load", lambda stream, Loader: used.append(Loader) or real_load(stream, Loader=Loader))
    load_config(REPO_ROOT / "configs" / "benchmark.yaml")
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    load_config(REPO_ROOT / "configs" / "benchmark.yaml")
    assert used == expected


def test_loaders_give_equal_configs(tmp_path):
    paths = [REPO_ROOT / "configs" / "benchmark.yaml"]
    for i, (_, text, _, _) in enumerate(CI_CASES.values()):
        paths.append(tmp_path / f"case{i}.yaml")
        paths[-1].write_text(text + "\n")
    with_libyaml = _outcomes(paths, "libyaml")
    fallback = _outcomes(paths, "pure_python")
    assert with_libyaml == fallback
    assert with_libyaml[0] == DEFAULT_CONFIG
    # Valid: the benchmark, the cases that exit 0, 3 and 4, and the fractional episode, which only learn checks.
    assert sum(isinstance(o, dict) for o in with_libyaml) == 5
    assert with_libyaml.count("cannot parse") == 1
    for (_, text, _, pinned), outcome in zip(CI_CASES.values(), with_libyaml[1:]):
        if pinned is None:
            assert isinstance(outcome, dict), (text, outcome)
        else:
            assert isinstance(outcome, str) and outcome.startswith(pinned), (text, outcome)


@pytest.mark.parametrize("case", [name for name in CI_CASES if name not in CRASH_CASES])
def test_exit_code(tmp_path, capsys, case):
    """Each case's command exits with its code, a config error named exactly once (crash cases run in children)."""
    command, text, code, _ = CI_CASES[case]
    path = tmp_path / "case.yaml"
    path.write_text(text + "\n")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.count("config error") == (1 if code == 2 else 0)


@pytest.mark.parametrize("case", CRASH_CASES)
def test_deep_or_self_referencing_config_exit_code(tmp_path, case, loader):
    text, message = CRASH_CASES[case]
    path = tmp_path / "case.yaml"
    path.write_text(text + "\n")
    result = _child(loader, _PSSF, "simulate", "--config", path, "--out", tmp_path / "out")
    assert result.returncode == 2, result.stderr[-2000:]
    assert result.stderr.count("config error") == 1 and result.stderr.startswith(message)
    assert not (tmp_path / "out").exists()


def test_alias_levels_rejected_before_expanding(tmp_path, loader):
    """A config is a plain tree: the alias file is a config error from its first anchor, never expanded or walked."""
    path = tmp_path / "aliases.yaml"
    path.write_text(ALIAS_LEVELS)
    assert path.stat().st_size == 391
    with pytest.raises(ConfigError, match=f"^{_ALIAS}"):
        load_config(path)


def test_build_scenario_builds_each_object_once(monkeypatch):
    """One set-up builds the plant and design parameters, alpha and the unit feature map once each, and checks them
    there; load_config builds none of them."""
    counts = Counter()

    def count(owner, name, key):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(SegwayParams, "__post_init__", "SegwayParams")
    count(kfun, "from_config", "alpha")
    count(FeatureMap, "__init__", "FeatureMap")
    cfg = load_config(REPO_ROOT / "configs" / "benchmark.yaml")
    assert counts == {}
    build_scenario(cfg)
    assert counts == {"SegwayParams": 2, "alpha": 1, "FeatureMap": 1}


# Maps whose fit stack is far past FIT_STACK_BYTES: about 1.7e17 monomials, 3e9 normals (24 GB), 12 341 features,
# whose stack over the default 5 episodes of 10 s at dt = 1e-3 would take 14.7 GB (8.0 MB for the benchmark's map),
# and a count of monomials with ten million digits, which took 50 s to count exactly.
@pytest.mark.parametrize("features", [{"kind": "polynomial", "max_degree": 1_000_000, "indices": [1, 2, 3]},
                                      {"kind": "random_fourier", "count": 1_000_000_000, "bandwidth": 1.0,
                                       "indices": [1, 2, 3]},
                                      {"kind": "polynomial", "max_degree": 40, "indices": [1, 2, 3]},
                                      {"kind": "polynomial", "max_degree": 10 ** 1000, "indices": [1] * 10_000}],
                         ids=["max_degree_1e6", "count_1e9", "max_degree_40", "max_degree_1e1000_of_10000_indices"])
def test_fit_size_bounded_before_any_map(tmp_path, capsys, monkeypatch, features):
    def no_map(*args):
        raise AssertionError("a feature map was built")
    monkeypatch.setattr(FeatureMap, "__init__", no_map)
    with pytest.raises(ConfigError, match=r"^config error at learning\.features: .* needs a stack of more than"):
        build_scenario({"learning": {"features": features}})
    path = tmp_path / "case.yaml"
    path.write_text(yaml.safe_dump({"learning": {"features": features}}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.count("config error") == 1


def test_deep_model_exit_code(tmp_path):
    """A ridge_lambda nested 100 000 lists deep, past what json's decoder recurses into, is a config error."""
    model = json.loads((REPO_ROOT / "perfbench" / "inputs" / "model_seed0.json").read_text())
    model["ridge_lambda"] = "DEEP"
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model).replace(json.dumps("DEEP"), "[" * DEEP + "1.0" + "]" * DEEP))
    config = tmp_path / "short_run.yaml"
    config.write_text("run: {duration: 0.05}\n")
    result = _child("libyaml", _PSSF, "simulate", "--config", config, "--model", model_path, "--out", tmp_path / "out")
    assert result.returncode == 2, result.stderr[-2000:]
    assert result.stderr.count("config error") == 1 and f"cannot load model {model_path}" in result.stderr


def test_cli_import_leaves_out_jsonschema():
    """The config gate needs no jsonschema, which would cost every process its import: a fresh one does not load it."""
    code = "import sys, pssf.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'jsonschema'))"
    result = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_malformed_yaml_exit_code(tmp_path, capsys, loader):
    path = tmp_path / "broken.yaml"
    path.write_text(MALFORMED_YAML)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("config error") == 1 and "cannot parse" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("perturbation", [{"scale": {}, "drop_friction": False}, None],
                         ids=["design_equals_plant", "benchmark_perturbation"])
def test_model_error_drift_sup_matches_reference(perturbation):
    """40 seeds: the stacked norms equal the per-sample loop bit for bit; no samples give the loop's start, 0.0."""
    system = {} if perturbation is None else {"system": {"perturbation": perturbation}}
    for seed in range(40):
        scn = build_scenario({**system, "run": {"seed": seed}})
        for samples in (0, 1, 7, 1000):
            new = model_error_drift_sup(scn, samples)
            assert type(new) is float
            reference = model_error_drift_sup_reference(array_drifts(scn), samples)
            assert np.float64(new).tobytes() == np.float64(reference).tobytes()
        assert model_error_drift_sup(scn, 0) == 0.0
        assert (model_error_drift_sup(scn, 7) > 0.0) == (perturbation is None)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_model_error_drift_sup_non_finite_rows(bad):
    """A NaN norm is skipped and an infinite one is the sup, as in the loop; seen through stand-in drifts.

    The stand-ins take a sample as a list (``model_error_drift_sup``) or as an array (the reference) and return arrays.
    """
    def drift(x):
        return np.array([x[0], bad if x[1] > 1.5 else x[1], x[2], x[3]])

    scn = SimpleNamespace(seed=3, cfg={"barrier": {"pitch_max": 0.3, "pitch_rate_max": 1.0}},
                          true_system=SimpleNamespace(drift=drift), nominal_system=SimpleNamespace(drift=lambda x: np.multiply(0.5, x)))
    for samples in (1, 7, 1000):
        new, ref = model_error_drift_sup(scn, samples), model_error_drift_sup_reference(scn, samples)
        assert np.float64(new).tobytes() == np.float64(ref).tobytes()
    assert (0.0 < new < np.inf) if np.isnan(bad) else (new == np.inf)


def test_model_error_drift_sup_benchmark_value():
    scn = build_scenario(load_config(REPO_ROOT / "configs" / "benchmark.yaml"))
    assert model_error_drift_sup(scn) == 2.7227515385429717
