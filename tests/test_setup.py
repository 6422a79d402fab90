"""Set-up of every run: the config loader and the sampled drift-error sup, against their earlier forms.

``load_config`` parses with libyaml where PyYAML has it and with the pure-Python
loader otherwise; both must give the same resolved config and the same config
errors, each at its pinned path. Configs that crashed the gate run in child
processes, so that a parser that crashes again cannot end the suite. ``model_error_drift_sup`` takes its norms in one
stacked call and must equal the per-sample loop it replaced (``tests/oracles.py``)
bit for bit. That loop subtracts arrays, so it reads the scenario through
:func:`array_drifts`; the drifts themselves return tuples of floats.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from pssf.config import DEFAULT_CONFIG, load_config
from pssf.cli import main
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
# Configs that crashed the gate: 100 000 levels of a list, a flow mapping and a compact block list overflowed
# libyaml's composer (exit 139), an alpha of 1000 compositions overflowed Python's recursion limit, and an alpha
# whose outer or inner part is an alias of itself recursed without end. Each is a config error now.
CRASH_CASES = {
    "deep_list": "run: {duration: 0.05, x0: " + "[" * DEEP + "0.0" + "]" * DEEP + "}",
    "deep_flow_mapping": "{a: " * DEEP + "1" + "}" * DEEP,
    "deep_block_list": "- " * DEEP + "1",
    "alpha_1000_compositions": ("barrier: {alpha: " + "{family: composition, outer: " * 1000 + _LINEAR
                                + f", inner: {_LINEAR}}}" * 1000 + "}"),
    "alpha_outer_alias_of_itself": f"barrier: {{alpha: &a {{family: composition, outer: *a, inner: {_LINEAR}}}}}",
    "alpha_inner_alias_of_itself": f"barrier: {{alpha: &a {{family: composition, outer: {_LINEAR}, inner: *a}}}}",
}
# The YAML of every case in CI's console-script exit-code step, the malformed one included, each with the
# start of the config error that load_config gives (None: the config is valid; see _OUTCOMES for a parse
# error). The path is pinned and the message is not, so a change of validator cannot move a path silently.
CI_CASES = [
    ("run: {duration: 0.2}", None),
    ("run: {x0: [0, 0, 0, 1.0e+9], duration: 0.01}", None),
    ("{run: {duration: 0.05, x0: [0.0, 0.0, 3.0, 0.0]}, barrier: {alpha: {family: power, c: 1.0, p: 200.0}}}", None),
    ("run: {duration: .inf}", "config error at run.duration: "),
    ("barrier: {alpha: {family: tabulated, breakpoints: [[-1, -1], [0, 0], [.inf, 1]]}}",
     "config error at barrier.alpha: "),
    ("barrier: {alpha: {family: linear, k: 1.0e-320}}", "config error at barrier.alpha: "),
    ("controller: {excitation: {amplitude: 1.0}}", "config error at controller: "),
    ("barrier: {alpha: {family: tabulated, breakpoints: [[0, 0], [1, 1]]}}", "config error at barrier.alpha: "),
    ('barrier: {alpha: {family: linear, k: "2"}}', "config error at barrier.alpha.k: "),
    ("learning: {features: {kind: polynomial, max_degree: 2, count: 5}}", "config error at learning.features: "),
    ("run: {duration: 0.0105}", "config error at run.duration: "),
    ("run: {duration: 1.0e-15}", "config error at run.duration: "),
    ("system: {body_mass: 1.0e-6, wheel_mass: 1.0e-6, body_inertia: 1.0e-6}", "config error at system: "),
    ("run: {seed: 0.0}", "config error at run.seed: "),
    ("run: {dt: 1.0e-320}", "config error at run.duration: "),
    ("run: {duration: [1, 2}", "cannot parse"),
    ("run: {duration: 0.02}\nlearning: {episodes: 1, episode_duration: 0.0105}", None),
    ("run: {duration: 0.05}\nlearning: {episodes: 1, episode_duration: 0.05, "
     "features: {kind: random_fourier, count: 5, bandwidth: 1.0e-320}}", "config error at learning.features: "),
    ("run: {duration: 0.05}\nlearning: {episodes: 1, episode_duration: 0.05, "
     "features: {kind: random_fourier, count: 5, bandwidth: 1.0e-308, seed: 1}}", "config error at learning.features: "),
    *((text, "config error: nesting deeper than 100 levels in ") for text in CRASH_CASES.values()),
]
MALFORMED_YAML = "run: {duration: [1, 2}\n"


CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))}
# load_config's outcome on each path in argv[1:], as JSON: the resolved config, or the config error's message (a
# parse error only as its prefix).
_OUTCOMES = """
import json, sys
from pssf.config import ConfigError, load_config
def outcome(path):
    try:
        return load_config(path)
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
    for i, (text, _) in enumerate(CI_CASES):
        paths.append(tmp_path / f"case{i}.yaml")
        paths[-1].write_text(text + "\n")
    with_libyaml = _outcomes(paths, "libyaml")
    fallback = _outcomes(paths, "pure_python")
    assert with_libyaml == fallback
    assert with_libyaml[0] == DEFAULT_CONFIG
    # Valid: the benchmark, the cases that exit 0, 3 and 4, and the fractional episode, which only learn checks.
    assert sum(isinstance(o, dict) for o in with_libyaml) == 5
    assert with_libyaml.count("cannot parse") == 1
    for (text, pinned), outcome in zip(CI_CASES, with_libyaml[1:]):
        if pinned is None:
            assert isinstance(outcome, dict), (text, outcome)
        else:
            assert isinstance(outcome, str) and outcome.startswith(pinned), (text, outcome)


@pytest.mark.parametrize("case", CRASH_CASES)
def test_deep_or_self_referencing_config_exit_code(tmp_path, case, loader):
    path = tmp_path / "case.yaml"
    path.write_text(CRASH_CASES[case] + "\n")
    result = _child(loader, _PSSF, "simulate", "--config", path, "--out", tmp_path / "out")
    assert result.returncode == 2, result.stderr[-2000:]
    assert result.stderr.count("config error") == 1 and "nesting deeper than 100 levels" in result.stderr
    assert not (tmp_path / "out").exists()


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
