"""The benchmark's workloads: generated inputs, set-up, one operation, checks.

Each workload drives the public ``pssf`` API the way a user does:

* ``simulate_learned``: one ``simulate_artifacts`` call on
  ``configs/benchmark.yaml`` with the committed residual model, as
  ``pssf simulate --model`` makes it. Two 10k-step rollouts, two delta traces,
  two certificates, eight artifacts.
* ``learn``: one ``learn_artifacts`` call on ``configs/benchmark.yaml``, as
  ``pssf learn`` makes it. Eleven 10k-step rollouts and five ridge fits.
* ``ic_grid``: a grid of 2 s rollouts from seeded initial conditions inside
  the 0.6-scaled safety ellipse, with the design model equal to the plant,
  so every rollout must keep h >= -1e-6.

Operations only compute; ``check`` reads their outputs afterwards, outside
the timed region, and lists the problems it finds.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from pssf import barrier, config, dynamics, ioutil, learning, scenario

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = ROOT / "configs" / "benchmark.yaml"
MODEL = HERE / "inputs" / "model_seed0.json"
PROVENANCE = HERE / "inputs" / "model_seed0.provenance.json"
REFERENCE = HERE / "inputs" / "reference.json"

NAMES = ("simulate_learned", "learn", "ic_grid")

GRID_SIZE = 16
SMOKE_GRID_SIZE = 2
SMOKE_DURATION = 0.2
# Same tolerance as verify_certificate and acceptance criterion 1.
H_TOL = 1e-6

MODES = ("no_learning", "learned")


@dataclass
class Inputs:
    """What the benchmark generates from its seed; the program sees only this."""

    workload: str
    seed: int
    smoke: bool
    config_path: Path
    initial_conditions: Optional[np.ndarray] = None


@dataclass
class State:
    """Products of set-up that an operation consumes."""

    cfg: dict
    scn: scenario.Scenario
    model: Optional[learning.ResidualModel] = None
    initial_conditions: Optional[np.ndarray] = None
    timings: dict = field(default_factory=dict)


def _set(cfg: dict, dotted: str, value) -> None:
    node = cfg
    keys = dotted.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value


def _draw_initial_conditions(rng: np.random.Generator, count: int, pitch_max: float,
                             rate_max: float) -> np.ndarray:
    """Uniform over the 0.6-scaled (pitch, rate) ellipse, velocity in [-0.5, 0.5]."""
    ics = np.zeros((count, 4))
    for i in range(count):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        radius = 0.6 * np.sqrt(rng.uniform())
        ics[i] = [0.0, rng.uniform(-0.5, 0.5),
                  radius * np.cos(angle) * pitch_max, radius * np.sin(angle) * rate_max]
    return ics


def generate_inputs(workload: str, seed: int, work_dir: Path, smoke: bool = False) -> Inputs:
    """Write the workload's config (benchmark.yaml plus seed and size) into work_dir."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    with open(CONFIG) as fh:
        cfg = yaml.safe_load(fh)
    _set(cfg, "run.seed", seed)
    ics = None
    if workload == "ic_grid":
        # Criterion-1 setting: the design model is the plant.
        _set(cfg, "system.perturbation", {"scale": {}, "drop_friction": False})
        _set(cfg, "run.duration", 2.0)
        rng = np.random.default_rng(seed)
        ics = _draw_initial_conditions(rng, SMOKE_GRID_SIZE if smoke else GRID_SIZE,
                                       cfg["barrier"]["pitch_max"], cfg["barrier"]["pitch_rate_max"])
    if smoke:
        _set(cfg, "run.duration", SMOKE_DURATION)
        if workload == "learn":
            _set(cfg, "learning.episodes", 2)
            _set(cfg, "learning.episode_duration", SMOKE_DURATION)
    work_dir.mkdir(parents=True, exist_ok=True)
    path = work_dir / f"{workload}{'_smoke' if smoke else ''}.yaml"
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)
    return Inputs(workload, seed, smoke, path, ics)


def verify_model_file() -> None:
    """The committed model must be the file its provenance record describes."""
    expected = ioutil.read_json(PROVENANCE)["sha256"]
    actual = hashlib.sha256(MODEL.read_bytes()).hexdigest()
    if actual != expected:
        raise RuntimeError(f"{MODEL.name} sha256 {actual} differs from provenance {expected}")


def setup(inputs: Inputs) -> State:
    """Load and validate the config, build the scenario, load the inputs."""
    start = time.perf_counter()
    cfg = config.load_config(inputs.config_path)
    t_config = time.perf_counter()
    scn = scenario.build_scenario(cfg)
    t_build = time.perf_counter()
    scenario.model_error_drift_sup(scn)
    t_sup = time.perf_counter()
    state = State(cfg=cfg, scn=scn)
    if inputs.workload == "simulate_learned":
        state.model = learning.ResidualModel.load(MODEL)
    elif inputs.workload == "ic_grid":
        ics = np.array(inputs.initial_conditions, dtype=float)
        if min(scn.barrier.h(x0) for x0 in ics) < 0.0:
            raise ValueError("an initial condition lies outside the safe set")
        state.initial_conditions = ics
    t_end = time.perf_counter()
    state.timings = {
        "config.load_validate.s": t_config - start,
        "scenario.build_scenario.s": t_build - t_config,
        "scenario.model_error_drift_sup.s": t_sup - t_build,
        "setup_s": t_end - start,
    }
    return state


def operation(workload: str, state: State, out_dir: Path):
    """The timed work. Returns what ``check`` needs."""
    if workload == "simulate_learned":
        return scenario.simulate_artifacts(state.cfg, out_dir, model=state.model)
    if workload == "learn":
        return scenario.learn_artifacts(state.cfg, out_dir)
    scn = state.scn
    trajectories = []
    for x0 in state.initial_conditions:
        controller = barrier.FilteredController(scn.barrier, scn.nominal_system, scn.desired,
                                                u_limit=scn.u_limit)
        trajectories.append(dynamics.simulate(scn.true_system, controller, x0, scn.duration, scn.dt))
    return trajectories


def nominal_steps(workload: str, state: State) -> int:
    """Closed-loop RK4 steps one operation's task entails."""
    cfg = state.cfg
    rollout = int(round(cfg["run"]["duration"] / cfg["run"]["dt"]))
    if workload == "simulate_learned":
        return len(MODES) * rollout
    if workload == "learn":
        episodes = cfg["learning"]["episodes"]
        episode = int(round(cfg["learning"]["episode_duration"] / cfg["run"]["dt"]))
        # One no-learning validation, then per episode a collection and a validation.
        return rollout + episodes * (episode + rollout)
    return len(state.initial_conditions) * rollout


def _close(a: float, b: float, rel_tol: float) -> bool:
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=rel_tol)


def _check_artifacts(out: Path, names: list, cfg: dict, summary_name: str, summary: dict) -> list:
    """Every artifact exists; the resolved config and the summary read back as returned."""
    missing = [name for name in names if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts: {missing}"]
    problems = []
    with open(out / "resolved_config.yaml") as fh:
        if yaml.safe_load(fh) != cfg:
            problems.append("resolved_config.yaml differs from the input config")
    if ioutil.read_json(out / summary_name) != summary:
        problems.append(f"{summary_name} differs from the returned summary")
    return problems


def _check_simulate(state: State, summary: dict, out: Path, smoke: bool) -> list:
    names = ["resolved_config.yaml", "summary.json"] + [
        f"{kind}_{mode}.{ext}" for mode in MODES
        for kind, ext in (("trajectory", "csv"), ("delta", "csv"), ("certificate", "json"))
    ]
    problems = _check_artifacts(out, names, state.cfg, "summary.json", summary)
    if problems:
        return problems
    rollout = int(round(state.scn.duration / state.scn.dt))
    for mode in MODES:
        entry = summary[mode]
        if entry is None:
            problems.append(f"{mode}: no summary")
            continue
        if entry["terminated_early"]:
            problems.append(f"{mode}: terminated early ({entry['termination_reason']})")
        _, traj_rows = ioutil.read_csv(out / f"trajectory_{mode}.csv")
        if len(traj_rows) != rollout + 1:
            problems.append(f"{mode}: trajectory has {len(traj_rows)} rows, expected {rollout + 1}")
        _, delta_rows = ioutil.read_csv(out / f"delta_{mode}.csv")
        max_abs_delta = max(float(row[1]) for row in delta_rows)
        if max_abs_delta != entry["delta_bar"]:
            problems.append(f"{mode}: delta_bar {entry['delta_bar']!r} is not the delta CSV max "
                            f"{max_abs_delta!r}")
        status = "pass" if entry["min_h"] - entry["floor"] >= -H_TOL else "fail"
        if entry["status"] != status or entry["pass"] != (status == "pass"):
            problems.append(f"{mode}: status {entry['status']!r} (pass={entry['pass']}) disagrees "
                            f"with min_h {entry['min_h']!r} and floor {entry['floor']!r}")
        cert = ioutil.read_json(out / f"certificate_{mode}.json")
        if any(cert[key] != entry[key] for key in ("delta_bar", "floor", "min_h", "pass")):
            problems.append(f"{mode}: certificate JSON disagrees with summary.json")
    if not smoke:
        ref = ioutil.read_json(REFERENCE)
        for key, value in ref["no_learning"].items():
            got = summary["no_learning"][key]
            if not _close(got, value, ref["rel_tol"]):
                problems.append(f"no_learning {key} {got!r} differs from reference {value!r}")
    return problems


def _check_learn(state: State, summary: dict, out: Path, smoke: bool) -> list:
    names = ["resolved_config.yaml", "model.json", "episodes.csv", "learn_summary.json"]
    problems = _check_artifacts(out, names, state.cfg, "learn_summary.json", summary)
    if problems:
        return problems
    learning.ResidualModel.load(out / "model.json")
    _, rows = ioutil.read_csv(out / "episodes.csv")
    episodes = state.cfg["learning"]["episodes"]
    if len(rows) != episodes:
        problems.append(f"episodes.csv has {len(rows)} rows, expected {episodes}")
    if summary["excluded_episodes"]:
        problems.append(f"{summary['excluded_episodes']} episodes terminated early")
    elif float(rows[-1][2]) != summary["final_validation_delta_bar"]:
        problems.append("last episodes.csv row disagrees with final_validation_delta_bar")
    if smoke:  # episodes of a smoke run are too short to learn from
        return problems
    if not summary["final_validation_delta_bar"] < summary["no_learning_delta_bar"]:
        problems.append(f"learning did not reduce delta_bar (criterion 3): final "
                        f"{summary['final_validation_delta_bar']!r} >= no-learning "
                        f"{summary['no_learning_delta_bar']!r}")
    # The no-learning validation rollout is simulate's no-learning mode.
    ref = ioutil.read_json(REFERENCE)
    value = ref["no_learning"]["delta_bar"]
    if not _close(summary["no_learning_delta_bar"], value, ref["rel_tol"]):
        problems.append(f"no_learning_delta_bar {summary['no_learning_delta_bar']!r} differs "
                        f"from reference {value!r}")
    return problems


def _check_grid(state: State, trajectories: list) -> list:
    problems = []
    rollout = int(round(state.scn.duration / state.scn.dt))
    if len(trajectories) != len(state.initial_conditions):
        return [f"{len(trajectories)} rollouts for {len(state.initial_conditions)} initial conditions"]
    for i, traj in enumerate(trajectories):
        if traj.terminated_early:
            problems.append(f"rollout {i}: terminated early ({traj.termination_reason})")
        elif len(traj.inputs) != rollout:
            problems.append(f"rollout {i}: {len(traj.inputs)} steps, expected {rollout}")
        min_h = float(min(state.scn.barrier.h(x) for x in traj.states))
        if min_h < -H_TOL:
            problems.append(f"rollout {i}: min h {min_h!r} < {-H_TOL}")
    return problems


def check(inputs: Inputs, state: State, result, out_dir: Path) -> list:
    """Problems found in one operation's outputs; empty when they are correct."""
    if inputs.workload == "simulate_learned":
        return _check_simulate(state, result, out_dir, inputs.smoke)
    if inputs.workload == "learn":
        return _check_learn(state, result, out_dir, inputs.smoke)
    return _check_grid(state, result)
