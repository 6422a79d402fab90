"""Benchmark scenario assembly and the config-driven run pipeline.

Everything here is glue: turn a resolved config into systems, barrier,
controller, and learning setup, run the closed loop with and without a
learned model, and emit the CSV/JSON artifacts that the CLI promises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import kfun
from .barrier import BarrierFunction, FilteredController
from .certify import (
    DeltaTrace,
    closed_loop_delta_trace,
    delta_bound,
    make_certificate,
    verify_certificate,
)
from .config import ConfigError, check_steps, errors_at, save_config, set_by_path, system_params, validate_config
from .dynamics import ControlAffineSystem, Trajectory, segway_true, simulate
from .ioutil import write_csv, write_json
from .learning import POLYNOMIAL, FeatureMap, ResidualModel, episodic_train


def ellipse_pitch_barrier(pitch_max: float, rate_max: float, alpha) -> BarrierFunction:
    """h(x) = 1 - (pitch/pitch_max)^2 - (rate/rate_max)^2 on the Segway state."""
    inv_p2 = 1.0 / (pitch_max * pitch_max)
    inv_r2 = 1.0 / (rate_max * rate_max)

    def h(x):
        _, _, pitch, rate = x
        return 1.0 - pitch * pitch * inv_p2 - rate * rate * inv_r2

    def grad_h(x):
        _, _, pitch, rate = x
        return 0.0, 0.0, -2.0 * pitch * inv_p2, -2.0 * rate * inv_r2

    return BarrierFunction(h=h, grad_h=grad_h, alpha=alpha)


def pd_pitch_controller(kp: float, kd: float, amplitude: float, frequency: float) -> Callable:
    """PD tracking of the pitch reference amplitude*sin(2 pi f t).

    Positive gains: wheel torque enters the pitch acceleration with negative
    sign, so u = kp (pitch - ref) + kd (rate - ref_rate) drives the pitch
    toward the reference.
    """
    omega = 2.0 * math.pi * frequency

    def controller(x, t):
        ref = amplitude * math.sin(omega * t)
        ref_rate = amplitude * omega * math.cos(omega * t)
        _, _, pitch, rate = x
        return (kp * (pitch - ref) + kd * (rate - ref_rate),)

    return controller


@dataclass
class Scenario:
    """Config-built benchmark closed loop; ``simulate``, ``learn`` and ``sweep`` run every rollout through it.

    :meth:`rollout` runs the plant under the min-norm filter on the design
    model, and :meth:`delta_trace` evaluates delta along what it recorded.
    """

    cfg: dict
    true_system: ControlAffineSystem
    nominal_system: ControlAffineSystem
    barrier: BarrierFunction
    desired: Callable
    x0: np.ndarray
    duration: float
    dt: float
    seed: int
    u_limit: float

    def rollout(self, residual: Optional[ResidualModel] = None, desired: Optional[Callable] = None,
                x0: Optional[np.ndarray] = None,
                duration: Optional[float] = None) -> tuple[Trajectory, FilteredController]:
        """Filtered closed loop on the plant at ``self.dt``; None takes the scenario's desired, x0 or duration.

        The controller is fresh per call, so its infeasible and clamped counts cover this rollout only.
        """
        controller = FilteredController(self.barrier, self.nominal_system,
                                        self.desired if desired is None else desired,
                                        residual=residual, u_limit=self.u_limit)
        traj = simulate(self.true_system, controller, self.x0 if x0 is None else x0,
                        self.duration if duration is None else duration, self.dt)
        return traj, controller

    def delta_trace(self, traj: Trajectory, residual: Optional[ResidualModel] = None) -> DeltaTrace:
        """Projected disturbance along a recorded rollout, net of the residual's prediction if given."""
        return closed_loop_delta_trace(traj, self.barrier, self.true_system, self.nominal_system, residual=residual)


#: The largest ridge-fit stack, in bytes, that a config may ask ``learn`` for (the benchmark's is 8.0 MB).
FIT_STACK_BYTES = 2 ** 30


def build_scenario(cfg: dict) -> Scenario:
    """Resolve ``cfg`` by its rules and build each run object once, checked there (a builder's error is a config
    error at its key): whole steps, a plant and a design model, a representable alpha^-1 (every certificate needs
    one), a fit stack within ``FIT_STACK_BYTES`` and a unit feature map with finite W z. Holds the resolved cfg."""
    cfg = validate_config(cfg)
    run, learn = cfg["run"], cfg["learning"]
    check_steps(run["duration"], run["dt"], "run.duration")
    with errors_at("system"):
        params, design_params = system_params(cfg["system"])
    alpha = kfun.from_config(cfg["barrier"]["alpha"])
    with errors_at("barrier.alpha", "alpha^-1 is not representable: "):
        alpha.inverse()
    true_system = segway_true(params)
    features = learn["features"]
    n_sel = len(features.get("indices", run["x0"]))
    # The last fit's (rows + p) x p stack, p = dimension x (inputs + 1), rows = episodes x episode_duration / dt, in
    # exact integers from the spec; a degree past sqrt(budget / 8) is too large at any size, so it counts as that.
    degree = min(features.get("max_degree", 0), math.isqrt(FIT_STACK_BYTES // 8))
    p = (math.comb(n_sel + degree, n_sel) if features["kind"] == POLYNOMIAL
         else features["count"]) * (true_system.input_dim + 1)
    (a, b), (c, d) = learn["episode_duration"].as_integer_ratio(), run["dt"].as_integer_ratio()
    if (learn["episodes"] * a * d + p * b * c) * p * 8 > FIT_STACK_BYTES * b * c:  # rows = episodes a d / (b c)
        raise ConfigError(f"config error at learning.features: a fit over {learn['episodes']} episodes of "
                          f"{learn['episode_duration']} s needs a stack of more than {FIT_STACK_BYTES} bytes")
    with errors_at("learning.features"):
        FeatureMap(features, [0.0] * n_sel, [1.0] * n_sel)
    ctl = cfg["controller"]
    return Scenario(
        cfg=cfg,
        true_system=true_system,
        nominal_system=segway_true(design_params),
        barrier=ellipse_pitch_barrier(cfg["barrier"]["pitch_max"], cfg["barrier"]["pitch_rate_max"], alpha),
        desired=pd_pitch_controller(ctl["kp"], ctl["kd"], ctl["reference"]["amplitude"],
                                    ctl["reference"]["frequency"]),
        x0=np.asarray(run["x0"], dtype=float),
        duration=run["duration"],
        dt=run["dt"],
        seed=run["seed"],
        u_limit=ctl["u_max"],
    )


def model_error_drift_sup(scn: Scenario, samples: int = 1000) -> float:
    """Brute-force sup of ||f(x) - f_hat(x)|| over sampled scenario states.

    Recorded as scenario metadata so the raw size of the model error is
    visible next to its projected counterpart. Each norm is np.linalg.norm's
    sqrt(e.dot(e)): the stacked matmul of a row with itself calls the same
    BLAS dot per row. fmax from 0.0 skips a NaN norm, as max(worst, norm) did.
    """
    rng = np.random.default_rng(scn.seed)
    lows = np.array([-1.0, -2.0, -scn.cfg["barrier"]["pitch_max"], -scn.cfg["barrier"]["pitch_rate_max"]])
    states = rng.uniform(lows, -lows, size=(samples, 4))
    f, f_hat = np.empty_like(states), np.empty_like(states)
    for j, x in enumerate(states.tolist()):
        f[j], f_hat[j] = scn.true_system.drift(x), scn.nominal_system.drift(x)
    err = np.subtract(f, f_hat, out=f)
    return float(np.fmax.reduce(np.sqrt(np.matmul(err[:, None, :], err[:, :, None])), axis=None, initial=0.0))


MODES = ("no_learning", "learned")
CERTIFICATE_KEYS = ("delta_bar", "floor", "min_h", "pass")


def _mode_summary(scn: Scenario, residual: Optional[ResidualModel]) -> tuple[Trajectory, DeltaTrace, dict]:
    """Roll out one mode, compute its delta trace and certificate, verify; return what each artifact reads."""
    traj, controller = scn.rollout(residual)
    trace = scn.delta_trace(traj, residual)
    cert = make_certificate(scn.barrier.alpha, delta_bound(trace))
    report = verify_certificate(traj, scn.barrier, cert)
    return traj, trace, {
        **dict(zip(CERTIFICATE_KEYS, (cert.delta_bar, cert.floor, report.min_h, report.passed))),
        "status": report.status,
        "terminated_early": traj.terminated_early,
        "termination_reason": traj.termination_reason,
        "filter_infeasible_steps": controller.infeasible_count,
        "filter_clamped_steps": controller.clamped_count,
    }


def _check_model_fits(model: ResidualModel, system: ControlAffineSystem) -> None:
    """Config error unless W_a has one row per input and a map over every coordinate has one center entry per state.

    A map with indices has one center entry per index (``FeatureMap``), each a state of the 4 (``MODEL_FEATURES``)."""
    if len(model.W_a) != system.input_dim:
        raise ConfigError(f"config error: the model's W_a has {len(model.W_a)} rows, one per input, "
                          f"but the plant has {system.input_dim} inputs")
    if model.features.spec["indices"] is None and model.features.center.size != system.state_dim:
        raise ConfigError(f"config error: the model's features select all {system.state_dim} states with "
                          f"{model.features.center.size} center entries")


def simulate_artifacts(cfg: dict, out_dir, model: Optional[ResidualModel] = None) -> dict:
    """Run the scenario without (and, given a model, with) learned terms.

    Each mode's summary is built once, by ``_mode_summary``; its trajectory
    and delta CSVs, ``certificate_<mode>.json`` (``k`` plus the certificate
    keys) and its ``summary.json`` entry are written from it, with the
    resolved config, into out_dir. A mode that did not run is None in the
    returned summary dictionary.
    """
    scn = build_scenario(cfg)
    if model is not None:
        _check_model_fits(model, scn.true_system)
    out = Path(out_dir)

    results = {"no_learning": _mode_summary(scn, None)}
    if model is not None:
        results["learned"] = _mode_summary(scn, model)

    k = scn.barrier.alpha.k if isinstance(scn.barrier.alpha, kfun.Linear) else None
    save_config(scn.cfg, out / "resolved_config.yaml")
    for name, (traj, trace, entry) in results.items():
        traj.to_csv(out / f"trajectory_{name}.csv")
        trace.to_csv(out / f"delta_{name}.csv")
        write_json(out / f"certificate_{name}.json", {"k": k, **{key: entry[key] for key in CERTIFICATE_KEYS}})

    summary = {
        "duration": scn.duration,
        "dt": scn.dt,
        "seed": scn.seed,
        "k": k,
        "model_error_drift_sup": model_error_drift_sup(scn),
        **{mode: results[mode][2] if mode in results else None for mode in MODES},
    }
    write_json(out / "summary.json", summary)
    return summary


def learn_artifacts(cfg: dict, out_dir) -> dict:
    """Check episode_duration (only training rolls it out), run episodic training, write model.json and metrics."""
    scn = build_scenario(cfg)
    learn = scn.cfg["learning"]
    check_steps(learn["episode_duration"], scn.dt, "learning.episode_duration")
    model, history = episodic_train(scn)

    out = Path(out_dir)
    save_config(scn.cfg, out / "resolved_config.yaml")
    model.save(out / "model.json")
    history.to_csv(out / "episodes.csv")
    last = [r for r in history.records if not r.excluded][-1]
    summary = {
        "episodes": learn["episodes"],
        "excluded_episodes": sum(1 for r in history.records if r.excluded),
        "no_learning_delta_bar": history.no_learning_delta_bar,
        "final_validation_delta_bar": last.validation_delta_bar,
        "final_training_rms": model.training_rms,
    }
    write_json(out / "learn_summary.json", summary)
    return summary


_SWEEP_HEADER = ["value", *(f"{key}_{mode}" for mode in MODES for key in CERTIFICATE_KEYS), "status"]


def sweep_artifacts(cfg: dict, param: str, values, out_dir) -> list:
    """Run simulate_artifacts per parameter value; failures stay in-row.

    The learned columns stay blank: a sweep runs no learned mode.
    """
    out = Path(out_dir)
    base = build_scenario(cfg).cfg
    set_by_path(base, param, values[0])  # bad parameter paths are config errors, not row errors
    rows = []
    for i, value in enumerate(values):
        run_dir = out / f"run_{i:03d}"
        try:
            summary = simulate_artifacts(set_by_path(base, param, value), run_dir)
            row = [float(value), *(summary[mode][key] if summary[mode] else None
                                   for mode in MODES for key in CERTIFICATE_KEYS), "ok"]
        except Exception as exc:  # per-run failures recorded, sweep continues
            row = [float(value)] + [None] * (len(_SWEEP_HEADER) - 2) + [f"error: {type(exc).__name__}: {exc}"]
        rows.append(row)
    write_csv(out / "sweep.csv", _SWEEP_HEADER, rows)
    return rows
