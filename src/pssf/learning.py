"""Episodic learning of the residual terms in the barrier derivative.

Each episode rolls the true system out under the current safety-filtered
controller, builds finite-difference barrier-derivative targets from the
recorded (possibly noise-corrupted) states, and refits a ridge regression
for the correction terms b_hat(x) + a_hat(x)^T u. Data aggregates across
episodes; the refreshed model feeds back into the filter for the next one.

The filter evaluates phi, b_hat and a_hat on Python floats, one state at a
time, w_b . phi and W_a phi as left-to-right chains from 0.0
(:func:`pssf.dynamics.dot`). The ridge fit runs the same operations on the
columns of a stack of states, so it fits the filter's phi bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from .barrier import h_dot
from .certify import delta_bound
from .dynamics import BLOWUP_LIMIT, Trajectory, dot, step_count
from .ioutil import AT_LEAST_ONE, POSITIVE, read_json, rule_block, rule_error, write_csv, write_json

if TYPE_CHECKING:
    from .scenario import Scenario

POLYNOMIAL = "polynomial"
RANDOM_FOURIER = "random_fourier"


class EpisodicTrainingError(RuntimeError):
    """Every collection episode terminated early; nothing to fit."""


_KIND_KEYS = {POLYNOMIAL: {"max_degree": AT_LEAST_ONE},
              RANDOM_FOURIER: {"count": AT_LEAST_ONE, "bandwidth": POSITIVE}}
_INDICES = {"type": "array", "items": {"type": "integer", "enum": [0, 1, 2, 3]}}


def _features_rule(**more) -> dict:
    """A kind and that kind's keys, and optionally a seed >= 0 and indices into the Segway's 4 states, plus ``more``."""
    return {"type": "object", "anyOf": [
        rule_block({"kind": {"enum": [kind]}, **keys, "seed": {"type": "integer", "minimum": 0}, "indices": _INDICES,
                    **more}, required=["kind", *keys]) for kind, keys in _KIND_KEYS.items()]}


_NUMBERS = {"type": "array", "items": {"type": "number"}}
# The rule of a learning.features block, in a config and in a model file; the model's adds the normalization
# (numbers, the scale's positive) and indices null (every coordinate), as to_config writes.
FEATURES = _features_rule()
MODEL_FEATURES = _features_rule(indices={"anyOf": [{"type": "null"}, _INDICES]}, center=_NUMBERS,
                                scale={"type": "array", "items": POSITIVE})
_MODEL_KEYS = {"features": MODEL_FEATURES, "w_b": _NUMBERS, "W_a": {"type": "array", "items": _NUMBERS},
               "ridge_lambda": POSITIVE,
               "training_rms": {"type": "number", "minimum": 0}, "ill_conditioned": {"type": "boolean"}}
# The rule of a model file, as ResidualModel.save writes it.
MODEL = rule_block(_MODEL_KEYS, required=list(_MODEL_KEYS))


def feature_spec(cfg: dict) -> dict:
    """A features block that keeps ``FEATURES``, with seed (default 0) and indices (default None) filled in."""
    indices = cfg.get("indices")
    return {"kind": cfg["kind"], "seed": cfg.get("seed", 0), "indices": tuple(indices) if indices is not None else None,
            **{key: cfg[key] for key in _KIND_KEYS[cfg["kind"]]}}


class FeatureMap:
    """Deterministic feature vector phi(x) over selected state coordinates.

    Kinds:
        polynomial(max_degree): all monomials up to max_degree, constant included.
        random_fourier(count, bandwidth, seed): sqrt(2/count) cos(W z + b) with
            W ~ N(0, 1/bandwidth^2) drawn from the seed.

    The selected coordinates are normalized to z = (x - center) / scale. A map
    is made with its normalization: :meth:`fit` computes it from states, and
    ``episodic_train`` fits it once, on the first episode it keeps.

    A monomial is a lower monomial times one coordinate, never a ``pow``; each
    entry of W z is a :func:`pssf.dynamics.dot` chain.
    """

    def __init__(self, spec: dict, center, scale):
        self.spec = feature_spec(spec)
        self.center = np.asarray(center, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        indices = self.spec["indices"]
        n_sel = len(indices) if indices is not None else self.center.size
        if not self.center.shape == self.scale.shape == (n_sel,):
            raise ValueError(f"center and scale need one entry per selected coordinate, got shapes "
                             f"{self.center.shape} and {self.scale.shape} for indices {indices}")
        self._select = list(indices) if indices is not None else None
        self._normalization = list(zip(self._select or range(n_sel), self.center.tolist(), self.scale.tolist()))
        if self.spec["kind"] == POLYNOMIAL:
            # Monomials by degree; each past the constant is (its prefix monomial, its last coordinate).
            combos = [combo for deg in range(self.spec["max_degree"] + 1)
                      for combo in combinations_with_replacement(range(n_sel), deg)]
            position = {combo: k for k, combo in enumerate(combos)}
            self._factors = [(position[combo[:-1]], combo[-1]) for combo in combos[1:]]
            self.dimension = len(combos)
        else:
            rng = np.random.default_rng(self.spec["seed"])
            # Past x0 a run keeps no |x_i| above BLOWUP_LIMIT, so there |W z| is at most this bound.
            with np.errstate(over="ignore"):
                weights = rng.normal(size=(self.spec["count"], n_sel)) / self.spec["bandwidth"]
                bound = n_sel * np.max(np.abs(weights), initial=0.0) * np.max(
                    (BLOWUP_LIMIT + np.abs(self.center)) / self.scale, initial=0.0)
            if not np.isfinite(bound):
                raise ValueError(f"bandwidth {self.spec['bandwidth']} is too small: W z, with W = normal / bandwidth, "
                                 f"can overflow on a state within {BLOWUP_LIMIT:g} of 0")
            self._waves = list(zip(weights.tolist(), rng.uniform(0.0, 2.0 * math.pi, size=self.spec["count"]).tolist()))
            self._amplitude = math.sqrt(2.0 / self.spec["count"])
            self.dimension = self.spec["count"]

    @classmethod
    def fit(cls, spec: dict, states: np.ndarray) -> "FeatureMap":
        """Normalize by the mean and std of the selected coordinates of (rows, n) states; a std below 1e-12 is 1."""
        states = np.asarray(states, dtype=float)
        indices = feature_spec(spec)["indices"]
        sel = states[:, list(indices)] if indices is not None else states
        scale = sel.std(axis=0)
        return cls(spec, sel.mean(axis=0), np.where(scale < 1e-12, 1.0, scale))

    def __call__(self, states) -> Union[list, np.ndarray]:
        """phi of one state (a sequence of floats) as a list, or of each row of a 2-D array as a (rows, dimension) array.

        A stack runs :meth:`_phi` on columns where a state runs it on floats, so a row equals its state alone bit for bit.
        """
        if isinstance(states, np.ndarray) and states.ndim == 2:
            sel = states[:, self._select] if self._select is not None else states
            z = list(((sel - self.center) / self.scale).T)
            return self._phi(z, np.empty((self.dimension, len(states))), np.cos).T
        return self._phi([(states[i] - c) / s for i, c, s in self._normalization], [1.0] * self.dimension, math.cos)

    def _phi(self, z: list, phi, cos):
        """phi[k] = feature k of z (floats, or a stack's columns): monomials as prefix products, waves by dot chains."""
        if self.spec["kind"] == POLYNOMIAL:
            phi[0] = 1.0
            for k, (prefix, i) in enumerate(self._factors, start=1):
                phi[k] = phi[prefix] * z[i]
            return phi
        for k, (w, phase) in enumerate(self._waves):
            phi[k] = self._amplitude * cos(dot(w, z) + phase)
        return phi

    def to_config(self) -> dict:
        indices = self.spec["indices"]
        return {**self.spec, "indices": list(indices) if indices is not None else None,
                "center": [float(v) for v in self.center], "scale": [float(v) for v in self.scale]}

    @classmethod
    def from_config(cls, cfg: dict) -> "FeatureMap":
        """Inverse of :meth:`to_config`, from a block that keeps ``MODEL_FEATURES``."""
        spec = {key: value for key, value in cfg.items() if key not in ("center", "scale")}
        return cls(spec, cfg["center"], cfg["scale"])


@dataclass
class Dataset:
    """Regression rows (x, u, target), time-ordered per episode.

    The target is the measured hdot minus the design model's hdot. The
    rows carry no normalization; the feature map that fits them has its own.
    """

    states: np.ndarray
    inputs: np.ndarray
    targets: np.ndarray
    hdot_exact: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.targets)

    @staticmethod
    def merge(datasets: Sequence["Dataset"]) -> "Dataset":
        exact = [d.hdot_exact for d in datasets]
        return Dataset(np.concatenate([d.states for d in datasets]), np.concatenate([d.inputs for d in datasets]),
                       np.concatenate([d.targets for d in datasets]),
                       None if any(e is None for e in exact) else np.concatenate(exact))


def collect_episode(scn: "Scenario", traj: Trajectory, noise_std: Union[None, float, Sequence[float]] = None,
                    rng: Optional[np.random.Generator] = None) -> Dataset:
    """Regression rows from a rollout already recorded on the scenario's plant.

    The target at step j is the measured hdot, the central difference
    (h(y[j+1]) - h(y[j-1])) / (2 dt) on the measured states y (forward
    difference at j = 0, which has no left neighbor), minus the design
    model's hdot at the recorded (x[j], u[j]). The measured states are the
    recorded ones plus Gaussian noise of ``noise_std`` drawn from ``rng`` if
    given. The plant's exact hdot is kept alongside for diagnostics. The
    feature normalization is not decided here but in ``episodic_train``.
    """
    bar, dt = scn.barrier, scn.dt
    measured = traj.states
    if noise_std is not None:
        std = np.broadcast_to(np.asarray(noise_std, dtype=float), traj.states.shape[1:])
        measured = traj.states + rng.normal(size=traj.states.shape) * std

    n_rows = len(traj.inputs)
    h_meas = [bar.h(y.tolist()) for y in measured]
    targets = np.empty(n_rows)
    exact = np.empty(n_rows)
    for j in range(n_rows):
        if j == 0:
            measured_rate = (h_meas[1] - h_meas[0]) / dt
        else:
            measured_rate = (h_meas[j + 1] - h_meas[j - 1]) / (2.0 * dt)
        x, u = traj.states[j].tolist(), traj.inputs[j].tolist()
        targets[j] = measured_rate - h_dot(bar, scn.nominal_system, x, u)
        exact[j] = h_dot(bar, scn.true_system, x, u)

    return Dataset(traj.states[:n_rows].copy(), traj.inputs.copy(), targets, hdot_exact=exact)


@dataclass
class ResidualModel:
    """Ridge-regressed estimators b_hat(x) = w_b . phi(x), a_hat(x) = W_a phi(x).

    The prediction b_hat(x) + a_hat(x)^T u is affine in u by construction.
    :meth:`terms` reads the weights as they were at construction.
    """

    features: FeatureMap
    w_b: np.ndarray
    W_a: np.ndarray
    ridge_lambda: float
    training_rms: float
    ill_conditioned: bool = False

    def __post_init__(self):
        dim = self.features.dimension
        if np.shape(self.w_b) != (dim,) or np.ndim(self.W_a) != 2 or np.shape(self.W_a)[1] != dim:
            raise ValueError(f"weights need shapes ({dim},) and (inputs, {dim}) for {dim} features, "
                             f"got {np.shape(self.w_b)} and {np.shape(self.W_a)}")
        if not (np.all(np.isfinite(self.w_b)) and np.all(np.isfinite(self.W_a))):
            raise ValueError("weights must be finite")
        self._rows = [np.asarray(self.w_b, dtype=float).tolist(), *np.asarray(self.W_a, dtype=float).tolist()]

    def terms(self, x: Sequence[float]) -> tuple[float, list]:
        """(w_b . phi(x), W_a phi(x)) on floats, each entry a :func:`pssf.dynamics.dot` chain."""
        phi = self.features(x)
        b_hat, *a_hat = [dot(row, phi) for row in self._rows]
        return b_hat, a_hat

    def predict(self, x: Sequence[float], u: Sequence[float]) -> float:
        b_hat, a_hat = self.terms(x)
        return b_hat + dot(a_hat, u)

    def save(self, path) -> None:
        write_json(path, {
            "features": self.features.to_config(),
            "w_b": [float(v) for v in self.w_b],
            "W_a": [[float(v) for v in row] for row in self.W_a],
            "ridge_lambda": self.ridge_lambda,
            "training_rms": self.training_rms,
            "ill_conditioned": self.ill_conditioned,
        })

    @classmethod
    def load(cls, path) -> "ResidualModel":
        """Inverse of :meth:`save`; a file that breaks ``MODEL`` or does not make a model is a ValueError."""
        obj = read_json(path)
        error = rule_error(MODEL, obj)
        if error is not None:
            raise ValueError(error)
        return cls(FeatureMap.from_config(obj["features"]), np.asarray(obj["w_b"], dtype=float),
                   np.asarray(obj["W_a"], dtype=float), obj["ridge_lambda"], obj["training_rms"],
                   obj["ill_conditioned"])


def fit_residual(data: Dataset, features: FeatureMap, ridge_lambda: float) -> ResidualModel:
    """Ridge regression of the stacked system in (w_b, vec(W_a)) on the given feature map.

    Minimizes sum_j (target_j - w_b.phi_j - (W_a phi_j).u_j)^2 + lambda (||w_b||^2 + ||W_a||^2)
    via least squares on the regularized stack [phi, phi u_1, ..., phi u_m; sqrt(lambda) I], one (rows + p, p)
    array filled in place in phi's memory order (Fortran for a stack), so the training rms sums each row as a
    concatenated design does. The map is used as given, with the normalization it was made with. The stack's
    Gram matrix is the regularized Gram matrix, so its condition number is the squared ratio of the stack's
    extreme singular values, which the least-squares solve already returns. An estimate above 1e12 flags the
    model as ill conditioned (the solution is still returned).
    """
    if len(data) == 0:
        raise ValueError("dataset is empty")
    if not ridge_lambda > 0.0:
        raise ValueError("ridge_lambda must be > 0")

    phi = features(data.states)
    (n, dim), m = phi.shape, data.inputs.shape[1]
    p = dim * (m + 1)
    stack = np.empty((n + p, p), order="C" if phi.flags.c_contiguous else "F")
    stack[:n, :dim] = phi
    for i in range(m):
        np.multiply(phi, data.inputs[:, i:i + 1], out=stack[:n, dim * (i + 1):dim * (i + 2)])
    del phi
    stack[n:] = math.sqrt(ridge_lambda) * np.eye(p)
    w, _, _, sv = np.linalg.lstsq(stack, np.concatenate([data.targets, np.zeros(p)]), rcond=None)

    cond = float((sv[0] / sv[-1]) ** 2)
    ill = cond > 1e12
    if ill:
        warnings.warn(f"regularized Gram condition estimate {cond:.3g} exceeds 1e12")

    rms = float(np.sqrt(np.mean((data.targets - stack[:n] @ w) ** 2)))
    return ResidualModel(features, w[:dim], w[dim:].reshape(m, dim), float(ridge_lambda), rms, ill_conditioned=ill)


@dataclass(frozen=True)
class EpisodeRecord:
    """One episode's metrics; an excluded one (its rollout ended early) holds its ``reason`` and None for both."""

    episode: int
    training_rms: Optional[float]
    validation_delta_bar: Optional[float]
    reason: Optional[str] = None

    @property
    def excluded(self) -> bool:
        return self.reason is not None


@dataclass
class EpisodeHistory:
    records: list
    no_learning_delta_bar: float

    def to_csv(self, path) -> None:
        rows = [[r.episode, r.training_rms, r.validation_delta_bar] for r in self.records]
        write_csv(path, ["episode", "training_rms", "validation_delta_bar"], rows)


def excite(
    desired: Callable[[Sequence[float], float], Sequence[float]],
    amplitude: float,
    hold_steps: int,
    dt: float,
    duration: float,
    input_dim: int,
    rng: np.random.Generator,
) -> Callable[[Sequence[float], float], tuple]:
    """desired(x, t) plus a seeded zero-mean piecewise-constant excitation.

    One uniform draw in [-amplitude, amplitude]^input_dim per block of
    hold_steps steps covering the ``step_count(duration, dt)`` steps; later
    times keep the last block.
    """
    n_steps = step_count(duration, dt)
    values = rng.uniform(-amplitude, amplitude, size=(-(-n_steps // hold_steps), input_dim)).tolist()
    last = len(values) - 1

    def controller(x: Sequence[float], t: float) -> tuple:
        block = int(round(t / dt)) // hold_steps
        return tuple([ui + vi for ui, vi in zip(desired(x, t), values[min(block, last)])])

    return controller


def episodic_train(scn: "Scenario") -> tuple[ResidualModel, EpisodeHistory]:
    """Collect / refit / redeploy loop on a built scenario.

    Collection and validation rollouts both run through ``scn.rollout``.
    From ``scn.cfg["learning"]`` it reads episodes, episode_duration,
    features, ridge_lambda, excitation (amplitude, hold_steps), x0_jitter
    and noise_std. One generator seeded with ``scn.seed`` draws, per
    episode and in this order, the x0 jitter, the excitation and (after the
    rollout) the measurement noise.

    Episode 0 runs the filter without residual terms; after each episode the
    model is refit on all data aggregated so far and used by the filter in
    later episodes. The feature normalization is decided here, once:
    ``FeatureMap.fit`` on the states of the first episode kept, and every
    later fit reuses that map. Per-episode validation rolls the current filtered
    controller out for ``scn.duration`` without excitation and records the
    worst residual delta. Episodes that terminate early are excluded from
    the aggregate with a reason; training aborts only if every episode is
    excluded.
    """
    learn = scn.cfg["learning"]
    rng = np.random.default_rng(scn.seed)

    def validation_delta(residual) -> float:
        traj, _ = scn.rollout(residual)
        return delta_bound(scn.delta_trace(traj, residual))

    baseline = validation_delta(None)

    model: Optional[ResidualModel] = None
    aggregate: Optional[Dataset] = None
    records: list[EpisodeRecord] = []
    for e in range(learn["episodes"]):
        x0_e = scn.x0
        if learn["x0_jitter"] is not None:
            x0_e = x0_e + rng.normal(size=x0_e.shape) * np.asarray(learn["x0_jitter"], dtype=float)
        desired = excite(scn.desired, learn["excitation"]["amplitude"], learn["excitation"]["hold_steps"],
                         scn.dt, learn["episode_duration"], scn.true_system.input_dim, rng)
        traj, _ = scn.rollout(model, desired=desired, x0=x0_e, duration=learn["episode_duration"])
        ds = collect_episode(scn, traj, learn["noise_std"], rng)  # draws the noise even if excluded
        if traj.terminated_early:
            records.append(EpisodeRecord(e, None, None, reason=traj.termination_reason))
            continue

        features = model.features if model is not None else FeatureMap.fit(learn["features"], ds.states)
        aggregate = ds if aggregate is None else Dataset.merge([aggregate, ds])
        model = fit_residual(aggregate, features, learn["ridge_lambda"])
        records.append(EpisodeRecord(e, model.training_rms, validation_delta(model)))

    if model is None:
        raise EpisodicTrainingError("every episode terminated early")
    return model, EpisodeHistory(records=records, no_learning_delta_bar=baseline)
