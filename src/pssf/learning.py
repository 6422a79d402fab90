"""Episodic learning of the residual terms in the barrier derivative.

Each episode rolls the true system out under the current safety-filtered
controller, builds finite-difference barrier-derivative targets from the
recorded (possibly noise-corrupted) states, and refits a ridge regression
for the correction terms b_hat(x) + a_hat(x)^T u. Data aggregates across
episodes; the refreshed model feeds back into the filter for the next one.
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
from .dynamics import Trajectory
from .ioutil import read_json, write_csv, write_json

if TYPE_CHECKING:
    from .scenario import Scenario

POLYNOMIAL = "polynomial"
RANDOM_FOURIER = "random_fourier"


class EpisodicTrainingError(RuntimeError):
    """Every collection episode terminated early; nothing to fit."""


class FeatureMap:
    """Deterministic feature vector phi(x) over selected state coordinates.

    Kinds:
        polynomial(max_degree): all monomials up to max_degree, constant included.
        random_fourier(count, bandwidth, seed): sqrt(2/count) cos(W z + b) with
            W ~ N(0, 1/bandwidth^2) drawn from the seed.

    Inputs are normalized per coordinate by an affine map fitted once on the
    first episode's states (fit_normalization); evaluation before fitting is
    an error.
    """

    def __init__(
        self,
        kind: str,
        *,
        max_degree: Optional[int] = None,
        count: Optional[int] = None,
        bandwidth: Optional[float] = None,
        seed: int = 0,
        indices: Optional[Sequence[int]] = None,
    ):
        if kind == POLYNOMIAL:
            if not (isinstance(max_degree, int) and max_degree >= 1):
                raise ValueError("polynomial features need max_degree >= 1")
        elif kind == RANDOM_FOURIER:
            if not (isinstance(count, int) and count >= 1 and bandwidth and bandwidth > 0):
                raise ValueError("random_fourier features need count >= 1 and bandwidth > 0")
        else:
            raise ValueError(f"unknown feature kind {kind!r}")
        self.kind = kind
        self.max_degree = max_degree
        self.count = count
        self.bandwidth = bandwidth
        self.seed = seed
        self.indices = tuple(indices) if indices is not None else None
        self._center = None
        self._scale = None
        self._exponents = None
        self._weights = None
        self._phases = None

    @property
    def fitted(self) -> bool:
        return self._center is not None

    @property
    def dimension(self) -> int:
        if self.kind == RANDOM_FOURIER:
            return int(self.count)
        if self.indices is None and not self.fitted:
            raise RuntimeError("dimension unknown until indices are given or normalization is fitted")
        n_sel = len(self.indices) if self.indices is not None else len(self._center)
        return math.comb(n_sel + self.max_degree, self.max_degree)

    def fit_normalization(self, states: np.ndarray) -> "FeatureMap":
        """Fit the per-coordinate affine scaling on (rows, n) state samples."""
        states = np.asarray(states, dtype=float)
        sel = states[:, list(self.indices)] if self.indices is not None else states
        center = sel.mean(axis=0)
        scale = sel.std(axis=0)
        scale = np.where(scale < 1e-12, 1.0, scale)
        self._set_normalization(center, scale)
        return self

    def _set_normalization(self, center: np.ndarray, scale: np.ndarray) -> None:
        self._center = np.asarray(center, dtype=float)
        self._scale = np.asarray(scale, dtype=float)
        n_sel = len(self._center)
        if self.kind == POLYNOMIAL:
            exps = []
            for deg in range(self.max_degree + 1):
                for combo in combinations_with_replacement(range(n_sel), deg):
                    e = np.zeros(n_sel, dtype=int)
                    for i in combo:
                        e[i] += 1
                    exps.append(e)
            self._exponents = np.array(exps)
        else:
            rng = np.random.default_rng(self.seed)
            self._weights = rng.normal(size=(self.count, n_sel)) / self.bandwidth
            self._phases = rng.uniform(0.0, 2.0 * math.pi, size=self.count)

    def __call__(self, states: np.ndarray) -> np.ndarray:
        """phi of one state, shape (dimension,), or of each row of a stack, shape (rows, dimension)."""
        if not self.fitted:
            raise RuntimeError("FeatureMap used before fit_normalization")
        states = np.asarray(states, dtype=float)
        sel = states[..., list(self.indices)] if self.indices is not None else states
        z = (sel - self._center) / self._scale
        if self.kind == POLYNOMIAL:
            return np.prod(z[..., None, :] ** self._exponents, axis=-1)
        return math.sqrt(2.0 / self.count) * np.cos(z @ self._weights.T + self._phases)

    def to_config(self) -> dict:
        cfg = {"kind": self.kind, "seed": self.seed,
               "indices": list(self.indices) if self.indices is not None else None}
        if self.kind == POLYNOMIAL:
            cfg["max_degree"] = self.max_degree
        else:
            cfg["count"] = self.count
            cfg["bandwidth"] = self.bandwidth
        if self.fitted:
            cfg["center"] = [float(v) for v in self._center]
            cfg["scale"] = [float(v) for v in self._scale]
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "FeatureMap":
        known = {"kind", "seed", "indices", "max_degree", "count", "bandwidth", "center", "scale"}
        unknown = set(cfg) - known
        if unknown:
            raise ValueError(f"unknown feature map keys: {sorted(unknown)}")
        fm = cls(
            cfg["kind"],
            max_degree=cfg.get("max_degree"),
            count=cfg.get("count"),
            bandwidth=cfg.get("bandwidth"),
            seed=cfg.get("seed", 0),
            indices=cfg.get("indices"),
        )
        if "center" in cfg:
            fm._set_normalization(np.asarray(cfg["center"]), np.asarray(cfg["scale"]))
        return fm


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian measurement noise on the states used for target differences."""

    std: Union[float, Sequence[float]]
    rng: np.random.Generator


@dataclass
class Dataset:
    """Regression rows (x, u, hdot_target, hdot_nominal), time-ordered per episode."""

    states: np.ndarray
    inputs: np.ndarray
    hdot_target: np.ndarray
    hdot_nominal: np.ndarray
    episode_ids: np.ndarray
    hdot_exact: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.hdot_target)

    def targets(self) -> np.ndarray:
        """Regression targets: measured hdot minus the model's hdot."""
        return self.hdot_target - self.hdot_nominal

    @staticmethod
    def merge(datasets: Sequence["Dataset"]) -> "Dataset":
        exact = None
        if all(d.hdot_exact is not None for d in datasets):
            exact = np.concatenate([d.hdot_exact for d in datasets])
        return Dataset(
            states=np.concatenate([d.states for d in datasets]),
            inputs=np.concatenate([d.inputs for d in datasets]),
            hdot_target=np.concatenate([d.hdot_target for d in datasets]),
            hdot_nominal=np.concatenate([d.hdot_nominal for d in datasets]),
            episode_ids=np.concatenate([d.episode_ids for d in datasets]),
            hdot_exact=exact,
        )


def collect_episode(scn: "Scenario", traj: Trajectory, noise: Optional[NoiseSpec] = None,
                    episode_id: int = 0) -> Dataset:
    """Regression rows from a rollout already recorded on the scenario's plant.

    hdot_target at step j is the central difference
    (h(y[j+1]) - h(y[j-1])) / (2 dt) on the measured states y, the recorded
    states plus ``noise`` if given (forward difference at j = 0, which has no
    left neighbor); hdot_nominal is the design model's hdot at the recorded
    (x[j], u[j]). The plant's exact hdot is kept alongside for diagnostics.
    """
    bar, dt = scn.barrier, scn.dt
    measured = traj.states
    if noise is not None:
        std = np.broadcast_to(np.asarray(noise.std, dtype=float), traj.states.shape[1:])
        measured = traj.states + noise.rng.normal(size=traj.states.shape) * std

    n_rows = len(traj.inputs)
    h_meas = np.array([bar.h(y) for y in measured])
    target = np.empty(n_rows)
    nominal = np.empty(n_rows)
    exact = np.empty(n_rows)
    for j in range(n_rows):
        if j == 0:
            target[j] = (h_meas[1] - h_meas[0]) / dt
        else:
            target[j] = (h_meas[j + 1] - h_meas[j - 1]) / (2.0 * dt)
        nominal[j] = h_dot(bar, scn.nominal_system, traj.states[j], traj.inputs[j])
        exact[j] = h_dot(bar, scn.true_system, traj.states[j], traj.inputs[j])

    return Dataset(
        states=traj.states[:n_rows].copy(),
        inputs=traj.inputs.copy(),
        hdot_target=target,
        hdot_nominal=nominal,
        episode_ids=np.full(n_rows, episode_id, dtype=int),
        hdot_exact=exact,
    )


@dataclass
class ResidualModel:
    """Ridge-regressed estimators b_hat(x) = w_b . phi(x), a_hat(x) = W_a phi(x).

    The prediction b_hat(x) + a_hat(x)^T u is affine in u by construction.
    """

    features: FeatureMap
    w_b: np.ndarray
    W_a: np.ndarray
    ridge_lambda: float
    training_rms: float
    ill_conditioned: bool = False

    def terms(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        phi = self.features(x)
        return float(self.w_b @ phi), self.W_a @ phi

    def predict(self, x: np.ndarray, u: np.ndarray) -> float:
        b_hat, a_hat = self.terms(x)
        return b_hat + float(a_hat @ np.asarray(u, dtype=float))

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
        obj = read_json(path)
        return cls(
            features=FeatureMap.from_config(obj["features"]),
            w_b=np.asarray(obj["w_b"], dtype=float),
            W_a=np.asarray(obj["W_a"], dtype=float),
            ridge_lambda=float(obj["ridge_lambda"]),
            training_rms=float(obj["training_rms"]),
            ill_conditioned=bool(obj["ill_conditioned"]),
        )


def fit_residual(data: Dataset, features: FeatureMap, ridge_lambda: float) -> ResidualModel:
    """Ridge regression of the stacked system in (w_b, vec(W_a)).

    Minimizes sum_j (target_j - w_b.phi_j - (W_a phi_j).u_j)^2
    + lambda (||w_b||^2 + ||W_a||^2) via least squares on the regularized
    stack. Normalization is fitted on the first episode's rows if absent.
    The stack's Gram matrix is the regularized Gram matrix, so its condition
    number is the squared ratio of the stack's extreme singular values, which
    the least-squares solve already returns. An estimate above 1e12 flags
    the model as ill conditioned (the solution is still returned).
    """
    if len(data) == 0:
        raise ValueError("dataset is empty")
    if not ridge_lambda > 0.0:
        raise ValueError("ridge_lambda must be > 0")
    if not features.fitted:
        first = data.episode_ids == data.episode_ids.min()
        features.fit_normalization(data.states[first])

    phi = features(data.states)
    m = data.inputs.shape[1]
    design = np.concatenate([phi] + [phi * data.inputs[:, i:i + 1] for i in range(m)], axis=1)
    y = data.targets()
    p = design.shape[1]

    stack = np.vstack([design, math.sqrt(ridge_lambda) * np.eye(p)])
    rhs = np.concatenate([y, np.zeros(p)])
    w, _, _, sv = np.linalg.lstsq(stack, rhs, rcond=None)

    cond = float((sv[0] / sv[-1]) ** 2)
    ill = cond > 1e12
    if ill:
        warnings.warn(f"regularized Gram condition estimate {cond:.3g} exceeds 1e12")

    rms = float(np.sqrt(np.mean((y - design @ w) ** 2)))
    dim = features.dimension
    return ResidualModel(
        features=features,
        w_b=w[:dim],
        W_a=w[dim:].reshape(m, dim),
        ridge_lambda=float(ridge_lambda),
        training_rms=rms,
        ill_conditioned=ill,
    )


@dataclass(frozen=True)
class EpisodeRecord:
    episode: int
    rows: int
    training_rms: float
    validation_delta_bar: float
    excluded: bool = False
    reason: Optional[str] = None
    filter_infeasible_steps: int = 0


@dataclass
class EpisodeHistory:
    records: list
    no_learning_delta_bar: float

    def to_csv(self, path) -> None:
        rows = [
            [r.episode,
             None if r.excluded else r.training_rms,
             None if r.excluded else r.validation_delta_bar]
            for r in self.records
        ]
        write_csv(path, ["episode", "training_rms", "validation_delta_bar"], rows)


def excite(
    desired: Callable[[np.ndarray, float], np.ndarray],
    amplitude: float,
    hold_steps: int,
    dt: float,
    duration: float,
    input_dim: int,
    rng: np.random.Generator,
) -> Callable[[np.ndarray, float], np.ndarray]:
    """desired(x, t) plus a seeded zero-mean piecewise-constant excitation.

    One uniform draw in [-amplitude, amplitude]^input_dim per block of
    hold_steps steps covering duration; later times keep the last block.
    """
    n_steps = max(1, int(round(duration / dt)))
    values = rng.uniform(-amplitude, amplitude, size=(-(-n_steps // hold_steps), input_dim))
    last = len(values) - 1

    def controller(x: np.ndarray, t: float) -> np.ndarray:
        block = int(round(t / dt)) // hold_steps
        return np.asarray(desired(x, t), dtype=float) + values[min(block, last)]

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
    later episodes. Per-episode validation rolls the current filtered
    controller out for ``scn.duration`` without excitation and records the
    worst residual delta. Episodes that terminate early are excluded from
    the aggregate with a reason; training aborts only if every episode is
    excluded.
    """
    learn = scn.cfg["learning"]
    features = FeatureMap.from_config(learn["features"])
    rng = np.random.default_rng(scn.seed)

    def validation_delta(residual) -> float:
        traj, _ = scn.rollout(residual)
        return delta_bound(scn.delta_trace(traj, residual))

    baseline = validation_delta(None)

    model: Optional[ResidualModel] = None
    collected: list[Dataset] = []
    records: list[EpisodeRecord] = []
    for e in range(learn["episodes"]):
        x0_e = scn.x0
        if learn["x0_jitter"] is not None:
            x0_e = x0_e + rng.normal(size=x0_e.shape) * np.asarray(learn["x0_jitter"], dtype=float)
        desired = excite(scn.desired, learn["excitation"]["amplitude"], learn["excitation"]["hold_steps"],
                         scn.dt, learn["episode_duration"], scn.true_system.input_dim, rng)
        traj, controller = scn.rollout(model, desired=desired, x0=x0_e, duration=learn["episode_duration"])
        noise = NoiseSpec(learn["noise_std"], rng) if learn["noise_std"] is not None else None
        ds = collect_episode(scn, traj, noise=noise, episode_id=e)  # draws the noise even if excluded
        if traj.terminated_early:
            records.append(EpisodeRecord(e, len(ds), math.nan, math.nan, excluded=True, reason=traj.termination_reason))
            continue

        collected.append(ds)
        model = fit_residual(Dataset.merge(collected), features, learn["ridge_lambda"])
        records.append(EpisodeRecord(
            episode=e,
            rows=len(ds),
            training_rms=model.training_rms,
            validation_delta_bar=validation_delta(model),
            filter_infeasible_steps=controller.infeasible_count,
        ))

    if model is None:
        raise EpisodicTrainingError("every episode terminated early")
    return model, EpisodeHistory(records=records, no_learning_delta_bar=baseline)
