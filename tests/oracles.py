"""Reference checks and a toy fixture that only the tests use.

The ``pssf`` package holds what ``pssf simulate|learn|sweep`` runs and the
library of the PSSf argument (barrier, filter, projection, certificate,
learning). The helpers here judge that code instead of being part of it:
finite-difference checks of analytic derivatives, an energy oracle for the
Segway, the Segway evaluators' earlier memoizing form, the per-sample
functions and the feature map written out plainly in the package's
arithmetic (Python floats, each sum of products a left-to-right chain from
0.0, each monomial a product in a fixed order), the CSV writer and the
sampled drift-error sup in their earlier numpy form, a sampled Lipschitz
ratio, an alternative floor to compare against ``transport_inflation``, a
comparison function that may break the class-K rules with a sampled check of
those rules, and a planar-disk demo with a nontrivial projection and a
bounded disturbance that checks its own samples.
Keeping them beside the tests gives every name one import path and keeps
``src/`` free of code that no run calls.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from pssf import kfun
from pssf.barrier import BarrierFunction, FilterResult, HdotResidual
from pssf.certify import CompatiblePair, Projection
from pssf.dynamics import BLOWUP_LIMIT, ControlAffineSystem, NonFiniteDynamicsError, NumericalBlowUpError, SegwayParams
from pssf.kfun import ComparisonFunction
from pssf.learning import POLYNOMIAL, Dataset, FeatureMap


def finite_difference_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of fn at x, shape (len(fn(x)), len(x))."""
    x = np.asarray(x, dtype=float)
    base = np.atleast_1d(np.asarray(fn(x), dtype=float))
    jac = np.empty((base.size, x.size))
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += eps
        lo[i] -= eps
        jac[:, i] = (np.atleast_1d(fn(hi)) - np.atleast_1d(fn(lo))) / (2.0 * eps)
    return jac


def check_gradient(bar: BarrierFunction, samples: Sequence[np.ndarray], rel_tol: float = 1e-5) -> float:
    """Worst relative mismatch between grad_h and central differences of h.

    Raises AssertionError when the mismatch exceeds rel_tol at any sample.
    """
    worst = 0.0
    for x in samples:
        analytic = np.asarray(bar.grad_h(x), dtype=float)
        numeric = finite_difference_jacobian(lambda z: np.array([bar.h(z)]), np.asarray(x, float))[0]
        err = float(np.linalg.norm(analytic - numeric)) / max(1.0, float(np.linalg.norm(numeric)))
        worst = max(worst, err)
    if worst > rel_tol:
        raise AssertionError(f"gradient mismatch {worst} exceeds {rel_tol}")
    return worst


def check_jacobian(proj: Projection, samples: Sequence[np.ndarray], rel_tol: float = 1e-5) -> float:
    """Worst relative mismatch between the analytic Jacobian and finite differences."""
    worst = 0.0
    for x in samples:
        x = np.asarray(x, dtype=float)
        analytic = np.atleast_2d(np.asarray(proj.jacobian(x), dtype=float))
        numeric = finite_difference_jacobian(lambda z: np.atleast_1d(proj.map(z)), x)
        err = float(np.linalg.norm(analytic - numeric)) / max(1.0, float(np.linalg.norm(numeric)))
        worst = max(worst, err)
    if worst > rel_tol:
        raise AssertionError(f"jacobian mismatch {worst} exceeds {rel_tol}")
    return worst


def direct_transport_floor(sigma_upper: ComparisonFunction, gamma: ComparisonFunction, delta_bar: float) -> float:
    """Diagnostic alternative floor sigma_upper^-1(-gamma(delta_bar)).

    Inverts the sandwich bound directly instead of composing gains; the two
    coincide for linear sigma_upper and may differ otherwise.
    """
    return sigma_upper.inverse()(-gamma(delta_bar))


class Interpolated(ComparisonFunction):
    """The piecewise-linear interpolant of (r, value) points by ``np.interp``, with no inverse.

    Nothing makes it class K, so the membership and inverse checks can be shown a broken function.
    """

    def __init__(self, points: Sequence[tuple[float, float]]):
        self.rs, self.values = zip(*points)

    def _eval(self, r: float) -> float:
        return float(np.interp(r, self.rs, self.values))


def chain_reference(a: Sequence[float], b: Sequence[float]) -> float:
    """sum_i a_i b_i as ((0.0 + a_0 b_0) + a_1 b_1) + ..., the package's one sum rule, written out."""
    total = 0.0
    for i in range(len(a)):
        total = total + a[i] * b[i]
    return total


def feature_map_reference(features: FeatureMap, states) -> list:
    """``FeatureMap.__call__`` written out on floats, per state: the map's spec, seed and normalization, nothing private.

    A monomial is 1.0 times its coordinates in ``combinations_with_replacement`` order, and the
    random_fourier weights and phases are drawn again from the seed. A 2-D array gives a list of rows.
    """
    spec = features.spec
    center, scale = features.center.tolist(), features.scale.tolist()
    if spec["kind"] == POLYNOMIAL:
        combos = [combo for degree in range(spec["max_degree"] + 1)
                  for combo in combinations_with_replacement(range(len(center)), degree)]
    else:
        rng = np.random.default_rng(spec["seed"])
        weights = (rng.normal(size=(spec["count"], len(center))) / spec["bandwidth"]).tolist()
        phases = rng.uniform(0.0, 2.0 * math.pi, size=spec["count"]).tolist()

    def one(x) -> list:
        x = [float(v) for v in x]
        sel = x if spec["indices"] is None else [x[i] for i in spec["indices"]]
        z = [(v - c) / s for v, c, s in zip(sel, center, scale)]
        if spec["kind"] != POLYNOMIAL:
            return [math.sqrt(2.0 / spec["count"]) * math.cos(chain_reference(w, z) + b) for w, b in zip(weights, phases)]
        phi = []
        for combo in combos:
            product = 1.0
            for i in combo:
                product = product * z[i]
            phi.append(product)
        return phi

    if isinstance(states, np.ndarray) and states.ndim == 2:
        return [one(x) for x in states.tolist()]
    return one(states)


def fit_residual_reference(data: Dataset, features: FeatureMap,
                           ridge_lambda: float) -> tuple[np.ndarray, np.ndarray, float, bool]:
    """``fit_residual`` as first assembled; returns (w_b, W_a, training_rms, ill_conditioned).

    The design is concatenated from phi and each phi * u_i, the regularized
    stack is a vstack copy of it, and the training rms reads ``design @ w``.
    """
    phi = features(data.states)
    m = data.inputs.shape[1]
    design = np.concatenate([phi] + [phi * data.inputs[:, i:i + 1] for i in range(m)], axis=1)
    p = design.shape[1]
    stack = np.vstack([design, math.sqrt(ridge_lambda) * np.eye(p)])
    w, _, _, sv = np.linalg.lstsq(stack, np.concatenate([data.targets, np.zeros(p)]), rcond=None)
    rms = float(np.sqrt(np.mean((data.targets - design @ w) ** 2)))
    dim = features.dimension
    return w[:dim], w[dim:].reshape(m, dim), rms, float((sv[0] / sv[-1]) ** 2) > 1e12


# The per-sample functions written out in the package's arithmetic: x, u, d, f(x), the row-major
# g(x), grad_h(x) and a_hat(x) are sequences of floats, and every sum of products is
# chain_reference. The package's functions must match them bit for bit, signed zeros included.

def field_at_reference(sys: ControlAffineSystem, x: Sequence[float], u: Sequence[float],
                       d: Optional[Sequence[float]] = None) -> list:
    """xdot_i = f_i + chain(row i of g, u), then + d_i."""
    f, g, m = sys.drift(x), sys.actuation(x), sys.input_dim
    xdot = [f[i] + chain_reference([g[i * m + k] for k in range(m)], u) for i in range(sys.state_dim)]
    if d is not None:
        xdot = [xdot[i] + float(d[i]) for i in range(sys.state_dim)]
    return xdot


def step_rk4_reference(
    system: ControlAffineSystem,
    x: Sequence[float],
    u: Sequence[float],
    d: Optional[Sequence[float]],
    dt: float,
) -> tuple:
    """One classical RK4 step of xdot = f(x) + g(x)u + d, u and d held constant."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    x = [float(v) for v in x]
    k1 = field_at_reference(system, x, u, d)
    k2 = field_at_reference(system, [xi + 0.5 * dt * ki for xi, ki in zip(x, k1)], u, d)
    k3 = field_at_reference(system, [xi + 0.5 * dt * ki for xi, ki in zip(x, k2)], u, d)
    k4 = field_at_reference(system, [xi + dt * ki for xi, ki in zip(x, k3)], u, d)
    x_next = [xi + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + e) for xi, a, b, c, e in zip(x, k1, k2, k3, k4)]
    if not all(map(math.isfinite, x_next)):
        raise NonFiniteDynamicsError(f"non-finite state after step from {x}")
    if max(map(abs, x_next)) > BLOWUP_LIMIT:
        raise NumericalBlowUpError(f"state magnitude exceeded {BLOWUP_LIMIT:g}")
    return tuple(x_next)


def h_dot_reference(bar: BarrierFunction, sys: ControlAffineSystem, x: Sequence[float], u: Sequence[float]) -> float:
    """hdot(x, u) = chain(dh/dx(x), f(x) + g(x) u)."""
    return chain_reference(bar.grad_h(x), field_at_reference(sys, x, u))


def safety_filter_reference(
    bar: BarrierFunction,
    model: ControlAffineSystem,
    u_des: Sequence[float],
    x: Sequence[float],
    residual: Optional[HdotResidual] = None,
) -> FilterResult:
    """Min-norm modification of u_des enforcing the model barrier condition."""
    n, m = model.state_dim, model.input_dim
    grad, g = bar.grad_h(x), model.actuation(x)
    a = [chain_reference(grad, [g[i * m + k] for i in range(n)]) for k in range(m)]
    b = -bar.alpha(bar.h(x)) - chain_reference(grad, model.drift(x))
    if residual is not None:
        b_hat, a_hat = residual.terms(x)
        a = [a[k] + a_hat[k] for k in range(m)]
        b = b - b_hat

    slack = chain_reference(a, u_des) - b
    if slack >= 0.0:
        return FilterResult(u=u_des, constraint_margin=slack, modified=False, infeasible=False)

    a_sq = chain_reference(a, a)
    if a_sq <= 1e-10 ** 2:
        return FilterResult(u=u_des, constraint_margin=slack, modified=False, infeasible=True)

    u = tuple(u_des[k] + (-slack / a_sq) * a[k] for k in range(m))
    return FilterResult(u=u, constraint_margin=chain_reference(a, u) - b, modified=True, infeasible=False)


def projected_disturbance_reference(
    bar: BarrierFunction,
    true_sys: ControlAffineSystem,
    nominal_sys: ControlAffineSystem,
    x: Sequence[float],
    u: Sequence[float],
    residual: Optional[HdotResidual] = None,
) -> float:
    """delta = grad_h(x) . [(f - f_hat)(x) + (g - g_hat)(x) u] - [b_hat(x) + a_hat(x) . u]."""
    n, m = true_sys.state_dim, true_sys.input_dim
    f, f_hat, g, g_hat = true_sys.drift(x), nominal_sys.drift(x), true_sys.actuation(x), nominal_sys.actuation(x)
    field = [(f[i] - f_hat[i]) + chain_reference([g[i * m + k] - g_hat[i * m + k] for k in range(m)], u)
             for i in range(n)]
    delta = chain_reference(bar.grad_h(x), field)
    if residual is not None:
        b_hat, a_hat = residual.terms(x)
        delta -= b_hat + chain_reference(a_hat, u)
    return delta


def model_error_drift_sup_reference(scn, samples: int = 1000) -> float:
    """``scenario.model_error_drift_sup`` before its stacked norms: one subtraction and one norm per sample."""
    rng = np.random.default_rng(scn.seed)
    lows = np.array([-1.0, -2.0, -scn.cfg["barrier"]["pitch_max"], -scn.cfg["barrier"]["pitch_rate_max"]])
    highs = -lows
    worst = 0.0
    for x in rng.uniform(lows, highs, size=(samples, 4)):
        err = scn.true_system.drift(x) - scn.nominal_system.drift(x)
        worst = max(worst, float(np.linalg.norm(err)))
    return worst


def _cell_reference(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(float(value), ".17g")
    return str(value)


def write_csv_reference(path, header, rows) -> None:
    """``ioutil.write_csv`` before its float fast path: every cell through ``_cell``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell_reference(v) for v in row])


class DisturbanceBoundError(RuntimeError):
    """A disturbance sample exceeded its declared sup-norm bound."""


@dataclass(frozen=True)
class DisturbanceSignal:
    """Additive state disturbance with a declared sup-norm bound.

    ``evaluator(t, x, u)`` returns d in R^n. Every sample drawn during a
    rollout is checked against ``declared_bound`` (Euclidean norm); exceeding
    it raises :class:`DisturbanceBoundError`.
    """

    evaluator: Callable[[float, Sequence[float], Sequence[float]], Sequence[float]]
    declared_bound: float

    def __call__(self, t: float, x: Sequence[float], u: Sequence[float]) -> np.ndarray:
        d = np.asarray(self.evaluator(t, x, u), dtype=float)
        norm = float(np.linalg.norm(d))
        if norm > self.declared_bound * (1.0 + 1e-12) + 1e-15:
            raise DisturbanceBoundError(
                f"disturbance norm {norm} exceeds declared bound {self.declared_bound}"
            )
        return d


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the sampled class-K membership checks.

    ``failure`` names the first failed check ("zero", "monotonicity" or
    "sign"), or is None when all pass. ``first_violation`` holds the
    offending grid pair for a monotonicity failure, or (r, value) for a
    zero/sign failure. Violations are report content, never exceptions.
    """

    failure: str | None = None
    first_violation: tuple | None = None

    @property
    def passed(self) -> bool:
        return self.failure is None


def verify_class_membership(alpha: ComparisonFunction, grid: Sequence[float]) -> MembershipReport:
    """Check alpha(0) = 0, strict monotonicity, and sign conditions on a grid.

    The grid must be sorted, finite, and contain 0.
    The checks run in that order and the report names the first that fails.
    """
    grid = [float(r) for r in grid]
    if any(r2 <= r1 for r1, r2 in zip(grid, grid[1:])):
        raise ValueError("grid must be sorted strictly increasing")
    if 0.0 not in grid:
        raise ValueError("grid must contain 0")
    if not all(math.isfinite(r) for r in grid):
        raise ValueError("grid must be finite")

    values = [alpha(r) for r in grid]

    at_zero = values[grid.index(0.0)]
    if at_zero != 0.0:
        return MembershipReport("zero", (0.0, at_zero))
    for (r1, v1), (r2, v2) in zip(zip(grid, values), zip(grid[1:], values[1:])):
        if v2 <= v1:
            return MembershipReport("monotonicity", (r1, r2))
    for r, v in zip(grid, values):
        if (r > 0.0 and v <= 0.0) or (r < 0.0 and v >= 0.0):
            return MembershipReport("sign", (r, v))
    return MembershipReport()


def lipschitz_probe(fn: Callable[[np.ndarray], np.ndarray], samples: Sequence[np.ndarray]) -> float:
    """Max finite-difference ratio ||fn(a)-fn(b)|| / ||a-b|| over sample pairs.

    Diagnostic only; local Lipschitz continuity is an assumption of the
    theory, not something a finite sample can establish.
    """
    values = [np.atleast_1d(np.asarray(fn(s), dtype=float)).ravel() for s in samples]
    worst = 0.0
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            dx = float(np.linalg.norm(np.asarray(samples[i]) - np.asarray(samples[j])))
            if dx == 0.0:
                continue
            worst = max(worst, float(np.linalg.norm(values[i] - values[j])) / dx)
    return worst


def segway_energy(params: SegwayParams, x: np.ndarray) -> float:
    """Total mechanical energy; conserved when unactuated and frictionless."""
    _, vel, pitch, rate = x
    ml = params.body_mass * params.com_length
    d11 = params.body_mass + 1.5 * params.wheel_mass
    d12 = ml * math.cos(pitch)
    d22 = params.body_inertia + ml * params.com_length
    kinetic = 0.5 * (d11 * vel * vel + 2.0 * d12 * vel * rate + d22 * rate * rate)
    potential = params.body_mass * params.gravity * params.com_length * math.cos(pitch)
    return kinetic + potential


def segway_reference(params: SegwayParams) -> ControlAffineSystem:
    """The Segway evaluators in their earlier form, which memoize the last state: ``segway_true`` must match them bit for bit.

    4-state planar Segway: x = (pos, vel, pitch, pitch_rate), scalar torque u.

    ``drift`` and ``actuation`` share one mass-matrix evaluation per state:
    the last one is kept, keyed on the bytes of x (values, signs of zero
    included), never on the sequence's identity. Both return tuples of
    floats, ``actuation`` row-major (one entry per state).
    """
    p = params
    ml = p.body_mass * p.com_length
    neg_mgl = -p.body_mass * p.gravity * p.com_length
    d11 = p.body_mass + 1.5 * p.wheel_mass
    d22 = p.body_inertia + ml * p.com_length
    friction = p.viscous_friction
    b1 = p.motor_torque_scale / p.wheel_radius
    b2 = -p.motor_torque_scale
    last = (None, None)

    def accelerations(x) -> tuple:
        """(vel, free1, rate, free2, gain1, gain2) at x: qdd = free + gain * tau."""
        nonlocal last
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        cached_key, cached = last
        if key == cached_key:
            return cached
        _, vel, pitch, rate = x.tolist()
        sin_t = math.sin(pitch)
        cos_t = math.cos(pitch)
        d12 = ml * cos_t
        det = d11 * d22 - d12 * d12
        # rhs = B tau - C qd - G, with viscous friction acting on vel.
        c1 = -ml * sin_t * rate * rate + friction * vel
        g2 = neg_mgl * sin_t
        # Explicit 2x2 inverse: D^-1 = [[d22, -d12], [-d12, d11]] / det.
        out = (
            vel,
            (d22 * (-c1) - d12 * (-g2)) / det,
            rate,
            (-d12 * (-c1) + d11 * (-g2)) / det,
            (d22 * b1 - d12 * b2) / det,
            (-d12 * b1 + d11 * b2) / det,
        )
        last = (key, out)
        return out

    def drift(x) -> tuple:
        vel, f1, rate, f2, _, _ = accelerations(x)
        return vel, f1, rate, f2

    def actuation(x) -> tuple:
        _, _, _, _, g1, g2 = accelerations(x)
        return 0.0, g1, 0.0, g2

    return ControlAffineSystem(4, 1, drift, actuation)


@dataclass(frozen=True)
class PlanarDiskDemo:
    """Planar single integrator with a nontrivial norm projection.

    h(x) = 1 - ||x||^2 over R^2 with projection y = ||x||^2 and projected
    barrier h_proj(y) = 1 - y, sandwiched exactly by identity bounds. The
    disturbance pushes radially outward with a pulsing magnitude bounded by
    ``dist_bound``, and the desired input also pushes outward so the filter
    rides the constraint.
    """

    system: ControlAffineSystem
    barrier: BarrierFunction
    projection: Projection
    h_proj: Callable
    pair: CompatiblePair
    disturbance: DisturbanceSignal
    desired: Callable
    alpha: kfun.ComparisonFunction
    dist_bound: float


def planar_disk_demo(k: float = 1.0, dist_bound: float = 0.25,
                     pulse_frequency: float = 1.0, push: float = 0.5) -> PlanarDiskDemo:
    """The demo on the package's float contract: its evaluators take a sequence of two floats.

    f = 0, g = I (row-major), h = 1 - chain(x, x); the projection and the
    disturbance also take arrays, which the certificate checks pass them.
    """
    system = ControlAffineSystem(
        state_dim=2,
        input_dim=2,
        drift=lambda x: (0.0, 0.0),
        actuation=lambda x: (1.0, 0.0, 0.0, 1.0),
    )
    alpha = kfun.Linear(k)
    bar = BarrierFunction(
        h=lambda x: 1.0 - chain_reference(x, x),
        grad_h=lambda x: (-2.0 * x[0], -2.0 * x[1]),
        alpha=alpha,
    )
    projection = Projection(
        map=lambda x: np.array([chain_reference(x, x)]),
        jacobian=lambda x: 2.0 * np.asarray(x, dtype=float).reshape(1, 2),
    )

    def h_proj(y):
        return 1.0 - float(np.atleast_1d(y)[0])

    pair = CompatiblePair(
        barrier=bar,
        h_proj=h_proj,
        projection=projection,
        sigma_lower=kfun.Linear(1.0),
        sigma_upper=kfun.Linear(1.0),
    )

    omega = 2.0 * math.pi * pulse_frequency

    def pulsed_outward(t, x, u):
        r = math.hypot(x[0], x[1])
        if r < 1e-9:
            return (0.0, 0.0)
        scale = dist_bound * (0.7 + 0.3 * math.sin(omega * t)) / r
        return (scale * x[0], scale * x[1])

    disturbance = DisturbanceSignal(evaluator=pulsed_outward, declared_bound=dist_bound)

    def desired(x, t):
        r = math.hypot(x[0], x[1])
        if r < 1e-9:
            return (0.0, 0.0)
        return ((push / r) * x[0], (push / r) * x[1])

    return PlanarDiskDemo(
        system=system,
        barrier=bar,
        projection=projection,
        h_proj=h_proj,
        pair=pair,
        disturbance=disturbance,
        desired=desired,
        alpha=alpha,
        dist_bound=dist_bound,
    )
