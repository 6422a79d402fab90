"""Reference checks and a toy fixture that only the tests use.

The ``pssf`` package holds what ``pssf simulate|learn|sweep`` runs and the
library of the PSSf argument (barrier, filter, projection, certificate,
learning). The helpers here judge that code instead of being part of it:
finite-difference checks of analytic derivatives, an energy oracle for the
Segway, the Segway evaluators' earlier memoizing form, the per-sample
functions, the CSV writer and the sampled drift-error sup in their earlier
numpy form, a sampled Lipschitz ratio, an alternative floor to compare
against ``transport_inflation``, a comparison function that may break the
class-K rules, and a planar-disk demo with a nontrivial projection.
Keeping them beside the tests gives every name one import path and keeps
``src/`` free of code that no run calls.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from pssf import kfun
from pssf.barrier import BarrierFunction, FilterResult, HdotResidual
from pssf.certify import CompatiblePair, Projection
from pssf.dynamics import (BLOWUP_LIMIT, ControlAffineSystem, DisturbanceSignal, NonFiniteDynamicsError,
                           NumericalBlowUpError, SegwayParams)
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


def feature_map_reference(features: FeatureMap, states: np.ndarray) -> np.ndarray:
    """``FeatureMap.__call__`` as first written: the selection as a list, integer exponents, the monomials by ``np.prod``."""
    states = np.asarray(states, dtype=float)
    indices = features.spec["indices"]
    sel = states[..., list(indices)] if indices is not None else states
    z = (sel - features.center) / features.scale
    if features.spec["kind"] == POLYNOMIAL:
        return np.prod(z[..., None, :] ** features._exponents.astype(int), axis=-1)
    return math.sqrt(2.0 / features.spec["count"]) * np.cos(z @ features._weights.T + features._phases)


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


# The per-sample functions as they were before their Python-float fast paths, copied unchanged
# (ControlAffineSystem.field_at as a function). The current ones must match them bit for bit.

def step_rk4_reference(
    system: ControlAffineSystem,
    x: np.ndarray,
    u: np.ndarray,
    d: Optional[np.ndarray],
    dt: float,
) -> np.ndarray:
    """One classical RK4 step of xdot = f(x) + g(x)u + d, u and d held constant."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    dl = None if d is None else d.tolist()
    if system.input_dim == 1:
        u0 = float(u[0])

    def field(z: np.ndarray) -> list:
        f, g = system.drift(z), system.actuation(z)
        if system.input_dim == 1:
            # numpy's g @ u sums from +0.0; adding 0.0 gives a zero product the same sign.
            k = [fi + (0.0 + gi * u0) for fi, (gi,) in zip(f.tolist(), g.tolist())]
        else:
            k = (f + g @ u).tolist()
        return k if dl is None else [ki + di for ki, di in zip(k, dl)]

    xs = x.tolist()
    k1 = field(x)
    k2 = field(np.array([xi + 0.5 * dt * ki for xi, ki in zip(xs, k1)]))
    k3 = field(np.array([xi + 0.5 * dt * ki for xi, ki in zip(xs, k2)]))
    k4 = field(np.array([xi + dt * ki for xi, ki in zip(xs, k3)]))
    x_next = [xi + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + e) for xi, a, b, c, e in zip(xs, k1, k2, k3, k4)]
    if not all(map(math.isfinite, x_next)):
        raise NonFiniteDynamicsError(f"non-finite state after step from {x}")
    if max(map(abs, x_next)) > BLOWUP_LIMIT:
        raise NumericalBlowUpError(f"state magnitude exceeded {BLOWUP_LIMIT:g}")
    return np.array(x_next)


def field_at_reference(sys: ControlAffineSystem, x: np.ndarray, u: np.ndarray, d: Optional[np.ndarray] = None) -> np.ndarray:
    """xdot = f(x) + g(x) u (+ d)."""
    xdot = sys.drift(x) + sys.actuation(x) @ u
    if d is not None:
        xdot = xdot + d
    return xdot


def h_dot_reference(bar: BarrierFunction, sys: ControlAffineSystem, x: np.ndarray, u: np.ndarray) -> float:
    """hdot(x, u) = dh/dx(x) . (f(x) + g(x) u)."""
    return float(bar.grad_h(x) @ field_at_reference(sys, x, u))


def safety_filter_reference(
    bar: BarrierFunction,
    model: ControlAffineSystem,
    u_des: np.ndarray,
    x: np.ndarray,
    residual: Optional[HdotResidual] = None,
) -> FilterResult:
    """Min-norm modification of u_des enforcing the model barrier condition."""
    u_des = np.asarray(u_des, dtype=float).reshape(model.input_dim)
    grad = bar.grad_h(x)
    a = grad @ model.actuation(x)
    b = -bar.alpha(bar.h(x)) - float(grad @ model.drift(x))
    if residual is not None:
        b_hat, a_hat = residual.terms(x)
        a = a + a_hat
        b = b - b_hat

    slack = float(a @ u_des) - b
    if slack >= 0.0:
        return FilterResult(u=u_des, constraint_margin=slack, modified=False, infeasible=False)

    a_sq = float(a @ a)
    if a_sq <= 1e-10 ** 2:
        return FilterResult(u=u_des, constraint_margin=slack, modified=False, infeasible=True)

    u = u_des + (-slack / a_sq) * a
    return FilterResult(u=u, constraint_margin=float(a @ u) - b, modified=True, infeasible=False)


def projected_disturbance_reference(
    bar: BarrierFunction,
    true_sys: ControlAffineSystem,
    nominal_sys: ControlAffineSystem,
    x: np.ndarray,
    u: np.ndarray,
    residual: Optional[HdotResidual] = None,
) -> float:
    """delta = grad_h(x) . [(f - f_hat)(x) + (g - g_hat)(x) u] - [b_hat(x) + a_hat(x) . u]."""
    grad = bar.grad_h(x)
    df = true_sys.drift(x) - nominal_sys.drift(x)
    dg = true_sys.actuation(x) - nominal_sys.actuation(x)
    delta = float(grad @ (df + dg @ u))
    if residual is not None:
        b_hat, a_hat = residual.terms(x)
        delta -= b_hat + float(np.asarray(a_hat) @ u)
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
    included), never on the array's identity.
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

    def drift(x: np.ndarray) -> np.ndarray:
        vel, f1, rate, f2, _, _ = accelerations(x)
        return np.array([vel, f1, rate, f2])

    def actuation(x: np.ndarray) -> np.ndarray:
        _, _, _, _, g1, g2 = accelerations(x)
        return np.array([[0.0], [g1], [0.0], [g2]])

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
    system = ControlAffineSystem(
        state_dim=2,
        input_dim=2,
        drift=lambda x: np.zeros(2),
        actuation=lambda x: np.eye(2),
    )
    alpha = kfun.Linear(k)
    bar = BarrierFunction(
        h=lambda x: 1.0 - float(x @ x),
        grad_h=lambda x: -2.0 * x,
        alpha=alpha,
    )
    projection = Projection(
        map=lambda x: np.array([float(x @ x)]),
        jacobian=lambda x: 2.0 * x.reshape(1, 2),
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
        r = float(np.linalg.norm(x))
        if r < 1e-9:
            return np.zeros(2)
        magnitude = dist_bound * (0.7 + 0.3 * math.sin(omega * t))
        return (magnitude / r) * x

    disturbance = DisturbanceSignal(evaluator=pulsed_outward, declared_bound=dist_bound)

    def desired(x, t):
        r = float(np.linalg.norm(x))
        if r < 1e-9:
            return np.zeros(2)
        return (push / r) * x

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
