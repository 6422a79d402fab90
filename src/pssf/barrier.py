"""Barrier functions, safety condition margins, and the min-norm filter.

The safe set is C = {x : h(x) >= 0}. The filter solves

    min ||u - u_des||^2   s.t.   hdot_model(x, u) >= -alpha(h(x))

in closed form, where hdot_model uses the design model (f_hat, g_hat) and,
when a residual model is supplied, its learned correction terms
b_hat(x) + a_hat(x)^T u in the barrier derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol

import numpy as np

from .dynamics import ControlAffineSystem
from .kfun import ComparisonFunction, Linear


class DegenerateGradientError(RuntimeError):
    """The barrier gradient vanished where a worst-case direction is needed."""


class HdotResidual(Protocol):
    """Learned correction to the modeled barrier derivative."""

    def terms(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Return (b_hat(x), a_hat(x)) with a_hat of shape (m,)."""
        ...


@dataclass(frozen=True)
class BarrierFunction:
    """h, its analytic gradient, and the decay rate alpha (extended class K-inf)."""

    h: Callable[[np.ndarray], float]
    grad_h: Callable[[np.ndarray], np.ndarray]
    alpha: ComparisonFunction


@dataclass(frozen=True)
class FilterResult:
    u: np.ndarray
    constraint_margin: float
    modified: bool
    infeasible: bool


def dot(a: np.ndarray, v: np.ndarray) -> float:
    """float(a @ v) for 1-D a and v; a single product runs on floats (numpy's sum starts from +0.0, so does this)."""
    return 0.0 + a.item() * v.item() if a.size == 1 else float(a @ v)


def h_dot(bar: BarrierFunction, sys: ControlAffineSystem, x: np.ndarray, u: np.ndarray) -> float:
    """hdot(x, u) = dh/dx(x) . (f(x) + g(x) u)."""
    return float(bar.grad_h(x).dot(sys.field_at(x, u)))


def cbf_margin(bar: BarrierFunction, sys: ControlAffineSystem, x: np.ndarray, u: np.ndarray) -> float:
    """hdot(x, u) + alpha(h(x)); u satisfies the barrier condition iff >= 0."""
    return h_dot(bar, sys, x, u) + bar.alpha(bar.h(x))


def issf_margin(
    bar: BarrierFunction,
    sys: ControlAffineSystem,
    x: np.ndarray,
    u: np.ndarray,
    d_bound: float,
    iota: ComparisonFunction = Linear(1.0),
) -> float:
    """Worst-case disturbed margin inf_{||d|| <= d_bound} [hdot(x,u,d) + alpha(h) + iota(||d||)].

    Since grad_h . d >= -||grad_h|| ||d||, the worst disturbance of a given
    norm is anti-aligned with the gradient, so the problem reduces to one
    dimension in ||d||. The binding case d = -d_bound * grad_h / ||grad_h||
    and the d = 0 case are evaluated and the minimum returned; for affine or
    concave iota the one-dimensional objective is concave and this endpoint
    evaluation is exact.
    """
    if d_bound < 0.0:
        raise ValueError("d_bound must be >= 0")
    base = cbf_margin(bar, sys, x, u)
    if d_bound == 0.0:
        return base
    grad_norm = float(np.linalg.norm(bar.grad_h(x)))
    if grad_norm == 0.0:
        raise DegenerateGradientError(
            f"grad_h(x) = 0 with d_bound > 0; the d = 0 margin is {base}"
        )
    binding = base - d_bound * grad_norm + iota(d_bound)
    return min(base, binding)


def safety_filter(
    bar: BarrierFunction,
    model: ControlAffineSystem,
    u_des: np.ndarray,
    x: np.ndarray,
    residual: Optional[HdotResidual] = None,
) -> FilterResult:
    """Min-norm modification of u_des enforcing the model barrier condition.

    With a = grad_h(x)^T g_hat(x) + a_hat(x) and
    b = -alpha(h(x)) - grad_h(x)^T f_hat(x) - b_hat(x), the constraint is
    a . u >= b and the closed-form minimizer is the Euclidean projection of
    u_des onto that half-space. If ||a|| vanishes while the constraint is
    violated the problem is infeasible (h is momentarily uncontrollable);
    u_des is returned with the infeasible flag set so the rollout and its
    PSSf analysis can continue.
    """
    u_des = np.asarray(u_des, dtype=float).reshape(model.input_dim)
    grad = bar.grad_h(x)
    a = grad.dot(model.actuation(x))
    b = -bar.alpha(bar.h(x)) - float(grad.dot(model.drift(x)))
    if residual is not None:
        b_hat, a_hat = residual.terms(x)
        a = a + a_hat
        b = b - b_hat

    slack = dot(a, u_des) - b
    if slack >= 0.0:
        return FilterResult(u=u_des, constraint_margin=slack, modified=False, infeasible=False)

    a_sq = dot(a, a)
    if a_sq <= 1e-10 ** 2:
        return FilterResult(u=u_des, constraint_margin=slack, modified=False, infeasible=True)

    step = -slack / a_sq
    u = np.array([u_des.item() + step * a.item()]) if a.size == 1 else u_des + step * a
    return FilterResult(u=u, constraint_margin=dot(a, u) - b, modified=True, infeasible=False)


class FilteredController:
    """Callable (x, t) -> u wrapping a desired controller with the safety filter.

    ``desired(x, t)`` produces u_des; the filter enforces the barrier
    condition on the design model, optionally with learned residual terms.
    ``u_limit`` is an optional actuator clamp applied after filtering: the
    min-norm correction u = u_des + ((b - a.u_des)/||a||^2) a blows up where
    the constraint coefficient a nearly vanishes (degenerate controllability
    of h), and a physical plant cannot deliver such torques anyway.
    """

    def __init__(
        self,
        bar: BarrierFunction,
        model: ControlAffineSystem,
        desired: Callable[[np.ndarray, float], np.ndarray],
        residual: Optional[HdotResidual] = None,
        u_limit: Optional[float] = None,
    ):
        self.bar = bar
        self.model = model
        self.desired = desired
        self.residual = residual
        self.u_limit = u_limit
        # Monitor whether the (possibly learned) barrier condition ever became
        # unenforceable, and how often the clamp overrode the filtered input;
        # the filter itself never aborts. Scenario.rollout builds a controller
        # per rollout, so these count one rollout.
        self.infeasible_count = 0
        self.clamped_count = 0

    def filter_result(self, x: np.ndarray, t: float) -> FilterResult:
        u_des = np.asarray(self.desired(x, t), dtype=float)
        return safety_filter(self.bar, self.model, u_des, x, residual=self.residual)

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        result = self.filter_result(x, t)
        if result.infeasible:
            self.infeasible_count += 1
        u = result.u
        if self.u_limit is not None and any(abs(v) > self.u_limit for v in u.tolist()):
            self.clamped_count += 1
            u = np.minimum(np.maximum(u, -self.u_limit), self.u_limit)
        return u
