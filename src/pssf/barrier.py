"""Barrier functions, safety condition margins, and the min-norm filter.

The safe set is C = {x : h(x) >= 0}. The filter solves

    min ||u - u_des||^2   s.t.   hdot_model(x, u) >= -alpha(h(x))

in closed form, where hdot_model uses the design model (f_hat, g_hat) and,
when a residual model is supplied, its learned correction terms
b_hat(x) + a_hat(x)^T u in the barrier derivative.

Everything here runs on Python floats, as the rollout does: h(x) is a float,
grad_h(x), u and a_hat(x) are sequences of floats, and each sum of products
(grad_h . g, grad_h . f, a . u) is a left-to-right chain from 0.0
through :func:`pssf.dynamics.dot`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Protocol, Sequence

import numpy as np

from .dynamics import ControlAffineSystem, dot
from .kfun import ComparisonFunction, Linear


class DegenerateGradientError(RuntimeError):
    """The barrier gradient vanished where a worst-case direction is needed."""


class HdotResidual(Protocol):
    """Learned correction to the modeled barrier derivative."""

    def terms(self, x: Sequence[float]) -> tuple[float, Sequence[float]]:
        """Return (b_hat(x), a_hat(x)) with a_hat a sequence of m floats."""
        ...


@dataclass(frozen=True)
class BarrierFunction:
    """h, its analytic gradient (a sequence of n floats), and the decay rate alpha (extended class K-inf)."""

    h: Callable[[Sequence[float]], float]
    grad_h: Callable[[Sequence[float]], Sequence[float]]
    alpha: ComparisonFunction


class FilterResult(NamedTuple):
    u: Sequence[float]
    constraint_margin: float
    modified: bool
    infeasible: bool


def h_dot(bar: BarrierFunction, sys: ControlAffineSystem, x: Sequence[float], u: Sequence[float]) -> float:
    """hdot(x, u) = dh/dx(x) . (f(x) + g(x) u)."""
    return dot(bar.grad_h(x), sys.field_at(x, u))


def cbf_margin(bar: BarrierFunction, sys: ControlAffineSystem, x: Sequence[float], u: Sequence[float]) -> float:
    """hdot(x, u) + alpha(h(x)); u satisfies the barrier condition iff >= 0."""
    return h_dot(bar, sys, x, u) + bar.alpha(bar.h(x))


def issf_margin(
    bar: BarrierFunction,
    sys: ControlAffineSystem,
    x: Sequence[float],
    u: Sequence[float],
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
    u_des: Sequence[float],
    x: Sequence[float],
    residual: Optional[HdotResidual] = None,
) -> FilterResult:
    """Min-norm modification of u_des enforcing the model barrier condition.

    With a = grad_h(x)^T g_hat(x) + a_hat(x) and
    b = -alpha(h(x)) - grad_h(x)^T f_hat(x) - b_hat(x), the constraint is
    a . u >= b and the closed-form minimizer is the Euclidean projection of
    u_des onto that half-space. If ||a|| vanishes while the constraint is
    violated the problem is infeasible (h is momentarily uncontrollable);
    u_des is returned with the infeasible flag set so the rollout and its
    PSSf analysis can continue. A modified u is a tuple of floats.
    """
    grad = bar.grad_h(x)
    g, m = model.actuation(x), model.input_dim
    a = [dot(grad, g[k::m]) for k in range(m)]
    b = -bar.alpha(bar.h(x)) - dot(grad, model.drift(x))
    if residual is not None:
        b_hat, a_hat = residual.terms(x)
        a = [ak + ak_hat for ak, ak_hat in zip(a, a_hat)]
        b = b - b_hat

    slack = dot(a, u_des) - b
    if slack >= 0.0:
        return FilterResult(u_des, slack, False, False)

    a_sq = dot(a, a)
    if a_sq <= 1e-10 ** 2:
        return FilterResult(u_des, slack, False, True)

    step = -slack / a_sq
    u = tuple([uk + step * ak for uk, ak in zip(u_des, a)])
    return FilterResult(u, dot(a, u) - b, True, False)


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
        desired: Callable[[Sequence[float], float], Sequence[float]],
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

    def filter_result(self, x: Sequence[float], t: float) -> FilterResult:
        return safety_filter(self.bar, self.model, self.desired(x, t), x, residual=self.residual)

    def __call__(self, x: Sequence[float], t: float) -> Sequence[float]:
        result = self.filter_result(x, t)
        if result.infeasible:
            self.infeasible_count += 1
        u, limit = result.u, self.u_limit
        if limit is not None and max(map(abs, u)) > limit:
            self.clamped_count += 1
            u = tuple([min(max(v, -limit), limit) for v in u])
        return u
