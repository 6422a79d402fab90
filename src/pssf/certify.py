"""Projected disturbances and projection-to-state safety certificates.

Model uncertainty is quantified where it matters for safety: as the scalar
mismatch delta between the true and modeled barrier derivative along the
closed loop. One formula, :func:`projected_disturbance`, gives it:
grad_h . [(f - f_hat) + (g - g_hat) u], minus the learned prediction
b_hat + a_hat . u when a residual model joins the design model. The worst
observed |delta| inflates the safe set; the inflated set
{h >= -alpha^-1(delta_bar)} is what a certificate claims stays invariant,
and :func:`verify_certificate` checks that claim against a trajectory
instead of assuming it.

delta is computed on Python floats, like the rollout it judges: recorded
states and inputs are read back one row at a time, and each sum of products
is a left-to-right chain from 0.0 (:func:`pssf.dynamics.dot`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .barrier import BarrierFunction, HdotResidual
from .dynamics import ControlAffineSystem, Trajectory, affine_field, dot
from .ioutil import write_csv
from .kfun import ComparisonFunction, Composition


@dataclass(frozen=True)
class Projection:
    """Continuously differentiable map y = P(x) with analytic Jacobian.

    ``map(x)`` returns y in R^k, ``jacobian(x)`` its k x n Jacobian.
    """

    map: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CompatiblePair:
    """Candidate compatible projection for a barrier.

    Claims sigma_lower(h(x)) <= h_proj(P(x)) <= sigma_upper(h(x)) for all x,
    which makes safe-set membership survive the projection. The claim is
    checked on samples by :func:`check_compatibility`, never assumed.
    """

    barrier: BarrierFunction
    h_proj: Callable[[np.ndarray], float]
    projection: Projection
    sigma_lower: ComparisonFunction
    sigma_upper: ComparisonFunction


@dataclass(frozen=True)
class CompatibilityReport:
    """Outcome of :func:`check_compatibility` over a sample set.

    The worst slacks cover every sample. ``failure`` names the first check
    ("lower", "upper" or "preservation") that fails at ``first_violation``,
    the first violating sample, or is None when every sample passes.
    """

    worst_lower_slack: float
    worst_upper_slack: float
    failure: Optional[str] = None
    first_violation: Optional[np.ndarray] = None

    @property
    def passed(self) -> bool:
        return self.failure is None


@dataclass(frozen=True)
class DeltaTrace:
    """Projected-disturbance samples along a trajectory."""

    times: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        if len(self.times) != len(self.delta):
            raise ValueError("times and delta must have equal length")
        if not np.all(np.isfinite(self.delta)):
            raise ValueError("delta trace contains non-finite values")

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "abs_delta"], zip(self.times.tolist(), np.abs(self.delta).tolist()))


@dataclass(frozen=True)
class PssfCertificate:
    """Worst-case projected disturbance and the inflated-set floor it implies.

    floor = -alpha^-1(delta_bar); the certified claim is that h never drops
    below the floor along the closed loop. One certificate can be checked
    against many rollouts, each with its own :class:`CertificateReport`.
    """

    delta_bar: float
    floor: float


@dataclass(frozen=True)
class CertificateReport:
    """Lowest h along one rollout and the verdict against a certificate's floor."""

    min_h: float
    status: str  # "pass" | "fail" | "precondition_violated" | "terminated_early"

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def projected_dynamics(
    proj: Projection,
    sys: ControlAffineSystem,
    x: np.ndarray,
    u: np.ndarray,
    d: Optional[np.ndarray] = None,
) -> np.ndarray:
    """ydot = D_P(x) (f(x) + g(x) u + d)."""
    jac = np.atleast_2d(np.asarray(proj.jacobian(x), dtype=float))
    return jac @ sys.field_at(x, u, d)


def check_compatibility(pair: CompatiblePair, samples: Sequence[np.ndarray], slack: float = 1e-9) -> CompatibilityReport:
    """Verify the sandwich inequalities and set preservation at every sample.

    Slacks are h_proj(P(x)) - sigma_lower(h(x)) and
    sigma_upper(h(x)) - h_proj(P(x)); both must stay above -slack. Set
    preservation additionally requires h(x) >= 0 => h_proj(P(x)) >= -slack.
    Violations are report content, not errors.
    """
    if len(samples) == 0:
        raise ValueError("samples must be nonempty")
    worst_lower = worst_upper = np.inf
    failure = first_violation = None
    for x in samples:
        x = np.asarray(x, dtype=float)
        hx = pair.barrier.h(x)
        hp = float(pair.h_proj(np.atleast_1d(pair.projection.map(x))))
        lo = hp - pair.sigma_lower(hx)
        hi = pair.sigma_upper(hx) - hp
        worst_lower = min(worst_lower, lo)
        worst_upper = min(worst_upper, hi)
        if failure is None:
            failure = ("lower" if lo < -slack else "upper" if hi < -slack
                       else "preservation" if hx >= 0.0 and hp < -slack else None)
            first_violation = None if failure is None else x
    return CompatibilityReport(float(worst_lower), float(worst_upper), failure, first_violation)


def projected_disturbance(
    bar: BarrierFunction,
    true_sys: ControlAffineSystem,
    nominal_sys: ControlAffineSystem,
    x: Sequence[float],
    u: Sequence[float],
    residual: Optional[HdotResidual] = None,
) -> float:
    """delta = grad_h(x) . [(f - f_hat)(x) + (g - g_hat)(x) u] - [b_hat(x) + a_hat(x) . u].

    The first term is hdot under the true system minus hdot under the design
    model: where model uncertainty shows up in the barrier derivative. Given a
    residual model, its prediction is subtracted, leaving what the learned
    terms do not explain; without one the prediction is zero.
    """
    grad = bar.grad_h(x)
    df = [fi - fi_hat for fi, fi_hat in zip(true_sys.drift(x), nominal_sys.drift(x))]
    dg = [gi - gi_hat for gi, gi_hat in zip(true_sys.actuation(x), nominal_sys.actuation(x))]
    delta = dot(grad, affine_field(u)(df, dg))
    if residual is not None:
        b_hat, a_hat = residual.terms(x)
        delta -= b_hat + dot(a_hat, u)
    return delta


def closed_loop_delta_trace(
    traj: Trajectory,
    bar: BarrierFunction,
    true_sys: ControlAffineSystem,
    nominal_sys: ControlAffineSystem,
    residual: Optional[HdotResidual] = None,
) -> DeltaTrace:
    """Evaluate delta along a recorded closed loop (one sample per step).

    Uses the recorded inputs, so the controller is baked in exactly as it
    acted during the rollout.
    """
    deltas = [projected_disturbance(bar, true_sys, nominal_sys, x.tolist(), u.tolist(), residual)
              for x, u in zip(traj.states, traj.inputs)]
    return DeltaTrace(times=traj.times[:-1].copy(), delta=np.array(deltas))


def delta_bound(trace: DeltaTrace) -> float:
    """Discrete sup-norm proxy: max over samples of |delta(t)|.

    The continuous-time quantity is an essential supremum; the sampled max
    is the documented approximation, with convergence under dt refinement
    exercised by the acceptance suite. The sup over no samples is 0 (a
    rollout that ends on its first step); its run reports early termination.
    """
    return float(np.max(np.abs(trace.delta), initial=0.0))


def make_certificate(alpha: ComparisonFunction, delta_bar: float) -> PssfCertificate:
    """Certificate with floor -alpha^-1(delta_bar); for alpha = k r this is -delta_bar/k."""
    if delta_bar < 0.0:
        raise ValueError("delta_bar must be >= 0")
    return PssfCertificate(delta_bar=delta_bar, floor=-alpha.inverse()(delta_bar))


def transport_inflation(sigma_upper: ComparisonFunction, gamma: ComparisonFunction) -> ComparisonFunction:
    """Pull an inflation gain on the projected set back to the original set.

    Returns gamma' = sigma_upper^-1 . gamma: if {h_proj >= -gamma(r)} is
    invariant in the projected space and sigma_upper bounds h_proj(P(x))
    from above by sigma_upper(h(x)), then {h >= -gamma'(r)} is invariant in
    the original space.
    """
    return Composition(sigma_upper.inverse(), gamma)


def verify_certificate(traj: Trajectory, bar: BarrierFunction, cert: PssfCertificate, tol: float = 1e-6) -> CertificateReport:
    """Check h(x(t)) >= floor - tol along the trajectory.

    The initial condition must already lie in the inflated set
    (h(x0) >= floor); calls violating that get a distinct status instead of
    a pass/fail verdict. So does a trajectory that terminated early, whose
    delta_bar and h cover only the part that ran. Failures are reported,
    never masked.
    """
    h_values = [bar.h(x.tolist()) for x in traj.states]
    min_h = min(h_values)
    if h_values[0] < cert.floor:
        status = "precondition_violated"
    elif traj.terminated_early:
        status = "terminated_early"
    elif min_h - cert.floor >= -tol:
        status = "pass"
    else:
        status = "fail"
    return CertificateReport(min_h=min_h, status=status)
