"""Control-affine systems, the planar Segway model pair, and rollouts.

Systems are represented by their drift f(x) and actuation g(x) evaluators,
so xdot = f(x) + g(x) u (+ d for an additive disturbance). Rollouts use
fixed-step classical Runge-Kutta with zero-order-hold inputs, which keeps
simulations deterministic and mirrors a discrete control loop.

The closed loop runs on Python floats: a state, an input, f(x) and the
row-major entries of g(x) are sequences of floats, and numpy only stores
what a rollout records. Every sum of products, here and in ``barrier``,
``certify`` and ``learning``, is one left-to-right chain from 0.0 through
:func:`dot`, so no result depends on a BLAS kernel's summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np

from .ioutil import write_csv

#: Any state component beyond this magnitude is treated as numerical blow-up.
BLOWUP_LIMIT = 1e8


class NumericalBlowUpError(RuntimeError):
    """A state component exceeded :data:`BLOWUP_LIMIT` during integration."""


class NonFiniteDynamicsError(RuntimeError):
    """Drift or actuation produced NaN/Inf, which is a hard error."""


@dataclass(frozen=True)
class ControlAffineSystem:
    """Evaluators for xdot = f(x) + g(x) u.

    Attributes:
        state_dim: n, dimension of the state.
        input_dim: m, dimension of the input.
        drift: x -> f(x), a sequence of n floats.
        actuation: x -> g(x), a sequence of n * m floats, row-major: g[i * m + k] is the (i, k) entry.

    ``drift`` and ``actuation`` receive x as a sequence of n floats (a tuple
    or list in a rollout). They must be pure functions of its values that
    keep no state between calls; the Segway's return tuples. Each entry of
    g u is the chain :func:`dot` defines. :func:`step_rk4` evaluates each of
    them once per RK stage. Local Lipschitz continuity of f and g is assumed,
    not checked.
    """

    state_dim: int
    input_dim: int
    drift: Callable[[Sequence[float]], Sequence[float]]
    actuation: Callable[[Sequence[float]], Sequence[float]]

    def field_at(self, x: Sequence[float], u: Sequence[float], d: Optional[Sequence[float]] = None) -> list:
        """xdot = f(x) + g(x) u (+ d) as a list of floats."""
        return affine_field(u, d)(self.drift(x), self.actuation(x))


@dataclass(frozen=True)
class SegwayParams:
    """Physical parameters of the planar Segway (artifact defaults, SI units).

    The defaults describe a plausible human-carrying platform. They are
    artifact choices kept in config, not measured data. Only parameters whose
    mass matrix has det D(q) >= 1e-10 at pitch 0, and so at every pitch (see
    :func:`segway_true`), can be built.
    """

    body_mass: float = 44.8
    wheel_mass: float = 2.0
    com_length: float = 0.8
    body_inertia: float = 6.0
    wheel_radius: float = 0.195
    gravity: float = 9.81
    viscous_friction: float = 0.1
    motor_torque_scale: float = 1.0

    def __post_init__(self):
        positive = (
            "body_mass", "wheel_mass", "com_length", "body_inertia",
            "wheel_radius", "gravity", "motor_torque_scale",
        )
        for name in positive:
            if not getattr(self, name) > 0.0:
                raise ValueError(f"SegwayParams.{name} must be strictly positive")
        if self.viscous_friction < 0.0:
            raise ValueError("SegwayParams.viscous_friction must be >= 0")
        ml, d11, d22 = self.inertia()
        det = d11 * d22 - ml * ml  # det D(q) at cos(pitch) = 1
        if not det >= 1e-10:
            raise ValueError(f"singular mass matrix: det D(q) = {det} at pitch 0.0 is below 1e-10")

    def inertia(self) -> tuple[float, float, float]:
        """(m l, d11, d22): D(q) = [[d11, m l cos(pitch)], [m l cos(pitch), d22]]."""
        ml = self.body_mass * self.com_length
        return ml, self.body_mass + 1.5 * self.wheel_mass, self.body_inertia + ml * self.com_length


def segway_true(params: SegwayParams) -> ControlAffineSystem:
    """4-state planar Segway: x = (pos, vel, pitch, pitch_rate), scalar torque u.

    Wheeled inverted pendulum with coordinates q = (pos, pitch):

        D(q) qdd + C(q, qd) qd + G(q) = B tau

    The wheel's equivalent translational inertia uses the solid-disc value
    J_w / R^2 = wheel_mass / 2.

    The evaluators need no singularity guard: |cos(pitch)| <= 1 and rounding
    is monotone, so det D(q) at any pitch is at least its pitch-0 value, which
    :class:`SegwayParams` holds at 1e-10 or more. They keep no state between
    calls; ``actuation`` reads only the pitch. Both return tuples of floats.
    """
    p = params
    ml, d11, d22 = p.inertia()
    neg_ml, neg_mgl = -ml, -p.body_mass * p.gravity * p.com_length
    friction = p.viscous_friction
    b1 = p.motor_torque_scale / p.wheel_radius
    b2 = -p.motor_torque_scale
    # Products of constants, each rounded once as the formulas below would round them per call.
    d11_d22, d22_b1, d11_b2 = d11 * d22, d22 * b1, d11 * b2
    sin, cos = math.sin, math.cos

    def drift(x: Sequence[float]) -> tuple:
        _, vel, pitch, rate = x
        sin_t = sin(pitch)
        d12 = ml * cos(pitch)
        det = d11_d22 - d12 * d12
        # rhs = B tau - C qd - G, with viscous friction acting on vel.
        c1 = neg_ml * sin_t * rate * rate + friction * vel
        g2 = neg_mgl * sin_t
        # Explicit 2x2 inverse: D^-1 = [[d22, -d12], [-d12, d11]] / det.
        return vel, (d22 * (-c1) - d12 * (-g2)) / det, rate, (-d12 * (-c1) + d11 * (-g2)) / det

    def actuation(x: Sequence[float]) -> tuple:
        d12 = ml * cos(x[2])
        det = d11_d22 - d12 * d12
        return 0.0, (d22_b1 - d12 * b2) / det, 0.0, (-d12 * b1 + d11_b2) / det

    return ControlAffineSystem(4, 1, drift, actuation)


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step rollout record.

    len(states) == len(times) and len(inputs) == len(times) - 1; inputs[j]
    is the zero-order-hold input applied over [times[j], times[j+1]). A
    rollout that ended early holds why in ``termination_reason``.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    termination_reason: Optional[str] = None

    @property
    def terminated_early(self) -> bool:
        return self.termination_reason is not None

    def to_csv(self, path) -> None:
        """Write `t, x1..xn, u1..um` rows; the final row has no input cells."""
        n = self.states.shape[1]
        m = self.inputs.shape[1]
        header = ["t"] + [f"x{i + 1}" for i in range(n)] + [f"u{i + 1}" for i in range(m)]
        inputs = self.inputs.tolist() + [[None] * m]
        write_csv(path, header, ([t, *x, *u] for t, x, u in zip(self.times.tolist(), self.states.tolist(), inputs)))


def dot(a: Sequence[float], b: Sequence[float]) -> float:
    """sum_i a_i b_i as one left-to-right chain from 0.0, ((0.0 + a_0 b_0) + a_1 b_1) + ...: the one sum rule."""
    total = 0.0
    for ai, bi in zip(a, b):
        total += ai * bi
    return total


def affine_field(u: Sequence[float], d: Optional[Sequence[float]] = None) -> Callable[[Sequence[float], Sequence[float]], list]:
    """The map (f, g) -> f + g u (+ d) as a list of floats: entry i is f_i + dot(row i of g, u) (+ d_i).

    The chains of g u advance one input at a time over every row together, as
    ``FeatureMap`` evaluates a stack: ((0.0 + g_i0 u_0) + g_i1 u_1) + ..., the
    last step fused with the add of f_i. Built once per step, the map serves
    every RK stage.
    """
    m = len(u)
    head, u_last = range(m - 1), u[m - 1]
    dl = None if d is None else [float(v) for v in d]

    def field(f: Sequence[float], g: Sequence[float]) -> list:
        gu = repeat(0.0)  # every chain starts from 0.0
        for k in head:
            uk = u[k]
            gu = [s + gik * uk for s, gik in zip(gu, g[k::m])]
        xdot = [fi + (s + gik * u_last) for fi, s, gik in zip(f, gu, g[m - 1::m])]
        return xdot if dl is None else [ki + di for ki, di in zip(xdot, dl)]

    return field


def step_rk4(
    system: ControlAffineSystem,
    x: Sequence[float],
    u: Sequence[float],
    d: Optional[Sequence[float]],
    dt: float,
) -> tuple:
    """One classical RK4 step of xdot = f(x) + g(x)u + d, u and d held constant, on floats; returns the state as a tuple."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    field, drift, actuation = affine_field(u, d), system.drift, system.actuation
    half = 0.5 * dt  # 0.5 * dt * k evaluates as (0.5 * dt) * k
    k1 = field(drift(x), actuation(x))
    z = [xi + half * ki for xi, ki in zip(x, k1)]
    k2 = field(drift(z), actuation(z))
    z = [xi + half * ki for xi, ki in zip(x, k2)]
    k3 = field(drift(z), actuation(z))
    z = [xi + dt * ki for xi, ki in zip(x, k3)]
    k4 = field(drift(z), actuation(z))
    sixth = dt / 6.0
    x_next = tuple([xi + sixth * (a + 2.0 * b + 2.0 * c + e) for xi, a, b, c, e in zip(x, k1, k2, k3, k4)])
    # The sum of |x_i| is at least their max (rounding is monotone) and is inf or NaN if any entry is: one screen for both.
    if not sum(map(abs, x_next)) <= BLOWUP_LIMIT:
        if not all(map(math.isfinite, x_next)):
            raise NonFiniteDynamicsError(f"non-finite state after step from {tuple(x)}")
        if max(map(abs, x_next)) > BLOWUP_LIMIT:
            raise NumericalBlowUpError(f"state magnitude exceeded {BLOWUP_LIMIT:g}")
    return x_next


def step_count(duration: float, dt: float) -> int:
    """Number of dt steps in duration; ValueError unless duration/dt is finite and within 1e-9 of an integer.

    Zero steps are allowed; a configured run needs at least one (``config.check_steps``).
    """
    steps_exact = duration / dt
    if not (math.isfinite(steps_exact) and abs(steps_exact - round(steps_exact)) <= 1e-9):
        raise ValueError(f"duration/dt = {steps_exact} is not close to an integer")
    return round(steps_exact)


def simulate(
    system: ControlAffineSystem,
    controller: Callable[[tuple, float], Sequence[float]],
    x0: Sequence[float],
    duration: float,
    dt: float,
    disturbance: Optional[Callable[[float, tuple, Sequence[float]], Sequence[float]]] = None,
) -> Trajectory:
    """Fixed-step closed-loop rollout.

    ``controller(x, t)`` gets the state as a tuple of floats and returns the
    m inputs applied over the following step; the recorded inputs are exactly
    the controller outputs used. ``disturbance(t, x, u)``, if given, is the
    additive d held over the step. Numerical blow-up or non-finite dynamics
    terminate the rollout early with a reason instead of raising. It runs
    :func:`step_count` steps.
    """
    n_steps = step_count(duration, dt)

    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.state_dim,):
        raise ValueError(f"x0 has shape {x0.shape}, expected {(system.state_dim,)}")
    x = tuple(x0.tolist())

    states = np.empty((n_steps + 1, system.state_dim))
    inputs = np.empty((n_steps, system.input_dim))
    states[0] = x
    reason = None
    completed = 0
    for j in range(n_steps):
        t = j * dt
        u = controller(x, t)
        if len(u) != system.input_dim:
            raise ValueError(f"the controller returned {len(u)} inputs, expected {system.input_dim}")
        d = disturbance(t, x, u) if disturbance is not None else None
        try:
            x = step_rk4(system, x, u, d, dt)
        except NumericalBlowUpError:
            reason = "numerical blow-up"
            break
        except NonFiniteDynamicsError:
            reason = "non-finite dynamics"
            break
        inputs[j] = u
        states[j + 1] = x
        completed = j + 1

    times = np.arange(completed + 1) * dt
    return Trajectory(
        times=times,
        states=states[: completed + 1].copy(),
        inputs=inputs[:completed].copy(),
        termination_reason=reason,
    )
