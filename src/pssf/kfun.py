"""Comparison-function algebra: class K, class K-infinity, and extended variants.

These scalar maps (strictly increasing, zero at zero) parameterize every
safety condition in the package: the barrier decay rate, the disturbance
gain, the set-inflation gain, and the sandwich bounds used by compatible
projections. Closed forms are kept wherever they exist so that inverses and
compositions stay cheap and exact.

Families:
    Linear(k)              k * r
    Power(c, p)            c * |r|**p * sign(r)   (odd extension on r < 0)
    Composition(o, i)      o(i(r))
    TabulatedMonotone(..)  monotone piecewise-linear interpolation

The odd extension for ``Power`` is the library's canonical rule for
extending class-K functions to negative arguments; it makes every family
usable as an extended class-K function without separate code paths.

Every function has one domain, a :class:`Domain`: the finite arguments in
[lower, upper], ends included, and 0. Closed forms take all reals, a table
the span of its abscissae, and a composition its inner function's domain,
clipped at 0 from below when the outer function is not extended. Infinite
and NaN arguments lie outside every domain; constructors reject non-finite
parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

class DomainError(ValueError):
    """Argument lies outside the comparison function's domain."""


class NotInvertibleError(ValueError):
    """The comparison function has no closed-form or tabulated inverse."""


@dataclass(frozen=True)
class Domain:
    """Finite arguments in [lower, upper], and 0; extended reaches below 0."""

    lower: float = -math.inf
    upper: float = math.inf

    @property
    def extended(self) -> bool:
        return self.lower < 0.0

    def contains(self, r: float) -> bool:
        return r == 0.0 or (self.lower <= r <= self.upper and math.isfinite(r))


class ComparisonFunction:
    """Base class. Instances are immutable and safe to share across tasks."""

    domain_kind: Domain = Domain()

    def __call__(self, r: float) -> float:
        if not self.domain_kind.contains(r):
            raise DomainError(
                f"{r!r} outside domain [{self.domain_kind.lower}, "
                f"{self.domain_kind.upper}] of {self!r}"
            )
        return self._eval(float(r))

    def _eval(self, r: float) -> float:
        raise NotImplementedError

    def inverse(self) -> "ComparisonFunction":
        raise NotInvertibleError(f"{type(self).__name__} has no closed-form inverse")


@dataclass(frozen=True)
class Linear(ComparisonFunction):
    """r -> k * r with finite k > 0. Extended class K-infinity."""

    k: float

    def __post_init__(self):
        if not 0.0 < self.k < math.inf:
            raise ValueError(f"Linear slope must be positive and finite, got {self.k}")

    def __call__(self, r: float) -> float:
        # Every finite argument is in the domain; inf and NaN take the generic check, which raises.
        return self.k * float(r) if math.isfinite(r) else super().__call__(r)

    def _eval(self, r: float) -> float:
        return self.k * r

    def inverse(self) -> "Linear":
        return Linear(1.0 / self.k)


@dataclass(frozen=True)
class Power(ComparisonFunction):
    """r -> c * |r|**p * sign(r) with finite c, p > 0 (odd extension)."""

    c: float
    p: float

    def __post_init__(self):
        if not (0.0 < self.c < math.inf and 0.0 < self.p < math.inf):
            raise ValueError(f"Power needs finite c > 0 and p > 0, got c={self.c}, p={self.p}")

    def _eval(self, r: float) -> float:
        if r == 0.0:
            return 0.0
        return self.c * abs(r) ** self.p * math.copysign(1.0, r)

    def inverse(self) -> "Power":
        # y = c |r|^p sign(r)  =>  r = (|y|/c)^(1/p) sign(y)
        return Power(self.c ** (-1.0 / self.p), 1.0 / self.p)


@dataclass(frozen=True)
class Composition(ComparisonFunction):
    """outer(inner(r)). Build through :func:`compose` to get domain checks."""

    outer: ComparisonFunction
    inner: ComparisonFunction
    domain_kind: Domain

    def _eval(self, r: float) -> float:
        return self.outer(self.inner(r))

    def inverse(self) -> "Composition":
        # (o . i)^-1 = i^-1 . o^-1; raises if either part lacks an inverse.
        return compose(self.inner.inverse(), self.outer.inverse())


@dataclass(frozen=True)
class TabulatedMonotone(ComparisonFunction):
    """Monotone piecewise-linear interpolant through (r, value) breakpoints.

    Lets callers certify with empirically sampled comparison functions. The
    constructor only requires finite breakpoints and strictly increasing
    abscissae; whether the table actually describes a class-K function is
    checked by :func:`verify_class_membership`, not here, so deliberately
    broken tables can be built and reported on.
    """

    breakpoints: tuple

    def __init__(self, breakpoints: Sequence[Sequence[float]]):
        pts = tuple((float(r), float(v)) for r, v in breakpoints)
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        if not all(math.isfinite(x) for pt in pts for x in pt):
            raise ValueError(f"breakpoints must be finite, got {pts}")
        rs = [r for r, _ in pts]
        if any(r2 <= r1 for r1, r2 in zip(rs, rs[1:])):
            raise ValueError("breakpoint abscissae must be strictly increasing")
        object.__setattr__(self, "breakpoints", pts)
        object.__setattr__(self, "domain_kind", Domain(rs[0], rs[-1]))

    def _eval(self, r: float) -> float:
        rs = [p[0] for p in self.breakpoints]
        vs = [p[1] for p in self.breakpoints]
        return float(np.interp(r, rs, vs))

    def inverse(self) -> "TabulatedMonotone":
        vs = [p[1] for p in self.breakpoints]
        if any(v2 <= v1 for v1, v2 in zip(vs, vs[1:])):
            raise NotInvertibleError("table values are not strictly increasing")
        return TabulatedMonotone([(v, r) for r, v in self.breakpoints])


def compose(outer: ComparisonFunction, inner: ComparisonFunction) -> Composition:
    """Composition outer(inner(r)).

    The range of ``inner`` must sit inside the domain of ``outer``; by
    monotonicity it suffices to check the two ends of the inner domain. An
    infinite end needs the outer domain to be infinite on the same side. The
    result takes the inner function's domain, clipped at 0 from below when
    the outer function is not extended.
    """
    ik, ok = inner.domain_kind, outer.domain_kind
    for end, outer_end, side in ((ik.upper, ok.upper, "above"), (ik.lower, ok.lower, "below")):
        if math.isinf(end):
            if outer_end != end:
                raise DomainError(f"inner range is unbounded {side} but outer domain is not")
        elif not ok.contains(value := inner._eval(end)):
            raise DomainError(f"range of inner reaches {value}, outside domain of outer")
    lower = ik.lower if ok.extended else max(ik.lower, 0.0)
    return Composition(outer, inner, Domain(lower, ik.upper))


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

    The grid must be sorted, lie inside alpha's claimed domain, and contain 0.
    The checks run in that order and the report names the first that fails.
    """
    grid = [float(r) for r in grid]
    if any(r2 <= r1 for r1, r2 in zip(grid, grid[1:])):
        raise ValueError("grid must be sorted strictly increasing")
    if 0.0 not in grid:
        raise ValueError("grid must contain 0")
    if not all(alpha.domain_kind.contains(r) for r in grid):
        raise ValueError("grid must lie inside the claimed domain")

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


def _number(value) -> float:
    """A config parameter as a float; only int and float values (not bool) are numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"comparison function parameters must be numbers, got {value!r}")
    return float(value)


def from_config(spec: dict) -> ComparisonFunction:
    """Build from the scenario-config form (named family + parameters).

    Unknown families or keys, and parameters that are not int or float, are errors.
    """
    if not isinstance(spec, dict) or "family" not in spec:
        raise ValueError(f"comparison function spec needs a 'family' key: {spec!r}")
    family = spec["family"]
    extra = set(spec) - {"family"}
    if family == "linear":
        if extra != {"k"}:
            raise ValueError(f"linear takes exactly 'k', got {sorted(extra)}")
        return Linear(_number(spec["k"]))
    if family == "power":
        if extra != {"c", "p"}:
            raise ValueError(f"power takes exactly 'c' and 'p', got {sorted(extra)}")
        return Power(_number(spec["c"]), _number(spec["p"]))
    if family == "composition":
        if extra != {"outer", "inner"}:
            raise ValueError(f"composition takes exactly 'outer' and 'inner', got {sorted(extra)}")
        return compose(from_config(spec["outer"]), from_config(spec["inner"]))
    if family == "tabulated":
        if extra != {"breakpoints"}:
            raise ValueError(f"tabulated takes exactly 'breakpoints', got {sorted(extra)}")
        return TabulatedMonotone([(_number(r), _number(v)) for r, v in spec["breakpoints"]])
    raise ValueError(f"unknown comparison function family {family!r}")
