"""Comparison-function algebra: extended class K-infinity functions on all reals.

These scalar maps (strictly increasing, zero at zero) parameterize every
safety condition in the package: the barrier decay rate, the disturbance
gain, the set-inflation gain, and the sandwich bounds used by compatible
projections. Every family is a closed form, so inverses and compositions
stay cheap and exact.

Families:
    Linear(k)              k * r
    Power(c, p)            c * |r|**p * sign(r)   (odd extension on r < 0)
    Composition(o, i)      o(i(r))

The odd extension for ``Power`` is the library's canonical rule for
extending class-K functions to negative arguments; it makes every family
usable as an extended class-K function without separate code paths.

Every function takes every finite argument, so any two compose. Infinite
and NaN arguments raise :class:`DomainError`; constructors reject
non-finite parameters. A config names a function by a block whose one rule
is ``ALPHA``, and :func:`from_config` builds from a block that keeps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ioutil import POSITIVE, rule_block


class DomainError(ValueError):
    """Argument is infinite or NaN."""


class NotInvertibleError(ValueError):
    """The comparison function has no closed-form inverse."""


class ComparisonFunction:
    """Base class. Instances are immutable and safe to share across tasks."""

    def __call__(self, r: float) -> float:
        if not math.isfinite(r):
            raise DomainError(f"{r!r} is not a finite argument of {self!r}")
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
        # The whole map, with no _eval: a finite argument skips the generic check; inf and NaN take it, which raises.
        return self.k * float(r) if math.isfinite(r) else super().__call__(r)

    def inverse(self) -> "Linear":
        return Linear(1.0 / self.k)


@dataclass(frozen=True)
class Power(ComparisonFunction):
    """r -> c * |r|**p * sign(r) with finite c, p > 0 (odd extension); +-inf where that overflows."""

    c: float
    p: float

    def __post_init__(self):
        if not (0.0 < self.c < math.inf and 0.0 < self.p < math.inf):
            raise ValueError(f"Power needs finite c > 0 and p > 0, got c={self.c}, p={self.p}")

    def _eval(self, r: float) -> float:
        if r == 0.0:
            return 0.0
        try:
            magnitude = self.c * abs(r) ** self.p
        except OverflowError:  # |r|^p is past the float range; c |r|^p may not be, if c < 1
            try:
                magnitude = math.exp(math.log(self.c) + self.p * math.log(abs(r)))
            except OverflowError:
                magnitude = math.inf
        return magnitude * math.copysign(1.0, r)

    def inverse(self) -> "Power":
        # y = c |r|^p sign(r)  =>  r = (|y|/c)^(1/p) sign(y)
        return Power(self.c ** (-1.0 / self.p), 1.0 / self.p)


@dataclass(frozen=True)
class Composition(ComparisonFunction):
    """outer(inner(r)), on all reals like both parts."""

    outer: ComparisonFunction
    inner: ComparisonFunction

    def _eval(self, r: float) -> float:
        return self.outer(self.inner(r))

    def inverse(self) -> "Composition":
        # (o . i)^-1 = i^-1 . o^-1; raises if either part lacks an inverse.
        return Composition(self.inner.inverse(), self.outer.inverse())


# The rule of a barrier.alpha block: a family and its parameters, where a composition's parts keep the rule too,
# so it refers to itself. That branch comes first: of equal failures the walker reports a part's, not the keys'.
ALPHA = {"type": "object", "anyOf": []}
_PARAMS = {"composition": {"outer": ALPHA, "inner": ALPHA}, "linear": {"k": POSITIVE},
           "power": {"c": POSITIVE, "p": POSITIVE}}
ALPHA["anyOf"] += [rule_block({"family": {"enum": [family]}, **params}, required=["family", *params])
                   for family, params in _PARAMS.items()]


def from_config(spec: dict) -> ComparisonFunction:
    """Build from the scenario-config form, a block that keeps ``ALPHA`` (named family + parameters)."""
    if spec["family"] == "linear":
        return Linear(float(spec["k"]))
    if spec["family"] == "power":
        return Power(float(spec["c"]), float(spec["p"]))
    return Composition(from_config(spec["outer"]), from_config(spec["inner"]))
