import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pssf import kfun
from pssf.ioutil import rule_error
from pssf.kfun import (
    Composition,
    DomainError,
    Linear,
    Power,
)

from oracles import Interpolated, verify_class_membership


class TestEvaluate:
    def test_linear_zero(self):
        assert Linear(2.0)(0.0) == 0.0

    def test_linear_hand_value(self):
        # hand evaluation of k * r
        assert Linear(2.0)(0.3) == pytest.approx(0.6, abs=0.0)

    def test_power_odd_extension(self):
        # c |r|^p sign(r) at r = -2: -(1 * 4)
        assert Power(1.0, 2.0)(-2.0) == -4.0

    def test_power_zero_exact(self):
        assert Power(3.0, 0.5)(0.0) == 0.0

    def test_power_overflow_is_signed_infinity(self):
        # |r|^p alone overflows: c |r|^p rounds to +-inf for c >= 1, and stays finite when c brings it back.
        assert Power(1.0, 200.0)(-99.0) == -math.inf
        assert Power(1.0, 200.0)(99.0) == math.inf
        assert Power(1e-300, 200.0)(-40.0) == pytest.approx(-1e-300 * 4.0 ** 200 * 10.0 ** 200, rel=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Linear(0.0)
        with pytest.raises(ValueError):
            Power(-1.0, 2.0)
        with pytest.raises(ValueError):
            Linear(math.inf)
        with pytest.raises(ValueError):
            Power(1.0, math.inf)

    @pytest.mark.parametrize(
        "alpha",
        [
            Linear(2.0),
            Power(1.0, 3.0),
            Interpolated([(-1.0, -1.0), (0.0, 0.0), (1.0, 1.0)]),
            Composition(Linear(2.0), Power(1.0, 3.0)),
        ],
    )
    @pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
    def test_non_finite_argument_outside_domain(self, alpha, r):
        with pytest.raises(DomainError):
            alpha(r)


class TestInverse:
    def test_linear_identity(self):
        inv = Linear(1.0).inverse()
        assert isinstance(inv, Linear) and inv.k == 1.0

    def test_linear_hand_inversion(self):
        inv = Linear(4.0).inverse()
        assert inv.k == 0.25

    def test_power_hand_inversion(self):
        inv = Power(1.0, 2.0).inverse()
        assert (inv.c, inv.p) == (1.0, 0.5)
        for r in (0.1, 1.0, 7.5):
            assert inv(Power(1.0, 2.0)(r)) == pytest.approx(r, rel=1e-12)

    def test_composition_inverse_of_closed_forms(self):
        comp = Composition(Linear(2.0), Power(1.0, 3.0))
        inv = comp.inverse()
        for r in (-2.0, -0.3, 0.4, 5.0):
            assert inv(comp(r)) == pytest.approx(r, rel=1e-9)

    @given(st.floats(min_value=0.05, max_value=50.0), st.floats(min_value=-100.0, max_value=100.0))
    @settings(deadline=None, max_examples=100)
    def test_round_trip_linear(self, k, r):
        alpha = Linear(k)
        assert abs(alpha.inverse()(alpha(r)) - r) <= 1e-9 * max(1.0, abs(r))

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.25, max_value=4.0),
        st.floats(min_value=-20.0, max_value=20.0),
    )
    @settings(deadline=None, max_examples=100)
    def test_round_trip_power(self, c, p, r):
        alpha = Power(c, p)
        assert abs(alpha.inverse()(alpha(r)) - r) <= 1e-9 * max(1.0, abs(r))


class TestCompose:
    def test_identity_outer(self):
        gamma = Power(2.0, 3.0)
        comp = Composition(Linear(1.0), gamma)
        for r in (-1.5, 0.0, 0.7):
            assert comp(r) == gamma(r)

    def test_hand_evaluation(self):
        # 0.5 * (1 * 2^2)
        assert Composition(Linear(0.5), Power(1.0, 2.0))(2.0) == 2.0

    def test_inflation_pattern(self):
        # sigma_upper = Linear(2), gamma = Linear(6): composed slope 3
        comp = Composition(Linear(2.0).inverse(), Linear(6.0))
        assert comp(1.0) == 3.0

    def test_linear_coincidence_exact(self):
        # power-of-two upper bounds make (1/c) * g(r) == g(r) / c bitwise
        gamma = Power(1.3, 1.7)
        for c in (0.25, 0.5, 2.0, 4.0, 8.0):
            comp = Composition(Linear(c).inverse(), gamma)
            for r in (-3.7, -0.2, 0.9, 11.0):
                assert comp(r) == gamma(r) / c

    def test_linear_coincidence_general_scale(self):
        gamma = Linear(6.0)
        comp = Composition(Linear(3.0).inverse(), gamma)
        for r in (-2.0, 0.4, 1.0, 9.3):
            assert comp(r) == pytest.approx(gamma(r) / 3.0, rel=1e-15)

    @given(
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=0.5, max_value=2.0),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(deadline=None, max_examples=100)
    def test_associativity_on_evaluation(self, k1, k2, p, r):
        a, b, c = Linear(k1), Power(k2, p), Linear(2.0)
        left = Composition(a, Composition(b, c))(r)
        right = Composition(Composition(a, b), c)(r)
        assert left == pytest.approx(right, abs=1e-12 * max(1.0, abs(left)))

    @given(
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=0.5, max_value=2.0),
    )
    @settings(deadline=None, max_examples=50)
    def test_class_closure(self, k, p):
        comp = Composition(Linear(k), Power(1.0, p))
        grid = sorted(set(np.linspace(-3.0, 3.0, 31)) | {0.0})
        assert verify_class_membership(comp, grid).passed


class TestMembership:
    def test_identity_passes(self):
        assert verify_class_membership(Linear(1.0), [-1.0, 0.0, 1.0]).passed

    def test_constructed_monotonicity_violation(self):
        tab = Interpolated([(0.0, 0.0), (1.0, 0.5), (2.0, 0.4)])
        report = verify_class_membership(tab, [0.0, 1.0, 2.0])
        assert not report.passed
        assert report.failure == "monotonicity"
        assert report.first_violation == (1.0, 2.0)

    def test_power_brute_force_scan(self):
        grid = sorted(set(np.linspace(-5.0, 5.0, 101)) | {0.0})
        assert verify_class_membership(Power(1.0, 3.0), grid).passed

    def test_zero_violation_reported(self):
        tab = Interpolated([(-1.0, -0.5), (0.0, 0.1), (1.0, 0.7)])
        report = verify_class_membership(tab, [-1.0, 0.0, 1.0])
        assert not report.passed and report.failure == "zero"

    def test_grid_preconditions(self):
        with pytest.raises(ValueError):
            verify_class_membership(Linear(1.0), [1.0, 0.0])
        with pytest.raises(ValueError):
            verify_class_membership(Linear(1.0), [-1.0, 1.0])
        with pytest.raises(ValueError, match="grid must be finite"):
            verify_class_membership(Linear(1.0), [-1.0, 0.0, math.inf])


def _composition(depth: int) -> tuple:
    """A composition ``depth`` levels deep, and its config spec: each level's outer part a power, its inner part deeper."""
    if depth == 0:
        return Linear(1.5), {"family": "linear", "k": 1.5}
    fn, spec = _composition(depth - 1)
    return (Composition(Power(0.5, 1.0 + depth), fn),
            {"family": "composition", "outer": {"family": "power", "c": 0.5, "p": 1.0 + depth}, "inner": spec})


class TestSerialization:
    # from_config builds from a spec that keeps ALPHA, the rule the config walker checks it against.
    @pytest.mark.parametrize(
        "alpha",  # (constructed function, its config spec)
        [
            (Linear(2.5), {"family": "linear", "k": 2.5}),
            (Power(1.2, 0.5), {"family": "power", "c": 1.2, "p": 0.5}),
            (Composition(Linear(2.0), Power(1.0, 2.0)),
             {"family": "composition", "outer": {"family": "linear", "k": 2.0},
              "inner": {"family": "power", "c": 1.0, "p": 2.0}}),
            _composition(3),
        ],
    )
    def test_round_trip(self, alpha):
        fn, spec = alpha
        assert rule_error(kfun.ALPHA, spec) is None
        rebuilt = kfun.from_config(spec)
        assert rebuilt == fn
        for r in (-2.0, 0.0, 0.3, 0.9, 7.0):
            assert rebuilt(r) == fn(r)

    def test_integer_parameters_build_floats(self):
        # An int keeps the rule's "number"; the function holds its float, as the certificate's k is written.
        spec = {"family": "composition", "outer": {"family": "linear", "k": 2}, "inner": {"family": "power", "c": 1, "p": 3}}
        assert rule_error(kfun.ALPHA, spec) is None
        rebuilt = kfun.from_config(spec)
        assert rebuilt == Composition(Linear(2.0), Power(1.0, 3.0))
        assert [type(v) for v in (rebuilt.outer.k, rebuilt.inner.c, rebuilt.inner.p)] == [float] * 3

    def test_unknown_family_rejected(self):
        # Every family's branch rejects the name, so the error names the family with every one there is.
        families = "['composition', 'linear', 'power']"
        assert rule_error(kfun.ALPHA, {"family": "exp", "k": 1.0}) == f"family: 'exp' is not one of {families}"
        assert rule_error(kfun.ALPHA, {"family": "nope"}) == f"family: 'nope' is not one of {families}"
        inner = {"family": "composition", "outer": {"family": "linear", "k": 1.0}, "inner": {"family": "exp", "k": 1.0}}
        assert rule_error(kfun.ALPHA, inner) == f"inner.family: 'exp' is not one of {families}"

    def test_unknown_keys_rejected(self):
        assert (rule_error(kfun.ALPHA, {"family": "linear", "k": 1.0, "kk": 2.0})
                == "<root>: Additional properties are not allowed ('kk' was unexpected)")
        assert rule_error(kfun.ALPHA, {"family": "power", "c": 1.0}) == "<root>: 'p' is a required property"

    @pytest.mark.parametrize("param", [0, -1.0, math.inf, math.nan, 10 ** 400, "2", True, None],
                             ids=["zero", "negative", "inf", "nan", "int_past_float", "string", "bool", "null"])
    def test_parameters_are_positive_finite_numbers(self, param):
        assert rule_error(kfun.ALPHA, {"family": "linear", "k": param}).startswith("k: ")
        assert rule_error(kfun.ALPHA, {"family": "power", "c": 1.0, "p": param}).startswith("p: ")
