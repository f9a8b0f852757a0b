import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpklab.errors import ExpressionError, UnknownIdentifierError
from fpklab.expressions import MAX_DEPTH, parse_expression
from fpklab.grid import build_grid


def ev(source, **env):
    return parse_expression(source).evaluate(env)


class TestBasics:
    def test_literal_sum(self):
        assert ev("2 + cos(2*pi*x1)", x1=0.0) == pytest.approx(3.0)

    def test_incomplete_expression_offset(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("1 +")
        assert err.value.position == 3

    def test_gaussian_peak(self):
        assert ev("exp(-(x1-0.5)^2)", x1=0.5) == pytest.approx(1.0)

    def test_empty_source(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("")
        assert err.value.position == 0

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse_expression("2 + foo(x1)")
        assert err.value.position == 4

    def test_unexpected_character(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("1 $ 2")
        assert err.value.position == 2

    def test_unbalanced_paren(self):
        with pytest.raises(ExpressionError):
            parse_expression("(1 + 2")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            parse_expression("1 2")


def _nested(depth):
    """Sources of each deep shape, nested ``depth`` levels, and the offset
    at which one level more is rejected."""
    inner = depth - 1
    return {
        "sum": ("+".join(["x1"] * (depth + 1)), 0),
        "parentheses": ("(" * inner + "t" + ")" * inner, inner),
        "unary_minus": ("-" * inner + "t", inner),
        "power_chain": ("^".join(["x1"] * depth), 3 * inner),
        "calls": ("sin(" * inner + "t" + ")" * inner, 4 * inner),
        "sign_inside_sum": ("-(" + "+".join(["x1"] * depth) + ")", 0),
    }


class TestDepthBound:
    @pytest.mark.parametrize("shape", sorted(_nested(1)))
    def test_deepest_accepted_tree_evaluates_and_binds(self, shape):
        source, _ = _nested(MAX_DEPTH)[shape]
        expr = parse_expression(source)
        coords = {"x1": np.linspace(0.1, 0.9, 4)}
        bound = np.asarray(expr.bind(coords)(0.5), dtype=np.float64)
        plain = np.asarray(expr.evaluate({**coords, "t": 0.5}), dtype=np.float64)
        assert bound.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("shape", sorted(_nested(1)))
    def test_one_level_deeper_rejected_with_offset(self, shape):
        source, offset = _nested(MAX_DEPTH + 1)[shape]
        with pytest.raises(ExpressionError, match=f"nested deeper than {MAX_DEPTH} levels") as err:
            parse_expression(source)
        assert err.value.position == offset


class TestPrecedence:
    def test_mul_before_add(self):
        assert ev("2+3*4^2") == pytest.approx(50.0)

    def test_power_right_associative(self):
        assert ev("2^3^2") == pytest.approx(512.0)

    def test_unary_minus_binds_looser_than_power(self):
        assert ev("-x1^2", x1=2.0) == pytest.approx(-4.0)

    def test_negative_exponent(self):
        assert ev("2^-3") == pytest.approx(0.125)

    def test_division_left_associative(self):
        assert ev("8/4/2") == pytest.approx(1.0)

    def test_pi_constant(self):
        assert ev("2*pi") == pytest.approx(2 * math.pi)

    def test_pi_not_callable(self):
        with pytest.raises(ExpressionError):
            parse_expression("pi(1)")


class TestFunctions:
    def test_min_max(self):
        assert ev("min(1, 2)") == 1.0
        assert ev("max(x1, 0.5)", x1=0.25) == 0.5
        assert ev("max(1, 2, 3)") == 3.0

    def test_abs(self):
        assert ev("abs(-2)") == 2.0

    def test_unary_arity_enforced(self):
        with pytest.raises(ExpressionError):
            parse_expression("sin(1, 2)")
        with pytest.raises(ExpressionError):
            parse_expression("min(1)")

    def test_log_exp_roundtrip(self):
        assert ev("log(exp(x1))", x1=1.25) == pytest.approx(1.25)


class TestVariables:
    def test_uses_t_flag(self):
        assert parse_expression("1 + 0.1*sin(t)").uses_t
        assert not parse_expression("1 + x1").uses_t

    def test_missing_variable_reported(self):
        expr = parse_expression("x2 + 1")
        with pytest.raises(ExpressionError) as err:
            expr.evaluate({"x1": 0.0})
        assert "x2" in str(err.value)

    def test_t_supplied(self):
        assert ev("1 + 0.5*sin(t)", t=0.0) == pytest.approx(1.0)

    def test_broadcast_matches_scalar_loop(self):
        expr = parse_expression("exp(-x1) * (2 + cos(2*pi*x1)) - x1^3")
        xs = np.linspace(0.0, 1.0, 17)
        vec = expr.evaluate({"x1": xs})
        scalars = [expr.evaluate({"x1": float(v)}) for v in xs]
        assert np.allclose(vec, scalars, rtol=0, atol=0)


def _compound(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/^"), children).map(lambda p: f"({p[0]} {p[1]} {p[2]})"),
        children.map(lambda c: f"-{c}"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "log", "abs"]), children).map(
            lambda p: f"{p[0]}({p[1]})"
        ),
        st.tuples(st.sampled_from(["min", "max"]), st.lists(children, min_size=2, max_size=3)).map(
            lambda p: f"{p[0]}({', '.join(p[1])})"
        ),
    )


SOURCES = st.recursive(st.sampled_from(["t", "x1", "x2", "pi", "0.5", "2", "3e-1"]), _compound, max_leaves=10)
TIMES = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, math.inf, math.nan]))


class TestBind:
    COORDS = dict(zip(("x1", "x2"), build_grid(2, 6).coordinates()))

    @given(source=SOURCES, times=st.lists(TIMES, min_size=1, max_size=3))
    @example(source="t", times=[0.25])
    @example(source="min(t, x1, 0.5) + max(x2, -t)", times=[0.3])
    @example(source="-t^2 - x1^t + t^x2 + 2^(t*x1)", times=[0.7])
    @example(source="1.2 + 0.2*cos(2*pi*x1) + 0.1*sin(t)", times=[0.0, 0.1])
    @example(source="0.2*cos(2*pi*x1) * exp(-x2)", times=[1.0])
    @settings(max_examples=200, deadline=None)
    def test_bound_evaluator_is_bitwise_evaluate(self, source, times):
        expr = parse_expression(source)
        at = expr.bind(self.COORDS)
        shape = (6, 6)
        for t in times:
            bound = np.broadcast_to(np.asarray(at(t), dtype=np.float64), shape)
            plain = np.broadcast_to(np.asarray(expr.evaluate({**self.COORDS, "t": t}), dtype=np.float64), shape)
            assert bound.tobytes() == plain.tobytes()

    def test_missing_variable_reported(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("x2 + t").bind({"x1": 0.0})
        assert "x2" in str(err.value)


class TestErrorSource:
    def test_source_within_the_window_quoted_whole(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("1 $ 2")
        assert str(err.value) == "unexpected character '$' at offset 2 in '1 $ 2'"

    def test_long_source_quoted_as_a_window_around_the_offset(self):
        source = "1+" * 500 + "$" + "+1" * 500
        with pytest.raises(ExpressionError) as err:
            parse_expression(source)
        message = str(err.value)
        assert err.value.position == 1000 and err.value.source == source
        assert message.startswith("unexpected character '$' at offset 1000 in ...'")
        assert message.endswith("'... (2001 characters)")
        assert "+$+" in message and len(message) < 150

    @pytest.mark.parametrize(
        "source, quoted",
        [("a" * 5000, "unknown identifier 'aaa"), ("1 " + "2" * 5000, "unexpected '222")],
        ids=["identifier", "number"],
    )
    def test_long_token_quoted_as_a_window(self, source, quoted):
        with pytest.raises(ExpressionError) as err:
            parse_expression(source)
        message = str(err.value)
        assert message.startswith(quoted) and "'... (5000 characters) at offset" in message
        assert len(message) < 250
