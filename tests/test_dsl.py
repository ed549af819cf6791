import math

import numpy as np
import pytest

from gauge2 import dsl
from gauge2.errors import MathDomainError, ParseError, UnboundVariableError
from gauge2.fields import CoefficientField
from gauge2.geometry import ParamMap

ROUND_TRIP_SOURCES = [
    "0",
    "x1*sin(pi*u) - 2^3^1",
    "-x1^2",
    "2^-3",
    "(x1 + x2)/(1 - v)",
    "tanh(sqrt(x1) * exp(-u))",
    "1.5e-3 * cos(pi/4)",
    "-(u + v)",
    "x1 - x2 - x3",
    "u/v/w",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_parse_print_round_trip(src):
    tree = dsl.parse(src)
    assert dsl.parse(dsl.to_source(tree)) == tree


def test_precedence_against_parenthesized_forms():
    pairs = [
        ("x1*sin(pi*u) - 2^3^1", "(x1*sin(pi*u)) - (2^(3^1))"),
        ("-2^2", "-(2^2)"),
        ("2*u^3 + 1", "(2*(u^3)) + 1"),
        ("1 - 2 - 3", "(1 - 2) - 3"),
        ("6/3/2", "(6/3)/2"),
        ("2^-3", "2^(-3)"),
    ]
    for loose, strict in pairs:
        assert dsl.evaluate(dsl.parse(loose), {"x1": 0.7, "u": 0.3}) == \
            dsl.evaluate(dsl.parse(strict), {"x1": 0.7, "u": 0.3})


def test_eval_examples():
    assert dsl.evaluate(dsl.parse("x1+1"), {"x1": 2}) == 3.0
    assert abs(dsl.evaluate(dsl.parse("sin(pi/2)")) - 1.0) < 1e-15
    assert dsl.evaluate(dsl.parse("0")) == 0.0


def test_eval_broadcasts_over_arrays():
    e = dsl.parse("x1^2 + u")
    out = dsl.evaluate(e, {"x1": np.array([1.0, 2.0]), "u": 0.5})
    assert np.allclose(out, [1.5, 4.5])


def test_syntax_error_position_and_expected():
    with pytest.raises(ParseError) as err:
        dsl.parse("sin(")
    assert err.value.column == 5
    assert err.value.expected


def test_unknown_function_and_trailing_input():
    with pytest.raises(ParseError):
        dsl.parse("frob(x1)")
    with pytest.raises(ParseError):
        dsl.parse("1 + 2 )")


def test_unbound_variable_is_named():
    with pytest.raises(UnboundVariableError) as err:
        dsl.evaluate(dsl.parse("x1 + zz"), {"x1": 1.0})
    assert err.value.name == "zz"


def test_domain_errors():
    with pytest.raises(MathDomainError):
        dsl.evaluate(dsl.parse("1/x1"), {"x1": 0.0})
    with pytest.raises(MathDomainError):
        dsl.evaluate(dsl.parse("log(x1)"), {"x1": -1.0})
    with pytest.raises(MathDomainError):
        dsl.evaluate(dsl.parse("sqrt(0 - x1)"), {"x1": 2.0})


# (source in x1, operator, operand value) at the points x1 = 0 and x1 = 1
COMPILED_DOMAIN_ERRORS = [
    ("log(x1 - 0.5)", "log", -0.5),
    ("sqrt(0.5 - x1)", "sqrt", -0.5),
    ("1/(x1 - 1)", "/", 0.0),
    ("(x1 - 1)^(-1)", "^", 0.0),
    ("(x1 - 2)^0.5", "^", -2.0),
]


@pytest.mark.parametrize("src,op,value", COMPILED_DOMAIN_ERRORS)
def test_compiled_fields_raise_domain_errors_when_called(src, op, value):
    # building compiles the tree; the domain check runs on evaluation
    compiled = dsl.compile_expr(dsl.parse(src))
    field = CoefficientField([src], 1, (1,))
    pmap = ParamMap.from_exprs([src.replace("x1", "u")], 1)
    x = np.array([[0.0], [1.0]])
    for call in (lambda: compiled({"x1": x[:, 0]}), lambda: field(x),
                 lambda: pmap(x), lambda: dsl.evaluate(dsl.parse(src),
                                                       {"x1": x[:, 0]})):
        with pytest.raises(MathDomainError) as err:
            call()
        assert (err.value.op, err.value.value) == (op, value)


def test_scalar_bindings_give_python_floats():
    e = dsl.parse("x1*sin(u) + 2")
    for out in (dsl.evaluate(e, {"x1": 1.5, "u": 0.3}),
                dsl.evaluate(e, {"x1": np.float64(1.5), "u": 0.3}),
                dsl.compile_expr(e)({"x1": 1.5, "u": 0.3}),
                dsl.evaluate(dsl.parse("pi"))):
        assert type(out) is float
    out = dsl.compile_expr(e)({"x1": np.array([1.0, 2.0]), "u": 0.3})
    assert out.dtype == float and out.shape == (2,)


# finite differences of parsed fields against hand derivatives
DERIVATIVE_LIBRARY = [
    ("sin(pi*x1)", lambda x: math.pi * math.cos(math.pi * x)),
    ("x1^3 - 2*x1", lambda x: 3 * x * x - 2),
    ("exp(-x1^2)", lambda x: -2 * x * math.exp(-x * x)),
    ("tanh(x1)", lambda x: 1.0 / math.cosh(x) ** 2),
    ("1/(1+x1^2)", lambda x: -2 * x / (1 + x * x) ** 2),
    ("sqrt(x1 + 2)", lambda x: 0.5 / math.sqrt(x + 2)),
    ("cos(x1)*sin(x1)", lambda x: math.cos(2 * x)),
    ("log(x1 + 1.5)", lambda x: 1.0 / (x + 1.5)),
    ("x1*exp(x1)", lambda x: (1 + x) * math.exp(x)),
    ("tan(x1/2)", lambda x: 0.5 / math.cos(x / 2) ** 2),
]


@pytest.mark.parametrize("src,deriv", DERIVATIVE_LIBRARY)
def test_fd_matches_hand_derivative(src, deriv):
    e = dsl.parse(src)
    h = 2.5e-3
    for x in (0.25, 0.6, 1.1):
        fd = (-dsl.evaluate(e, {"x1": x + 2 * h})
              + 8 * dsl.evaluate(e, {"x1": x + h})
              - 8 * dsl.evaluate(e, {"x1": x - h})
              + dsl.evaluate(e, {"x1": x - 2 * h})) / (12 * h)
        assert abs(fd - deriv(x)) <= 1e-8 * (1 + abs(deriv(x)))


def test_parser_is_linear_time():
    # long chains parse without blowup; crude n log n envelope check
    import time
    n = 4000
    src = " + ".join(["x1"] * n)
    start = time.perf_counter()
    dsl.parse(src)
    assert time.perf_counter() - start < 1.0
