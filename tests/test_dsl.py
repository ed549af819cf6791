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


@pytest.mark.parametrize("src,column", [("x1^²", 4), ("١٢ + x1", 1),
                                        ("2e³", 2)])
def test_only_ascii_digits_make_numbers(src, column):
    # str.isdigit accepts "²" and "١", which float() cannot read or reads
    # as another number
    with pytest.raises(ParseError) as err:
        dsl.parse(src)
    assert err.value.column == column


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


# --- symbolic derivatives ---------------------------------------------------
#
# (source in x and y, d/dx, d^2/dx^2, d/dy) in closed form, written by hand;
# together they cover every operator, every function, pi and unary minus.

def _sec2(x):
    return 1.0 / np.cos(x) ** 2


SYMBOLIC_LIBRARY = [
    ("sin(2*x)", lambda x, y: 2 * np.cos(2 * x),
     lambda x, y: -4 * np.sin(2 * x), lambda x, y: 0 * x),
    ("cos(x^2)", lambda x, y: -2 * x * np.sin(x * x),
     lambda x, y: -2 * np.sin(x * x) - 4 * x * x * np.cos(x * x),
     lambda x, y: 0 * x),
    ("tan(x)", lambda x, y: _sec2(x),
     lambda x, y: 2 * np.tan(x) * _sec2(x), lambda x, y: 0 * x),
    ("exp(3*x)*y", lambda x, y: 3 * np.exp(3 * x) * y,
     lambda x, y: 9 * np.exp(3 * x) * y, lambda x, y: np.exp(3 * x)),
    ("log(x)", lambda x, y: 1 / x, lambda x, y: -1 / x ** 2,
     lambda x, y: 0 * x),
    ("sqrt(x)", lambda x, y: 0.5 / np.sqrt(x),
     lambda x, y: -0.25 * x ** -1.5, lambda x, y: 0 * x),
    ("tanh(x)", lambda x, y: 1 - np.tanh(x) ** 2,
     lambda x, y: -2 * np.tanh(x) * (1 - np.tanh(x) ** 2),
     lambda x, y: 0 * x),
    ("pi*x - y", lambda x, y: np.pi + 0 * x, lambda x, y: 0 * x,
     lambda x, y: -1 + 0 * x),
    ("-x^3 + y", lambda x, y: -3 * x * x, lambda x, y: -6 * x,
     lambda x, y: 1 + 0 * x),
    ("x*y", lambda x, y: y, lambda x, y: 0 * x, lambda x, y: x),
    ("x/(1 + y)", lambda x, y: 1 / (1 + y), lambda x, y: 0 * x,
     lambda x, y: -x / (1 + y) ** 2),
    ("y/x", lambda x, y: -y / x ** 2, lambda x, y: 2 * y / x ** 3,
     lambda x, y: 1 / x),
    ("x^y", lambda x, y: y * x ** (y - 1),
     lambda x, y: y * (y - 1) * x ** (y - 2),
     lambda x, y: x ** y * np.log(x)),
    ("2^x", lambda x, y: 2 ** x * np.log(2), lambda x, y: 2 ** x * np.log(2) ** 2,
     lambda x, y: 0 * x),
]


@pytest.mark.parametrize("src,dx,dxx,dy", SYMBOLIC_LIBRARY,
                         ids=[row[0] for row in SYMBOLIC_LIBRARY])
def test_diff_matches_closed_forms(src, dx, dxx, dy):
    e = dsl.parse(src)
    x = np.linspace(0.2, 0.9, 8)
    y = np.linspace(1.3, 0.4, 8)
    bindings = {"x": x, "y": y}
    d_x = dsl.diff(e, "x")
    for got, want in ((d_x, dx), (dsl.diff(d_x, "x"), dxx),
                      (dsl.diff(e, "y"), dy)):
        value = dsl.compile_expr(got)(bindings)
        assert np.max(np.abs(value - want(x, y))) <= 1e-13 * (
            1 + np.max(np.abs(want(x, y))))


def test_diff_folds_zeros_and_ones():
    assert dsl.diff(dsl.parse("x2*sin(x2) + 3"), "x1") == dsl.Num(0.0)
    assert dsl.diff(dsl.parse("x1"), "x1") == dsl.Num(1.0)
    assert dsl.diff(dsl.parse("5*x1 - x2"), "x1") == dsl.Num(5.0)
    assert dsl.to_source(dsl.diff(dsl.parse("x1^2"), "x1")) == "2.0 * x1"
    assert dsl.to_source(dsl.diff(dsl.parse("-x1"), "x1")) == "-1.0"


def test_diff_constant_exponent_on_a_negative_base():
    # b a^(b-1) a' with no log: a negative base differentiates exactly
    e = dsl.parse("(x - 2)^3 + (x - 3)^-2")
    x = np.linspace(0.2, 0.9, 7)
    d = dsl.diff(e, "x")
    want = 3 * (x - 2) ** 2 - 2 * (x - 3) ** -3.0
    assert np.max(np.abs(dsl.compile_expr(d)({"x": x}) - want)) <= 1e-13
    second = dsl.compile_expr(dsl.diff(d, "x"))({"x": x})
    assert np.max(np.abs(second - (6 * (x - 2) + 6 * (x - 3) ** -4.0))) <= 1e-13
    assert "log" not in dsl.to_source(d)


# (source in x, point, operator): the derivative builds, and evaluating it
# where it leaves its domain raises
DIFF_DOMAIN_ERRORS = [
    ("log(x)", 0.0, "/"),
    ("sqrt(x)", -1.0, "sqrt"),
    ("x^0.5", 0.0, "^"),
    ("1/x", 0.0, "/"),
    ("(x - 1)^x", 0.5, "^"),
]


@pytest.mark.parametrize("src,x,op", DIFF_DOMAIN_ERRORS)
def test_diff_domain_errors_are_raised_when_called(src, x, op):
    d = dsl.compile_expr(dsl.diff(dsl.parse(src), "x"))
    with pytest.raises(MathDomainError) as err:
        d({"x": np.array([x, 0.5 * (x + 2.0)])})
    assert err.value.op == op


def test_coefficient_field_derivative_is_cached_and_nests():
    field = CoefficientField([["x1^2*x2", "sin(x2)"]], 2, (1, 2))
    d = field.derivative()
    assert d is field.derivative() and d.shape == (2, 1, 2)
    p = np.array([[0.3, 0.7], [0.9, 0.2]])
    x1, x2 = p[:, 0], p[:, 1]
    want = np.stack([np.stack([2 * x1 * x2, 0 * x1], -1)[:, None],
                     np.stack([x1 ** 2, np.cos(x2)], -1)[:, None]], axis=1)
    assert np.max(np.abs(d(p) - want)) <= 1e-15
    hess = d.derivative()(p)
    assert hess.shape == (2, 2, 2, 1, 2)
    assert np.max(np.abs(hess[:, 0, 1, 0, 0] - 2 * x1)) <= 1e-15
    assert np.max(np.abs(hess[:, 1, 1, 0, 1] + np.sin(x2))) <= 1e-15
    assert CoefficientField([lambda q: q[:, 0]], 2, (1,)).derivative() is None
