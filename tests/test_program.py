"""The straight-line jet program of ``gauge2.dsl`` against a plain
recursive evaluation of the same trees.

Every field and map of the shipped configs and of the built-in commands
runs through ``dsl.program``, which evaluates each distinct node of the
values and of their ``dsl.diff`` partials once.  Sharing a node must not
change its arithmetic, so the program's values and partials must equal,
bit for bit, those of a recursion that shares nothing.
"""

import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from gauge2 import dsl
from gauge2.cli import THIN_REPARAMS
from gauge2.config import load_config
from gauge2.errors import MathDomainError
from gauge2.fields import CoefficientField, chart_grid
from gauge2.geometry import PARAM_VARS, ParamMap

CONFIGS = pathlib.Path(__file__).parent.parent / "configs"

_BINOPS = {"+": np.add, "-": np.subtract, "*": np.multiply,
           "/": np.divide, "^": np.power}


def _reference(e, bindings):
    """The value of tree ``e``, node by node, with no node shared."""
    if isinstance(e, dsl.Num):
        return e.value
    if isinstance(e, dsl.Const):
        return dsl.CONSTANTS[e.name]
    if isinstance(e, dsl.Var):
        return bindings[e.name]
    if isinstance(e, dsl.Neg):
        return np.negative(_reference(e.operand, bindings))
    if isinstance(e, dsl.Call):
        return getattr(np, e.fn)(_reference(e.arg, bindings))
    return _BINOPS[e.op](_reference(e.left, bindings),
                         _reference(e.right, bindings))


def _fields():
    """(label, expressions, variables, points) of every field and map that
    the shipped configs declare, and of the maps the commands build."""
    rng = np.random.default_rng(23)
    cases = []
    for path in sorted(CONFIGS.glob("*.json")):
        raw = json.loads(path.read_text())
        if "chart" not in raw:
            continue
        chart = load_config(path).chart()
        chart_vars = tuple(f"x{i + 1}" for i in range(chart.dim))
        grid = chart_grid(chart, 4)
        for section in ("connection", "morphism", "two_morphism", "transition"):
            for key, exprs in raw.get(section, {}).items():
                if exprs != "fake_flat":
                    cases.append((f"{path.stem}:{section}.{key}",
                                  list(np.ravel(exprs)), chart_vars, grid))
        for kind, arity in (("paths", 1), ("bigons", 2), ("cubes", 3)):
            for name, exprs in raw.get(kind, {}).items():
                cases.append((f"{path.stem}:{kind}.{name}", exprs,
                              PARAM_VARS[:arity], rng.uniform(size=(40, arity))))
    built = {"thin-reparam-%d" % k: list(exprs)
             for k, exprs in enumerate(THIN_REPARAMS)}
    built["lens"] = ["v", "v + 0.25*(2*u - 1)*sin(pi*v)"]
    built["loop-bigon-family"] = [
        "sin(pi*w) + 0.5*u*sin(pi*w)^2*sin(2*pi*v)", "0.5*sin(2*pi*w)",
        "u*sin(pi*w)^2*sin(pi*v)"]
    for name, exprs in built.items():
        arity = 3 if name == "loop-bigon-family" else 2
        cases.append((name, exprs, PARAM_VARS[:arity],
                      rng.uniform(size=(40, arity))))
    return cases


FIELDS = _fields()


def _bits(x, n):
    return np.broadcast_to(np.asarray(x, dtype=float), (n,)).tobytes()


@pytest.mark.parametrize("label,exprs,variables,points", FIELDS,
                         ids=[case[0] for case in FIELDS])
def test_program_equals_the_recursive_reference_bit_for_bit(
        label, exprs, variables, points):
    d = len(variables)
    field = CoefficientField(exprs, d, (len(exprs),), variables)
    values, partials = field.jet(points)
    first = CoefficientField([dsl.diff(dsl.parse(src), x) for x in variables
                              for src in exprs], d, (d, len(exprs)), variables)
    second = first.jet(points)[1]
    bindings = {x: points[:, k] for k, x in enumerate(variables)}
    n = len(points)
    for i, src in enumerate(exprs):
        e = dsl.parse(src)
        assert values[:, i].tobytes() == _bits(_reference(e, bindings), n)
        for k, x in enumerate(variables):
            de = dsl.diff(e, x)
            assert partials[:, k, i].tobytes() == _bits(
                _reference(de, bindings), n)
            for j, y in enumerate(variables):
                assert second[:, j, k, i].tobytes() == _bits(
                    _reference(dsl.diff(de, y), bindings), n)
    # a values-only run and a run for some partials give the same bits
    assert field(points).tobytes() == values.tobytes()
    for k in range(d):
        assert field.jet(points, (k,))[1].tobytes() == \
            partials[:, k:k + 1].tobytes()
    assert field.jet(points, (-1,))[1].tobytes() == partials[:, -1:].tobytes()
    with pytest.raises(IndexError):
        field.jet(points, (d,))


# (expressions in x1, message of the first error) at the points x1 = 0, 1:
# the values' domain errors come first, in column order, although a
# partial fails too
FIRST_ERRORS = [
    (["log(x1)"], ("log", 0.0)),               # its partial raises "/"
    (["1/(x1 - 1)", "log(x1)"], ("/", 0.0)),
    (["x1 + 1", "sqrt(x1)", "log(x1 - 2)"], ("log", -2.0)),
    (["sqrt(x1)", "(x1 - 2)^0.5"], ("^", -2.0)),
]


@pytest.mark.parametrize("exprs,first", FIRST_ERRORS)
def test_a_values_domain_error_comes_first(exprs, first):
    field = CoefficientField(exprs, 1, (len(exprs),))
    x = np.array([[0.0], [1.0]])
    for call in (lambda: field(x), lambda: field.jet(x),
                 lambda: field.jet(x, (0,))):
        with pytest.raises(MathDomainError) as err:
            call()
        assert (err.value.op, err.value.value) == first


def test_a_jet_runs_only_what_its_partials_need():
    # d/du sqrt(u) divides by zero at u = 0; d/dv never reads it
    pm = ParamMap.from_exprs(["u", "v + sqrt(u)"], 2)
    params = np.array([[0.0, 0.5], [0.5, 0.5]])
    values, dv = pm.jet(params, (1,))
    assert dv.shape == (2, 1, 2) and np.all(dv[:, 0] == [0.0, 1.0])
    assert np.array_equal(values, pm(params))
    with pytest.raises(MathDomainError) as err:
        pm.jet(params, (0,))
    assert (err.value.op, err.value.value) == ("/", 0.0)


def test_signed_zero_constants_stay_distinct():
    x = dsl.Var("x1")
    plus = [dsl.BinOp("*", dsl.Num(0.0), x), dsl.Num(0.0)]
    minus = [dsl.BinOp("*", dsl.Num(-0.0), x), dsl.Num(-0.0)]
    points = np.array([[1.0], [2.0]])
    # in one program, and in programs built in either order
    both = CoefficientField(plus + minus, 1, (4,))(points)
    assert np.signbit(both).tolist() == [[False, False, True, True]] * 2
    for first, second in ((plus, minus), (minus, plus)):
        a = CoefficientField(first, 1, (2,))(points)
        b = CoefficientField(second, 1, (2,))(points)
        assert np.signbit(a).tolist() != np.signbit(b).tolist()
    assert dsl.program([dsl.Num(0.0)]) is not dsl.program([dsl.Num(-0.0)])
    assert math.copysign(1.0, dsl.evaluate(dsl.Num(-0.0))) == -1.0
    assert math.copysign(1.0, dsl.evaluate(dsl.Num(0.0))) == 1.0


def test_one_program_per_source_text_and_variables():
    a = CoefficientField(["sin(pi*x1)", "x2"], 2, (2,))
    b = CoefficientField(["sin(pi*x1)", "x2"], 2, (2,))
    assert a._program is b._program
    assert CoefficientField(["sin(pi*x1)", "x2"], 3, (2,))._program \
        is not a._program
    # the node sin(pi*x1) and its argument are one instruction each
    assert len(a._program._code) == len(
        CoefficientField(["sin(pi*x1)", "x2 + sin(pi*x1)"], 2, (2,))
        ._program._code) - 1


def test_jet_peak_memory_on_the_36_grid():
    """One jet of u2pu2_higher's a over the 46,656 points of its 36-point
    grid peaks at the two output arrays plus their bookkeeping: the values
    are written before the partials' array is made, and every register is
    freed after its last use.  The parent, which evaluated the field and
    then its derivative field, peaked at the outputs plus 1,191 bytes."""
    conn = load_config(CONFIGS / "u2pu2_higher.json").connection()
    grid = chart_grid(conn.chart, 36)
    conn._a.jet(grid[:5])
    tracemalloc.start()
    try:
        values, partials = conn._a.jet(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (36 ** 3, 3, 3)
    assert partials.shape == (36 ** 3, 3, 3, 3)
    assert peak - (values.nbytes + partials.nbytes) <= 1191
