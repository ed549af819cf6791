"""Small expression language for scalar coefficient fields.

Grammar (precedence low to high):

    expr   := term  (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative
    atom   := NUMBER | 'pi' | NAME | NAME '(' expr ')' | '(' expr ')'

Known functions: sin cos tan exp log sqrt tanh.  Everything else that
looks like a name is a free variable (charts use x1..xd, parameter maps
use u, v, w).  Evaluation is plain IEEE double precision and broadcasts
over numpy arrays, so fields can be evaluated on whole quadrature grids
at once.  ``program`` compiles expressions and their ``diff`` partials,
once per process, into one straight-line :class:`Program` whose shared
nodes run once; ``evaluate`` is its one-expression use.  ``diff``
differentiates a tree symbolically into another tree.  Trees are frozen
dataclasses, equal when their structure is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MathDomainError, ParseError, UnboundVariableError

__all__ = [
    "Expr", "Num", "Const", "Var", "Neg", "BinOp", "Call",
    "parse", "evaluate", "diff",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "tanh")
CONSTANTS = {"pi": math.pi}


class Expr:
    """Base class for AST nodes."""

    __slots__ = ()

    def variables(self) -> frozenset[str]:
        return _free_vars(self)


@dataclass(frozen=True, slots=True)
class Num(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Const(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True, slots=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Call(Expr):
    fn: str
    arg: Expr


# --- tokenizer -------------------------------------------------------------

_PUNCT = "+-*/^()"
# ASCII only: str.isdigit also accepts characters such as "²" that float()
# cannot read
_DIGITS = frozenset("0123456789")


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind          # 'num' | 'name' | one of _PUNCT | 'end'
        self.text = text
        self.line = line
        self.column = column


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c in _PUNCT:
            tokens.append(_Token(c, c, line, col))
            i += 1
            col += 1
            continue
        if c in _DIGITS or (c == "." and i + 1 < n and src[i + 1] in _DIGITS):
            j = i
            seen_dot = False
            while j < n and (src[j] in _DIGITS or (src[j] == "." and not seen_dot)):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k] in _DIGITS:
                    j = k
                    while j < n and src[j] in _DIGITS:
                        j += 1
            tokens.append(_Token("num", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("name", src[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col,
                         expected=("number", "name", *_PUNCT))
    tokens.append(_Token("end", "", line, col))
    return tokens


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    @property
    def current(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.current
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.column, expected=(kind,))
        return self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while self.current.kind in "+-":
            op = self.advance().kind
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.current.kind in "*/":
            op = self.advance().kind
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self):
        if self.current.kind == "-":
            self.advance()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        if self.current.kind == "^":
            self.advance()
            # right-associative, and the exponent may carry a unary minus
            node = BinOp("^", node, self.parse_factor())
        return node

    def parse_atom(self):
        tok = self.current
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if tok.text in CONSTANTS:
                return Const(tok.text)
            if self.current.kind == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(f"unknown function {tok.text!r}",
                                     tok.line, tok.column, expected=FUNCTIONS)
                self.advance()
                arg = self.parse_expr()
                self.expect(")")
                return Call(tok.text, arg)
            return Var(tok.text)
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ParseError(
            f"expected an operand, found {tok.text or 'end of input'!r}",
            tok.line, tok.column, expected=("number", "name", "(", "-"))


def parse(src: str) -> Expr:
    """Parse ``src`` into an immutable AST; raise ParseError with position."""
    parser = _Parser(_tokenize(src))
    node = parser.parse_expr()
    tok = parser.current
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}",
                         tok.line, tok.column, expected=("end of input",))
    return node


# --- evaluation ------------------------------------------------------------

def _checked(name, outside):
    """np.<name> raising MathDomainError where ``outside`` holds."""
    fn = getattr(np, name)

    def call(x):
        if np.any(outside(np.asarray(x))):
            raise MathDomainError(name, float(np.min(x)))
        return fn(x)
    return call


def _divide(a, b):
    if np.any(np.asarray(b) == 0.0):
        raise MathDomainError("/", 0.0)
    return np.divide(a, b)


def _power(a, b):
    with np.errstate(invalid="ignore", divide="ignore"):
        result = np.power(a, b)
    bad = ~np.isfinite(np.asarray(result, dtype=float))
    if np.any(bad):
        base = np.broadcast_to(np.asarray(a, dtype=float), np.shape(bad))
        raise MathDomainError("^", float(base[bad][0]) if bad.ndim else float(a))
    return result


_CALLS = {**{fn: getattr(np, fn) for fn in FUNCTIONS},
          "log": _checked("log", lambda x: x <= 0.0),
          "sqrt": _checked("sqrt", lambda x: x < 0.0)}
_BINOPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": _divide,
           "^": _power}


def _load(name, bindings):
    if name not in bindings:
        raise UnboundVariableError(name)
    return bindings[name]


def _execute(code, registers, components, shape):
    """Run ``code`` into a zero-filled output of ``components`` rows, each
    one contiguous block of ``shape`` points, and return it points-first:
    (*shape, *components), the points axes innermost in memory."""
    out = np.zeros((math.prod(components),) + shape)
    for r, fn, args, columns, frees in code:
        registers[r] = fn(*[registers[a] for a in args])
        for k in columns:
            out[k] = registers[r]
        for a in frees:
            registers[a] = None
    m = len(components)
    return out.reshape(components + shape).transpose(
        (*range(m, m + len(shape)), *range(m)))


class Program:
    """Straight-line code for expressions (None: no expression) and their
    partials along ``variables``: one instruction and register per
    distinct node, so a node shared between components and partials, such
    as ``sin(pi*v)``, runs once.  The values' nodes come first and the
    partials join on first use, so a values-only run is a prefix of the
    code.  A run executes the nodes its outputs need, writes each output
    when it is computed, frees each register after its last use, and
    raises domain errors and unbound variables when their node runs."""

    def __init__(self, exprs, variables):
        self.exprs, self.variables = exprs, variables
        self.free = [frozenset() if e is None else e.variables() for e in exprs]
        self._keys, self._code, self._plans = {}, [None], {}  # 0: bindings
        self._outputs = [self._output(e) for e in exprs]
        self._head = len(self._code)

    def _output(self, e):
        # the constant +0.0 is left to the zero-filled output
        zero = e == ZERO and math.copysign(1.0, e.value) > 0
        return None if e is None or zero else self._node(e)

    def _node(self, e):
        """The register of ``e``, interned with its subtrees; the keys tell
        0.0 from -0.0, which ``Num`` equality does not."""
        if isinstance(e, Var):
            key, fn, args = ("var", e.name), functools.partial(_load, e.name), (0,)
        elif isinstance(e, (Num, Const)):
            value = e.value if isinstance(e, Num) else CONSTANTS[e.name]
            key, fn, args = ("num", repr(value)), lambda: value, ()
        else:
            op, fn, subtrees = (
                (e.op, _BINOPS[e.op], (e.left, e.right)) if isinstance(e, BinOp)
                else (e.fn, _CALLS[e.fn], (e.arg,)) if isinstance(e, Call)
                else ("neg", np.negative, (e.operand,)))
            args = tuple(map(self._node, subtrees))
            key = (op, *args)
        if key not in self._keys:
            self._keys[key] = len(self._code)
            self._code.append((fn, args))
        return self._keys[key]

    def _plan(self, axes):
        """(head, tail) of (register, fn, argument registers, output columns,
        registers to free): the values' nodes writing the values, then the
        other nodes that the partials along ``axes`` need, writing those; a
        partial that is a values' node is passed through first."""
        n, axis = len(self.exprs), range(len(self.variables))
        if axes and len(self._outputs) == n:   # d e / d x, variable-major
            self._outputs += [self._output(None if e is None else diff(e, x))
                              for x in self.variables for e in self.exprs]
        columns = {}
        for r, part, k in [(self._outputs[i], 0, i) for i in range(n)] + [
                (self._outputs[n + axis[k] * n + i], 1, j * n + i)
                for j, k in enumerate(axes) for i in range(n)]:
            columns.setdefault((r, part), []).append(k)
        needed = {r for r, _ in columns if r}
        for r in range(len(self._code) - 1, 0, -1):   # arguments come first
            if r in needed:
                needed.update(a for a in self._code[r][1] if a)
        head = [r for r in sorted(needed) if r < self._head]
        code = ([(r, *self._code[r], columns.get((r, 0), ())) for r in head]
                + [(r, lambda x: x, (r,), columns[r, 1]) for r in head
                   if (r, 1) in columns]
                + [(r, *self._code[r], columns.get((r, 1), ()))
                   for r in sorted(needed) if r >= self._head])
        last = {a: pos for pos, (r, _, args, _) in enumerate(code)
                for a in (r, *args)}
        code = [(*ins, [a for a in (ins[0], *ins[2]) if a and last[a] == pos])
                for pos, ins in enumerate(code)]
        self._plans[axes] = code[:len(head)], code[len(head):]
        return self._plans[axes]

    def run(self, bindings, shape, axes, components):
        """The values (*shape, *components) of the n expressions, n the size
        of ``components``, and their partials along the variables ``axes``,
        (*shape, len(axes), *components) axis-major.  Each output is one
        view of an array whose rows are the components, each row one
        contiguous block of points: the points axes are innermost in
        memory.  The partials' array is made after the values' code has
        run."""
        head, tail = self._plans.get(axes) or self._plan(axes)
        registers = [bindings] + [None] * len(self._code)
        values = _execute(head, registers, components, shape)
        if not axes:        # a values-only run has no partials to write
            return values, np.empty(shape + (0,) + components)
        return values, _execute(tail, registers, (len(axes), *components), shape)


def program(exprs, variables=()) -> Program:
    """The Program of ``exprs`` (source strings, Exprs or None) and their
    partials along ``variables``, built once per process for each distinct
    source text or tree among the last 1024 asked for (an Expr's repr tells
    0.0 from -0.0, which its equality does not)."""
    key = tuple(e if e is None or isinstance(e, str) else (repr(e), e)
                for e in exprs)
    return _program(key, tuple(variables))


@functools.lru_cache(maxsize=1024)
def _program(key, variables):
    return Program([e if e is None else parse(e) if isinstance(e, str)
                    else e[1] for e in key], variables)


def evaluate(e: Expr, bindings: dict | None = None):
    """Evaluate ``e`` with the given variable bindings by its one-expression
    program.

    Scalar bindings give a float result; array bindings broadcast.  Domain
    errors and unbound variables are raised when the program runs.
    """
    bindings = bindings or {}
    prog = program((e,))
    shape = np.broadcast_shapes(*(np.shape(bindings[x])
                                  for x in prog.free[0] if x in bindings))
    out = prog.run(bindings, shape, (), ())[0]
    return float(out) if not shape else out


# --- differentiation -------------------------------------------------------

ZERO, ONE = Num(0.0), Num(1.0)


def _add(a, b):
    return b if a == ZERO else a if b == ZERO else BinOp("+", a, b)


def _neg(a):
    return ZERO if a == ZERO else a.operand if isinstance(a, Neg) else Neg(a)


def _mul(a, b):
    if ZERO in (a, b):
        return ZERO
    return b if a == ONE else a if b == ONE else BinOp("*", a, b)


def _pow(a, b):
    return ONE if b == ZERO else a if b == ONE else BinOp("^", a, b)


# d f(u) / du of every known function
_CALL_DIFFS = {
    "sin": lambda u: Call("cos", u), "cos": lambda u: _neg(Call("sin", u)),
    "tan": lambda u: _add(ONE, _pow(Call("tan", u), Num(2.0))),
    "exp": lambda u: Call("exp", u), "log": lambda u: BinOp("/", ONE, u),
    "sqrt": lambda u: BinOp("/", ONE, _mul(Num(2.0), Call("sqrt", u))),
    "tanh": lambda u: _add(ONE, _neg(_pow(Call("tanh", u), Num(2.0)))),
}


def diff(e: Expr, var: str) -> Expr:
    """d e / d var, folding terms that are 0 and factors that are 1.

    A power whose exponent is constant in ``var`` follows b a^(b-1) a', so
    a negative base raises no log.  Domain errors are raised on evaluation.
    """
    if var not in _free_vars(e):
        return ZERO
    if isinstance(e, Var):
        return ONE
    if isinstance(e, Neg):
        return _neg(diff(e.operand, var))
    if isinstance(e, Call):
        return _mul(_CALL_DIFFS[e.fn](e.arg), diff(e.arg, var))
    a, b = e.left, e.right
    da, db = diff(a, var), diff(b, var)
    if e.op in "+-":
        return _add(da, db if e.op == "+" else _neg(db))
    if e.op == "*":
        return _add(_mul(da, b), _mul(a, db))
    if e.op == "/":
        return BinOp("/", _add(_mul(da, b), _neg(_mul(a, db))), _mul(b, b))
    if db == ZERO:
        lowered = Num(b.value - 1.0) if isinstance(b, Num) else BinOp("-", b, ONE)
        return _mul(_mul(b, _pow(a, lowered)), da)
    return _mul(e, _add(_mul(db, Call("log", a)), BinOp("/", _mul(b, da), a)))


def _free_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return _free_vars(e.operand)
    if isinstance(e, Call):
        return _free_vars(e.arg)
    if isinstance(e, BinOp):
        return _free_vars(e.left) | _free_vars(e.right)
    return frozenset()
