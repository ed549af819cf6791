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
at once.  ``compile_expr`` walks a tree once into nested closures;
``evaluate`` compiles and calls, and coefficient fields and parameter maps
compile at construction, so repeated evaluation never re-walks the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MathDomainError, ParseError, UnboundVariableError

__all__ = [
    "Expr", "Num", "Const", "Var", "Neg", "BinOp", "Call",
    "parse", "compile_expr", "evaluate", "to_source",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "tanh")
CONSTANTS = {"pi": math.pi}


class Expr:
    """Base class for AST nodes."""

    __slots__ = ()

    def __call__(self, **bindings):
        return evaluate(self, bindings)

    def variables(self) -> frozenset[str]:
        return _free_vars(self)

    def __str__(self):
        return to_source(self)


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
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
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


def _compile(node):
    """Closure bindings -> value of ``node``; domain checks run per call."""
    if isinstance(node, (Num, Const)):
        value = node.value if isinstance(node, Num) else CONSTANTS[node.name]
        return lambda bindings: value
    if isinstance(node, Var):
        def var(bindings, name=node.name):
            if name not in bindings:
                raise UnboundVariableError(name)
            return bindings[name]
        return var
    if isinstance(node, Neg):
        operand = _compile(node.operand)
        return lambda bindings: np.negative(operand(bindings))
    if isinstance(node, Call):
        fn, arg = _CALLS[node.fn], _compile(node.arg)
        return lambda bindings: fn(arg(bindings))
    if isinstance(node, BinOp):
        op, left, right = (_BINOPS[node.op], _compile(node.left),
                           _compile(node.right))
        return lambda bindings: op(left(bindings), right(bindings))
    raise TypeError(f"not an Expr node: {node!r}")


def compile_expr(e: Expr):
    """Compile ``e`` once into a function of a bindings dict.

    Scalar bindings give a float result; array bindings broadcast.  Domain
    errors and unbound variables are raised when the function is called.
    """
    body = _compile(e)

    def run(bindings):
        out = body(bindings)
        return float(out) if np.ndim(out) == 0 else np.asarray(out, dtype=float)

    return run


def evaluate(e: Expr, bindings: dict | None = None):
    """Evaluate ``e`` with the given variable bindings.

    Scalar bindings give a float result; array bindings broadcast.
    """
    return compile_expr(e)(bindings or {})


# --- printing --------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node):
    if isinstance(node, (Num, Const, Var, Call)):
        return _PREC["atom"]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC[node.op]


def to_source(e: Expr) -> str:
    """Render the AST back to text; ``parse(to_source(e)) == e``."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, (Const, Var)):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    if isinstance(e, Neg):
        inner = to_source(e.operand)
        if _prec(e.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        my = _PREC[e.op]
        left = to_source(e.left)
        right = to_source(e.right)
        # '^' is right-associative, the rest left-associative
        if _prec(e.left) < my or (_prec(e.left) == my and e.op == "^"):
            left = f"({left})"
        if _prec(e.right) < my or (_prec(e.right) == my and e.op != "^"):
            right = f"({right})"
        return f"{left} {e.op} {right}".replace(" ^ ", "^")
    raise TypeError(f"not an Expr node: {e!r}")


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
