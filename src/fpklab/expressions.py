"""Parser and evaluator for the coefficient mini-language.

Grammar (see GRAMMAR.md for the user-facing description)::

    expr    := term  (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := ('+' | '-') unary | power
    power   := atom ('^' unary)?          # right associative
    atom    := NUMBER | 'pi' | VARIABLE | FUNC '(' expr (',' expr)* ')'
             | '(' expr ')'

Variables are x1, x2, x3 and t; ``pi`` is the constant.  Functions: sin,
cos, exp, log, abs (one argument) and min, max (two or more).  Unary minus
binds looser than '^', so -x1^2 is -(x1^2).  Evaluation broadcasts over
numpy arrays; non-finite results are the caller's concern (the samplers
reject them with a named cell).

The tree has two leaves, numbers and variables, and one operator node,
which applies a numpy function to its arguments' values: once to a single
argument (the one-argument functions, and unary minus as the product
-1.0 * x), otherwise folded left to right (the binary operators, min and
max).  ``CoefficientExpr.bind`` evaluates every t-free subtree once; the
coefficient sampler binds the mobility to the cell centers that way.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ExpressionError, UnknownIdentifierError, quote_source

VARIABLES = ("x1", "x2", "x3", "t")

#: deepest tree, and deepest nesting of parentheses, calls, signs and
#: exponents, that the parser builds; keeps parsing, evaluate and bind well
#: inside Python's recursion limit
MAX_DEPTH = 100

_UNARY_FUNCS: dict[str, Callable] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
}
_VARIADIC_FUNCS: dict[str, Callable] = {
    "min": np.minimum,
    "max": np.maximum,
}
_BINARY_OPS: dict[str, Callable] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
}
#: unary minus is the product -1.0 * x, which keeps a NaN's sign bit (np.negative flips it)
_NEGATE = functools.partial(np.multiply, -1.0)

_TOKEN_RE = re.compile(
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | name | op | end
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        if source[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {source[pos]!r}", source, pos)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


# Expression nodes.  Each evaluates against an environment mapping variable
# names to scalars or broadcastable numpy arrays.  ``bind`` returns the node
# with every t-free subtree evaluated once against the environment and held
# as a _Num; the t-dependent nodes that remain run the same numpy ops in the
# same order, so their results are bitwise those of ``evaluate``.  ``depth``
# is the height of the node's tree, a leaf's being 0.


class _Num:
    __slots__ = ("value",)
    depth = 0

    def __init__(self, value: float):
        self.value = value

    def evaluate(self, env):
        return self.value

    def bind(self, env):
        return self


class _Var:
    __slots__ = ("name",)
    depth = 0

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, env):
        return env[self.name]

    def bind(self, env):
        return self if self.name == "t" else _Num(env[self.name])


class _Apply:
    """func of its arguments' values: applied once to a single argument,
    otherwise folded over them left to right, func(func(a, b), c)."""

    __slots__ = ("func", "args", "depth")

    def __init__(self, func: Callable, args: list):
        self.func = func
        self.args = args
        self.depth = max(a.depth for a in args) + 1

    def evaluate(self, env):
        # each argument is folded in as it is evaluated; collecting the values first costs more per call
        args = self.args
        out = args[0].evaluate(env)
        if len(args) == 1:
            return self.func(out)
        for arg in args[1:]:
            out = self.func(out, arg.evaluate(env))
        return out

    def bind(self, env):
        node = _Apply(self.func, [a.bind(env) for a in self.args])
        if all(isinstance(a, _Num) for a in node.args):
            return _Num(node.evaluate(env))
        return node


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.index = 0
        self.nesting = 0
        self.variables: set[str] = set()

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExpressionError(f"expected {text!r}", self.source, tok.pos)
        self.advance()

    def check_depth(self, depth: int, tok: _Token) -> None:
        if depth > MAX_DEPTH:
            raise ExpressionError(f"expression nested deeper than {MAX_DEPTH} levels", self.source, tok.pos)

    def parse(self):
        root = self.parse_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected {quote_source(tok.text)}", self.source, tok.pos)
        return root

    def parse_expr(self):
        # every node is built inside some parse_expr, so this bounds the tree
        start = self.peek()
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = _Apply(_BINARY_OPS[op], [node, self.parse_term()])
        self.check_depth(node.depth, start)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = _Apply(_BINARY_OPS[op], [node, self.parse_unary()])
        return node

    def parse_unary(self):
        # every recursion of the parser passes here, so this bounds its depth
        tok = self.peek()
        self.nesting += 1
        self.check_depth(self.nesting, tok)
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            operand = self.parse_unary()
            node = operand if tok.text == "+" else _Apply(_NEGATE, [operand])
        else:
            node = self.parse_power()
        self.nesting -= 1
        return node

    def parse_power(self):
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return _Apply(np.power, [base, self.parse_unary()])
        return base

    def parse_atom(self):
        tok = self.advance()
        if tok.kind == "number":
            return _Num(float(tok.text))
        if tok.kind == "name":
            return self.finish_name(tok)
        if tok.kind == "op" and tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExpressionError("expected a number, name, or '('", self.source, tok.pos)

    def finish_name(self, tok: _Token):
        name = tok.text
        if name == "pi":
            if self._at_call():
                raise ExpressionError("'pi' is a constant, not a function", self.source, tok.pos)
            return _Num(math.pi)
        if name in VARIABLES:
            self.variables.add(name)
            return _Var(name)
        if name in _UNARY_FUNCS or name in _VARIADIC_FUNCS:
            self.expect_op("(")
            args = [self.parse_expr()]
            while self.peek().kind == "op" and self.peek().text == ",":
                self.advance()
                args.append(self.parse_expr())
            self.expect_op(")")
            if name in _UNARY_FUNCS:
                if len(args) != 1:
                    raise ExpressionError(f"{name} takes exactly one argument", self.source, tok.pos)
                return _Apply(_UNARY_FUNCS[name], args)
            if len(args) < 2:
                raise ExpressionError(f"{name} takes at least two arguments", self.source, tok.pos)
            return _Apply(_VARIADIC_FUNCS[name], args)
        raise UnknownIdentifierError(f"unknown identifier {quote_source(name)}", self.source, tok.pos)

    def _at_call(self) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text == "("


@dataclass(frozen=True)
class CoefficientExpr:
    """Parsed coefficient expression with its source retained."""

    source: str
    root: object
    variables: frozenset[str]

    @property
    def uses_t(self) -> bool:
        return "t" in self.variables

    def evaluate(self, coords: dict[str, np.ndarray], t: float | None = None):
        """Evaluate on broadcastable coordinate arrays, optionally at time t.

        Raises ExpressionError if the expression references a variable that
        the caller did not supply (e.g. x2 on a 1-D grid, or t in a
        spatial-only slot).
        """
        env = dict(coords)
        if t is not None:
            env["t"] = t
        self._require(env)
        with np.errstate(all="ignore"):
            return self.root.evaluate(env)

    def bind(self, coords: dict[str, np.ndarray]) -> Callable[[float], object]:
        """Evaluator of t on fixed coordinates, bitwise equal to evaluate(coords, t).

        Every subtree that does not use t is evaluated once, here; a call
        runs only the t-dependent operations.  Raises ExpressionError like
        evaluate for a variable the coordinates do not supply.
        """
        self._require({*coords, "t"})
        with np.errstate(all="ignore"):
            root = self.root.bind(coords)

        def at(t: float):
            with np.errstate(all="ignore"):
                return root.evaluate({"t": t})

        return at

    def _require(self, available) -> None:
        missing = self.variables - set(available)
        if missing:
            name = sorted(missing)[0]
            raise ExpressionError(
                f"variable {name!r} is not available in this context",
                self.source,
                self.source.find(name),
            )


def parse_expression(source: str) -> CoefficientExpr:
    """Parse the mini-language; syntax errors carry the source offset."""
    parser = _Parser(source)
    root = parser.parse()
    return CoefficientExpr(source=source, root=root, variables=frozenset(parser.variables))
