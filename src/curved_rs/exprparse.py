"""A small arithmetic expression language for metric components.

Grammar (precedence from loosest to tightest, ``^`` right-associative)::

    sum     := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?
    atom    := NUMBER | NAME | NAME '(' sum ')' | '(' sum ')'

``NAME`` is either a coordinate symbol, a named parameter, the constant
``pi``, or one of the functions sin, cos, tan, exp, log, sqrt, sinh, cosh.
``diff`` differentiates an AST exactly, into another AST of the same
grammar.

Every evaluation runs compiled code.  A ``Program`` holds expressions over
the slots of a row and the names of its parameters and, on its first
evaluation, compiles them into one Python function over a list of rows,
built as a Python syntax tree: slots and parameters are positional names,
the parameters' values arguments of each call, and the function reaches
only fixed helpers, with no builtins, so no name or text of a document
becomes code.  The compiled code depends only on the expressions, so one
program serves every set of parameter values.  It performs the float
operations of the grammar in its order, with the same ``math`` functions,
so the same AST with the same bindings gives a bit-identical float whether
evaluated alone or on any row of a batch.
"""

from __future__ import annotations

import ast as pyast
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from .errors import EvalError, ParseError

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "sinh": math.sinh,
    "cosh": math.cosh,
}

CONSTANTS = {"pi": math.pi}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]


@dataclass(frozen=True)
class Token:
    kind: str  # number | name | op | lparen | rparen | end
    text: str
    line: int
    column: int


def tokenize(text: str, line_offset: int = 1):
    tokens = []
    line, col = line_offset, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if c.isdigit() or (c == "." and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i
            seen_e = False
            while j < len(text):
                ch = text[j]
                if ch.isdigit() or ch == ".":
                    j += 1
                elif ch in "eE" and not seen_e:
                    seen_e = True
                    j += 1
                    if j < len(text) and text[j] in "+-":
                        j += 1
                else:
                    break
            lexeme = text[i:j]
            try:
                float(lexeme)
            except ValueError:
                raise ParseError(
                    f"malformed number '{lexeme}'", line, start_col, {"number"}
                )
            tokens.append(Token("number", lexeme, line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c in "+-*/^":
            tokens.append(Token("op", c, line, start_col))
        elif c == "(":
            tokens.append(Token("lparen", c, line, start_col))
        elif c == ")":
            tokens.append(Token("rparen", c, line, start_col))
        else:
            raise ParseError(f"unexpected character {c!r}", line, start_col, set())
        i += 1
        col += 1
    tokens.append(Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        what = f"'{tok.text}'" if tok.kind != "end" else "end of input"
        raise ParseError(
            f"unexpected {what}", tok.line, tok.column, expected
        )

    def parse_sum(self):
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            # right-associative; the exponent may carry a unary minus
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if tok.text in FUNCTIONS:
                if self.peek().kind != "lparen":
                    self.fail({"'('"})
                self.advance()
                arg = self.parse_sum()
                if self.peek().kind != "rparen":
                    self.fail({"')'"})
                self.advance()
                return Call(tok.text, arg)
            return Var(tok.text)
        if tok.kind == "lparen":
            self.advance()
            node = self.parse_sum()
            if self.peek().kind != "rparen":
                self.fail({"')'"})
            self.advance()
            return node
        self.fail({"number", "name", "'('", "'-'"})


def parse_expression(text: str, line_offset: int = 1) -> Expr:
    """Parse ``text`` into an AST; raises ParseError with position on failure."""
    parser = _Parser(tokenize(text, line_offset))
    node = parser.parse_sum()
    if parser.peek().kind != "end":
        parser.fail({"operator", "end of input"})
    return node


def _pow(lhs, rhs):
    """``lhs ^ rhs``, an EvalError where it overflows or is not real."""
    try:
        result = lhs**rhs
    except (OverflowError, ZeroDivisionError) as exc:
        raise EvalError(f"power {lhs!r} ^ {rhs!r}: {exc}") from exc
    if isinstance(result, complex):
        raise EvalError(f"power {lhs!r} ^ {rhs!r} is not real")
    return result


def _checked(name, fn):
    """``fn`` with its math errors raised as EvalError naming ``name``."""

    def call(arg):
        try:
            return fn(arg)
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"{name}({arg!r}): {exc}") from exc

    return call


#: ``u op w`` on two floats, as compiled code computes it; '/' by zero
#: raises ZeroDivisionError
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": _pow}
_OPERATORS = {"+": pyast.Add, "-": pyast.Sub, "*": pyast.Mult, "/": pyast.Div}
_COMPARISONS = {"<": pyast.Lt, ">": pyast.Gt}
#: the helper each built-in compiles to
_CALLS = {name: f"_f{i}" for i, name in enumerate(FUNCTIONS)}
#: the only names compiled code can reach
_HELPERS = {"_pow": _pow, "_abs": abs, "_errors": (EvalError, ZeroDivisionError),
            **{_CALLS[name]: _checked(name, fn) for name, fn in FUNCTIONS.items()}}

#: a compiled program's frame: ``rows`` is a list of rows, ``out`` the list
#: each row's results are appended to, ``params`` the parameters' values.
#: A guard sets ``_ok`` to its test of the row; a value program's loop
#: appends each expression instead.
_TEMPLATE = """
def _program(rows, out, params):
    _append = out.append
    for _row in rows:
        try:
            _ok = True
        except _errors:
            _ok = False
        _append(_ok)
"""


#: the source position every generated node carries
_AT = {"lineno": 1, "col_offset": 0}


def _name(ident, store=False):
    return pyast.Name(ident, pyast.Store() if store else pyast.Load(), **_AT)


def _call(helper, *args):
    return pyast.Call(_name(helper), list(args), [], **_AT)


@dataclass(frozen=True, eq=False)
class Program:
    """Expressions over the slots of a row, compiled on first evaluation
    into one Python function over a list of rows (see ``evaluate``).

    Without ``tests`` a program gives every row the value of each of
    ``exprs``.  With ``tests`` ((lhs, op, rhs), op '<' or '>') it is a
    guard: a row passes when each test holds and then each of ``exprs``
    lies within +-``limit``, checked in that order up to the first that
    fails; a row where one of them cannot be evaluated fails.  Names are
    bound to the row's slots first, then to ``params``, whose values each
    evaluation passes in that order, then to the constants of the
    language.  The compiled code holds no parameter value, so one program
    serves every set of values.
    """

    exprs: tuple
    slots: tuple = ()
    params: tuple = ()
    tests: Optional[tuple] = None
    limit: float = math.inf

    @cached_property
    def function(self):
        """The compiled program: ``function(rows, out, params)`` appends
        each row's results to ``out`` (values row by row, or one bool per
        row)."""
        slots = {name: f"_x{i}" for i, name in enumerate(self.slots)}
        params = {name: f"_p{i}" for i, name in enumerate(self.params)}
        unbound = []

        def code(node: Expr) -> pyast.expr:
            # float operations in the order the language defines them; '^'
            # and the built-ins go through checked helpers
            kind = type(node)
            if kind is BinOp:
                left, right = code(node.left), code(node.right)
                if node.op == "^":
                    return _call("_pow", left, right)
                return pyast.BinOp(left, _OPERATORS[node.op](), right, **_AT)
            if kind is Num:
                return pyast.Constant(node.value, **_AT)
            if kind is Var:
                if node.name in slots:
                    return _name(slots[node.name])
                if node.name in params:
                    return _name(params[node.name])
                if node.name in CONSTANTS:
                    return pyast.Constant(CONSTANTS[node.name], **_AT)
                unbound.append(node.name)
                return _call("_unbound", pyast.Constant(len(unbound) - 1, **_AT))
            if kind is Neg:
                return pyast.UnaryOp(pyast.USub(), code(node.arg), **_AT)
            if kind is Call and node.func in _CALLS:
                return _call(_CALLS[node.func], code(node.arg))
            raise TypeError(f"not an expression node: {node!r}")

        values = [code(e) for e in self.exprs]
        module = pyast.parse(_TEMPLATE)
        body = module.body[0].body
        loop = body[1]
        if params:
            body.insert(1, pyast.Assign(
                [pyast.Tuple([_name(f"_p{i}", True) for i in range(len(params))],
                             pyast.Store(), **_AT)],
                _name("params"), **_AT))
        if slots:
            loop.target = pyast.Tuple(
                [_name(f"_x{i}", True) for i in range(len(self.slots))],
                pyast.Store(), **_AT)
        if self.tests is None:
            loop.body = ([pyast.Expr(_call("_append", v), **_AT) for v in values]
                         or [pyast.Pass(**_AT)])
        else:
            conditions = [
                pyast.Compare(code(lhs), [_COMPARISONS[op]()], [code(rhs)], **_AT)
                for lhs, op, rhs in self.tests
            ] + [pyast.Compare(_call("_abs", v), [pyast.LtE()],
                               [pyast.Constant(float(self.limit), **_AT)], **_AT)
                 for v in values]
            if conditions:
                loop.body[0].body[0].value = (
                    pyast.BoolOp(pyast.And(), conditions, **_AT)
                    if len(conditions) > 1 else conditions[0])

        def unbound_symbol(k):
            raise EvalError(f"unbound symbol '{unbound[k]}'")

        namespace = {"__builtins__": {}, "_unbound": unbound_symbol, **_HELPERS}
        exec(compile(module, "<exprparse>", "exec"), namespace)
        return namespace["_program"]


def evaluate(program: Program, rows, params: tuple = ()) -> list:
    """The results of a ``Program`` on ``rows``, a list of rows, with its
    parameters bound to ``params``, their values in the order of
    ``program.params``: the value of each expression row by row in one
    flat list, or, for a guard, one bool per row.

    Every evaluation runs compiled code.  Raises EvalError on unbound
    names, division by zero, math-domain violations (sqrt of a negative,
    log of a non-positive value), non-real powers and results too large
    for a float; its ``position`` is the index in the flat list of the
    value that failed.
    """
    out = []
    try:
        program.function(rows, out, params)
    except ZeroDivisionError as exc:  # what an inline '/' by zero raises
        raise EvalError("division by zero", len(out)) from exc
    except EvalError as exc:
        exc.position = len(out)
        raise
    return out


ZERO, ONE, TWO = Num(0.0), Num(1.0), Num(2.0)


def _value(node: Expr):
    """The float of a subtree without free symbols, else None (also where
    it cannot be evaluated).  Folded by the helpers compiled code calls
    (``_BINARY`` and the checked built-ins), in its order, so the float is
    the one compiled code gives and nothing is compiled."""
    kind = type(node)
    if kind is Num:
        return node.value
    if kind is Var:
        return CONSTANTS.get(node.name)
    if kind is BinOp:
        args = (_value(node.left), _value(node.right))
    else:
        args = (_value(node.arg),)
    if None in args:
        return None
    try:
        if kind is Neg:
            return -args[0]
        if kind is Call:
            return _HELPERS[_CALLS[node.func]](args[0])
        return _BINARY[node.op](*args)
    except (EvalError, ArithmeticError):
        return None


def _num(v: float) -> Expr:
    # a negative constant is Neg(Num), the form the parser gives it
    return Num(abs(v)) if v >= 0 else Neg(Num(-v))


def _fold(op: str, u: Expr, w: Expr) -> Expr:
    """``u op w`` with constants folded and 0/1 identities applied, so that
    a structurally zero derivative comes out as ``ZERO``."""
    a, b = _value(u), _value(w)
    if a is not None and b is not None:
        try:
            return _num(_BINARY[op](a, b))
        except (EvalError, ZeroDivisionError):
            pass  # left for evaluation to report where it is met
    u, w = (u if a is None else _num(a)), (w if b is None else _num(b))
    if op in "+-" and isinstance(w, Neg):  # u +- (-x) = u -+ x
        return _fold("-" if op == "+" else "+", u, w.arg)
    if op == "+":
        return w if u == ZERO else u if w == ZERO else BinOp(op, u, w)
    if op == "-":
        return _neg(w) if u == ZERO else u if w == ZERO else BinOp(op, u, w)
    if op == "*":
        if ZERO in (u, w):
            return ZERO
        if -1.0 in (a, b):
            return _neg(w if a == -1.0 else u)
        return w if u == ONE else u if w == ONE else BinOp(op, u, w)
    if op == "/":
        return ZERO if u == ZERO else u if w == ONE else BinOp(op, u, w)
    return ONE if w == ZERO else u if w == ONE else BinOp(op, u, w)


def _neg(u: Expr) -> Expr:
    if _value(u) is not None:
        return _num(-_value(u))
    if isinstance(u, BinOp) and u.op in "*/" and isinstance(u.left, Neg):
        return BinOp(u.op, u.left.arg, u.right)  # -((-x) * y) = x * y
    return u.arg if isinstance(u, Neg) else Neg(u)


#: f'(u) of each built-in f
_DERIVATIVES = {
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: _neg(Call("sin", u)),
    "tan": lambda u: _fold("/", ONE, _fold("^", Call("cos", u), TWO)),
    "exp": lambda u: Call("exp", u),
    "log": lambda u: _fold("/", ONE, u),
    "sqrt": lambda u: _fold("/", ONE, _fold("*", TWO, Call("sqrt", u))),
    "sinh": lambda u: Call("cosh", u),
    "cosh": lambda u: Call("sinh", u),
}


def diff(node: Expr, var: str) -> Expr:
    """The exact partial derivative of an AST with respect to ``var``.

    Sum, product, quotient and power rules (the general u^v rule when the
    exponent depends on ``var``) and the chain rule through the built-ins;
    constants and 0/1 identities are folded, so a derivative that vanishes
    structurally is ``Num(0.0)``.
    """
    if var not in free_symbols(node):
        return ZERO
    if isinstance(node, Var):
        return ONE
    if isinstance(node, Neg):
        return _neg(diff(node.arg, var))
    if isinstance(node, Call):
        return _fold("*", _DERIVATIVES[node.func](node.arg), diff(node.arg, var))
    if not isinstance(node, BinOp):
        raise TypeError(f"not an expression node: {node!r}")
    u, w = node.left, node.right
    du, dw = diff(u, var), diff(w, var)
    if node.op in "+-":
        return _fold(node.op, du, dw)
    if node.op == "*":
        return _fold("+", _fold("*", du, w), _fold("*", u, dw))
    if node.op == "/":
        if dw == ZERO:
            return _fold("/", du, w)
        return _fold("/", _fold("-", _fold("*", du, w), _fold("*", u, dw)),
                     _fold("^", w, TWO))
    if dw == ZERO:  # d(u^c) = c u^(c-1) du
        return _fold("*", _fold("*", w, _fold("^", u, _fold("-", w, ONE))), du)
    # d(u^v) = u^v (dv log(u) + v du / u)
    return _fold("*", node, _fold("+", _fold("*", dw, Call("log", u)),
                                  _fold("/", _fold("*", w, du), u)))


def free_symbols(node: Expr) -> set:
    """All Var names in the AST, constants excluded."""
    if isinstance(node, Num):
        return set()
    if isinstance(node, Var):
        return set() if node.name in CONSTANTS else {node.name}
    if isinstance(node, Neg):
        return free_symbols(node.arg)
    if isinstance(node, Call):
        return free_symbols(node.arg)
    if isinstance(node, BinOp):
        return free_symbols(node.left) | free_symbols(node.right)
    raise TypeError(f"not an expression node: {node!r}")


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_text(node: Expr) -> str:
    """Serialize an AST back to the grammar; parse(to_text(e)) == e."""

    def render(n, parent_prec, is_right=False):
        if isinstance(n, Num):
            return repr(n.value)
        if isinstance(n, Var):
            return n.name
        if isinstance(n, Call):
            return f"{n.func}({render(n.arg, 0)})"
        if isinstance(n, Neg):
            inner = render(n.arg, _PREC["neg"])
            text = f"-{inner}"
            return f"({text})" if parent_prec > _PREC["neg"] else text
        if isinstance(n, BinOp):
            prec = _PREC[n.op]
            # '^' is right-associative, the others left-associative
            if n.op == "^":
                left = render(n.left, prec + 1)
                right = render(n.right, _PREC["neg"], True)
            else:
                left = render(n.left, prec)
                right = render(n.right, prec + 1, True)
            text = f"{left} {n.op} {right}"
            needs_parens = parent_prec > prec or (is_right and parent_prec == prec)
            return f"({text})" if needs_parens else text
        raise TypeError(f"not an expression node: {n!r}")

    return render(node, 0)
