"""Grammar, precedence, error positions, the serialize round-trip, and
exact differentiation against sympy."""

import math
import struct

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curved_rs.errors import EvalError, ParseError
from curved_rs.exprparse import (
    BinOp,
    Call,
    Neg,
    Num,
    Program,
    Var,
    diff,
    evaluate,
    free_symbols,
    parse_expression,
    to_text,
)

from oracles import tree_evaluate, value_of


def ev(text, **bindings):
    return value_of(parse_expression(text), bindings)


class TestPrecedence:
    def test_sum_vs_product(self):
        assert ev("2 + 3 * 4") == 14.0
        assert ev("2 * 3 + 4") == 10.0

    def test_power_binds_tightest(self):
        assert ev("2 * 3 ^ 2") == 18.0
        assert ev("-3 ^ 2") == -9.0  # unary minus looser than ^

    def test_power_right_associative(self):
        assert ev("2 ^ 3 ^ 2") == 512.0

    def test_negative_exponent(self):
        assert ev("2 ^ -2") == 0.25

    def test_parentheses(self):
        assert ev("(2 + 3) * 4") == 20.0
        assert ev("(-3) ^ 2") == 9.0

    def test_division_left_associative(self):
        assert ev("12 / 3 / 2") == 2.0

    def test_double_unary_minus(self):
        assert ev("--3") == 3.0


class TestExamples:
    def test_schwarzschild_g00(self):
        assert ev("1 - 2*M/r", M=1.0, r=4.0) == pytest.approx(0.5)

    def test_schwarzschild_g11(self):
        assert ev("-(1 - 2*M/r)^(-1)", M=1.0, r=4.0) == pytest.approx(-2.0)

    def test_functions_and_pi(self):
        assert ev("sin(pi/2)") == pytest.approx(1.0)
        assert ev("sqrt(2)^2") == pytest.approx(2.0)
        assert ev("cosh(x)^2 - sinh(x)^2", x=0.7) == pytest.approx(1.0)
        assert ev("log(exp(3))") == pytest.approx(3.0)


class TestParseErrors:
    def test_dangling_operator_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("1 - 2*M/")
        assert err.value.line == 1
        assert err.value.column == 9  # just past the '/' at column 8
        assert err.value.expected

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_expression("(1 + 2")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 )")

    def test_function_needs_parens(self):
        with pytest.raises(ParseError):
            parse_expression("sin 3")

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            parse_expression("1 ? 2")


class TestEvalErrors:
    def test_sqrt_of_negative(self):
        with pytest.raises(EvalError):
            ev("sqrt(x)", x=-1.0)

    def test_log_of_zero(self):
        with pytest.raises(EvalError):
            ev("log(x)", x=0.0)

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            ev("1 / x", x=0.0)

    def test_unbound_symbol(self):
        with pytest.raises(EvalError):
            ev("1 + q")

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalError):
            ev("x ^ 0.5", x=-2.0)

    def test_overflowing_builtin(self):
        with pytest.raises(EvalError, match="exp"):
            ev("1 + exp(x)", x=800.0)


def test_free_symbols():
    ast = parse_expression("1 - 2*M/r + sin(theta) * pi")
    assert free_symbols(ast) == {"M", "r", "theta"}


# --- round-trip property -----------------------------------------------------

_names = st.sampled_from(["r", "theta", "M", "alpha", "x1"])
_funcs = st.sampled_from(["sin", "cos", "exp", "sqrt", "sinh", "cosh", "tan", "log"])


def _exprs():
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False).map(Num),
        _names.map(Var),
    )

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(_funcs, children).map(lambda t: Call(*t)),
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: BinOp(*t)
            ),
        )

    return st.recursive(leaves, extend, max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(_exprs())
def test_roundtrip_parse_of_serialized_ast(ast):
    assert parse_expression(to_text(ast)) == ast


@settings(max_examples=50, deadline=None)
@given(_exprs())
def test_serialization_is_stable(ast):
    text = to_text(ast)
    assert to_text(parse_expression(text)) == text


def _outcome(evaluate_fn, ast, bindings):
    """The bits of a value, or the message of the EvalError raised."""
    try:
        return struct.pack("<d", evaluate_fn(ast, bindings))
    except EvalError as exc:
        return str(exc)


_VALUES = st.one_of(st.floats(min_value=-4.0, max_value=4.0),
                    st.sampled_from([0.0, -0.0, 1.0, -1.0, 800.0]))


@settings(max_examples=300, deadline=None)
@given(_exprs(), st.lists(_VALUES, min_size=5, max_size=5))
def test_compiled_evaluation_is_the_tree_walk(ast, values):
    """Compiled code gives the tree walk's value to the bit, or raises
    EvalError with its message, one binding set at a time."""
    bindings = dict(zip(["r", "theta", "M", "alpha", "x1"], values))
    assert (_outcome(value_of, ast, bindings)
            == _outcome(tree_evaluate, ast, bindings))


@settings(max_examples=100, deadline=None)
@given(st.lists(_exprs(), min_size=1, max_size=4),
       st.lists(st.lists(_VALUES, min_size=3, max_size=3), min_size=1,
                max_size=6))
def test_a_program_on_rows_is_each_expression_on_each_row(exprs, rows):
    """A program over rows gives, row by row, each expression's value
    alone (``M`` and ``alpha`` its parameters); where one fails, it raises
    that EvalError at the position of the first value that fails."""
    program = Program(tuple(exprs), ("r", "theta", "x1"), ("M", "alpha"))
    ref = []
    for row in rows:
        bindings = {"M": 0.5, "alpha": -2.0, **dict(zip(program.slots, row))}
        ref += [_outcome(tree_evaluate, e, bindings) for e in exprs]
    try:
        got = [struct.pack("<d", v) for v in evaluate(program, rows, (0.5, -2.0))]
    except EvalError as exc:
        first = next(i for i, v in enumerate(ref) if isinstance(v, str))
        assert (exc.position, str(exc)) == (first, ref[first])
    else:
        assert got == ref


def test_a_guard_program_stops_at_the_first_test_that_fails():
    x = Var("x")
    guard = Program((BinOp("/", Num(1.0), x),), ("x",),
                    tests=((x, ">", Num(-1.0)), (Call("log", x), "<", Num(1.0))),
                    limit=10.0)
    rows = [[-2.0], [0.0], [0.05], [0.5], [3.0], [float("nan")]]
    # -2 fails the first test, 0 the log, 0.05 the limit, 3 the second test
    assert evaluate(guard, rows) == [False, False, False, True, False, False]


def test_referential_transparency():
    ast = parse_expression("sin(r) * exp(-M/2) + r^3 / (1 + M)")
    bindings = {"r": 1.234567, "M": 0.891}
    first = value_of(ast, bindings)
    for _ in range(5):
        assert value_of(ast, bindings) == first  # bit-identical


# --- exact differentiation against sympy ---------------------------------------

_SYMPY_FUNCS = {"sin": sp.sin, "cos": sp.cos, "tan": sp.tan, "exp": sp.exp,
                "log": sp.log, "sqrt": sp.sqrt, "sinh": sp.sinh,
                "cosh": sp.cosh}
_SYMPY_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
              "*": lambda a, b: a * b, "/": lambda a, b: a / b,
              "^": lambda a, b: a**b}


def _to_sympy(node):
    if isinstance(node, Num):
        return sp.Float(node.value)
    if isinstance(node, Var):
        return sp.pi if node.name == "pi" else sp.Symbol(node.name)
    if isinstance(node, Neg):
        return -_to_sympy(node.arg)
    if isinstance(node, Call):
        return _SYMPY_FUNCS[node.func](_to_sympy(node.arg))
    return _SYMPY_OPS[node.op](_to_sympy(node.left), _to_sympy(node.right))


def _agrees_with_sympy(ast, var, bindings):
    """diff(ast) evaluated at ``bindings`` against sympy's derivative."""
    ours = value_of(diff(ast, var), bindings)
    ref = float(sp.diff(_to_sympy(ast), sp.Symbol(var)).subs(
        {sp.Symbol(k): v for k, v in bindings.items()}).evalf(30))
    assert ours == pytest.approx(ref, rel=1e-10, abs=1e-12)


AT = {"x": 0.7, "y": 1.3, "M": 0.4}


@pytest.mark.parametrize("text", [
    # each built-in, through the chain rule
    "sin(x^2)", "cos(3*x)", "tan(x)", "exp(-x)", "log(x + y)", "sqrt(x*y)",
    "sinh(x/2)", "cosh(x - y)",
    # each rule
    "x + y", "x - 2*x", "x*y*x", "y / x", "x / (1 + x^2)", "-x^3",
    "x^(-1)", "x^(2/3)", "(1 - 2*M/x)^(-1)", "-1/(1 - 2*M/x)",
    # a variable exponent: the general u^v rule, and a constant base
    "x^x", "(1 + x)^(y*x)", "2^x", "pi^(x/2)",
])
def test_diff_matches_sympy(text):
    ast = parse_expression(text)
    for var in ("x", "y"):
        _agrees_with_sympy(ast, var, AT)


def test_second_derivatives_match_sympy():
    for text in ("-r^2 * sin(theta)^2", "-1/(1 - 2*M/r)",
                 "-(a0*t^(2/3))^2", "1 + r^2/alpha^2"):
        ast = parse_expression(text)
        names = sorted(free_symbols(ast))
        at = {n: 0.3 + 0.6 * i for i, n in enumerate(names)}
        if "r" in at:
            at["r"] = 4.0  # outside the horizon
        for a in names:
            for b in names:
                ours = value_of(diff(diff(ast, a), b), at)
                ref = float(sp.diff(_to_sympy(ast), sp.Symbol(a), sp.Symbol(b))
                            .subs({sp.Symbol(k): v for k, v in at.items()}))
                assert ours == pytest.approx(ref, rel=1e-10, abs=1e-12), (text, a, b)


def test_structural_zeros_fold():
    assert diff(parse_expression("M * r^2 + sin(theta)"), "t") == Num(0.0)
    assert diff(parse_expression("-r^2 * sin(theta)^2"), "phi") == Num(0.0)
    assert diff(parse_expression("2 * x"), "x") == Num(2.0)
    assert diff(parse_expression("x^2"), "x") == parse_expression("2 * x")


def test_derivative_serializes_in_the_grammar():
    d = diff(parse_expression("(1 - 2*M/r)^(-1) + 2^r"), "r")
    assert parse_expression(to_text(d)) == d


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_exprs(), st.sampled_from(["r", "theta", "M"]))
def test_diff_of_random_asts_matches_sympy(ast, var):
    bindings = {"r": 1.7, "theta": 0.6, "M": 0.3, "alpha": 2.1, "x1": 0.9}
    try:
        ours = value_of(diff(ast, var), bindings)
        value = value_of(ast, bindings)
    except (EvalError, OverflowError):
        assume(False)
    assume(math.isfinite(ours) and math.isfinite(value) and abs(ours) < 1e12)
    ref = sp.diff(_to_sympy(ast), sp.Symbol(var)).subs(
        {sp.Symbol(k): v for k, v in bindings.items()}).evalf(30)
    assume(ref.is_real and ref.is_finite)
    assert ours == pytest.approx(float(ref), rel=1e-7, abs=1e-9)
