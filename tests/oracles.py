"""Independent references for the package's results.

``symbolic_metric`` and ``symbolic_curvature`` are a symbolic curvature
oracle, built on sympy.  It implements the same curvature conventions as
the package (signature (+,-,-,-), R^r_{s mu nu} = d_mu Gamma^r_{nu s} -
..., Ricci from the 1st/3rd contraction) but through symbolic
differentiation of closed-form metrics, so the two routes share no code.

``tree_evaluate`` walks an expression AST node by node, one binding set at
a time: the reference for compiled evaluation.  ``loop_sample_points`` is
the reference for ``sample_points``: one draw and one guard call at a
time.
"""


import numpy as np
import sympy as sp

from curved_rs.errors import ConfigError, EvalError
from curved_rs.exprparse import CONSTANTS, FUNCTIONS, BinOp, Call, Neg, Num, Var
from curved_rs.geometry import Point


def symbolic_metric(name, **params):
    t, r, th, ph = sp.symbols("t r theta phi")
    if name == "schwarzschild":
        M = params.get("M", 1)
        f = 1 - 2 * M / r
        return (t, r, th, ph), sp.diag(f, -1 / f, -(r**2),
                                       -(r**2) * sp.sin(th) ** 2)
    if name == "de_sitter_static":
        a = params.get("alpha", 1)
        f = 1 - r**2 / a**2
        return (t, r, th, ph), sp.diag(f, -1 / f, -(r**2),
                                       -(r**2) * sp.sin(th) ** 2)
    if name == "anti_de_sitter_static":
        a = params.get("alpha", 1)
        f = 1 + r**2 / a**2
        return (t, r, th, ph), sp.diag(f, -1 / f, -(r**2),
                                       -(r**2) * sp.sin(th) ** 2)
    if name == "frw_dust":
        a0 = params.get("a0", 1)
        x, y, z = sp.symbols("x y z")
        a2 = (a0 * t ** sp.Rational(2, 3)) ** 2
        return (t, x, y, z), sp.diag(1, -a2, -a2, -a2)
    if name == "minkowski_cartesian":
        return sp.symbols("t x y z"), sp.diag(1, -1, -1, -1)
    if name == "minkowski_spherical":
        return (t, r, th, ph), sp.diag(1, -1, -(r**2),
                                       -(r**2) * sp.sin(th) ** 2)
    raise ValueError(name)


def symbolic_curvature(coords, g):
    """Christoffel, lowered Riemann, Ricci, scalar and Einstein tensors as
    numeric evaluators of the 4 coordinates."""
    n = 4
    ginv = g.inv()
    dg = [[[sp.diff(g[a, b], coords[m]) for b in range(n)] for a in range(n)]
          for m in range(n)]

    gamma = [[[
        sum(ginv[s, l] * (dg[a][l][b] + dg[b][l][a] - dg[l][a][b])
            for l in range(n)) / 2
        for b in range(n)] for a in range(n)] for s in range(n)]

    def riem_up(r_, s_, m_, n_):
        expr = sp.diff(gamma[r_][n_][s_], coords[m_]) - sp.diff(
            gamma[r_][m_][s_], coords[n_]
        )
        expr += sum(
            gamma[r_][m_][l] * gamma[l][n_][s_]
            - gamma[r_][n_][l] * gamma[l][m_][s_]
            for l in range(n)
        )
        return expr

    riem_low = [[[[
        sum(g[r_, l] * riem_up(l, s_, m_, n_) for l in range(n))
        for n_ in range(n)] for m_ in range(n)] for s_ in range(n)]
        for r_ in range(n)]
    ricci = [[sum(riem_up(l, s_, l, n_) for l in range(n))
              for n_ in range(n)] for s_ in range(n)]
    scalar = sum(ginv[s_, n_] * ricci[s_][n_]
                 for s_ in range(n) for n_ in range(n))
    einstein = [[sp.simplify(ricci[a][b] - scalar * g[a, b] / 2)
                 for b in range(n)] for a in range(n)]

    fns = {
        "christoffel": sp.lambdify(coords, gamma, "numpy"),
        "riemann_lower": sp.lambdify(coords, riem_low, "numpy"),
        "ricci": sp.lambdify(coords, ricci, "numpy"),
        "scalar": sp.lambdify(coords, scalar, "numpy"),
        "einstein": sp.lambdify(coords, einstein, "numpy"),
    }

    def evaluate(point):
        c = tuple(float(v) for v in point.coords)
        return {
            key: np.asarray(fn(*c), dtype=float) for key, fn in fns.items()
        }

    return evaluate


def tree_evaluate(node, bindings: dict) -> float:
    """The value of an AST against name->value bindings, by walking it."""
    kind = type(node)
    if kind is BinOp:
        lhs = tree_evaluate(node.left, bindings)
        rhs = tree_evaluate(node.right, bindings)
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        if node.op == "/":
            if rhs == 0.0:
                raise EvalError("division by zero")
            return lhs / rhs
        try:
            result = lhs**rhs
        except (OverflowError, ZeroDivisionError) as exc:
            raise EvalError(f"power {lhs!r} ^ {rhs!r}: {exc}") from exc
        if isinstance(result, complex):
            raise EvalError(f"power {lhs!r} ^ {rhs!r} is not real")
        return result
    if kind is Num:
        return node.value
    if kind is Var:
        if node.name in bindings:
            return float(bindings[node.name])
        if node.name in CONSTANTS:
            return CONSTANTS[node.name]
        raise EvalError(f"unbound symbol '{node.name}'")
    if kind is Neg:
        return -tree_evaluate(node.arg, bindings)
    if kind is Call:
        arg = tree_evaluate(node.arg, bindings)
        try:
            return FUNCTIONS[node.func](arg)
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"{node.func}({arg!r}): {exc}") from exc
    raise TypeError(f"not an expression node: {node!r}")


def loop_sample_points(spec, n: int, seed: int, draws_per_point: int) -> list:
    """The first n draws of one generator, drawn and guarded one at a
    time, that lie in the spec's domain."""
    rng = np.random.default_rng(seed)
    box = np.asarray(spec.sample_box, dtype=float)
    pts = []
    for _ in range(draws_per_point * n):
        p = Point(rng.uniform(box[:, 0], box[:, 1]), spec.chart_id)
        if spec.contains(p):
            pts.append(p)
            if len(pts) == n:
                return pts
    raise ConfigError(f"only {len(pts)} points")


def tree_guard(cfg, coords, limit: float) -> bool:
    """A metric document's domain guard at one point, by walking its ASTs:
    the [domain] inequalities in order, then |g_aa| <= ``limit``."""
    if not np.all(np.isfinite(coords)):
        return False
    bindings = cfg.params | dict(zip(cfg.coord_names, np.asarray(coords).tolist()))
    try:
        for lhs, op, rhs in cfg.domain:
            left = tree_evaluate(lhs, bindings)
            right = tree_evaluate(rhs, bindings)
            if not (left > right if op == ">" else left < right):
                return False
        return all(abs(tree_evaluate(ast, bindings)) <= limit
                   for ast in cfg.components.values())
    except EvalError:
        return False
