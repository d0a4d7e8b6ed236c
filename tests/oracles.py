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

``four_einsum_sigma_defect`` and ``rank7_det_expanded`` are the
references for the sigma commutator defect and for 2.8b's determinant
expansion: each metric term formed by its own einsum, and the determinant
as a rank-7 tensor contracted with Riemann.

``omega_spin_connection`` is the connection's former form, which also
carries the diagonal tetrad's derivatives through omega, where sigma^{ab}
annihilates them.

``stencil_sampler`` makes a sampler of any function of rows by
differencing its values: one central level at ``STEP_FIRST`` for the
first-order jet, and for the second-order jet Richardson differences
(``richardson``: levels at ``fd_step(x, STEP_OUTER)`` and its half) of
the Richardson first-order jet.  It is the reference for the exact jets
and the jet of every sampler a test builds by hand.

The rest are helpers only tests call: ``constant_field`` (a sampler
whose jet is the stencil adapter's), ``fit_prediction_constant`` (the fit
that calibrated ``gauge.C0``), ``unitary_transform_gammas``,
``check_smoothness``, and the one-point and one-expression forms of the
package's row APIs: ``value_of`` (an AST's compiled value),
``guard_at`` and ``components_at`` (a spec's callables on one Point),
``shifted`` and ``apply_blocks``.
"""


import numpy as np
import sympy as sp

from curved_rs.errors import ConfigError, CurvedRSError, EvalError
from curved_rs.exprparse import (CONSTANTS, FUNCTIONS, BinOp, Call, Neg, Num,
                                 Program, Var, evaluate)
from curved_rs.fields import VECTOR_BISPINOR, FieldSampler, rows_of
from curved_rs.gauge import (einstein_prediction, gradient_sampler,
                             massless_residual)
from curved_rs.geometry import (ETA, Point, christoffel, eval_metric,
                                metric_derivatives, metric_jet)
from curved_rs.numerics import STEP_FIRST, contract, fd_step
from curved_rs.spin_frame import GAMMA_FLAT, SIGMA_FLAT, Frame, build_tetrad


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
        if guard_at(spec, p):
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


#: the larger of the two Richardson levels, which keeps the noise of the
#: inner difference of a second derivative from being amplified
STEP_OUTER = 1e-4


def central_difference(f, rows, h):
    """d_mu f [n, mu, ...] on (n, 4) rows by central differences with the
    steps ``h`` (n, 4), from one call of the function ``f`` of rows on the
    8 shifted rows of every row."""
    shifts = h[:, None, :] * np.eye(4)
    points = np.stack([rows[:, None] + shifts, rows[:, None] - shifts], 1)
    values = np.asarray(f(points.reshape(-1, 4)))
    values = values.reshape((len(rows), 2, 4) + values.shape[1:])
    step = (2.0 * h).reshape(h.shape + (1,) * (values.ndim - 3))
    return (values[:, 0] - values[:, 1]) / step


def richardson(f, rows):
    """(Richardson d_mu f, |d_h - d_h/2|) on rows: the central differences
    at h = ``fd_step(x, STEP_OUTER)`` and h/2, extrapolated, and the gap
    between the two levels."""
    h = fd_step(rows, STEP_OUTER)
    d_h, d_h2 = central_difference(f, rows, h), central_difference(f, rows,
                                                                  h / 2)
    return (4.0 * d_h2 - d_h) / 3.0, np.abs(d_h - d_h2)


def stencil_sampler(values, kind: str = VECTOR_BISPINOR,
                    name: str = "stencil") -> FieldSampler:
    """A sampler of ``values``, a function of (n, 4) rows returning the
    (n, *shape) values, whose jet differences them: d_mu at
    ``fd_step(x, STEP_FIRST)`` to first order; to second order the
    Richardson d_mu of the value and of its Richardson d_nu."""

    def first(rows):
        value = np.asarray(values(rows), dtype=complex)
        return np.concatenate([value[:, None], richardson(values, rows)[0]],
                              axis=1)

    def jet(coords, order):
        rows = rows_of(coords)
        if order == 0:
            return (values(rows),)
        if order == 1:
            return values(rows), central_difference(
                values, rows, fd_step(rows, STEP_FIRST))
        both, dd = first(rows), richardson(first, rows)[0]
        return both[:, 0], both[:, 1:], dd[:, :, 1:]

    return FieldSampler(jet, kind, name)


def constant_field(values, kind: str = VECTOR_BISPINOR) -> FieldSampler:
    """A constant sampler, differenced by the stencil adapter."""
    values = np.asarray(values, dtype=complex)
    return stencil_sampler(
        lambda rows: np.repeat(values[None], len(rows), axis=0), kind,
        "constant")


class FitDegenerate(CurvedRSError):
    """The calibration point produced a vacuous (zero) prediction vector."""


def fit_prediction_constant(psi: FieldSampler, frame) -> complex:
    """Least-squares fit of the constant in front of the Einstein-tensor
    prediction over a frame's rows; FitDegenerate if they are vacuous."""
    direct = massless_residual(gradient_sampler(psi, frame.spec), frame)
    unit = einstein_prediction(psi, frame, constant=1.0)
    norm = float(np.sum(np.abs(unit) ** 2))
    if norm < 1e-16:
        raise FitDegenerate(
            "Einstein-tensor prediction vanishes at the fit points; "
            "pick non-vacuum points with gamma psi != 0"
        )
    return complex(np.sum(direct * unit.conj()) / norm)


def four_einsum_sigma_defect(sig, g):
    """[sigma^ab, sigma^mn] minus its metric form, indexed [..., a, b, m,
    n, i, k], with each metric term its own einsum."""
    comm = np.einsum("...abij,...mnjk->...abmnik", sig, sig)
    comm = comm - np.swapaxes(np.swapaxes(comm, -6, -4), -5, -3)
    return comm - (
        np.einsum("...ma,...nbij->...abmnij", g, sig)
        - np.einsum("...mb,...naij->...abmnij", g, sig)
        - np.einsum("...na,...mbij->...abmnij", g, sig)
        + np.einsum("...nb,...maij->...abmnij", g, sig)
    )


def rank7_det_expanded(frame: Frame) -> np.ndarray:
    """R_{abns} contracted with the 3x3 Kronecker/metric determinant that
    replaces eps_r^{ns mu} eps^{abt}_mu, formed as one [x, r, n, s, a, b,
    t] tensor, per frame row [x, r, t]."""
    g_up = frame.metric.g_upper
    delta = np.eye(4)
    det = (
        np.einsum("ar,xnb,xst->xrnsabt", delta, g_up, g_up)
        - np.einsum("ar,xnt,xsb->xrnsabt", delta, g_up, g_up)
        - np.einsum("br,xna,xst->xrnsabt", delta, g_up, g_up)
        + np.einsum("br,xnt,xsa->xrnsabt", delta, g_up, g_up)
        + np.einsum("tr,xna,xsb->xrnsabt", delta, g_up, g_up)
        - np.einsum("tr,xnb,xsa->xrnsabt", delta, g_up, g_up)
    )
    return np.einsum("xabns,xrnsabt->xrt", frame.curvature.riemann_lower,
                     det)


def omega_spin_connection(spec, x) -> np.ndarray:
    """Gamma_al = 1/2 sigma^{ab} e_(a)^nu (nabla_al e_(b)nu), indexed
    [..., al, i, j], at a Point or on rows, with omega_{al ab} =
    e_(a)^nu (d_al E[b, nu] - Gamma^l_{al nu} E[b, l]) written out, the
    tetrad's derivatives from the exact metric derivatives."""
    jet = metric_jet(spec, x)
    tet = build_tetrad(eval_metric(spec, jet))
    # d_mu e^(a)_al of the diagonal tetrad: the chain rule on
    # sqrt(eta_aa g_aa), indexed [..., mu, a, al]
    d = np.diagonal(metric_derivatives(spec, jet), axis1=-2, axis2=-1)
    e = np.diagonal(tet.e_lower, axis1=-2, axis2=-1)[..., None, :]
    de = (np.diag(ETA) * d / (2.0 * e))[..., :, :, None] * np.eye(4)
    # frame indices lowered with eta: E[b, nu] = eta_bc e^(c)_nu
    e_dn = ETA @ tet.e_lower
    de_dn = np.einsum("ba,...mac->...mbc", ETA, de)
    nabla_e = de_dn - np.einsum("...lan,...bl->...abn",
                                christoffel(spec, jet), e_dn)
    omega = np.einsum("...an,...mbn->...mab", tet.e_upper, nabla_e)
    conn = omega.reshape(omega.shape[:-2] + (16,)) @ SIGMA_FLAT.reshape(16, 16)
    return 0.5 * conn.reshape(conn.shape[:-1] + (4, 4))


def unitary_transform_gammas(u: np.ndarray) -> np.ndarray:
    """Flat gammas in an equivalent representation: U gamma^a U^dagger."""
    return np.einsum("ij,ajk,kl->ail", u, GAMMA_FLAT, u.conj().T)


def check_smoothness(sampler: FieldSampler, points, min_ratio: float = 3.0):
    """Second-order convergence probe: halving the step must shrink the
    difference between central-difference levels by roughly 4x.

    Returns the worst observed shrink ratio; raises ValueError if it drops
    below ``min_ratio`` (a sampler that is not C^2 at the probe points).
    """
    worst = np.inf
    for x in points:
        # roundoff of a difference quotient at step h is ~ eps |f| / h; a
        # gap below a multiple of it means the central difference is exact
        # (constant, linear or quadratic along x^mu)
        noise = 64 * np.finfo(float).eps * max(1.0, np.max(np.abs(sampler(x))))
        for mu in range(4):
            h = fd_step(x.coords[mu], 100 * STEP_FIRST)

            def diff(hh):
                return (
                    sampler(shifted(x, mu, hh)) - sampler(shifted(x, mu, -hh))
                ) / (2 * hh)

            d1, d2, d4 = diff(h), diff(h / 2), diff(h / 4)
            coarse = float(np.max(np.abs(d1 - d2)))
            fine = float(np.max(np.abs(d2 - d4)))
            if coarse < noise / h:
                continue
            ratio = coarse / max(fine, 1e-300)
            worst = min(worst, ratio)
    if worst < min_ratio:
        raise ValueError(
            f"sampler '{sampler.name}' does not converge at 2nd order "
            f"(shrink ratio {worst:.2f})"
        )
    return worst


def value_of(node, bindings: dict) -> float:
    """The compiled value of one expression AST with name->value
    ``bindings``: a one-expression ``Program`` on one empty row, the
    bindings its parameters."""
    return evaluate(Program((node,), params=tuple(bindings)), [()],
                    tuple(bindings.values()))[0]


def guard_at(spec, x: Point) -> bool:
    """The spec's domain guard on one Point's row."""
    return bool(spec.domain_guard(x.coords[None])[0])


def components_at(spec, x: Point, order: int = 0) -> np.ndarray:
    """The spec's metric table of one order on one Point's row."""
    return spec.component_fn(x.coords[None], order)[0]


def shifted(x: Point, mu: int, dh: float) -> Point:
    """x with its coordinate mu moved by dh."""
    c = x.coords.copy()
    c[mu] += dh
    return Point(c, x.chart_id)


def apply_blocks(m, psi: np.ndarray) -> np.ndarray:
    """(M Psi)_r = sum_s block(r, s) Psi_s of a ``BlockMatrix16``."""
    return contract("...rsij,...sj->...ri", m.blocks, psi)
