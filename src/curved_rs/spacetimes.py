"""Preset metric catalog and ingestion of user-defined diagonal metrics.

Presets (all diagonal, signature (+,-,-,-)):

* ``minkowski_cartesian`` and ``minkowski_spherical`` - flat space;
* ``schwarzschild(M)`` - vacuum exterior, r > 2M;
* ``de_sitter_static(alpha)`` / ``anti_de_sitter_static(alpha)`` - the
  constant-curvature spaces with R_ab = (R/4) g_ab; in this package's
  curvature convention the scalar is -12/alpha^2 for the de Sitter preset
  and +12/alpha^2 for the anti-de Sitter one;
* ``frw_dust(a0)`` - spatially flat expansion a(t) = a0 t^(2/3), the
  canonical preset with a nonzero Einstein tensor.

User metrics come from a sectioned text document with one expression per
diagonal component (see ``parse_metric_config``); only diagonal metrics
are accepted.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import exprparse
from .errors import ConfigError, EvalError, InvalidParameter, ParseError
from .geometry import MetricSpec, Point

#: margin (coordinate units) kept between guards and horizons/singularities
DOMAIN_MARGIN = 1e-3

#: each preset's parameters with their defaults
PRESET_PARAMS = {
    "minkowski_cartesian": {},
    "minkowski_spherical": {},
    "schwarzschild": {"M": 1.0},
    "de_sitter_static": {"alpha": 1.0},
    "anti_de_sitter_static": {"alpha": 1.0},
    "frw_dust": {"a0": 1.0},
}
PRESET_NAMES = tuple(PRESET_PARAMS)


def _diag(*entries):
    return np.diag(np.array(entries, dtype=float))


def _zeros_deriv(_):
    return np.zeros((4, 4, 4))


def _minkowski_cartesian():
    return MetricSpec(
        name="minkowski_cartesian",
        component_fn=lambda p: _diag(1.0, -1.0, -1.0, -1.0),
        deriv_fn=_zeros_deriv,
        domain_guard=lambda p: bool(np.all(np.isfinite(p.coords))),
        chart=("t", "x", "y", "z"),
        chart_id="minkowski_cartesian",
        sample_box=((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0)),
    )


def _spherical_guard(r_lo, r_hi=None, margin=DOMAIN_MARGIN):
    def guard(p):
        _, r, theta, _ = p.coords
        if not np.all(np.isfinite(p.coords)):
            return False
        if r <= r_lo or (r_hi is not None and r >= r_hi):
            return False
        return margin < theta < math.pi - margin

    return guard


def _minkowski_spherical(margin=DOMAIN_MARGIN):
    def comp(p):
        _, r, theta, _ = p.coords
        return _diag(1.0, -1.0, -(r**2), -(r**2) * math.sin(theta) ** 2)

    def deriv(p):
        _, r, theta, _ = p.coords
        dg = np.zeros((4, 4, 4))
        dg[1, 2, 2] = -2.0 * r
        dg[1, 3, 3] = -2.0 * r * math.sin(theta) ** 2
        dg[2, 3, 3] = -(r**2) * 2.0 * math.sin(theta) * math.cos(theta)
        return dg

    return MetricSpec(
        name="minkowski_spherical",
        component_fn=comp,
        deriv_fn=deriv,
        domain_guard=_spherical_guard(margin, margin=margin),
        chart=("t", "r", "theta", "phi"),
        chart_id="minkowski_spherical",
        sample_box=((-1.0, 1.0), (1.0, 5.0), (0.5, math.pi - 0.5), (0.3, 5.9)),
    )


def _schwarzschild(M=1.0, margin=DOMAIN_MARGIN):
    if not M > 0:
        raise InvalidParameter(f"schwarzschild needs M > 0, got {M}")

    def comp(p):
        _, r, theta, _ = p.coords
        f = 1.0 - 2.0 * M / r
        return _diag(f, -1.0 / f, -(r**2), -(r**2) * math.sin(theta) ** 2)

    def deriv(p):
        _, r, theta, _ = p.coords
        f = 1.0 - 2.0 * M / r
        df = 2.0 * M / r**2
        dg = np.zeros((4, 4, 4))
        dg[1, 0, 0] = df
        dg[1, 1, 1] = df / f**2
        dg[1, 2, 2] = -2.0 * r
        dg[1, 3, 3] = -2.0 * r * math.sin(theta) ** 2
        dg[2, 3, 3] = -(r**2) * 2.0 * math.sin(theta) * math.cos(theta)
        return dg

    return MetricSpec(
        name="schwarzschild",
        component_fn=comp,
        deriv_fn=deriv,
        domain_guard=_spherical_guard(2.0 * M + margin, margin=margin),
        chart=("t", "r", "theta", "phi"),
        chart_id="schwarzschild",
        params={"M": M},
        sample_box=(
            (-1.0, 1.0),
            (3.0 * M, 8.0 * M),
            (0.5, math.pi - 0.5),
            (0.3, 5.9),
        ),
    )


def _static_constant_curvature(name, alpha, sign, margin=DOMAIN_MARGIN):
    """Shared builder: f(r) = 1 - sign r^2/alpha^2 (de Sitter: sign=+1)."""
    if not alpha > 0:
        raise InvalidParameter(f"{name} needs alpha > 0, got {alpha}")

    def f_of(r):
        return 1.0 - sign * r**2 / alpha**2

    def comp(p):
        _, r, theta, _ = p.coords
        f = f_of(r)
        return _diag(f, -1.0 / f, -(r**2), -(r**2) * math.sin(theta) ** 2)

    def deriv(p):
        _, r, theta, _ = p.coords
        f = f_of(r)
        df = -sign * 2.0 * r / alpha**2
        dg = np.zeros((4, 4, 4))
        dg[1, 0, 0] = df
        dg[1, 1, 1] = df / f**2
        dg[1, 2, 2] = -2.0 * r
        dg[1, 3, 3] = -2.0 * r * math.sin(theta) ** 2
        dg[2, 3, 3] = -(r**2) * 2.0 * math.sin(theta) * math.cos(theta)
        return dg

    r_hi = alpha * (1.0 - margin) if sign > 0 else None
    return MetricSpec(
        name=name,
        component_fn=comp,
        deriv_fn=deriv,
        domain_guard=_spherical_guard(margin, r_hi, margin=margin),
        chart=("t", "r", "theta", "phi"),
        chart_id=name,
        params={"alpha": alpha},
        sample_box=(
            (-1.0, 1.0),
            (0.15 * alpha, 0.7 * alpha),
            (0.5, math.pi - 0.5),
            (0.3, 5.9),
        ),
    )


def _frw_dust(a0=1.0, margin=DOMAIN_MARGIN):
    if not a0 > 0:
        raise InvalidParameter(f"frw_dust needs a0 > 0, got {a0}")

    def scale(t):
        return a0 * t ** (2.0 / 3.0)

    def comp(p):
        t = p.coords[0]
        a2 = scale(t) ** 2
        return _diag(1.0, -a2, -a2, -a2)

    def deriv(p):
        t = p.coords[0]
        a = scale(t)
        adot = a0 * (2.0 / 3.0) * t ** (-1.0 / 3.0)
        dg = np.zeros((4, 4, 4))
        for i in (1, 2, 3):
            dg[0, i, i] = -2.0 * a * adot
        return dg

    return MetricSpec(
        name="frw_dust",
        component_fn=comp,
        deriv_fn=deriv,
        domain_guard=lambda p: bool(
            np.all(np.isfinite(p.coords)) and p.coords[0] > 10 * margin
        ),
        chart=("t", "x", "y", "z"),
        chart_id="frw_dust",
        params={"a0": a0},
        sample_box=((0.5, 2.0), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
    )


def load_preset(name: str, margin: float = DOMAIN_MARGIN, **params) -> MetricSpec:
    """Build a preset MetricSpec; raises InvalidParameter for an unknown
    preset or parameter, and for a value that is not finite or out of range.

    ``margin`` widens the exclusion band around horizons, poles and
    singularities (coordinate units).
    """
    if not margin > 0:
        raise InvalidParameter(f"margin must be positive, got {margin}")
    if name not in PRESET_PARAMS:
        raise InvalidParameter(f"unknown preset '{name}'")
    defaults = PRESET_PARAMS[name]
    for key, value in params.items():
        if key not in defaults:
            raise InvalidParameter(
                f"{name} has no parameter '{key}'; its parameters: "
                f"{', '.join(defaults) or 'none'}"
            )
        if not math.isfinite(value):
            raise InvalidParameter(f"{name} needs a finite {key}, got {value}")
    params = defaults | params
    if name == "minkowski_cartesian":
        return _minkowski_cartesian()
    if name == "minkowski_spherical":
        return _minkowski_spherical(margin)
    if name == "schwarzschild":
        return _schwarzschild(params["M"], margin)
    if name == "frw_dust":
        return _frw_dust(params["a0"], margin)
    sign = +1.0 if name == "de_sitter_static" else -1.0
    return _static_constant_curvature(name, params["alpha"], sign, margin)


# ---------------------------------------------------------------------------
# configuration documents
# ---------------------------------------------------------------------------

CONFIG_SECTIONS = ("coords", "metric", "params", "domain", "sampling")
COMPONENT_KEYS = ("g00", "g11", "g22", "g33")


@dataclass
class MetricConfig:
    """Parsed form of a metric configuration document."""

    coord_names: tuple
    components: dict  # g00..g33 -> AST
    params: dict  # name -> float
    domain: list  # list of (lhs AST, op, rhs AST), op in {'<', '>'}
    sampling: dict = field(default_factory=dict)  # coord -> (lo, hi)
    name: str = "config"

    def serialize(self) -> str:
        """Canonical text form; parse(serialize()) reproduces the ASTs."""
        lines = ["[coords]", "names = " + ", ".join(self.coord_names), ""]
        lines.append("[metric]")
        for key in COMPONENT_KEYS:
            lines.append(f"{key} = {exprparse.to_text(self.components[key])}")
        lines.append("")
        if self.params:
            lines.append("[params]")
            for k in sorted(self.params):
                lines.append(f"{k} = {self.params[k]!r}")
            lines.append("")
        if self.domain:
            lines.append("[domain]")
            for lhs, op, rhs in self.domain:
                lines.append(
                    f"{exprparse.to_text(lhs)} {op} {exprparse.to_text(rhs)}"
                )
            lines.append("")
        if self.sampling:
            lines.append("[sampling]")
            for k in self.coord_names:
                if k in self.sampling:
                    lo, hi = self.sampling[k]
                    lines.append(f"{k} = {lo!r}, {hi!r}")
            lines.append("")
        return "\n".join(lines)

    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()[:16]


def parse_metric_config(text: str, name: str = "config") -> MetricConfig:
    """Parse a metric configuration document.

    The document has ``[coords]``, ``[metric]``, optional ``[params]``,
    ``[domain]`` and ``[sampling]`` sections; '#' starts a comment.  Errors
    carry the line/column of the offending token.
    """
    section = None
    coord_names = None
    components = {}
    params = {}
    domain = []
    sampling = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", lineno, 1)
            section = stripped[1:-1].strip().lower()
            if section not in CONFIG_SECTIONS:
                raise ParseError(f"unknown section '{section}'", lineno, 1,
                                 set(CONFIG_SECTIONS))
            continue
        if section is None:
            raise ParseError("content before any section header", lineno, 1)

        if section == "coords":
            key, _, value = stripped.partition("=")
            if key.strip() != "names" or not _:
                raise ParseError("expected 'names = t, r, ...'", lineno, 1)
            coord_names = tuple(s.strip() for s in value.split(","))
            if len(coord_names) != 4 or any(not s for s in coord_names):
                raise ParseError("exactly 4 coordinate names required", lineno, 1)
        elif section == "metric":
            key, eq, value = stripped.partition("=")
            key = key.strip()
            if not eq or key not in COMPONENT_KEYS:
                raise ParseError(
                    f"expected '<g00|g11|g22|g33> = expression', got '{key}'",
                    lineno, 1, set(COMPONENT_KEYS),
                )
            col0 = raw.index("=") + 2
            try:
                components[key] = exprparse.parse_expression(value, lineno)
            except ParseError as exc:
                raise ParseError(
                    f"in {key}: {exc.message}", lineno,
                    (exc.column or 0) + col0 - 1, exc.expected,
                ) from exc
        elif section == "params":
            key, eq, value = stripped.partition("=")
            if not eq:
                raise ParseError("expected 'name = number'", lineno, 1)
            try:
                params[key.strip()] = float(value.strip())
            except ValueError:
                raise ParseError(
                    f"parameter '{key.strip()}' is not a number", lineno, 1
                )
        elif section == "domain":
            op = ">" if ">" in stripped else "<" if "<" in stripped else None
            if op is None:
                raise ParseError(
                    "domain lines look like 'expr > expr' or 'expr < expr'",
                    lineno, 1, {"'<'", "'>'"},
                )
            left, _, right = stripped.partition(op)
            domain.append(
                (
                    exprparse.parse_expression(left, lineno),
                    op,
                    exprparse.parse_expression(right, lineno),
                )
            )
        elif section == "sampling":
            key, eq, value = stripped.partition("=")
            if not eq:
                raise ParseError("expected 'coord = lo, hi'", lineno, 1)
            pieces = value.split(",")
            if len(pieces) != 2:
                raise ParseError("expected 'coord = lo, hi'", lineno, 1)
            sampling[key.strip()] = (float(pieces[0]), float(pieces[1]))

    if coord_names is None:
        raise ParseError("missing [coords] section", 1, 1)
    missing = [k for k in COMPONENT_KEYS if k not in components]
    if missing:
        raise ParseError(f"missing metric components: {', '.join(missing)}", 1, 1)

    cfg = MetricConfig(coord_names, components, params, domain, sampling, name)
    _validate_symbols(cfg)
    return cfg


def _validate_symbols(cfg: MetricConfig):
    known = set(cfg.coord_names) | set(cfg.params)
    for key, ast in cfg.components.items():
        stray = exprparse.free_symbols(ast) - known
        if stray:
            raise ConfigError(
                f"component {key} uses undefined symbols: {sorted(stray)}"
            )
    for lhs, _, rhs in cfg.domain:
        stray = (exprparse.free_symbols(lhs) | exprparse.free_symbols(rhs)) - known
        if stray:
            raise ConfigError(
                f"domain constraint uses undefined symbols: {sorted(stray)}"
            )


def spec_from_config(cfg: MetricConfig) -> MetricSpec:
    """Diagonal MetricSpec evaluating the config's expressions.

    Derivatives fall back to finite differences; the domain guard evaluates
    the [domain] inequalities (a point with any failing or non-evaluable
    constraint is outside).
    """
    names = cfg.coord_names
    comp_asts = [cfg.components[k] for k in COMPONENT_KEYS]

    def bindings(p: Point) -> dict:
        b = dict(cfg.params)
        for i, n in enumerate(names):
            b[n] = p.coords[i]
        return b

    def comp(p: Point) -> np.ndarray:
        b = bindings(p)
        return np.diag([exprparse.evaluate(ast, b) for ast in comp_asts])

    def guard(p: Point) -> bool:
        if not np.all(np.isfinite(p.coords)):
            return False
        b = bindings(p)
        try:
            for lhs, op, rhs in cfg.domain:
                left = exprparse.evaluate(lhs, b)
                right = exprparse.evaluate(rhs, b)
                if op == ">" and not left > right:
                    return False
                if op == "<" and not left < right:
                    return False
            for ast in comp_asts:
                exprparse.evaluate(ast, b)
        except EvalError:
            return False
        return True

    box = None
    if cfg.sampling:
        missing = [n for n in names if n not in cfg.sampling]
        if missing:
            raise ConfigError(f"[sampling] missing coordinates: {missing}")
        box = tuple(cfg.sampling[n] for n in names)

    return MetricSpec(
        name=cfg.name,
        component_fn=comp,
        deriv_fn=None,
        domain_guard=guard,
        chart=names,
        chart_id=f"config:{cfg.content_hash()}",
        params=dict(cfg.params),
        sample_box=box,
    )
