"""Preset metric catalog and ingestion of user-defined diagonal metrics.

Every metric is a sectioned text document with one expression per diagonal
component (see ``parse_metric_config``); only diagonal metrics exist.  The
presets are documents embedded here (all signature (+,-,-,-)):

* ``minkowski_cartesian`` and ``minkowski_spherical`` - flat space;
* ``schwarzschild(M)`` - vacuum exterior, r > 2M;
* ``de_sitter_static(alpha)`` / ``anti_de_sitter_static(alpha)`` - the
  constant-curvature spaces with R_ab = (R/4) g_ab; in this package's
  curvature convention the scalar is -12/alpha^2 for the de Sitter preset
  and +12/alpha^2 for the anti-de Sitter one;
* ``frw_dust(a0)`` - spatially flat expansion a(t) = a0 t^(2/3), the
  canonical preset with a nonzero Einstein tensor.

A spec's metric derivatives are exact: ``exprparse.diff`` differentiates
each component once per spec, and the spec evaluates those ASTs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import exprparse
from .errors import ConfigError, EvalError, InvalidParameter, OutOfDomain, ParseError
from .geometry import MetricSpec, as_rows

#: the preset documents; their guards keep 1e-3 coordinate units from
#: horizons, poles and singularities
PRESET_DOCUMENTS = {
    "minkowski_cartesian": """
[coords]
names = t, x, y, z
[metric]
g00 = 1
g11 = -1
g22 = -1
g33 = -1
[sampling]
t = -2, 2
x = -2, 2
y = -2, 2
z = -2, 2
""",
    "minkowski_spherical": """
[coords]
names = t, r, theta, phi
[metric]
g00 = 1
g11 = -1
g22 = -r^2
g33 = -r^2 * sin(theta)^2
[domain]
r > 0.001
theta > 0.001
theta < pi - 0.001
[sampling]
t = -1, 1
r = 1, 5
theta = 0.5, pi - 0.5
phi = 0.3, 5.9
""",
    "schwarzschild": """
[coords]
names = t, r, theta, phi
[metric]
g00 = 1 - 2*M/r
g11 = -1/(1 - 2*M/r)
g22 = -r^2
g33 = -r^2 * sin(theta)^2
[params]
M = 1.0
[domain]
r > 2*M + 0.001
theta > 0.001
theta < pi - 0.001
[sampling]
t = -1, 1
r = 3*M, 8*M
theta = 0.5, pi - 0.5
phi = 0.3, 5.9
""",
    "de_sitter_static": """
[coords]
names = t, r, theta, phi
[metric]
g00 = 1 - r^2/alpha^2
g11 = -1/(1 - r^2/alpha^2)
g22 = -r^2
g33 = -r^2 * sin(theta)^2
[params]
alpha = 1.0
[domain]
r > 0.001
r < alpha*(1 - 0.001)
theta > 0.001
theta < pi - 0.001
[sampling]
t = -1, 1
r = 0.15*alpha, 0.7*alpha
theta = 0.5, pi - 0.5
phi = 0.3, 5.9
""",
    "anti_de_sitter_static": """
[coords]
names = t, r, theta, phi
[metric]
g00 = 1 + r^2/alpha^2
g11 = -1/(1 + r^2/alpha^2)
g22 = -r^2
g33 = -r^2 * sin(theta)^2
[params]
alpha = 1.0
[domain]
r > 0.001
theta > 0.001
theta < pi - 0.001
[sampling]
t = -1, 1
r = 0.15*alpha, 0.7*alpha
theta = 0.5, pi - 0.5
phi = 0.3, 5.9
""",
    "frw_dust": """
[coords]
names = t, x, y, z
[metric]
g00 = 1
g11 = -(a0*t^(2/3))^2
g22 = -(a0*t^(2/3))^2
g33 = -(a0*t^(2/3))^2
[params]
a0 = 1.0
[domain]
t > 0.01
[sampling]
t = 0.5, 2
x = -1, 1
y = -1, 1
z = -1, 1
""",
}
PRESET_NAMES = tuple(PRESET_DOCUMENTS)


def load_preset(name: str, **params) -> MetricSpec:
    """Build a preset MetricSpec from its document, with ``params``
    overriding the document's [params]; raises InvalidParameter for an
    unknown preset or parameter, and for a value that is not finite and
    positive."""
    if name not in PRESET_DOCUMENTS:
        raise InvalidParameter(f"unknown preset '{name}'; available: "
                               f"{', '.join(PRESET_NAMES)}")
    cfg = parse_metric_config(PRESET_DOCUMENTS[name], name=name)
    for key, value in params.items():
        if key not in cfg.params:
            raise InvalidParameter(
                f"{name} has no parameter '{key}'; its parameters: "
                f"{', '.join(cfg.params) or 'none'}"
            )
        if not (math.isfinite(value) and value > 0):
            raise InvalidParameter(
                f"{name} needs a finite {key} > 0, got {value}")
    params = {k: float(v) for k, v in params.items()}
    return _build_spec(replace(cfg, params=cfg.params | params), name)


# ---------------------------------------------------------------------------
# configuration documents
# ---------------------------------------------------------------------------

CONFIG_SECTIONS = ("coords", "metric", "params", "domain", "sampling")
COMPONENT_KEYS = ("g00", "g11", "g22", "g33")
#: largest |g_aa| at a point of a document's domain, so that products of
#: several sqrt|g|-sized Dirac matrices and their derivatives stay finite
COMPONENT_LIMIT = 1e100


@dataclass
class MetricConfig:
    """Parsed form of a metric configuration document."""

    coord_names: tuple
    components: dict  # g00..g33 -> AST
    params: dict  # name -> float
    domain: list  # list of (lhs AST, op, rhs AST), op in {'<', '>'}
    sampling: dict = field(default_factory=dict)  # coord -> (lo AST, hi AST)
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
                    lo, hi = map(exprparse.to_text, self.sampling[k])
                    lines.append(f"{k} = {lo}, {hi}")
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
            sampling[key.strip()] = tuple(
                exprparse.parse_expression(piece, lineno) for piece in pieces)

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
    for coord, bounds in cfg.sampling.items():
        stray = set().union(*map(exprparse.free_symbols, bounds)) - set(cfg.params)
        if stray:
            raise ConfigError(
                f"[sampling] bounds of {coord} use symbols that are not "
                f"parameters: {sorted(stray)}"
            )


def spec_from_config(cfg: MetricConfig) -> MetricSpec:
    """Diagonal MetricSpec evaluating the config's expressions, with exact
    metric derivatives.

    The domain guard evaluates the [domain] inequalities (a point with any
    failing or non-evaluable constraint, or a non-evaluable component, is
    outside).
    """
    return _build_spec(cfg, f"config:{cfg.content_hash()}")


def _derivative_tables(cfg: MetricConfig) -> tuple:
    """For the metric (order 0) and its first and second derivatives, the
    structurally nonzero entries as (index, label, AST); a second
    derivative's index addresses both [mu, nu] and [nu, mu]."""
    names = cfg.coord_names
    comps = [cfg.components[k] for k in COMPONENT_KEYS]
    first = [[exprparse.diff(ast, x) for ast in comps] for x in names]
    tables = (
        [((a, a), f"g{a}{a}", ast) for a, ast in enumerate(comps)],
        [((mu, a, a), f"d_{names[mu]} g{a}{a}", first[mu][a])
         for mu in range(4) for a in range(4)],
        [(((mu, nu), (nu, mu), a, a), f"d_{names[mu]} d_{names[nu]} g{a}{a}",
          exprparse.diff(first[mu][a], names[nu]))
         for mu in range(4) for nu in range(mu, 4) for a in range(4)],
    )
    return tuple([e for e in t if e[2] != exprparse.ZERO] for t in tables)


def _scatter(table: list, order: int) -> tuple:
    """(positions, columns): where in a row's flattened (4,) * (order + 2)
    array each column of a derivative table's values goes."""
    positions, columns = [], []
    for j, (index, _, _) in enumerate(table):
        flat = np.ravel_multi_index(index, (4,) * (order + 2)).ravel().tolist()
        positions += flat
        columns += [j] * len(flat)
    return positions, columns


def _build_spec(cfg: MetricConfig, chart_id: str) -> MetricSpec:
    names = cfg.coord_names
    tables = _derivative_tables(cfg)
    # each compiled on first use: one function per order, and the guard
    programs = [exprparse.Program(tuple(ast for _, _, ast in t), names, cfg.params)
                for t in tables]
    scatters = [_scatter(t, k) for k, t in enumerate(tables)]
    guard_program = exprparse.Program(
        tuple(cfg.components[k] for k in COMPONENT_KEYS), names, cfg.params,
        tests=tuple(cfg.domain), limit=COMPONENT_LIMIT)

    def comp(rows, order: int = 0) -> np.ndarray:
        rows = as_rows(rows)
        table = tables[order]
        try:
            values = exprparse.evaluate(programs[order], rows.tolist())
        except EvalError as exc:
            row, entry = divmod(exc.position, len(table))
            _, label, ast = table[entry]
            raise OutOfDomain(
                f"{label} = {exprparse.to_text(ast)} cannot be evaluated "
                f"at {np.array2string(rows[row], precision=6)}: {exc}"
            ) from exc
        positions, columns = scatters[order]
        out = np.zeros((len(rows), 4 ** (order + 2)))
        out[:, positions] = np.array(values).reshape(len(rows), len(table))[:, columns]
        return out.reshape((len(rows),) + (4,) * (order + 2))

    def guard(rows):
        rows = as_rows(rows)
        inside = np.isfinite(rows).all(axis=1)
        inside[inside] = exprparse.evaluate(guard_program, rows[inside].tolist())
        return inside

    box = None
    if cfg.sampling:
        missing = [n for n in names if n not in cfg.sampling]
        if missing:
            raise ConfigError(f"[sampling] missing coordinates: {missing}")
        bounds = exprparse.Program(
            tuple(e for n in names for e in cfg.sampling[n]), consts=cfg.params)
        try:
            values = exprparse.evaluate(bounds, [()])
        except EvalError as exc:
            raise ConfigError(f"[sampling] bound cannot be evaluated: {exc}")
        box = tuple(zip(values[::2], values[1::2]))
        for n, (lo, hi) in zip(names, box):
            if not np.isfinite(hi - lo):
                raise ConfigError(f"[sampling] box of {n} is not finite: "
                                  f"({lo:g}, {hi:g})")

    return MetricSpec(
        name=cfg.name,
        component_fn=comp,
        domain_guard=guard,
        chart_id=chart_id,
        params=dict(cfg.params),
        sample_box=box,
    )
